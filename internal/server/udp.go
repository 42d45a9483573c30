package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"syscall"
	"time"

	"softrate/internal/linkstore"
)

// UDP datagram transport. Each datagram is one self-contained request
// payload — exactly the framings of codec.go with no length prefix (the
// datagram boundary is the frame): the canonical form is the v3 payload
// [0x03][seq u32][28-byte records...], and bare v1/v2 payloads from older
// peers are accepted too. A response datagram echoes the request's seq
// (v3) followed by the uint32 record count and one rate byte per record;
// v1/v2 requests get the count and rates without a seq echo.
//
// The transport is deliberately connectionless and loss-tolerant: rate
// feedback is naturally tolerant of a dropped decision — the sender just
// keeps its current rate for one more frame — so there is no
// retransmission, no ordering guarantee, and no per-peer state on the
// server. A request that never arrives is never answered; a response
// that is lost times out on the client, which treats it as "keep the
// current rate" and moves on. Unlike the TCP Client's sticky poison
// (where a framing error means the stream position is unknowable), a
// lost or malformed datagram cannot desync anything: every datagram
// stands alone.
//
// The server side is an explicit burst loop (see burst.go): block for
// one datagram, then drain — without blocking — whatever else the socket
// buffer already holds, up to BurstSize, route the whole burst through
// one Decide, and write the responses back-to-back. Under load the
// socket buffer refills while a burst is being served, so the per-burst
// amortization sustains itself; an idle socket costs one poll wakeup per
// udpPollInterval.

// udpPollInterval bounds how long the UDP read loop blocks before
// re-checking the draining/closed flags: drains and Close are noticed
// within this interval even if no datagram ever arrives.
const udpPollInterval = 100 * time.Millisecond

// ServeUDP serves the datagram transport on conn until Close or Drain.
// It may run concurrently with Serve (TCP) and other ServeUDP calls on
// other sockets; they all share one store and one lifecycle (the
// connection participates in Drain: the burst in hand is fully answered
// before the loop exits, and everything still unread in the socket
// buffer is — by the transport's loss contract — indistinguishable from
// a datagram lost in flight). Returns nil on orderly shutdown.
func (s *Server) ServeUDP(conn *net.UDPConn) error {
	s.tcp.mu.Lock()
	if s.tcp.closed {
		s.tcp.mu.Unlock()
		return errors.New("server: already closed")
	}
	s.tcp.init()
	if s.tcp.draining.Load() {
		s.tcp.mu.Unlock()
		return nil
	}
	s.tcp.conns[conn] = struct{}{}
	s.tcp.wg.Add(1)
	stop := s.tcp.stop
	startSweeper := s.ttl > 0 && !s.tcp.sweeping
	if startSweeper {
		s.tcp.sweeping = true
		s.tcp.wg.Add(1)
	}
	s.tcp.mu.Unlock()
	if startSweeper {
		go func() {
			defer s.tcp.wg.Done()
			s.sweeper(s.ttl/4+time.Millisecond, stop)
		}()
	}
	defer func() {
		s.tcp.mu.Lock()
		delete(s.tcp.conns, conn)
		s.tcp.mu.Unlock()
		conn.Close()
		s.tcp.wg.Done()
	}()

	drain, err := newUDPDrainer(conn)
	if err != nil {
		return err
	}
	eng := newBurstEngine(s, &s.udp)
	slab := make([]byte, BurstSize*MaxDatagram)
	var addrs [BurstSize]netip.AddrPort
	var sizes [BurstSize]int
	for {
		if s.tcp.draining.Load() {
			return nil
		}
		select {
		case <-stop:
			return nil
		default:
		}
		// Blocking phase: wait (bounded, so flag flips are noticed) for
		// the burst's first datagram.
		conn.SetReadDeadline(time.Now().Add(udpPollInterval))
		n, addr, err := conn.ReadFromUDPAddrPort(slab[:MaxDatagram])
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			if s.tcp.draining.Load() {
				return nil
			}
			select {
			case <-stop:
				return nil
			default:
			}
			return err
		}
		sizes[0], addrs[0] = n, addr
		count := 1
		// Drain phase: everything already queued, without blocking.
		for count < BurstSize {
			n, addr, ok := drain.next(slab[count*MaxDatagram : (count+1)*MaxDatagram])
			if !ok {
				break // empty buffer or a transient error: burst done
			}
			sizes[count], addrs[count] = n, addr
			count++
		}

		// Overload shedding: with the admission gate saturated, drop the
		// whole burst before decoding — no Decide, no responses. Under
		// the transport's loss contract this is indistinguishable from
		// the datagrams being lost in flight (clients time out and keep
		// their rates; crucially, the ops are NOT applied, so answered
		// decisions elsewhere stay byte-identical), and it keeps a
		// datagram flood from queueing unboundedly behind the lossless
		// transports at the gate.
		if s.gateSaturated() {
			s.udp.shed.Add(uint64(count))
			continue
		}
		eng.reset()
		for i := 0; i < count; i++ {
			eng.add(slab[i*MaxDatagram : i*MaxDatagram+sizes[i]]).addr = addrs[i]
		}
		eng.finish()
		for i := range eng.dgrams() {
			d := &eng.dgrams()[i]
			if !d.ok {
				continue
			}
			if _, err := conn.WriteToUDPAddrPort(eng.response(d), d.addr); err != nil {
				s.udp.txErrs.Inc()
				continue
			}
			s.udp.tx.Inc()
		}
	}
}

// UDPClient is a datagram client for the decision service. It is not
// safe for concurrent use; open one per sending goroutine.
//
// Semantics differ from the TCP Client on purpose: there is no sticky
// poison. Datagram loss is normal operation — a Wait that times out
// reports ok=false ("the decision is lost; keep the current rate") and
// the client remains fully usable; late and duplicate responses are
// counted and discarded. Only socket-level failures (the socket closed,
// the kernel refusing the write) surface as errors.
type UDPClient struct {
	conn    *net.UDPConn
	timeout time.Duration
	ring    []UDPPending
	nextSeq uint32
	buf     []byte // encode scratch
	rbuf    []byte // receive scratch

	// DropResponse, when non-nil, is consulted for every response
	// datagram after parsing and before matching; returning true discards
	// it as if the network had dropped it. It exists for loss-injection
	// tests and CI chaos smokes — leave nil in production.
	DropResponse func(seq uint32) bool

	// OnResponse, when non-nil, observes every well-formed response
	// datagram the moment it arrives — before the DropResponse shim and
	// regardless of whether the request is still in flight (late and
	// duplicate responses fire it too). A response existing proves the
	// server APPLIED seq's ops, which is exactly what an exact-replay
	// verifier needs to know: a request the server shed produces no
	// response and never fires the hook. rates is only valid during the
	// call. Leave nil in production.
	OnResponse func(seq uint32, rates []byte)

	stats UDPClientStats
}

// UDPPending is one in-flight datagram request. It is owned by the
// client: valid from the Submit that returned it until its Wait returns.
type UDPPending struct {
	seq      uint32
	n        int
	live     bool
	done     bool
	deadline time.Time
	rates    []byte
}

// Seq is the request's datagram sequence number — the key OnResponse
// reports, so external verifiers can correlate submissions with the
// responses that prove them applied.
func (p *UDPPending) Seq() uint32 { return p.seq }

// UDPClientStats counts the client's datagram fates.
type UDPClientStats struct {
	// Sent and Answered count request datagrams sent and responses
	// matched to an in-flight request.
	Sent     uint64 `json:"sent"`
	Answered uint64 `json:"answered"`
	// Timeouts counts Waits that gave up: each is one decision treated as
	// lost (rate kept). Stale counts responses that arrived after their
	// request had already timed out (late duplicates land here too);
	// Malformed counts undecodable response datagrams. Injected counts
	// responses discarded by the DropResponse shim.
	Timeouts  uint64 `json:"timeouts"`
	Stale     uint64 `json:"stale"`
	Malformed uint64 `json:"malformed"`
	Injected  uint64 `json:"injected"`
}

// Stats returns a snapshot of the client's counters.
func (c *UDPClient) Stats() UDPClientStats { return c.stats }

// DialUDP connects a datagram client. window bounds the requests in
// flight (Submit returns ErrPipelineFull beyond it); timeout is how long
// a Wait listens for a response before declaring the decision lost
// (<= 0 picks 50ms, comfortably above loopback round trips and short
// enough that a lost decision stalls a closed loop only briefly).
func DialUDP(addr string, window int, timeout time.Duration) (*UDPClient, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	if window < 1 {
		window = 1
	}
	if timeout <= 0 {
		timeout = 50 * time.Millisecond
	}
	return &UDPClient{
		conn:    conn,
		timeout: timeout,
		ring:    make([]UDPPending, window),
		rbuf:    make([]byte, MaxDatagram),
	}, nil
}

// Close closes the socket.
func (c *UDPClient) Close() error { return c.conn.Close() }

// Submit encodes one batch as a single v3 datagram and sends it without
// waiting. Returns ErrPipelineFull when the whole window is in flight
// (Wait on one first — possibly timing it out — to free a slot).
func (c *UDPClient) Submit(ops []linkstore.Op) (*UDPPending, error) {
	var p *UDPPending
	for i := range c.ring {
		if !c.ring[i].live {
			p = &c.ring[i]
			break
		}
	}
	if p == nil {
		return nil, ErrPipelineFull
	}
	if err := validate(ops); err != nil {
		return nil, err
	}
	if need := headerSizeV3 + len(ops)*RecordSizeV2; need > MaxDatagram {
		return nil, fmt.Errorf("server: batch of %d records needs %d bytes, above the %d-byte datagram bound", len(ops), need, MaxDatagram)
	}
	seq := c.nextSeq
	c.nextSeq++
	c.buf = AppendOpsV3(c.buf[:0], seq, ops)
	if _, err := c.conn.Write(c.buf); err != nil && !errors.Is(err, syscall.ECONNREFUSED) {
		// ECONNREFUSED is a queued ICMP port-unreachable from an earlier
		// send — the server is down or restarting. Under the loss contract
		// that is a sent-and-lost datagram (the Wait will time out), not a
		// client failure. Anything else is a real socket error.
		return nil, err
	}
	c.stats.Sent++
	p.seq, p.n, p.live, p.done = seq, len(ops), true, false
	p.deadline = time.Now().Add(c.timeout)
	return p, nil
}

// Wait blocks until p's response arrives or p's timeout expires. On a
// response it writes the rate indices to out (at least p's batch size
// long) and returns (out[:n], true, nil). On timeout it returns
// (nil, false, nil): the decision is lost, the caller keeps its current
// rates, and the client remains usable — loss does not poison. While
// waiting it absorbs responses for other in-flight requests (they park
// in their slots), so Wait order is free.
func (c *UDPClient) Wait(p *UDPPending, out []int32) ([]int32, bool, error) {
	if p == nil || !p.live {
		return nil, false, errors.New("server: Wait on a request that is not in flight")
	}
	for !p.done {
		now := time.Now()
		if !now.Before(p.deadline) {
			p.live = false
			c.stats.Timeouts++
			return nil, false, nil
		}
		c.conn.SetReadDeadline(p.deadline)
		n, err := c.conn.Read(c.rbuf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				p.live = false
				c.stats.Timeouts++
				return nil, false, nil
			}
			if errors.Is(err, syscall.ECONNREFUSED) {
				continue // ICMP unreachable: loss, not failure (see Submit)
			}
			return nil, false, err
		}
		c.accept(c.rbuf[:n])
	}
	for i, b := range p.rates {
		out[i] = int32(b)
	}
	p.live = false
	return out[:p.n], true, nil
}

// accept parses one response datagram and parks it in its slot. Anything
// that doesn't match a live request — late, duplicate, malformed — is
// counted and dropped; nothing a peer sends can wedge the client.
func (c *UDPClient) accept(b []byte) {
	if len(b) < 8 {
		c.stats.Malformed++
		return
	}
	seq := binary.LittleEndian.Uint32(b[0:4])
	count := binary.LittleEndian.Uint32(b[4:8])
	if uint64(len(b)-8) != uint64(count) {
		c.stats.Malformed++
		return
	}
	if c.OnResponse != nil {
		c.OnResponse(seq, b[8:])
	}
	if c.DropResponse != nil && c.DropResponse(seq) {
		c.stats.Injected++
		return
	}
	for i := range c.ring {
		q := &c.ring[i]
		if q.live && !q.done && q.seq == seq {
			if int(count) != q.n {
				c.stats.Malformed++
				return
			}
			if cap(q.rates) < q.n {
				q.rates = make([]byte, q.n)
			}
			q.rates = q.rates[:q.n]
			copy(q.rates, b[8:])
			q.done = true
			c.stats.Answered++
			return
		}
	}
	c.stats.Stale++
}

// Decide is Submit immediately followed by its Wait: one stop-and-wait
// exchange with the datagram loss contract (ok=false means the decision
// was lost and the caller should keep its current rates).
func (c *UDPClient) Decide(ops []linkstore.Op, out []int32) ([]int32, bool, error) {
	p, err := c.Submit(ops)
	if err != nil {
		return nil, false, err
	}
	return c.Wait(p, out)
}
