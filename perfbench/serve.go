package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"softrate/internal/coldstore"
	"softrate/internal/linkstore"
	"softrate/internal/server"
)

// Serving workload shapes. The numbers are part of the benchmark's
// definition: changing any of them changes what every recorded result
// means.
const (
	servingClients = 2 // closed-loop clients, each owning disjoint links

	// serve-tcp / serve-udp: SoftRate feedback from a few thousand hot
	// links; TCP sends 128-record batches pipelined 8 deep, UDP 8-record
	// datagrams 16 in flight per client.
	hotLinksPerClient = 2048
	tcpBatch          = 128
	tcpDepth          = 8
	udpBatch          = 8
	udpWindow         = 16
	hotStreamOps      = 1 << 20 // ops per client before the stream wraps

	// serve-churn: ~200k hot links, and an idle population three times
	// DefaultColdFront that recurs once per stream lap.
	churnHot   = 100_000
	churnIdle  = 3 * linkstore.DefaultColdFront / servingClients
	churnBatch = 128
	churnIdleN = 16
	// churnOpNanos is the virtual time one op advances the store clock.
	// The TTL is therefore counted in ops, not wall time: a hot link
	// recurs every ~230k ops, an idle link every ~1.6M, so with an 800k-op
	// TTL every idle touch is an eviction followed by a restore, on any
	// host at any speed.
	churnOpNanos = 1000
	churnTTL     = 800 * time.Millisecond

	// Open-loop offered rates, about a fifth of the closed-loop capacity
	// each workload measured on a 2-CPU host. Fixed, so latency is always
	// taken at the same load.
	tcpOpenRate   = 500_000 // decisions/s
	udpOpenRate   = 100_000
	churnOpenRate = 150_000

	// maxLate bounds how late the open-loop generator may start its
	// median batch before the run is refused as not having offered the
	// load. (Its p99 lateness includes waits behind a stalled service and
	// is reported, not bounded.)
	maxLate = 2 * time.Millisecond
)

// endpoint is one client's view of the service under test: submit
// enqueues a batch without waiting, wait blocks for the oldest
// outstanding batch and writes its decisions to out.
type endpoint interface {
	submit(ops []linkstore.Op) error
	wait(out []byte) error
	close()
}

// errLost marks a batch the transport gave up on (a UDP timeout): its
// decisions are missing and count as failed.
var errLost = errors.New("decision lost")

// target is one set-up instance of the service: a server and how
// clients reach it.
type target struct {
	srv   *server.Server
	dial  func() (endpoint, error)
	stop  func()
	cold  *coldstore.Store
	io    *ioStats
	clock *atomic.Int64 // virtual ops counter (serve-churn), nil otherwise
}

// servingWorkload describes one serve-* workload.
type servingWorkload struct {
	name     string
	batch    int
	window   int
	openRate float64
	streams  func(seed int64) []*stream
	build    func(dir string) (*target, error)
	warm     func(s *stream) int // batches each client sends during set-up
	// setups is how many times set-up runs; setup_s is the median. Cheap
	// set-ups repeat more, since a few milliseconds are noisier.
	setups int
}

func servingWorkloads() map[string]*servingWorkload {
	hot := hotSpec{links: hotLinksPerClient, zipfS: 1.1}
	return map[string]*servingWorkload{
		"serve-tcp": {
			name: "serve-tcp", batch: tcpBatch, window: tcpDepth, openRate: tcpOpenRate,
			streams: func(seed int64) []*stream {
				hs := hot
				hs.batch, hs.n = tcpBatch, hotStreamOps/tcpBatch
				pool := newTracePool(seed)
				return genStreams(servingClients, func(c int) *stream { return genHot(seed, c, hs, pool) })
			},
			build: buildTCP, setups: 9,
			warm: func(s *stream) int { return 4 * hotLinksPerClient / tcpBatch },
		},
		"serve-udp": {
			name: "serve-udp", batch: udpBatch, window: udpWindow, openRate: udpOpenRate,
			streams: func(seed int64) []*stream {
				hs := hot
				hs.batch, hs.n = udpBatch, hotStreamOps/udpBatch
				pool := newTracePool(seed)
				return genStreams(servingClients, func(c int) *stream { return genHot(seed, c, hs, pool) })
			},
			build: buildUDP, setups: 9,
			warm: func(s *stream) int { return 4 * hotLinksPerClient / udpBatch },
		},
		"serve-churn": {
			name: "serve-churn", batch: churnBatch, window: 1, openRate: churnOpenRate,
			streams: func(seed int64) []*stream {
				cs := churnSpec{hot: churnHot, idle: churnIdle, batch: churnBatch, idleN: churnIdleN}
				pool := newTracePool(seed)
				return genStreams(servingClients, func(c int) *stream { return genChurn(seed, c, cs, pool) })
			},
			build: buildChurn, setups: 3,
			// One whole idle walk: every idle link exists, has idled out
			// and sits in the RAM front or on disk before timing starts.
			warm: func(s *stream) int { return s.batches() },
		},
	}
}

// genStreams builds the per-client streams concurrently (generation is
// part of neither set-up nor the timed region).
func genStreams(n int, gen func(c int) *stream) []*stream {
	out := make([]*stream, n)
	var wg sync.WaitGroup
	for c := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[c] = gen(c)
		}()
	}
	wg.Wait()
	return out
}

// --- targets ---

func buildTCP(string) (*target, error) {
	srv := server.New(server.Config{Store: linkstore.Config{ExpectedLinks: servingClients * hotLinksPerClient}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	addr := ln.Addr().String()
	return &target{
		srv: srv,
		dial: func() (endpoint, error) {
			c, err := server.DialPipelined(addr, tcpDepth)
			if err != nil {
				return nil, err
			}
			return &tcpEndpoint{c: c}, nil
		},
		stop: func() { srv.Close(); <-done },
	}, nil
}

type tcpEndpoint struct {
	c    *server.Client
	fifo []*server.Pending
	out  []int32
}

func (s *tcpEndpoint) submit(ops []linkstore.Op) error {
	p, err := s.c.Submit(ops)
	if err != nil {
		return err
	}
	s.fifo = append(s.fifo, p)
	return nil
}

func (s *tcpEndpoint) wait(out []byte) error {
	p := s.fifo[0]
	s.fifo = s.fifo[:copy(s.fifo, s.fifo[1:])]
	if cap(s.out) < len(out) {
		s.out = make([]int32, len(out))
	}
	got, err := s.c.Wait(p, s.out[:len(out)])
	if err != nil {
		return err
	}
	for i, r := range got {
		out[i] = byte(r)
	}
	return nil
}

func (s *tcpEndpoint) close() { s.c.Close() }

func buildUDP(string) (*target, error) {
	srv := server.New(server.Config{Store: linkstore.Config{ExpectedLinks: servingClients * hotLinksPerClient}})
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ServeUDP(conn) }()
	addr := conn.LocalAddr().String()
	return &target{
		srv: srv,
		dial: func() (endpoint, error) {
			// A loopback round trip is tens of microseconds; a second
			// only expires for a datagram that was really lost.
			c, err := server.DialUDP(addr, udpWindow, time.Second)
			if err != nil {
				return nil, err
			}
			return &udpEndpoint{c: c}, nil
		},
		stop: func() { srv.Close(); <-done },
	}, nil
}

type udpEndpoint struct {
	c     *server.UDPClient
	fifo  []*server.UDPPending
	out   []int32
	stats server.UDPClientStats
}

func (s *udpEndpoint) submit(ops []linkstore.Op) error {
	p, err := s.c.Submit(ops)
	if err != nil {
		return err
	}
	s.fifo = append(s.fifo, p)
	return nil
}

func (s *udpEndpoint) wait(out []byte) error {
	p := s.fifo[0]
	s.fifo = s.fifo[:copy(s.fifo, s.fifo[1:])]
	if cap(s.out) < len(out) {
		s.out = make([]int32, len(out))
	}
	got, ok, err := s.c.Wait(p, s.out[:len(out)])
	if err != nil {
		return err
	}
	if !ok {
		return errLost
	}
	for i, r := range got {
		out[i] = byte(r)
	}
	return nil
}

func (s *udpEndpoint) close() { s.stats = s.c.Stats(); s.c.Close() }

// buildChurn sets up the in-process store with a disk cold tier in dir.
// The store clock is virtual (see churnOpNanos): each Decide advances it
// by its batch size before the call.
func buildChurn(dir string) (*target, error) {
	io := &ioStats{}
	cold, err := coldstore.Open(coldstore.Config{Dir: dir, FS: &timingFS{st: io}})
	if err != nil {
		return nil, fmt.Errorf("open cold tier: %w", err)
	}
	clock := new(atomic.Int64)
	srv := server.New(server.Config{Store: linkstore.Config{
		TTL:                  churnTTL,
		Clock:                func() int64 { return clock.Load() * churnOpNanos },
		Cold:                 cold,
		ExpectedLinks:        servingClients * churnHot,
		ExpectedLinksPerAlgo: servingClients * churnHot / 4,
	}})
	return &target{
		srv: srv, cold: cold, io: io, clock: clock,
		dial: func() (endpoint, error) { return &inprocEndpoint{srv: srv, clock: clock}, nil },
		stop: func() {
			srv.Close()
			cold.Close()
			os.RemoveAll(dir)
		},
	}, nil
}

type inprocEndpoint struct {
	srv   *server.Server
	clock *atomic.Int64
	ops   []linkstore.Op
	out   []int32
}

func (s *inprocEndpoint) submit(ops []linkstore.Op) error { s.ops = ops; return nil }

func (s *inprocEndpoint) wait(out []byte) error {
	if cap(s.out) < len(out) {
		s.out = make([]int32, len(out))
	}
	s.clock.Add(int64(len(s.ops)))
	got := s.srv.Decide(s.ops, s.out[:len(out)])
	for i, r := range got {
		out[i] = byte(r)
	}
	return nil
}

func (s *inprocEndpoint) close() {}

// --- driving ---

// lostAnswer stands in the answer log for a decision that never came.
const lostAnswer = 0xff

// client is one client's stream position and answer log: answers[i] is
// the decision the service gave for stream op i.
type client struct {
	s       *stream
	ep      endpoint
	next    int // next batch to submit
	answers []byte
	failed  int // ops whose batch was lost or errored
}

// record logs answers given in-process (the traced run's rungs on the
// served instance).
func (c *client) record(got []int32) {
	for _, r := range got {
		c.answers = append(c.answers, byte(r))
	}
}

// tick advances a virtual store clock by n ops (no-op for wall-clock
// targets).
func (tg *target) tick(n int) {
	if tg.clock != nil {
		tg.clock.Add(int64(n))
	}
}

// roundHook observes one batch's submit and answer times (traced runs).
type roundHook func(submitted, answered int64)

// collect waits for the oldest outstanding batch and logs its answers; a
// lost batch logs lostAnswer for each op and counts them failed.
func (c *client) collect() error {
	n := c.s.batch
	c.answers = append(c.answers, make([]byte, n)...)
	dst := c.answers[len(c.answers)-n:]
	if err := c.ep.wait(dst); err != nil {
		for i := range dst {
			dst[i] = lostAnswer
		}
		c.failed += n
		if !errors.Is(err, errLost) {
			return err
		}
	}
	return nil
}

// pump keeps up to window batches in flight, submitting the stream's next
// batch while more() holds, and returns once everything submitted has
// been answered.
func (c *client) pump(window int, more func() bool, hook roundHook) error {
	var sent []int64
	inflight := 0
	for {
		for inflight < window && more() {
			if hook != nil {
				sent = append(sent, nanotime())
			}
			if err := c.ep.submit(c.s.batchAt(c.next)); err != nil {
				return err
			}
			c.next++
			inflight++
		}
		if inflight == 0 {
			return nil
		}
		if err := c.collect(); err != nil {
			return err
		}
		inflight--
		if hook != nil {
			hook(sent[0], nanotime())
			sent = sent[:copy(sent, sent[1:])]
		}
	}
}

// openLoop offers batches at a fixed rate for dur from one generator
// that takes the clients' streams in turn, so every client's links stay
// live as in the closed loop. Batch i is due at t0 + i/rate; the
// generator spins (yielding) to each due time, submits, and waits for
// the answer. A batch's latency runs from its due time, so a stall that
// delays later batches is charged to them too; late is how far behind
// its schedule the generator started each batch.
func openLoop(clients []*client, batchesPerSec float64, dur time.Duration) (lat, late []time.Duration, err error) {
	interval := time.Duration(float64(time.Second) / batchesPerSec)
	n := int(dur / interval)
	lat = make([]time.Duration, 0, n)
	late = make([]time.Duration, 0, n)
	t0 := time.Now().Add(time.Millisecond)
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(i) * interval)
		now := time.Now()
		for now.Before(due) {
			runtime.Gosched()
			now = time.Now()
		}
		late = append(late, now.Sub(due))
		c := clients[i%len(clients)]
		if err := c.ep.submit(c.s.batchAt(c.next)); err != nil {
			return lat, late, err
		}
		c.next++
		if err := c.collect(); err != nil {
			return lat, late, err
		}
		lat = append(lat, time.Since(due))
	}
	return lat, late, nil
}

var epoch = time.Now()

// nanotime is a monotonic clock reading for spans.
func nanotime() int64 { return int64(time.Since(epoch)) }

// setUp builds the target and prewarms it: every client sends its warm
// batches (they are part of the checked sequence) and logs its answers
// into logs[i], reused from length 0. It returns the target, its clients
// and the wall time it took.
func (w *servingWorkload) setUp(streams []*stream, logs [][]byte, scratch string, rep int) (*target, []*client, time.Duration, error) {
	t0 := time.Now()
	dir := filepath.Join(scratch, fmt.Sprintf("cold-%d-%d", os.Getpid(), rep))
	tg, err := w.build(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	clients := make([]*client, len(streams))
	for i, s := range streams {
		ep, err := tg.dial()
		if err != nil {
			closeAll(clients)
			tg.stop()
			return nil, nil, 0, fmt.Errorf("dial: %w", err)
		}
		clients[i] = &client{s: s, ep: ep, answers: logs[i][:0]}
	}
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			limit := w.warm(c.s)
			errs[i] = c.pump(w.window, func() bool { return c.next < limit }, nil)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		closeAll(clients)
		tg.stop()
		return nil, nil, 0, fmt.Errorf("prewarm: %w", err)
	}
	return tg, clients, time.Since(t0), nil
}

func closeAll(cs []*client) {
	for _, c := range cs {
		if c != nil {
			c.ep.close()
		}
	}
}

// quantile returns the q-quantile of sorted durations (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// heapMiB returns the live heap: allocated bytes right after two
// collections (the second empties sync.Pool victim caches).
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// windowLen is one measurement window. The timed region alternates
// closed-loop and open-loop windows of this length, and each metric is
// the median over its windows, so a host hiccup spoils one window
// rather than the run, and slow drift (a growing cold tier) reaches both
// loops alike.
const windowLen = 500 * time.Millisecond

// measured is what one timed serving run observed.
type measured struct {
	decisionsPerSec float64       // median over closed windows
	p50, p90, p99   time.Duration // medians over open windows
	closedOps       int
	openBatches     int
	late            []time.Duration // generator lateness, all windows, sorted
	rates           []float64       // per closed window
}

// timedPhases alternates closed-loop and open-loop windows until secs
// seconds have passed, half in each.
func (w *servingWorkload) timedPhases(clients []*client, secs int) (measured, error) {
	var m measured
	var p50s, p90s, p99s []time.Duration
	windows := max(1, int(time.Duration(secs)*time.Second/(2*windowLen)))
	for k := 0; k < windows; k++ {
		ops, wall, err := closedWindow(clients, w.window, windowLen, nil)
		if err != nil {
			return m, fmt.Errorf("closed loop: %w", err)
		}
		m.closedOps += ops
		m.rates = append(m.rates, float64(ops)/wall.Seconds())

		lat, late, err := openLoop(clients, w.openRate/float64(w.batch), windowLen)
		if err != nil {
			return m, fmt.Errorf("open loop: %w", err)
		}
		sortDurations(lat)
		p50s = append(p50s, quantile(lat, 0.50))
		p90s = append(p90s, quantile(lat, 0.90))
		p99s = append(p99s, quantile(lat, 0.99))
		m.openBatches += len(lat)
		m.late = append(m.late, late...)
	}
	rates := append([]float64(nil), m.rates...)
	sort.Float64s(rates)
	m.decisionsPerSec = rates[len(rates)/2]
	for _, d := range [][]time.Duration{p50s, p90s, p99s} {
		sortDurations(d)
	}
	m.p50, m.p90, m.p99 = p50s[len(p50s)/2], p90s[len(p90s)/2], p99s[len(p99s)/2]
	sortDurations(m.late)
	return m, nil
}

// closedWindow runs every client's closed loop for dur and returns the
// ops answered and the wall time until the last answer.
func closedWindow(clients []*client, window int, dur time.Duration, hook func(c int) roundHook) (int, time.Duration, error) {
	var stop atomic.Bool
	errs := make([]error, len(clients))
	counts := make([]int, len(clients))
	var wg sync.WaitGroup
	t0 := time.Now()
	timer := time.AfterFunc(dur, func() { stop.Store(true) })
	defer timer.Stop()
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var h roundHook
			if hook != nil {
				h = hook(i)
			}
			before := len(c.answers)
			errs[i] = c.pump(window, func() bool { return !stop.Load() }, h)
			counts[i] = len(c.answers) - before
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	n := 0
	for _, c := range counts {
		n += c
	}
	return n, wall, errors.Join(errs...)
}

// setUpMedian builds the target w.setups times, tearing down all but the
// last, and returns the last with the median set-up time.
func (w *servingWorkload) setUpMedian(streams []*stream, scratch string) (*target, []*client, float64, error) {
	// Answer logs are allocated once, outside the timed set-up; sized for
	// a 20 s run of the fastest workload without regrowing.
	logs := make([][]byte, len(streams))
	for i := range logs {
		logs[i] = make([]byte, 0, 32<<20)
	}
	var times []float64
	for rep := 0; ; rep++ {
		// Every rep starts from the same stream position with a fresh
		// server, so the kept one's answer log covers the whole sequence.
		tg, clients, d, err := w.setUp(streams, logs, scratch, rep)
		if err != nil {
			return nil, nil, 0, err
		}
		times = append(times, d.Seconds())
		if rep == w.setups-1 {
			sort.Float64s(times)
			return tg, clients, times[len(times)/2], nil
		}
		closeAll(clients)
		tg.stop()
	}
}

// verify replays every client's stream through the oracle and counts the
// decisions that were lost or differ from the reference.
func verify(clients []*client, rep *report) {
	o := newOracle()
	var checked, mismatched, lost, repeats, closed int
	for _, c := range clients {
		v := o.check(c.s, c.answers)
		checked += v.checked
		mismatched += v.mismatched
		repeats += v.repeats
		closed += v.closed
		lost += c.failed
		if v.first != "" {
			rep.info("first mismatch: %s", v.first)
		}
	}
	rep.Attempted = int64(checked)
	rep.Failed = int64(mismatched + lost)
	rep.Correct = rep.Failed == 0
	rep.info("verified %d decisions against bare controllers: %d mismatched, %d lost", checked, mismatched, lost)
	rep.info("closed loop: %.1f%% of %d ops after a link's first were sent at the rate the reference chose on the link's previous op",
		100*float64(closed)/float64(max(1, repeats)), repeats)
	rep.info("failed_frac = %.6g ratio", float64(rep.Failed)/float64(max(1, rep.Attempted)))
}

// runServing is a serve-* workload's end-to-end run.
func runServing(w *servingWorkload, opt options, rep *report) error {
	streams := w.streams(opt.seed)
	rep.Host.StreamDigest = digest(streams)
	scratch, err := scratchDir(opt)
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	tg, clients, setup, err := w.setUpMedian(streams, scratch)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			closeAll(clients)
			tg.stop()
		}
	}()
	coldBefore := coldSnap(tg)
	steal0, total0 := cpuTicks()
	m, err := w.timedPhases(clients, opt.seconds)
	if err != nil {
		return err
	}
	steal1, total1 := cpuTicks()
	rep.info("host steal during the timed region: %.2f%% of CPU time", 100*float64(steal1-steal0)/float64(max(1, total1-total0)))
	if err := w.guard(tg, coldBefore, m); err != nil {
		return fmt.Errorf("%w (closed loop %.0f decisions/s, open-loop p50 %v p99 %v)", err, m.decisionsPerSec, m.p50, m.p99)
	}
	// The server's retained heap: live with it running, minus live once
	// it and every reference to it are gone (the streams and answer logs
	// stay alive across both readings).
	alive := heapMiB()
	closeAll(clients)
	tg.stop()
	stopped = true
	tg = nil
	for _, c := range clients {
		c.ep = nil
	}
	resident := alive - heapMiB()
	rep.set("setup_s", setup, "s")
	rep.set("throughput_per_s", m.decisionsPerSec, "1/s")
	rep.set("latency_p50_us", us(m.p50), "us")
	rep.set("resident_mib", resident, "MiB")
	rep.info("decisions_per_s = %.6g 1/s (closed loop, %d clients, median of %d windows, %d ops)", m.decisionsPerSec, len(clients), len(m.rates), m.closedOps)
	rep.info("open loop: %.0f decisions/s offered, %d batches of %d; latency quantiles are medians over %d windows; latency_p90_us = %.1f us, latency_p99_us = %.1f us",
		w.openRate, m.openBatches, w.batch, len(m.rates), us(m.p90), us(m.p99))
	rep.info("generator late p50 %.1f us, p99 %.1f us", us(quantile(m.late, 0.5)), us(quantile(m.late, 0.99)))
	verify(clients, rep)
	return nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// coldSnap snapshots the cold tier's counters (zero without one).
func coldSnap(tg *target) coldstore.Stats {
	if tg.cold == nil {
		return coldstore.Stats{}
	}
	return tg.cold.Stats()
}

// guard refuses a run whose workload missed the layer it exists to
// load: churn without disk traffic, UDP without multi-datagram bursts,
// or an open loop that did not offer its rate.
func (w *servingWorkload) guard(tg *target, coldBefore coldstore.Stats, m measured) error {
	if late := quantile(m.late, 0.50); late > maxLate {
		return fmt.Errorf("vacuous run: open-loop generator ran %v late at p50 (bound %v): the offered rate was not offered", late, maxLate)
	}
	switch w.name {
	case "serve-churn":
		after := tg.cold.Stats()
		if after.Spills == coldBefore.Spills || after.Restores == coldBefore.Restores {
			return fmt.Errorf("vacuous run: cold tier saw %d spills and %d restores in the timed region",
				after.Spills-coldBefore.Spills, after.Restores-coldBefore.Restores)
		}
	case "serve-udp":
		st := tg.srv.Status().UDP
		if st.Bursts == 0 || st.BurstSizes["1"] == st.Bursts {
			return fmt.Errorf("vacuous run: the UDP burst loop never served more than one datagram per burst")
		}
	}
	return nil
}
