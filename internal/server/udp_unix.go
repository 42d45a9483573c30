//go:build unix

package server

import (
	"net"
	"net/netip"
	"strconv"
	"syscall"
)

// udpDrainer reads the datagrams already queued on a socket without
// blocking: one recvfrom per datagram on the raw descriptor, which the
// runtime keeps in non-blocking mode, so an empty buffer answers EAGAIN
// at once instead of parking the goroutine in the poller. Each drained
// datagram costs one small allocation, the sender's syscall.Sockaddr.
type udpDrainer struct {
	rc   syscall.RawConn
	recv func(fd uintptr) bool // built once: a closure per read would allocate
	buf  []byte
	n    int
	from syscall.Sockaddr
	err  error
}

func newUDPDrainer(conn *net.UDPConn) (*udpDrainer, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	d := &udpDrainer{rc: rc}
	d.recv = func(fd uintptr) bool {
		d.n, d.from, d.err = syscall.Recvfrom(int(fd), d.buf, 0)
		return true // never wait for readiness: an empty buffer ends the drain
	}
	return d, nil
}

// next reads one queued datagram into buf. ok is false when none is
// queued or the read failed; either way the burst is complete.
func (d *udpDrainer) next(buf []byte) (n int, addr netip.AddrPort, ok bool) {
	d.buf = buf
	err := d.rc.Read(d.recv)
	d.buf = nil
	if err != nil || d.err != nil {
		return 0, netip.AddrPort{}, false
	}
	switch sa := d.from.(type) {
	case *syscall.SockaddrInet4:
		return d.n, netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(sa.Port)), true
	case *syscall.SockaddrInet6:
		ip := netip.AddrFrom16(sa.Addr)
		if sa.ZoneId != 0 {
			ip = ip.WithZone(strconv.Itoa(int(sa.ZoneId)))
		}
		return d.n, netip.AddrPortFrom(ip, uint16(sa.Port)), true
	}
	return 0, netip.AddrPort{}, false
}
