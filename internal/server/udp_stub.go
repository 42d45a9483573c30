//go:build !unix

package server

import (
	"net"
	"net/netip"
	"time"
)

// aLongTimeAgo is an expired read deadline.
var aLongTimeAgo = time.Unix(1, 0)

// udpDrainer reads with an expired deadline where the raw descriptor is
// not reachable. The runtime poller fails such a read before it looks at
// the socket, so here every burst is a single datagram.
type udpDrainer struct{ conn *net.UDPConn }

func newUDPDrainer(conn *net.UDPConn) (*udpDrainer, error) {
	return &udpDrainer{conn: conn}, nil
}

// next reads one queued datagram into buf; ok is false when none is read.
func (d *udpDrainer) next(buf []byte) (n int, addr netip.AddrPort, ok bool) {
	d.conn.SetReadDeadline(aLongTimeAgo)
	n, addr, err := d.conn.ReadFromUDPAddrPort(buf)
	return n, addr, err == nil
}
