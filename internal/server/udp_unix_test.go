//go:build unix

package server

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"softrate/internal/linkstore"
)

// TestUDPBurstDrainsQueuedDatagrams queues several datagrams on the
// socket before the server's first read, so the first burst must drain
// them together: fewer bursts than datagrams, and every answer still
// matches the in-process service.
func TestUDPBurstDrainsQueuedDatagrams(t *testing.T) {
	remote := New(Config{Store: linkstore.Config{Shards: 16}})
	local := New(Config{Store: linkstore.Config{Shards: 16}})
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	const queued = 8
	cli, err := DialUDP(conn.LocalAddr().String(), queued, 2*time.Second)
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	defer cli.Close()

	rng := rand.New(rand.NewSource(9))
	batches := make([][]linkstore.Op, queued)
	pending := make([]*UDPPending, queued)
	for s := range batches {
		batches[s] = randOps(rng, 16, 40)
		for j := range batches[s] {
			batches[s][j].LinkID += uint64(s) * 1000 // disjoint links per datagram
		}
		if pending[s], err = cli.Submit(batches[s]); err != nil {
			conn.Close()
			t.Fatal(err)
		}
	}

	done := make(chan error, 1)
	go func() { done <- remote.ServeUDP(conn) }()
	t.Cleanup(func() {
		remote.Close()
		if err := <-done; err != nil {
			t.Errorf("ServeUDP: %v", err)
		}
	})

	got := make([]int32, 16)
	want := make([]int32, 16)
	for s := range batches {
		res, ok, err := cli.Wait(pending[s], got)
		if err != nil || !ok {
			t.Fatalf("datagram %d: ok=%v err=%v", s, ok, err)
		}
		local.Decide(batches[s], want)
		for i := range res {
			if res[i] != want[i] {
				t.Fatalf("datagram %d op %d: UDP %d != in-process %d", s, i, res[i], want[i])
			}
		}
	}
	u := remote.Status().UDP
	if u.DatagramsRx != queued {
		t.Fatalf("server received %d datagrams, want %d", u.DatagramsRx, queued)
	}
	if u.Bursts >= u.DatagramsRx {
		t.Fatalf("%d queued datagrams took %d bursts: the drain phase read none of them", u.DatagramsRx, u.Bursts)
	}
}
