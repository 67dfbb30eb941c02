package hlrc

import (
	"testing"

	"sdsm/internal/racedetect"
)

// TestSyncAllocations pins what the protocol's three round trips cost
// the heap on the sim backend, counted across every goroutine they touch
// (the manager's and the home's service loops included), warm and with
// nothing written, so no notice, diff or merge is involved: what is left
// is the payload structs. The arrival fence reads only clocks, counters
// and the manager's published bound, so it allocates nothing; the
// manager's queue of held messages is a reused slice, so holding a
// message allocates nothing either. The clocks the payloads carry are
// shared, not copied (DESIGN.md §2.8), and a round trip itself allocates
// nothing (transport.TestCallAllocations). The last case writes a home
// page another node has just fetched: a page reply carries no version
// vector, so the release updates the page's vector in place.
func TestSyncAllocations(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	nodes := benchCluster(2, 2, 4096)
	defer stopAll(nodes)
	nd, peer := nodes[1], nodes[0]

	// The peer takes its part of each barrier round on a goroutine of its
	// own, started once: channel hand-offs allocate nothing.
	round, roundDone, exited := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for range round {
			peer.Barrier(0)
			roundDone <- struct{}{}
		}
	}()
	defer func() {
		close(round)
		<-exited
	}()

	cases := []struct {
		name string
		op   func()
		want float64
		what string
	}{
		{"lock acquire+release", func() {
			nd.AcquireLock(1)
			nd.ReleaseLock(1)
		}, 3, "LockReq, LockGrant, LockRelease"},
		{"barrier round", func() {
			round <- struct{}{}
			nd.Barrier(0)
			<-roundDone
		}, 3, "two BarrierCheckins, one BarrierRelease slab"},
		{"remote page fetch", func() {
			nd.PageTable().Invalidate(0) // homed at the peer
			nd.ReadI64(0)
		}, 1, "PageReply; the PageReq is the page's constant and the page buffer is recycled"},
		{"serve then home write", func() {
			peer.PageTable().Invalidate(1) // homed at nd
			peer.ReadI64(4096)
			nd.AcquireLock(1)
			nd.WriteI64(4096, peer.ReadI64(4096)+1)
			nd.ReleaseLock(1)
		}, 8, "PageReply, the three lock payloads, the interval's notice and clock copies"},
	}
	for _, c := range cases {
		for i := 0; i < 50; i++ {
			c.op() // warm the maps, slot tables and arena
		}
		if got := testing.AllocsPerRun(200, c.op); got > c.want {
			t.Errorf("%s: %v allocs, want <= %v (%s)", c.name, got, c.want, c.what)
		}
	}
}
