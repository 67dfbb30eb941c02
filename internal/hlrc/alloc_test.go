package hlrc

import (
	"runtime"
	"runtime/debug"
	"testing"

	"sdsm/internal/racedetect"
)

// allocsWithoutGC is testing.AllocsPerRun with the collector held off
// while it counts. Twins and page copies still come from arena's
// sync.Pools; a collection empties them, and refilling them allocates, so
// a collection inside the measured window would count as the operation's
// cost.
func allocsWithoutGC(runs int, f func()) float64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// TestSyncAllocations pins what the protocol's three round trips cost
// the heap on the sim backend, counted across every goroutine they touch
// (the manager's and the home's service loops included), warm. A round
// trip itself allocates nothing (transport.TestCallAllocations), the
// arrival fence reads only clocks, counters and the manager's published
// bound, and the manager's queue of held messages is a reused slice.
// What is left are the payloads, and those are cut from 512-byte slab
// blocks (DESIGN.md §2.8): a message costs a fraction of an allocation,
// so each case counts a batch of 64 operations, not one, and the pins
// stay above the integer rounding testing.AllocsPerRun applies. The
// remote write sends one small diff per release, its body cut from the
// writer's page table slab; the full-page write sends a 4 104-byte body,
// cut from the table's 32 KiB chunks (98 per 64 with each body made on
// its own). One barrier case reuses barrier 0 and the other counts up, as
// the kernels do: the manager fills one round at a time and keeps nothing
// per barrier number (222 per 64 with a round state made per number).
// The last case writes a home page another node has just fetched: a page
// reply carries no version vector, so the release updates the page's
// vector in place. The cases count with the collector held off
// (allocsWithoutGC). All cases together take about 0.07 s.
func TestSyncAllocations(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	nodes := benchCluster(2, 2, 4096)
	defer stopAll(nodes)
	nd, peer := nodes[1], nodes[0]

	// The peer takes its part of each barrier round on a goroutine of its
	// own, started once: channel hand-offs allocate nothing.
	round, roundDone, exited := make(chan int), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for b := range round {
			peer.Barrier(b)
			roundDone <- struct{}{}
		}
	}()
	barrier := func(b int) {
		round <- b
		nd.Barrier(b)
		<-roundDone
	}
	fresh := 0
	page := make([]float64, 4096/8)
	defer func() {
		close(round)
		<-exited
	}()

	const batch = 64
	cases := []struct {
		name string
		op   func()
		want float64
		what string
	}{
		{"lock acquire+release", func() {
			nd.AcquireLock(1)
			nd.ReleaseLock(1)
		}, 18, "a LockReq block holds 16, a LockGrant or LockRelease block 9: 4 + 7 + 7"},
		{"remote write acquire+release", func() {
			nd.AcquireLock(1)
			nd.WriteI64(0, nd.ReadI64(0)+1) // one word of a page homed at the peer
			nd.ReleaseLock(1)
		}, 35, "the pair (18), then the interval's 12-byte diff bodies (a block holds 42), DiffUpdates, diff lists, page lists, notices and clock copies"},
		{"remote full-page write acquire+release", func() {
			for i := range page {
				page[i]++
			}
			nd.AcquireLock(1)
			nd.WriteF64s(0, page) // the whole of a page homed at the peer
			nd.ReleaseLock(1)
		}, 46, "the pair (18), the interval's 4 104-byte diff bodies (a 32 KiB chunk holds 7), DiffUpdates, diff lists, page lists, notices and clock copies"},
		{"barrier round", func() { barrier(0) },
			30, "a BarrierCheckin block holds 9 (7 per node), a BarrierRelease block serves 4 two-node rounds (16)"},
		{"barrier round, fresh number", func() {
			fresh++
			barrier(fresh)
		}, 30, "as above: the manager keeps no state per barrier number"},
		{"remote page fetch", func() {
			nd.PageTable().Invalidate(0) // homed at the peer
			nd.ReadI64(0)
		}, 3, "a PageReply block holds 21; the PageReq is the page's constant and the page buffer is recycled"},
		{"serve then home write", func() {
			peer.PageTable().Invalidate(1) // homed at nd
			peer.ReadI64(4096)
			nd.AcquireLock(1)
			nd.WriteI64(4096, peer.ReadI64(4096)+1)
			nd.ReleaseLock(1)
		}, 28, "the above (3 + 18), the release's notice (a block holds 16), the interval's page list and the clocks' copies"},
	}
	for _, c := range cases {
		ops := func() {
			for range batch {
				c.op()
			}
		}
		ops() // warm the maps, slot tables and arena
		got := allocsWithoutGC(20, ops)
		t.Logf("%s: %v allocs per %d", c.name, got, batch)
		if got > c.want {
			t.Errorf("%s: %v allocs per %d, want <= %v (%s)", c.name, got, batch, c.want, c.what)
		}
	}
}
