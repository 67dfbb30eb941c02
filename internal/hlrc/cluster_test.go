package hlrc

import (
	"sync"
	"testing"

	"sdsm/internal/simtime"
	"sdsm/internal/transport"
)

// testCluster spins up n nodes with round-robin homes and NopHooks, runs
// prog on every node concurrently, and returns the nodes for inspection.
func testCluster(t *testing.T, n, numPages, pageSize int, prog func(nd *Node)) []*Node {
	t.Helper()
	return runCluster(t, Config{N: n, NumPages: numPages, PageSize: pageSize}, prog)
}

// runCluster is testCluster with the rest of base (HomeUndo) given too.
func runCluster(t *testing.T, base Config, prog func(nd *Node)) []*Node {
	t.Helper()
	n := base.N
	model := simtime.DefaultCostModel()
	nw := transport.NewNetwork(n, model)
	homes := make([]int, base.NumPages)
	for i := range homes {
		homes[i] = i % n
	}
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		cfg := base
		cfg.ID, cfg.Homes, cfg.Model = i, homes, model
		nodes[i] = NewNode(cfg, nw, simtime.NewClock(0), nil, nil)
		nodes[i].StartService()
	}
	var wg sync.WaitGroup
	errs := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { errs[i] = recover() }()
			prog(nodes[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		nodes[i].StopService()
		if errs[i] != nil {
			t.Fatalf("node %d panicked: %v", i, errs[i])
		}
	}
	return nodes
}

func TestBarrierProducerConsumer(t *testing.T) {
	const n, pages, psz = 4, 8, 256
	nodes := testCluster(t, n, pages, psz, func(nd *Node) {
		if nd.ID() == 0 {
			// Write a recognizable value into every page.
			for p := 0; p < pages; p++ {
				nd.WriteI64(p*psz, int64(1000+p))
			}
		}
		nd.Barrier(0)
		for p := 0; p < pages; p++ {
			if got := nd.ReadI64(p * psz); got != int64(1000+p) {
				panic("stale read after barrier")
			}
		}
		nd.Barrier(1)
	})
	// Producer's writes were propagated via homes: each non-home page of
	// node 0 produced one diff.
	if nodes[0].Stats().DiffsCreated.Load() == 0 {
		t.Fatal("producer created no diffs")
	}
}

func TestLockCounter(t *testing.T) {
	const n, iters = 4, 10
	nodes := testCluster(t, n, 4, 128, func(nd *Node) {
		for i := 0; i < iters; i++ {
			nd.AcquireLock(1)
			nd.WriteI64(0, nd.ReadI64(0)+1)
			nd.ReleaseLock(1)
		}
		nd.Barrier(0)
		if got := nd.ReadI64(0); got != int64(n*iters) {
			panic("lost update under lock")
		}
	})
	for i, nd := range nodes {
		if got := nd.Stats().LockAcquires.Load(); got != iters {
			t.Fatalf("node %d acquires = %d", i, got)
		}
	}
}

func TestMultipleWriterFalseSharing(t *testing.T) {
	// Two nodes write disjoint halves of the same page between barriers:
	// the multiple-writer protocol must merge both at the home.
	const n = 2
	testCluster(t, n, 2, 256, func(nd *Node) {
		base := 1 * 256 // page 1, homed at node 1
		if nd.ID() == 0 {
			nd.WriteI64(base, 111)
		} else {
			nd.WriteI64(base+128, 222)
		}
		nd.Barrier(0)
		if nd.ReadI64(base) != 111 || nd.ReadI64(base+128) != 222 {
			panic("multiple-writer merge lost an update")
		}
		nd.Barrier(1)
	})
}

func TestVTMatchesNoticeKnowledge(t *testing.T) {
	nodes := testCluster(t, 3, 6, 128, func(nd *Node) {
		for it := 0; it < 3; it++ {
			nd.WriteI64(nd.ID()*128, int64(it))
			nd.Barrier(it)
		}
	})
	for i, nd := range nodes {
		vt := nd.VT()
		know := nd.Notices().Know()
		if !vt.Equal(know) {
			t.Fatalf("node %d: vt %v != notice knowledge %v", i, vt, know)
		}
		// Everyone wrote in 3 intervals.
		for p := 0; p < 3; p++ {
			if vt[p] != 3 {
				t.Fatalf("node %d: vt = %v, want all 3s", i, vt)
			}
		}
	}
}

func TestSingleRoundTripPerMiss(t *testing.T) {
	nodes := testCluster(t, 2, 2, 128, func(nd *Node) {
		if nd.ID() == 0 {
			nd.WriteI64(128, 5) // page 1, homed at node 1
		}
		nd.Barrier(0)
		if nd.ID() == 1 {
			_ = nd.ReadI64(128) // home read: no fault
		} else {
			_ = nd.ReadI64(0) // own home page: no fault
		}
		nd.Barrier(1)
	})
	// Node 0's first write to the (still valid) remote page takes one
	// twin fault but no fetch; nobody ever misses, so no round trips.
	if got := nodes[0].Stats().Faults.Load(); got != 1 {
		t.Fatalf("node 0 faults = %d, want 1 (write fault)", got)
	}
	if got := nodes[0].Stats().PageFetches.Load(); got != 0 {
		t.Fatalf("node 0 fetches = %d, want 0 (page was valid)", got)
	}
	if got := nodes[1].Stats().PageFetches.Load(); got != 0 {
		t.Fatalf("node 1 fetches = %d, want 0 (home access)", got)
	}
}

func TestInvalidationThenFetch(t *testing.T) {
	// Node 1 caches page 0 (homed at 0), node 0 overwrites it, the next
	// barrier invalidates node 1's copy and a fresh read fetches the new
	// value.
	nodes := testCluster(t, 2, 2, 128, func(nd *Node) {
		if nd.ID() == 1 {
			if nd.ReadI64(0) != 0 {
				panic("initial image not zero")
			}
		}
		nd.Barrier(0)
		if nd.ID() == 0 {
			nd.WriteI64(0, 42) // home write: no diff, no fault
		}
		nd.Barrier(1)
		if nd.ReadI64(0) != 42 {
			panic("stale value after invalidation")
		}
		nd.Barrier(2)
	})
	// Node 0's home write produced no diff and no twin.
	s := nodes[0].Stats()
	if s.DiffsCreated.Load() != 0 || s.TwinsCreated.Load() != 0 {
		t.Fatalf("home write made diffs=%d twins=%d", s.DiffsCreated.Load(), s.TwinsCreated.Load())
	}
	// But node 1 still learned of it and refetched.
	if nodes[1].Stats().PageFetches.Load() != 1 {
		t.Fatalf("node 1 fetches = %d, want 1", nodes[1].Stats().PageFetches.Load())
	}
}

func TestEarlyCloseOnDirtyInvalidation(t *testing.T) {
	// Node 0 dirties the low half of page 1 (homed at node 1) under lock
	// 1 while node 1 dirties the high half under lock 2 and releases.
	// Node 0 then acquires lock 2: its grant carries the notice for page
	// 1 while the page is still dirty locally, forcing the early close
	// (the false-sharing path of the multiple-writer protocol).
	// The `ready` channel imposes real-time ordering so the notice can
	// only travel via lock 2's grant.
	ready := make(chan struct{})
	dirtied := make(chan struct{})
	nodes := testCluster(t, 2, 2, 256, func(nd *Node) {
		base := 256 // page 1
		if nd.ID() == 1 {
			<-dirtied // node 0 already dirtied its half
			nd.AcquireLock(2)
			nd.WriteI64(base+128, 7) // home write at node 1
			nd.ReleaseLock(2)
			close(ready)
			nd.Barrier(0)
		} else {
			nd.AcquireLock(1)
			nd.WriteI64(base, 3) // dirty remote page 1
			close(dirtied)
			<-ready
			nd.AcquireLock(2) // grant invalidates dirty page 1 -> early close
			if nd.ReadI64(base+128) != 7 || nd.ReadI64(base) != 3 {
				panic("early close lost an update")
			}
			nd.ReleaseLock(2)
			nd.ReleaseLock(1)
			nd.Barrier(0)
		}
	})
	if nodes[0].Stats().EarlyCloses.Load() != 1 {
		t.Fatalf("early closes = %d, want 1", nodes[0].Stats().EarlyCloses.Load())
	}
}

func TestBarrierExitTimesConsistent(t *testing.T) {
	nodes := testCluster(t, 4, 4, 128, func(nd *Node) {
		// Skew the nodes' compute times heavily.
		nd.Compute(float64(nd.ID()) * 1e6)
		nd.Barrier(0)
	})
	// Every exit time must be at least the slowest node's arrival time.
	var maxArrival simtime.Time
	for _, nd := range nodes {
		arr := simtime.Time(nd.Model().FlopsTime(float64(nd.ID()) * 1e6))
		if arr > maxArrival {
			maxArrival = arr
		}
	}
	for i, nd := range nodes {
		if nd.Clock().Now() < maxArrival {
			t.Fatalf("node %d exited barrier at %v, before slowest arrival %v", i, nd.Clock().Now(), maxArrival)
		}
	}
}

func TestReleaseUnheldLockPanics(t *testing.T) {
	model := simtime.DefaultCostModel()
	nw := transport.NewNetwork(1, model)
	nd := NewNode(Config{ID: 0, N: 1, PageSize: 128, NumPages: 1, Homes: []int{0}, Model: model}, nw, simtime.NewClock(0), nil, nil)
	nd.StartService()
	defer nd.StopService()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	nd.ReleaseLock(3)
}

func TestOutOfBoundsAccessPanics(t *testing.T) {
	model := simtime.DefaultCostModel()
	nw := transport.NewNetwork(1, model)
	nd := NewNode(Config{ID: 0, N: 1, PageSize: 128, NumPages: 1, Homes: []int{0}, Model: model}, nw, simtime.NewClock(0), nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	nd.ReadI64(128)
}

func TestBulkAccessSpansPages(t *testing.T) {
	testCluster(t, 2, 4, 64, func(nd *Node) {
		if nd.ID() == 0 {
			buf := make([]byte, 200) // spans pages 0..3
			for i := range buf {
				buf[i] = byte(i)
			}
			nd.WriteAt(20, buf)
		}
		nd.Barrier(0)
		got := make([]byte, 200)
		nd.ReadAt(20, got)
		for i := range got {
			if got[i] != byte(i) {
				panic("bulk read mismatch")
			}
		}
		nd.Barrier(1)
	})
}

func TestFloatAccess(t *testing.T) {
	testCluster(t, 2, 2, 128, func(nd *Node) {
		if nd.ID() == 0 {
			nd.WriteF64(8, 3.14159)
		}
		nd.Barrier(0)
		if nd.ReadF64(8) != 3.14159 {
			panic("float round trip")
		}
		nd.Barrier(1)
	})
}
