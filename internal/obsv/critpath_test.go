package obsv

import (
	"testing"

	"sdsm/internal/simtime"
)

// Two-node scenario with a known attribution: node 0 computes 100ns, then
// blocks 200ns on a page reply served by node 1. The walk must attribute
// 100ns to compute and the remaining 200ns (reply wire time + handler +
// request wire time) to coherence, partitioning the total exactly.
func TestCriticalPathTwoNodeAttribution(t *testing.T) {
	c := NewCollector(2)
	n0, n1 := c.Tracer(0), c.Tracer(1)

	n0.Seg(EvCompute, CatCompute, 0, 100, 0, 0)
	// Request left node 0 at 100; reply was stamped at 250 on node 1 and
	// its wire time makes the wait return at 300.
	n0.Recv(100, 300, 1, 250, 7, 64)

	n1.Seg(EvCompute, CatCompute, 0, 260, 0, 0)
	// The handler span that produced the reply: request from node 0 sent
	// at 100, handled [240, 250], reply stamped 250.
	n1.SvcSpan(TraceCtx{}, EvPageServe, CatCoherence, 240, 250, 0, 100, 3, 64)

	rep, err := c.CriticalPath([]simtime.Time{300, 260})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 300 {
		t.Fatalf("total = %v", rep.Total)
	}
	if rep.Truncated {
		t.Fatal("walk truncated")
	}
	if got := rep.Sum(); got != simtime.Duration(rep.Total) {
		t.Fatalf("attributed %v of %v", got, rep.Total)
	}
	if rep.Dur[CatCompute] != 100 {
		t.Fatalf("compute = %v, want 100 (node 0's segment, via the edge through node 1)", rep.Dur[CatCompute])
	}
	if rep.Dur[CatCoherence] != 200 {
		t.Fatalf("coherence = %v, want 200", rep.Dur[CatCoherence])
	}
	if rep.Share(CatCompute) != 100.0/300 {
		t.Fatalf("compute share = %v", rep.Share(CatCompute))
	}
}

// Gaps with no segment are charged to CatOther rather than dropped, so the
// report always partitions [0, Total].
func TestCriticalPathGapGoesToOther(t *testing.T) {
	c := NewCollector(1)
	c.Tracer(0).Seg(EvCompute, CatCompute, 50, 80, 0, 0)
	rep, err := c.CriticalPath([]simtime.Time{100})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dur[CatCompute] != 30 || rep.Dur[CatOther] != 70 {
		t.Fatalf("compute=%v other=%v, want 30/70", rep.Dur[CatCompute], rep.Dur[CatOther])
	}
	if rep.Sum() != 100 {
		t.Fatalf("sum = %v", rep.Sum())
	}
}

// Crash runs reset the victim's clock, producing overlapping app segments;
// the walker must refuse them instead of emitting garbage.
func TestCriticalPathRejectsOverlappingTimeline(t *testing.T) {
	c := NewCollector(1)
	c.Tracer(0).Seg(EvCompute, CatCompute, 0, 100, 0, 0)
	c.Tracer(0).Seg(EvReplayOp, CatRecovery, 50, 120, 0, 0)
	if _, err := c.CriticalPath([]simtime.Time{120}); err == nil {
		t.Fatal("overlapping timeline must error")
	}
}

func TestCriticalPathWrongTimesLength(t *testing.T) {
	c := NewCollector(2)
	if _, err := c.CriticalPath([]simtime.Time{1}); err == nil {
		t.Fatal("times length mismatch must error")
	}
}
