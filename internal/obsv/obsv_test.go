package obsv

import (
	"testing"
)

// The nil tracer is the off switch: every recording method must be free —
// no events, no allocations — so instrumented code can call it
// unconditionally.
func TestNilTracerZeroCost(t *testing.T) {
	var trc *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		trc.Seg(EvCompute, CatCompute, 0, 10, 1, 2)
		trc.Span(EvLockAcquire, 0, 10, 1, 2)
		trc.DiskSpan(EvLogFlush, 0, 10, 1, 2)
		trc.Recv(0, 10, 1, 5, 3, 64)
		trc.RecvDetached(0, 10, 1, 5, 3, 64)
		trc.SvcSpan(TraceCtx{}, EvPageServe, CatCoherence, 0, 10, 1, 5, 3, 64)
		trc.SvcInstant(TraceCtx{}, EvDiffApply, 10, 1, 2)
		trc.Observe(HistFetchLatency, 123)
		if trc.Hist(HistFlushBytes) != nil {
			t.Fatal("nil tracer must expose nil histograms")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %.1f times per run, want 0", allocs)
	}
	if trc.EventCount() != 0 || trc.Events() != nil {
		t.Fatal("nil tracer recorded events")
	}
}

// A nil collector (tracing disabled for the run) must hand out nil tracers
// so the whole pipeline stays on the zero-cost path.
func TestNilCollectorDisablesEverything(t *testing.T) {
	var c *Collector
	if c.Tracer(0) != nil {
		t.Fatal("nil collector must return nil tracers")
	}
	if _, err := c.CriticalPath(nil); err == nil {
		t.Fatal("critical path without a collector must error")
	}
}

func TestTracerRecordsAndFiltersDegenerate(t *testing.T) {
	c := NewCollector(2)
	trc := c.Tracer(1)
	if trc == nil || trc.Node() != 1 {
		t.Fatal("collector tracer wiring")
	}
	trc.Seg(EvCompute, CatCompute, 0, 10, 0, 0)
	trc.Seg(EvCompute, CatCompute, 10, 10, 0, 0)     // zero width: dropped
	trc.SvcInstant(TraceCtx{}, EvDiffApply, 5, 1, 2) // zero width but kept (instant)
	if trc.EventCount() != 2 || c.EventCount() != 2 {
		t.Fatalf("event count = %d/%d, want 2/2", trc.EventCount(), c.EventCount())
	}
	if c.Tracer(5) != nil || c.Tracer(-1) != nil {
		t.Fatal("out-of-range tracer must be nil")
	}
}

func TestHistBasics(t *testing.T) {
	var h Hist
	for _, v := range []int64{1, 2, 3, 1000, 0} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 1006 {
		t.Fatalf("snapshot = %+v", s)
	}
	if m := s.Mean(); m != 1006.0/5 {
		t.Fatalf("mean = %v", m)
	}
	if q := s.Quantile(0); q > 1 {
		t.Fatalf("q0 = %d", q)
	}
	// The 1000 observation lands in bucket [512, 1024): its upper edge
	// bounds the max quantile.
	if q := s.Quantile(1); q < 1000 || q > 2048 {
		t.Fatalf("q1 = %d", q)
	}
	var other HistSnapshot
	other.Merge(s)
	other.Merge(s)
	if other.Count != 10 || other.Sum != 2012 {
		t.Fatalf("merged = %+v", other)
	}
	var nilH *Hist
	nilH.Observe(7) // must not panic
	if nilH.Snapshot().Count != 0 {
		t.Fatal("nil hist recorded")
	}
}

func TestCountersSnapshotAdd(t *testing.T) {
	var c Counters
	c.Faults.Add(3)
	c.LogAppends.Add(2)
	s := c.Snapshot()
	if s.Faults != 3 || s.LogAppends != 2 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestKindNameRegistry(t *testing.T) {
	RegisterKindName(250, "test-kind")
	if KindName(250) != "test-kind" {
		t.Fatal("registered name lost")
	}
	if KindName(251) != "kind-251" {
		t.Fatalf("fallback name = %q", KindName(251))
	}
	// Re-registering the same name is a legal no-op (package init vs tests).
	RegisterKindName(250, "test-kind")
	if KindName(250) != "test-kind" {
		t.Fatal("idempotent re-registration changed the name")
	}
}

// A kind byte registered under two different names would mislabel every
// export keyed off it; the registry must refuse instead of letting the
// last writer win.
func TestKindNameConflictPanics(t *testing.T) {
	RegisterKindName(249, "first-name")
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting RegisterKindName did not panic")
		}
		if KindName(249) != "first-name" {
			t.Fatalf("conflict clobbered the name: %q", KindName(249))
		}
	}()
	RegisterKindName(249, "second-name")
}
