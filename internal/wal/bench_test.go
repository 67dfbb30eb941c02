package wal

import (
	"testing"

	"sdsm/internal/hlrc"
	"sdsm/internal/memory"
	"sdsm/internal/simtime"
	"sdsm/internal/stable"
)

// Release-path benchmarks: the hot logging path is AtRelease (stage the
// interval's diffs, frame them, flush). With the pooled encode buffers,
// the reusable record scratch and the store's segmented disk image,
// steady-state releases should be allocation-free but for a new log
// segment every few dozen releases.

func benchDiffs(n int) []memory.Diff {
	twin := make([]byte, 4096)
	cur := make([]byte, 4096)
	for i := 0; i < len(cur); i += 64 {
		cur[i] = byte(i)
	}
	diffs := make([]memory.Diff, n)
	for i := range diffs {
		diffs[i] = memory.MakeDiff(memory.PageID(i), twin, cur)
	}
	return diffs
}

func BenchmarkCCLReleaseFlush(b *testing.B) {
	s := stable.NewStore()
	h := New(ProtocolCCL, s, nil)
	diffs := benchDiffs(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AtRelease(int32(i), int32(i+1), int64(i+1), simtime.Time(i), diffs)
	}
}

func BenchmarkMLIncomingDiffs(b *testing.B) {
	s := stable.NewStore()
	h := New(ProtocolML, s, nil)
	diffs := benchDiffs(4)
	events := make([]hlrc.UpdateEvent, len(diffs))
	for i, d := range diffs {
		events[i] = hlrc.UpdateEvent{Page: d.Page, Writer: 1, Seq: 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.OnIncomingDiffs(int32(i), simtime.Time(i), events, diffs)
		if i%64 == 63 {
			h.AtSyncEntry(int32(i)) // flush so the volatile log stays bounded
		}
	}
}

// TestCCLReleaseFlushSteadyStateAllocs pins the release path's
// steady-state allocation behaviour: after warmup, a release that logs a
// multi-diff batch must cost less than one allocation per op on average
// (only a new 64 KiB log segment every few dozen releases remains).
func TestCCLReleaseFlushSteadyStateAllocs(t *testing.T) {
	s := stable.NewStore()
	h := New(ProtocolCCL, s, nil)
	diffs := benchDiffs(4)
	op := int32(0)
	release := func() {
		op++
		h.AtRelease(op, op, int64(op), simtime.Time(op), diffs)
	}
	for i := 0; i < 64; i++ {
		release() // grow the flush scratch, warm the own-diff record's arena class
	}
	allocs := testing.AllocsPerRun(200, release)
	if allocs >= 1 {
		t.Fatalf("CCL release flush: %.2f allocs/op, want < 1 in steady state", allocs)
	}
}
