package wal

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"sdsm/internal/hlrc"
	"sdsm/internal/memory"
	"sdsm/internal/racedetect"
	"sdsm/internal/simtime"
	"sdsm/internal/stable"
)

// stagedModel is what a CCL flush must write for one staged record.
type stagedModel struct {
	rec     stable.Record
	arrival simtime.Time
}

// Records kept past a release's cutoff move to the front of the logger's
// buffer at every release. Against a list model of the flush rule, random
// runs of staged notices and event records with arrivals on both sides
// of each cutoff must reach the log byte for byte, in staging order, at
// the first release whose cutoff covers them; some survive several
// compactions first.
func TestCCLKeptRecordsSurviveCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := stable.NewStore()
	h := New(ProtocolCCL, s, nil).(*CCLHooks)
	var staged, want []stagedModel
	var cutoff simtime.Time
	var maxKept int
	for op := int32(1); op <= 400; op++ {
		for range rng.Intn(4) {
			if rng.Intn(4) == 0 {
				ns := []hlrc.Notice{{Proc: int32(rng.Intn(8)), Seq: op, Pages: []memory.PageID{memory.PageID(rng.Intn(64))}}}
				h.OnAcquireNotices(op, ns)
				staged = append(staged, stagedModel{stable.Record{Kind: RecNotices, Op: op, Data: hlrc.EncodeNotices(ns, nil)}, ownRec})
				continue
			}
			evs := make([]hlrc.UpdateEvent, 1+rng.Intn(6))
			for i := range evs {
				evs[i] = hlrc.UpdateEvent{Page: memory.PageID(rng.Intn(64)), Writer: int32(rng.Intn(8)), Seq: op}
			}
			// Arrivals up to 40 past the next cutoff: some wait out
			// several releases.
			arrival := cutoff + simtime.Time(rng.Intn(50))
			h.OnIncomingDiffs(op, arrival, evs, nil)
			staged = append(staged, stagedModel{stable.Record{Kind: RecEvents, Op: op, Data: EncodeEventsRecord(nil, evs)}, arrival})
		}
		cutoff += 10
		h.AtRelease(op, 0, 0, cutoff, nil)
		kept := staged[:0]
		for _, m := range staged {
			if m.arrival == ownRec || m.arrival <= cutoff {
				want = append(want, m)
			} else {
				kept = append(kept, m)
			}
		}
		staged = kept
		maxKept = max(maxKept, len(kept))
	}
	if maxKept < 3 {
		t.Fatalf("at most %d records kept past a cutoff: the run exercises no compaction", maxKept)
	}
	h.AtRelease(401, 0, 0, cutoff+100, nil)
	want = append(want, staged...)

	got := s.Records()
	if len(got) != len(want) {
		t.Fatalf("log holds %d records, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Kind != w.rec.Kind || g.Op != w.rec.Op || !bytes.Equal(g.Data, w.rec.Data) {
			t.Fatalf("record %d: kind %d op %d %x, want kind %d op %d %x", i, g.Kind, g.Op, g.Data, w.rec.Kind, w.rec.Op, w.rec.Data)
		}
	}
}

// The service stages event records into the logger's buffer while the
// application goroutine flushes and compacts it. Every staged record
// must reach the log once and decode to what was staged. make tier2
// runs this under the race detector, which also checks that staging
// writes only past the bytes a flush reads.
func TestCCLStagingHandoff(t *testing.T) {
	const n = 2000
	eventsOf := func(i int) []hlrc.UpdateEvent {
		evs := make([]hlrc.UpdateEvent, 1+i%5)
		for j := range evs {
			evs[j] = hlrc.UpdateEvent{Page: memory.PageID(i + j), Writer: int32(j), Seq: int32(i)}
		}
		return evs
	}
	s := stable.NewStore()
	h := New(ProtocolCCL, s, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range n {
			h.OnIncomingDiffs(int32(i), simtime.Time(i), eventsOf(i), nil)
		}
	}()
	// Cutoffs trail the staging so that most releases keep some records.
	for op := int32(0); ; op++ {
		select {
		case <-done:
			h.AtRelease(op, 0, 0, n, nil)
			seen := make([]bool, n)
			for _, r := range s.Records() {
				evs, err := decodeEvents(r.Data, nil)
				if err != nil {
					t.Fatalf("record of op %d: %v", r.Op, err)
				}
				i := int(r.Op)
				if seen[i] {
					t.Fatalf("op %d flushed twice", i)
				}
				seen[i] = true
				if want := eventsOf(i); !slices.Equal(evs, want) {
					t.Fatalf("op %d: flushed %v, staged %v", i, evs, want)
				}
			}
			for i, ok := range seen {
				if !ok {
					t.Fatalf("op %d never flushed", i)
				}
			}
			return
		default:
			h.AtRelease(op, 0, 0, simtime.Time(op*3), nil)
		}
	}
}

// Records a node stages after its last release never flush. They cost
// only the growth of the logger's buffer and record list, not an
// allocation each.
func TestCCLUnflushedStagingAllocations(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	events := []hlrc.UpdateEvent{{Page: 1, Writer: 2, Seq: 3}}
	s := stable.NewStore()
	allocs := testing.AllocsPerRun(5, func() {
		h := &CCLHooks{store: s}
		for i := range 1000 {
			h.OnIncomingDiffs(int32(i), simtime.Time(i), events, nil)
		}
	})
	if allocs > 16 {
		t.Fatalf("staging 1000 event records: %v allocs, want <= 16", allocs)
	}
}
