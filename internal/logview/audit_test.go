package logview_test

import (
	"bytes"
	"errors"
	"runtime"
	"runtime/debug"
	"testing"

	"sdsm/internal/hlrc"
	"sdsm/internal/logview"
	"sdsm/internal/memory"
	"sdsm/internal/racedetect"
	"sdsm/internal/stable"
	"sdsm/internal/wal"
)

func noticesData() []byte {
	return hlrc.EncodeNotices([]hlrc.Notice{{Proc: 1, Seq: 1, Pages: []memory.PageID{2}}}, nil)
}

func ownDiffData(seq int32, vtSum int64) []byte {
	twin := make([]byte, 32)
	cur := make([]byte, 32)
	cur[0] = byte(seq)
	return wal.EncodeDiffBatchRecord(nil, -1, seq, vtSum, []memory.Diff{memory.MakeDiff(1, twin, cur)})
}

// The auditor must fail loudly, with the right typed error, on each
// class of log damage — including a record whose checksum is fine but
// whose payload no longer decodes (the "intentionally corrupted log"
// negative case).
func TestAuditNegativeCases(t *testing.T) {
	cases := []struct {
		name  string
		build func(s *stable.Store)
		opts  logview.AuditOptions
		want  error
	}{
		{"corrupt-payload-valid-crc", func(s *stable.Store) {
			s.Flush([]stable.Record{{Kind: wal.RecDiffBatch, Op: 1, Data: []byte{0xde, 0xad}}})
		}, logview.AuditOptions{}, wal.ErrCorruptPayload},
		{"unknown-kind", func(s *stable.Store) {
			s.Flush([]stable.Record{{Kind: 9, Op: 1, Data: []byte{1}}})
		}, logview.AuditOptions{}, wal.ErrUnknownKind},
		{"op-regression", func(s *stable.Store) {
			s.Flush([]stable.Record{
				{Kind: wal.RecNotices, Op: 5, Data: noticesData()},
				{Kind: wal.RecNotices, Op: 3, Data: noticesData()},
			})
		}, logview.AuditOptions{}, logview.ErrOpRegression},
		{"seq-regression", func(s *stable.Store) {
			s.Flush([]stable.Record{
				{Kind: wal.RecDiffBatch, Op: 1, Data: ownDiffData(3, 10)},
				{Kind: wal.RecDiffBatch, Op: 2, Data: ownDiffData(2, 11)},
			})
		}, logview.AuditOptions{}, logview.ErrVTRegression},
		{"vtsum-stalled", func(s *stable.Store) {
			s.Flush([]stable.Record{
				{Kind: wal.RecDiffBatch, Op: 1, Data: ownDiffData(2, 10)},
				{Kind: wal.RecDiffBatch, Op: 2, Data: ownDiffData(3, 10)},
			})
		}, logview.AuditOptions{}, logview.ErrVTRegression},
		{"vtsum-rewritten", func(s *stable.Store) {
			s.Flush([]stable.Record{
				{Kind: wal.RecDiffBatch, Op: 1, Data: ownDiffData(2, 10)},
				{Kind: wal.RecDiffBatch, Op: 1, Data: ownDiffData(2, 12)},
			})
		}, logview.AuditOptions{}, logview.ErrVTRegression},
		{"torn-not-allowed", func(s *stable.Store) {
			s.Flush([]stable.Record{{Kind: wal.RecNotices, Op: 1, Data: noticesData()}})
			s.TearTail(0)
		}, logview.AuditOptions{}, logview.ErrTornLog},
	}
	for _, tc := range cases {
		depot := stable.NewDepot(2)
		tc.build(depot.Store(1))
		_, err := logview.Audit(depot, tc.opts)
		if err == nil {
			t.Errorf("%s: audit passed on damaged log", tc.name)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v is not %v", tc.name, err, tc.want)
		}
	}
}

// Legitimate logs must pass: same-seq own-diff records share a vtsum,
// ML incoming diffs are exempt from interval ordering, and a torn tail
// passes exactly when the options allow it.
func TestAuditPositiveCases(t *testing.T) {
	depot := stable.NewDepot(2)
	s := depot.Store(0)
	s.Flush([]stable.Record{
		{Kind: wal.RecNotices, Op: 1, Data: noticesData()},
		{Kind: wal.RecDiffBatch, Op: 1, Data: ownDiffData(2, 10)},
		{Kind: wal.RecDiffBatch, Op: 1, Data: ownDiffData(2, 10)},
		{Kind: wal.RecDiffBatch, Op: 2, Data: ownDiffData(3, 14)},
	})
	// ML-style incoming diffs from writer 1, out of writer order.
	twin := make([]byte, 32)
	cur := make([]byte, 32)
	cur[1] = 7
	d := memory.MakeDiff(4, twin, cur)
	depot.Store(1).Flush([]stable.Record{
		{Kind: wal.RecDiffBatch, Op: 2, Data: wal.EncodeDiffBatchRecord(nil, 1, 5, 0, []memory.Diff{d})},
		{Kind: wal.RecDiffBatch, Op: 2, Data: wal.EncodeDiffBatchRecord(nil, 1, 4, 0, []memory.Diff{d})},
	})
	rep, err := logview.Audit(depot, logview.AuditOptions{})
	if err != nil {
		t.Fatalf("audit failed on a clean log: %v", err)
	}
	if rep.OwnDiffs != 3 || rep.Records != 6 {
		t.Errorf("coverage: %+v", rep)
	}

	s.Flush([]stable.Record{{Kind: wal.RecNotices, Op: 3, Data: noticesData()}})
	s.TearTail(0)
	if _, err := logview.Audit(depot, logview.AuditOptions{AllowTorn: true}); err != nil {
		t.Fatalf("audit rejected an allowed torn tail: %v", err)
	}
	if _, err := logview.Audit(depot, logview.AuditOptions{}); !errors.Is(err, logview.ErrTornLog) {
		t.Fatalf("audit accepted a torn tail without AllowTorn: %v", err)
	}
}

// A rejoin truncation that cuts across a segment boundary of the stable
// image, followed by the re-executed ops' appends, must leave a log the
// auditor reconciles to the byte.
func TestAuditReconcilesAfterTruncateAcrossSegments(t *testing.T) {
	twin := make([]byte, 4096)
	cur := bytes.Repeat([]byte{7}, 4096)
	page := wal.EncodeDiffBatchRecord(nil, 1, 1, 0, []memory.Diff{memory.MakeDiff(4, twin, cur)}) // an ML incoming diff, ~4 KB
	depot := stable.NewDepot(1)
	s := depot.Store(0)
	appendOps := func(from, to int32) {
		for op := from; op < to; op++ {
			group := make([]stable.Record, 4)
			for i := range group {
				group[i] = stable.Record{Kind: wal.RecDiffBatch, Op: op, Data: page}
			}
			s.Flush(group)
		}
	}
	appendOps(0, 40) // 160 KB: three segments
	if dropped := s.TruncateFromOp(15); dropped != 100 {
		t.Fatalf("truncation dropped %d records, want 100", dropped)
	}
	if _, err := logview.Audit(depot, logview.AuditOptions{}); err != nil {
		t.Fatalf("audit after truncation: %v", err)
	}
	appendOps(15, 50)
	rep, err := logview.Audit(depot, logview.AuditOptions{})
	if err != nil {
		t.Fatalf("audit after re-appending: %v", err)
	}
	if rep.Records != 200 {
		t.Fatalf("audited %d records, want 200", rep.Records)
	}
}

// The auditor walks each store with one decode state: a record's value
// and payload structs are reused, and its lists and diff bodies are cut
// from the state's slabs. Each case audits one store of 2 000 records:
//   - 1 000 notice records of four two-page notices and 1 000 page
//     records cost 316 allocations: 250 notice blocks (16 notices each),
//     63 page-list blocks (128 pages each), the valid prefix, the
//     per-writer map and the state itself. A fresh value per record,
//     payload and list cost 8 002.
//   - 1 000 own diff batches of a one-word and a full-page diff and
//     1 000 event records of four events cost 395 allocations: 125
//     diff-list blocks (16 diffs each), 24 blocks of one-word bodies,
//     143 32 KiB chunks of full-page bodies (7 each) and 100 event blocks
//     (ten lists of four each). With each list and body made on its own
//     they cost 4 004.
//
// The counts hold at GOMAXPROCS 1, 2 and 8 and under GOGC=5. Both cases
// together take about 0.03 s.
func TestAuditAllocations(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ns := make([]hlrc.Notice, 4)
	for i := range ns {
		ns[i] = hlrc.Notice{Proc: int32(i), Seq: 1, Pages: []memory.PageID{1, 2}}
	}
	notices := hlrc.EncodeNotices(ns, nil)
	page := wal.EncodePageRecord(nil, 3, make([]byte, 64))
	events := wal.EncodeEventsRecord(nil, []hlrc.UpdateEvent{{Page: 1, Writer: 1, Seq: 1}, {Page: 2, Writer: 1, Seq: 1}, {Page: 3, Writer: 2, Seq: 1}, {Page: 4, Writer: 3, Seq: 1}})
	zero, full := make([]byte, 4096), bytes.Repeat([]byte{7}, 4096)
	word := append([]byte{7, 7, 7, 7}, zero[4:]...)
	diffs := []memory.Diff{memory.MakeDiff(1, zero, word), memory.MakeDiff(2, zero, full)}
	for _, c := range []struct {
		name string
		rec  func(op int32) [2]stable.Record
		want float64
	}{
		{"notices and pages", func(op int32) [2]stable.Record {
			return [2]stable.Record{{Kind: wal.RecNotices, Op: op, Data: notices}, {Kind: wal.RecPage, Op: op, Data: page}}
		}, 316},
		{"diff batches and events", func(op int32) [2]stable.Record {
			batch := wal.EncodeDiffBatchRecord(nil, -1, op+1, int64(op+1), diffs)
			return [2]stable.Record{{Kind: wal.RecDiffBatch, Op: op, Data: batch}, {Kind: wal.RecEvents, Op: op, Data: events}}
		}, 395},
	} {
		recs := make([]stable.Record, 0, 2000)
		for op := range int32(1000) {
			r := c.rec(op)
			recs = append(recs, r[:]...)
		}
		depot := stable.NewDepot(1)
		depot.Store(0).Flush(recs)
		allocs := allocsWithoutGC(5, func() {
			if _, err := logview.Audit(depot, logview.AuditOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs", c.name, allocs)
		if allocs > c.want {
			t.Errorf("auditing 2 000 records, %s: %v allocs, want <= %v", c.name, allocs, c.want)
		}
	}
}

// allocsWithoutGC is testing.AllocsPerRun with the collector held off
// while it counts. A collection inside the measured window can start the
// runtime's mark workers, one goroutine per P the first time, and those
// count as the audit's allocations: fresh test processes at GOMAXPROCS=8
// on a loaded host read one or two more than the audit makes.
func allocsWithoutGC(runs int, f func()) float64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}
