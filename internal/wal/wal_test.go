package wal

import (
	"math"
	"testing"
	"testing/quick"

	"sdsm/internal/hlrc"
	"sdsm/internal/memory"
	"sdsm/internal/simtime"
	"sdsm/internal/stable"
)

func mkDiff(page memory.PageID, vals ...byte) memory.Diff {
	twin := make([]byte, 64)
	cur := make([]byte, 64)
	copy(cur, vals)
	return memory.MakeDiff(page, twin, cur)
}

func TestProtocolString(t *testing.T) {
	if ProtocolNone.String() != "None" || ProtocolML.String() != "ML" || ProtocolCCL.String() != "CCL" {
		t.Fatal("protocol names")
	}
	if Protocol(9).String() == "" {
		t.Fatal("unknown protocol name")
	}
}

func TestNewFactory(t *testing.T) {
	s := stable.NewStore()
	if _, ok := New(ProtocolNone, s, nil).(hlrc.NopHooks); !ok {
		t.Fatal("None must be NopHooks")
	}
	if _, ok := New(ProtocolML, s, nil).(*MLHooks); !ok {
		t.Fatal("ML factory")
	}
	if _, ok := New(ProtocolCCL, s, nil).(*CCLHooks); !ok {
		t.Fatal("CCL factory")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown protocol must panic")
		}
	}()
	New(Protocol(42), s, nil)
}

func TestDiffRecordRoundTrip(t *testing.T) {
	// One incoming diff (ML: writer >= 0, vtSum unused by replay).
	d := mkDiff(7, 1, 2, 3, 4)
	buf := EncodeDiffBatchRecord(nil, 3, 11, 42, []memory.Diff{d})
	w, s, vs, got, err := DecodeDiffBatchRecord(buf)
	if err != nil || w != 3 || s != 11 || vs != 42 || len(got) != 1 || got[0].Page != 7 || got[0].NumRuns() != d.NumRuns() {
		t.Fatalf("round trip: w=%d s=%d vtSum=%d n=%d err=%v", w, s, vs, len(got), err)
	}
	if _, _, _, _, err := DecodeDiffBatchRecord(buf[:4]); err == nil {
		t.Fatal("short record must fail")
	}
	if _, _, _, _, err := DecodeDiffBatchRecord(append(buf, 0)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
}

func TestDiffBatchRecordRoundTrip(t *testing.T) {
	diffs := []memory.Diff{mkDiff(7, 1, 2, 3, 4), mkDiff(9, 5, 6), mkDiff(12, 8)}
	buf := EncodeDiffBatchRecord(nil, -1, 11, 42, diffs)
	if len(buf) != DiffBatchRecordSize(diffs) {
		t.Fatalf("encoded %d bytes, size helper says %d", len(buf), DiffBatchRecordSize(diffs))
	}
	w, s, vs, got, err := DecodeDiffBatchRecord(buf)
	if err != nil || w != -1 || s != 11 || vs != 42 || len(got) != len(diffs) {
		t.Fatalf("round trip: w=%d s=%d vtSum=%d n=%d err=%v", w, s, vs, len(got), err)
	}
	for i, d := range diffs {
		if got[i].Page != d.Page || got[i].DataBytes() != d.DataBytes() {
			t.Fatalf("diff %d mangled: %+v vs %+v", i, got[i], d)
		}
	}
	if _, _, _, _, err := DecodeDiffBatchRecord(buf[:10]); err == nil {
		t.Fatal("short batch record must fail")
	}
	if _, _, _, _, err := DecodeDiffBatchRecord(append(buf, 0)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
	// A corrupted diff count must yield an error, not a huge allocation
	// or a short decode.
	bad := append([]byte(nil), buf...)
	bad[16], bad[17], bad[18], bad[19] = 0xff, 0xff, 0xff, 0x7f
	if _, _, _, _, err := DecodeDiffBatchRecord(bad); err == nil {
		t.Fatal("corrupted diff count must fail")
	}
	// An empty batch round-trips (releases never log one, but the format
	// is total).
	w, s, vs, got, err = DecodeDiffBatchRecord(EncodeDiffBatchRecord(nil, 2, 1, 3, nil))
	if err != nil || w != 2 || s != 1 || vs != 3 || len(got) != 0 {
		t.Fatalf("empty batch: w=%d s=%d vtSum=%d n=%d err=%v", w, s, vs, len(got), err)
	}
}

func TestEventsRecordRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		evs := make([]hlrc.UpdateEvent, len(raw))
		for i, r := range raw {
			evs[i] = hlrc.UpdateEvent{Page: memory.PageID(r), Writer: int32(i % 8), Seq: int32(i + 1)}
		}
		buf := EncodeEventsRecord(nil, evs)
		got, err := decodeEvents(buf, nil)
		if err != nil || len(got) != len(evs) {
			return false
		}
		for i := range evs {
			if got[i] != evs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeEvents([]byte{1}, nil); err == nil {
		t.Fatal("short events record must fail")
	}
	if _, err := decodeEvents([]byte{1, 0, 0, 0, 9}, nil); err == nil {
		t.Fatal("bad length must fail")
	}
}

func TestPageRecordRoundTrip(t *testing.T) {
	data := []byte{9, 8, 7}
	p, got, err := decodePageRecord(EncodePageRecord(nil, 5, data))
	if err != nil || p != 5 || string(got) != string(data) {
		t.Fatalf("page record: %v %v %v", p, got, err)
	}
	if _, _, err := decodePageRecord([]byte{1}); err == nil {
		t.Fatal("short page record must fail")
	}
}

func TestCCLStagesAndFlushesAtRelease(t *testing.T) {
	s := stable.NewStore()
	h := New(ProtocolCCL, s, nil)
	h.OnAcquireNotices(1, []hlrc.Notice{{Proc: 0, Seq: 1, Pages: []memory.PageID{2}}})
	h.OnIncomingDiffs(1, 10, []hlrc.UpdateEvent{{Page: 2, Writer: 0, Seq: 1}}, []memory.Diff{mkDiff(2, 5)})
	h.OnPageFetched(1, 3, make([]byte, 64)) // must be ignored
	if s.Stats().Flushes != 0 {
		t.Fatal("CCL flushed before release")
	}
	if h.AtSyncEntry(2) != 0 {
		t.Fatal("CCL must not flush at sync entry")
	}
	n := h.AtRelease(2, 1, 1, 100, []memory.Diff{mkDiff(4, 9)})
	if n == 0 {
		t.Fatal("release flush wrote nothing")
	}
	st := s.Stats()
	if st.Flushes != 1 || st.Records != 3 {
		t.Fatalf("stats = %+v (want 1 flush: notices, events, one diff)", st)
	}
	// Page contents must not be in the log.
	for _, r := range s.Records() {
		if r.Kind == RecPage {
			t.Fatal("CCL logged a fetched page")
		}
	}
	// A release with nothing staged flushes nothing.
	if h.AtRelease(3, 0, 1, 100, nil) != 0 || s.Stats().Flushes != 1 {
		t.Fatal("empty release must not flush")
	}
}

// A handler-staged record that arrived after the release cutoff must be
// deferred to the next flush whose cutoff covers it; own-goroutine records
// (acquire notices) always ride the next flush. This is the deterministic
// composition rule behind byte-identical traces.
func TestCCLReleaseCutoffDefersLateArrivals(t *testing.T) {
	s := stable.NewStore()
	h := New(ProtocolCCL, s, nil).(*CCLHooks)
	if !h.DeterministicFlush() {
		t.Fatal("CCL must request arrival fencing")
	}
	if New(ProtocolML, s, nil).DeterministicFlush() || New(ProtocolNone, s, nil).DeterministicFlush() {
		t.Fatal("only CCL composes deterministically")
	}
	h.OnIncomingDiffs(1, 50, []hlrc.UpdateEvent{{Page: 2, Writer: 0, Seq: 1}}, nil)
	h.OnIncomingDiffs(1, 200, []hlrc.UpdateEvent{{Page: 3, Writer: 1, Seq: 1}}, nil)
	h.OnAcquireNotices(1, []hlrc.Notice{{Proc: 0, Seq: 1, Pages: []memory.PageID{2}}})
	if h.AtRelease(1, 0, 1, 100, nil) == 0 {
		t.Fatal("first flush wrote nothing")
	}
	if st := s.Stats(); st.Flushes != 1 || st.Records != 2 {
		t.Fatalf("stats = %+v (want the <=cutoff event record and the notices only)", st)
	}
	if h.AtRelease(2, 0, 1, 250, nil) == 0 {
		t.Fatal("deferred record never flushed")
	}
	if st := s.Stats(); st.Flushes != 2 || st.Records != 3 {
		t.Fatalf("stats = %+v (want the deferred event record in flush 2)", st)
	}
}

func TestMLFlushesAtSyncEntry(t *testing.T) {
	s := stable.NewStore()
	h := New(ProtocolML, s, nil)
	page := make([]byte, 64)
	h.OnPageFetched(0, 3, page)
	h.OnAcquireNotices(0, []hlrc.Notice{{Proc: 1, Seq: 1, Pages: []memory.PageID{3}}})
	h.OnIncomingDiffs(0, 5, []hlrc.UpdateEvent{{Page: 0, Writer: 1, Seq: 1}}, []memory.Diff{mkDiff(0, 1)})
	if h.AtRelease(1, 1, 1, 0, []memory.Diff{mkDiff(4, 9)}) != 0 {
		t.Fatal("ML must not flush at release")
	}
	n := h.AtSyncEntry(1)
	if n == 0 {
		t.Fatal("ML sync-entry flush wrote nothing")
	}
	st := s.Stats()
	if st.Flushes != 1 || st.Records != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// Nothing new: next flush is empty and skipped.
	if h.AtSyncEntry(2) != 0 || s.Stats().Flushes != 1 {
		t.Fatal("empty ML flush must be skipped")
	}
}

// The headline property behind Table 2: for the same workload trace, the
// CCL log is much smaller than the ML log, because ML logs full fetched
// pages and incoming diff contents while CCL logs its own diffs and
// content-free event records.
func TestCCLLogMuchSmallerThanML(t *testing.T) {
	const pageSize = 4096
	mlStore, cclStore := stable.NewStore(), stable.NewStore()
	ml := New(ProtocolML, mlStore, nil)
	ccl := New(ProtocolCCL, cclStore, nil)

	page := make([]byte, pageSize)
	for i := range page {
		page[i] = byte(i)
	}
	// Simulate 50 intervals: each fetches 4 pages, receives 2 diffs at
	// home pages, gets a notice set, and creates 2 small diffs.
	for op := int32(0); op < 50; op++ {
		notices := []hlrc.Notice{{Proc: 1, Seq: op + 1, Pages: []memory.PageID{1, 2, 3}}}
		events := []hlrc.UpdateEvent{{Page: 0, Writer: 1, Seq: op + 1}, {Page: 4, Writer: 2, Seq: op + 1}}
		inDiffs := []memory.Diff{mkDiff(0, 1, 2, 3), mkDiff(4, 4, 5, 6)}
		own := []memory.Diff{mkDiff(1, 7), mkDiff(2, 8)}

		for _, h := range []hlrc.LogHooks{ml, ccl} {
			h.AtSyncEntry(op)
			h.OnAcquireNotices(op, notices)
			for p := memory.PageID(0); p < 4; p++ {
				h.OnPageFetched(op, p, page)
			}
			h.OnIncomingDiffs(op, simtime.Time(op), events, inDiffs)
			h.AtRelease(op, op+1, int64(op+1), simtime.Time(op), own)
		}
	}
	ml.AtSyncEntry(50) // final ML flush
	mlBytes := mlStore.Stats().LoggedBytes
	cclBytes := cclStore.Stats().LoggedBytes
	if cclBytes == 0 || mlBytes == 0 {
		t.Fatal("no log volume")
	}
	ratio := float64(cclBytes) / float64(mlBytes)
	if ratio > 0.15 {
		t.Fatalf("CCL/ML log ratio = %.3f, want well below 0.15 (paper: 0.045-0.125)", ratio)
	}
}

func TestConcurrentHookCalls(t *testing.T) {
	// Service goroutine (OnIncomingDiffs) races the app goroutine
	// (AtRelease); the hooks must be internally synchronized.
	s := stable.NewStore()
	h := New(ProtocolCCL, s, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int32(0); i < 500; i++ {
			h.OnIncomingDiffs(i, simtime.Time(i), []hlrc.UpdateEvent{{Page: 1, Writer: 0, Seq: i + 1}}, nil)
		}
	}()
	for i := int32(0); i < 500; i++ {
		h.AtRelease(i, i+1, int64(i+1), simtime.Time(i+1), []memory.Diff{mkDiff(2, byte(i))})
	}
	<-done
	h.AtRelease(501, 501, 501, 1<<40, nil)
	// All 500 event batches and 500 diffs must be in the log (each
	// release's diffs arrive as one batch record).
	var events, diffs int
	for _, r := range s.Records() {
		switch r.Kind {
		case RecEvents:
			evs, err := decodeEvents(r.Data, nil)
			if err != nil {
				t.Fatal(err)
			}
			events += len(evs)
		case RecDiffBatch:
			_, _, _, ds, err := DecodeDiffBatchRecord(r.Data)
			if err != nil {
				t.Fatal(err)
			}
			diffs += len(ds)
		}
	}
	if events != 500 || diffs != 500 {
		t.Fatalf("events=%d diffs=%d, want 500/500", events, diffs)
	}
}

// diffAt is a diff of one run of vals at offset off of a 128-byte page.
func diffAt(page memory.PageID, off int, vals ...byte) memory.Diff {
	twin := make([]byte, 128)
	cur := make([]byte, 128)
	copy(cur[off:], vals)
	return memory.MakeDiff(page, twin, cur)
}

// pageAfter applies d to a zero page of the given size.
func pageAfter(d memory.Diff, size int) []byte {
	page := make([]byte, size)
	d.Apply(page)
	return page
}

func TestReadLoggedDiffs(t *testing.T) {
	store := stable.NewStore()
	// A CCL log: own diffs (writer -1) for pages 1 and 2 over three
	// intervals, plus an incoming diff under ML conventions (writer 3)
	// that must be ignored.
	store.Flush([]stable.Record{
		{Kind: RecDiffBatch, Op: 1, Data: EncodeDiffBatchRecord(nil, -1, 1, 1, []memory.Diff{diffAt(1, 0, 9)})},
		{Kind: RecDiffBatch, Op: 2, Data: EncodeDiffBatchRecord(nil, -1, 2, 4, []memory.Diff{diffAt(1, 4, 8)})},
		{Kind: RecDiffBatch, Op: 2, Data: EncodeDiffBatchRecord(nil, -1, 2, 4, []memory.Diff{diffAt(2, 0, 7)})},
		{Kind: RecDiffBatch, Op: 3, Data: EncodeDiffBatchRecord(nil, -1, 3, 9, []memory.Diff{diffAt(1, 8, 6)})},
		{Kind: RecDiffBatch, Op: 3, Data: EncodeDiffBatchRecord(nil, 3, 5, 0, []memory.Diff{diffAt(1, 12, 5)})},
	})
	resp := ReadLoggedDiffs(store, &hlrc.RecDiffsReq{Page: 1, FromSeq: 1, ToSeq: 3})
	if len(resp.Diffs) != 2 { // seqs 2 and 3 for page 1, own only
		t.Fatalf("got %d diffs, want 2 (seqs %v)", len(resp.Diffs), resp.Seqs)
	}
	if resp.Seqs[0] != 2 || resp.Seqs[1] != 3 {
		t.Fatalf("seqs = %v", resp.Seqs)
	}
	if len(resp.VTSums) != 2 || resp.VTSums[0] != 4 || resp.VTSums[1] != 9 {
		t.Fatalf("vt sums = %v", resp.VTSums)
	}
	if resp.DiskBytes <= 0 {
		t.Fatal("no disk bytes accounted")
	}
	if store.Stats().Reads != 1 {
		t.Fatal("read not accounted")
	}
}

// A batch record is walked in place: only the wanted page's diffs are
// copied out, the record is charged once however many of its diffs match,
// the reply owns its bytes, and records outside the window or written for
// another node's diffs are passed over on their prefix.
func TestReadLoggedDiffsFromBatches(t *testing.T) {
	store := stable.NewStore()
	batch := func(writer, seq int32, vtSum int64, diffs ...memory.Diff) []byte {
		return EncodeDiffBatchRecord(nil, writer, seq, vtSum, diffs)
	}
	recs := []stable.Record{
		{Kind: RecDiffBatch, Op: 1, Data: batch(-1, 1, 1, diffAt(1, 0, 9), diffAt(2, 0, 9))},
		{Kind: RecDiffBatch, Op: 2, Data: batch(-1, 2, 4, diffAt(0, 0, 1), diffAt(1, 4, 8), diffAt(2, 0, 7))},
		{Kind: RecDiffBatch, Op: 3, Data: batch(-1, 3, 9, diffAt(0, 8, 6), diffAt(2, 8, 6))},
		{Kind: RecDiffBatch, Op: 3, Data: batch(4, 3, 0, diffAt(1, 12, 5))},
		{Kind: RecDiffBatch, Op: 4, Data: batch(-1, 4, 12, diffAt(1, 16, 3), diffAt(1, 20, 2))},
		{Kind: RecDiffBatch, Op: 5, Data: []byte{1, 2, 3}},
	}
	store.Flush(recs[:5])
	resp := ReadLoggedDiffs(store, &hlrc.RecDiffsReq{Page: 1, FromSeq: 1, ToSeq: 4})
	if len(resp.Diffs) != 3 || resp.Seqs[0] != 2 || resp.Seqs[1] != 4 || resp.Seqs[2] != 4 ||
		resp.VTSums[0] != 4 || resp.VTSums[1] != 12 {
		t.Fatalf("got seqs %v vt sums %v, want [2 4 4] / [4 12 12]", resp.Seqs, resp.VTSums)
	}
	if want := recs[1].WireSize() + recs[4].WireSize(); resp.DiskBytes != want {
		t.Fatalf("disk bytes = %d, want the two matching records = %d", resp.DiskBytes, want)
	}
	// Scribble over the log image: the reply must not change.
	for _, rec := range store.Records() {
		for i := range rec.Data {
			rec.Data[i] = 0xff
		}
	}
	if p := pageAfter(resp.Diffs[0], 128); p[4] != 8 {
		t.Fatal("reply diff aliases the log")
	}
	if p := pageAfter(resp.Diffs[2], 128); p[20] != 2 {
		t.Fatal("second diff of one batch for the same page is wrong")
	}

	// A record too short for its prefix is corrupt wherever it sits.
	bad := stable.NewStore()
	bad.Flush(recs[5:])
	defer func() {
		if recover() == nil {
			t.Fatal("corrupt batch prefix must panic")
		}
	}()
	ReadLoggedDiffs(bad, &hlrc.RecDiffsReq{Page: 1, FromSeq: 0, ToSeq: 9})
}

// TestLoggedDiffsStampsWriter checks the offline log reader the churn
// runner and the churn sweep's custody check share: it must return the
// store's own diffs for the page, stamped with the caller's writer id,
// over the full seq range.
func TestLoggedDiffsStampsWriter(t *testing.T) {
	store := stable.NewStore()
	store.Flush([]stable.Record{
		{Kind: RecDiffBatch, Op: 1, Data: EncodeDiffBatchRecord(nil, -1, 1, 2, []memory.Diff{diffAt(4, 0, 9)})},
		{Kind: RecDiffBatch, Op: 2, Data: EncodeDiffBatchRecord(nil, -1, 2, 5, []memory.Diff{diffAt(4, 8, 8)})},
		{Kind: RecDiffBatch, Op: 2, Data: EncodeDiffBatchRecord(nil, -1, 2, 5, []memory.Diff{diffAt(6, 0, 7)})},
	})
	got := LoggedDiffs(store, 3, 4, 0, math.MaxInt32)
	if len(got) != 2 {
		t.Fatalf("got %d diffs for page 4, want 2", len(got))
	}
	for i, d := range got {
		if d.Writer != 3 {
			t.Errorf("diff %d stamped writer %d, want 3", i, d.Writer)
		}
		if d.Diff.Page != memory.PageID(4) {
			t.Errorf("diff %d is for page %d", i, d.Diff.Page)
		}
	}
	if got[0].Seq != 1 || got[1].Seq != 2 || got[0].VTSum != 2 || got[1].VTSum != 5 {
		t.Fatalf("keys = (%d,%d) (%d,%d)", got[0].Seq, got[0].VTSum, got[1].Seq, got[1].VTSum)
	}
}
