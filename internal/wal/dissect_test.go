package wal

import (
	"errors"
	"strings"
	"testing"

	"sdsm/internal/hlrc"
	"sdsm/internal/memory"
	"sdsm/internal/stable"
)

func dissectDiff(t *testing.T) memory.Diff {
	t.Helper()
	twin := make([]byte, 64)
	cur := make([]byte, 64)
	cur[0], cur[32] = 1, 2
	return memory.MakeDiff(5, twin, cur)
}

func TestDissectRecordRoundTrips(t *testing.T) {
	d := dissectDiff(t)
	notices := []hlrc.Notice{{Proc: 1, Seq: 2, Pages: []memory.PageID{3, 4}}}
	events := []hlrc.UpdateEvent{{Page: 7, Writer: 2, Seq: 9}}
	page := make([]byte, 128)
	page[10] = 0xaa

	cases := []struct {
		name string
		rec  stable.Record
		want func(*Dissected) bool
	}{
		{"notices", stable.Record{Kind: RecNotices, Op: 4, Data: hlrc.EncodeNotices(notices, nil)},
			func(x *Dissected) bool { return len(x.Notices) == 1 && len(x.Notices[0].Pages) == 2 }},
		{"incoming-diff", stable.Record{Kind: RecDiffBatch, Op: 5,
			Data: EncodeDiffBatchRecord(nil, 2, 3, 0, []memory.Diff{d})},
			func(x *Dissected) bool {
				return x.DiffBatch != nil && x.DiffBatch.Writer == 2 && x.DiffBatch.Seq == 3 &&
					x.DiffBatch.VTSum == 0 && len(x.DiffBatch.Diffs) == 1 && x.DiffBatch.Diffs[0].Page == 5
			}},
		{"events", stable.Record{Kind: RecEvents, Op: 6, Data: EncodeEventsRecord(nil, events)},
			func(x *Dissected) bool { return len(x.Events) == 1 && x.Events[0].Page == 7 }},
		{"page", stable.Record{Kind: RecPage, Op: 7, Data: EncodePageRecord(nil, 9, page)},
			func(x *Dissected) bool { return x.Page != nil && x.Page.Page == 9 && len(x.Page.Data) == 128 }},
		{"diff-batch", stable.Record{Kind: RecDiffBatch, Op: 8,
			Data: EncodeDiffBatchRecord(nil, -1, 4, 23, []memory.Diff{d, d})},
			func(x *Dissected) bool {
				return x.DiffBatch != nil && x.DiffBatch.Writer == -1 && x.DiffBatch.Seq == 4 &&
					x.DiffBatch.VTSum == 23 && len(x.DiffBatch.Diffs) == 2 && x.DiffBatch.Diffs[1].Page == 5
			}},
	}
	// Each case dissects with a fresh Dissector and with one kept across
	// all of them, as a log reader keeps it: the reused state must leave
	// no earlier record's payload behind.
	var kept Dissector
	for _, tc := range cases {
		for _, dissect := range []func(stable.Record) (*Dissected, error){new(Dissector).Dissect, kept.Dissect} {
			x, err := dissect(tc.rec)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if x.Kind != tc.rec.Kind || x.Op != tc.rec.Op || x.Wire != tc.rec.WireSize() {
				t.Errorf("%s: header mismatch: %+v", tc.name, x)
			}
			if !tc.want(x) {
				t.Errorf("%s: payload mismatch: %+v", tc.name, x)
			}
			set := 0
			for _, ok := range []bool{x.Notices != nil, x.Events != nil, x.Page != nil, x.DiffBatch != nil} {
				if ok {
					set++
				}
			}
			if set != 1 {
				t.Errorf("%s: %d payload fields set, want 1: %+v", tc.name, set, x)
			}
			if x.Summary() == "?" {
				t.Errorf("%s: no summary", tc.name)
			}
		}
	}
}

func TestDissectRecordTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		rec  stable.Record
		want error
	}{
		{"unknown-kind", stable.Record{Kind: 99, Data: []byte{1, 2, 3}}, ErrUnknownKind},
		{"zero-kind", stable.Record{Kind: 0}, ErrUnknownKind},
		{"reserved-kind", stable.Record{Kind: 2,
			Data: EncodeDiffBatchRecord(nil, -1, 1, 1, []memory.Diff{{Page: 1}})}, ErrUnknownKind},
		{"short-notices", stable.Record{Kind: RecNotices, Data: []byte{1}}, ErrCorruptPayload},
		{"short-events", stable.Record{Kind: RecEvents, Data: []byte{0xff, 0xff, 0xff, 0xff}}, ErrCorruptPayload},
		{"short-page", stable.Record{Kind: RecPage, Data: []byte{9}}, ErrCorruptPayload},
		{"one-diff-batch-trailing", stable.Record{Kind: RecDiffBatch,
			Data: append(EncodeDiffBatchRecord(nil, -1, 1, 1, []memory.Diff{{Page: 1}}), 0xee)}, ErrCorruptPayload},
		{"short-diff-batch", stable.Record{Kind: RecDiffBatch, Data: []byte{1, 2, 3}}, ErrCorruptPayload},
		{"diff-batch-trailing", stable.Record{Kind: RecDiffBatch,
			Data: append(EncodeDiffBatchRecord(nil, -1, 1, 1, nil), 0xee)}, ErrCorruptPayload},
	}
	var dis Dissector
	for _, tc := range cases {
		x, err := dis.Dissect(tc.rec)
		if err == nil {
			t.Fatalf("%s: dissected corrupt record: %+v", tc.name, x)
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v is not %v", tc.name, err, tc.want)
		}
	}
}

// A torn record (payload bit-flipped after the checksum was stamped, as
// stable.Store.TearTail leaves it) must fail Verify; the dissector's
// decode error, if any, must stay typed.
func TestDissectTornRecord(t *testing.T) {
	st := stable.NewStore()
	st.Flush([]stable.Record{{Kind: RecEvents, Op: 1,
		Data: EncodeEventsRecord(nil, []hlrc.UpdateEvent{{Page: 1, Writer: 2, Seq: 3}})}})
	st.TearTail(0)
	recs := st.Records()
	if len(recs) != 1 {
		t.Fatalf("want 1 record, got %d", len(recs))
	}
	if recs[0].Verify() {
		t.Fatal("torn record passes Verify")
	}
	if _, err := new(Dissector).Dissect(recs[0]); err != nil &&
		!errors.Is(err, ErrCorruptPayload) && !errors.Is(err, ErrUnknownKind) {
		t.Errorf("untyped dissect error on torn record: %v", err)
	}
}

func TestKindNames(t *testing.T) {
	for k, want := range map[stable.RecordKind]string{
		RecNotices: "notices", 2: "kind-2", RecEvents: "events", RecPage: "page",
		RecDiffBatch: "diff-batch",
	} {
		if got := KindName(k); got != want {
			t.Errorf("KindName(%d) = %q, want %q", k, got, want)
		}
	}
	if got := KindName(42); !strings.Contains(got, "42") {
		t.Errorf("KindName(42) = %q", got)
	}
}
