package wal

import (
	"errors"
	"testing"

	"sdsm/internal/hlrc"
	"sdsm/internal/memory"
	"sdsm/internal/stable"
)

// Native fuzz targets: the log decoders must never panic on corrupt
// bytes — a recovery that trips over a damaged record should fail with an
// error, not crash the process. Run with `go test -fuzz FuzzDecodeDiffBatchRecord`
// to explore; the seed corpus runs under plain `go test`.

func FuzzDecodeDiffBatchRecord(f *testing.F) {
	twin := make([]byte, 64)
	cur := make([]byte, 64)
	cur[0], cur[32] = 1, 2
	d1 := memory.MakeDiff(5, twin, cur)
	cur[60] = 3
	d2 := memory.MakeDiff(6, twin, cur)
	f.Add(EncodeDiffBatchRecord(nil, -1, 7, 21, []memory.Diff{d1, d2}))
	f.Add(EncodeDiffBatchRecord(nil, 2, 1, 0, []memory.Diff{d1}))
	f.Add([]byte{})
	f.Add([]byte{255, 255, 255, 255, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must not panic; errors are fine. A corrupted diff count must
		// yield an error, never a huge allocation (the decoder sizes from
		// the bytes present, not the claimed count).
		_, _, _, _, _ = DecodeDiffBatchRecord(data)
	})
}

func FuzzDecodeEventsRecord(f *testing.F) {
	f.Add(EncodeEventsRecord(nil, []hlrc.UpdateEvent{{Page: 1, Writer: 2, Seq: 3}}))
	f.Add([]byte{255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeEvents(data, nil)
	})
}

func FuzzDecodePageRecord(f *testing.F) {
	f.Add(EncodePageRecord(nil, 9, make([]byte, 128)))
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = decodePageRecord(data)
	})
}

func FuzzDecodeNotices(f *testing.F) {
	f.Add(hlrc.EncodeNotices([]hlrc.Notice{{Proc: 1, Seq: 2, Pages: []memory.PageID{3, 4}}}, nil))
	f.Add([]byte{9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = hlrc.DecodeNotices(data, nil, nil)
	})
}

// FuzzDissectRecord throws arbitrary records at the dissector: corrupted
// kind bytes, truncated payloads and torn tails (bit-flipped payloads of
// well-formed records) must all come back as typed errors — never a
// panic, never an unclassified error.
func FuzzDissectRecord(f *testing.F) {
	twin := make([]byte, 64)
	cur := make([]byte, 64)
	cur[0], cur[32] = 1, 2
	d := memory.MakeDiff(5, twin, cur)
	// Well-formed seeds of every kind, plus corrupted variants.
	f.Add(byte(RecNotices), int32(1), hlrc.EncodeNotices([]hlrc.Notice{{Proc: 1, Seq: 2, Pages: []memory.PageID{3}}}, nil))
	f.Add(byte(2), int32(2), EncodeDiffBatchRecord(nil, 1, 3, 0, []memory.Diff{d})) // the reserved kind byte
	f.Add(byte(RecEvents), int32(3), EncodeEventsRecord(nil, []hlrc.UpdateEvent{{Page: 1, Writer: 2, Seq: 3}}))
	f.Add(byte(RecPage), int32(4), EncodePageRecord(nil, 9, make([]byte, 128)))
	f.Add(byte(RecDiffBatch), int32(5), EncodeDiffBatchRecord(nil, -1, 3, 21, []memory.Diff{d}))
	f.Add(byte(0), int32(0), []byte{})
	f.Add(byte(200), int32(-1), []byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, kind byte, op int32, data []byte) {
		rec := stable.Record{Kind: stable.RecordKind(kind), Op: op, Data: data}
		dis, err := new(Dissector).Dissect(rec)
		if err != nil {
			if !errors.Is(err, ErrUnknownKind) && !errors.Is(err, ErrCorruptPayload) {
				t.Fatalf("untyped dissect error: %v", err)
			}
			return
		}
		if dis == nil {
			t.Fatal("nil dissection without error")
		}
		if dis.Kind != rec.Kind || dis.Op != op || dis.Wire != rec.WireSize() {
			t.Fatalf("dissection header mismatch: %+v vs kind %d op %d", dis, kind, op)
		}
		_ = dis.Summary()
	})
}

func FuzzDecodeDiff(f *testing.F) {
	twin := make([]byte, 32)
	cur := make([]byte, 32)
	cur[8] = 9
	f.Add(memory.MakeDiff(0, twin, cur).Encode(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = memory.DecodeDiff(data)
	})
}
