package stable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"sync"
	"testing"
	"testing/quick"
)

func TestFlushAccounting(t *testing.T) {
	s := NewStore()
	n := s.Flush([]Record{
		{Kind: 1, Op: 0, Data: make([]byte, 100)},
		{Kind: 2, Op: 0, Data: make([]byte, 50)},
	})
	want := 2*HeaderSize + 150
	if n != want {
		t.Fatalf("flush bytes = %d, want %d", n, want)
	}
	st := s.Stats()
	if st.Flushes != 1 || st.LoggedBytes != int64(want) || st.Records != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if got := s.MeanFlushBytes(); got != float64(want) {
		t.Fatalf("mean = %v", got)
	}
}

// The on-disk frame is pinned against a reference built from the standard
// library alone: kind (1 byte), op and payload length (4 bytes each,
// little-endian), the IEEE CRC32 of kind‖op‖payload, then the payload.
// checksum hand-rolls the header part of that CRC, and Verify calls the
// same function, so only a reference from outside can catch it drifting.
func TestFrameFormatMatchesReference(t *testing.T) {
	recs := []Record{
		{Kind: 1, Op: 0, Data: []byte{9, 8, 7}},
		{Kind: 5, Op: -2, Data: []byte("payload of the second record")},
	}
	s := NewStore()
	s.Flush(recs)
	var want []byte
	for _, r := range recs {
		hdr := []byte{byte(r.Kind)}
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(r.Op))
		sum := crc32.ChecksumIEEE(append(append([]byte(nil), hdr...), r.Data...))
		want = append(want, hdr...)
		want = binary.LittleEndian.AppendUint32(want, uint32(len(r.Data)))
		want = binary.LittleEndian.AppendUint32(want, sum)
		want = append(want, r.Data...)
	}
	if got := bytes.Join(s.segs, nil); !bytes.Equal(got, want) {
		t.Fatalf("log image\n got %x\nwant %x", got, want)
	}
	for i, r := range s.Records() {
		if !r.Verify() {
			t.Fatalf("record %d fails its checksum", i)
		}
	}
}

func TestMeanFlushBytesEmpty(t *testing.T) {
	if NewStore().MeanFlushBytes() != 0 {
		t.Fatal("mean of zero flushes must be 0")
	}
}

func TestRecordsReturnsCopy(t *testing.T) {
	s := NewStore()
	s.Flush([]Record{{Kind: 1, Data: []byte{1}}})
	recs := s.Records()
	recs[0].Kind = 99
	if s.Records()[0].Kind != 1 {
		t.Fatal("Records must not expose internal storage")
	}
}

func TestNoteRead(t *testing.T) {
	s := NewStore()
	if got := s.NoteRead(123); got != 123 {
		t.Fatalf("NoteRead returned %d", got)
	}
	s.NoteRead(7)
	st := s.Stats()
	if st.Reads != 2 || st.ReadBytes != 130 {
		t.Fatalf("read stats = %+v", st)
	}
}

func TestCheckpoints(t *testing.T) {
	s := NewStore()
	if _, ok := s.LatestCheckpoint(); ok {
		t.Fatal("empty store has a checkpoint")
	}
	s.PutCheckpoint(Checkpoint{Op: 1, Bytes: 10})
	s.PutCheckpoint(Checkpoint{Op: 5, Bytes: 20})
	cp, ok := s.LatestCheckpoint()
	if !ok || cp.Op != 5 {
		t.Fatalf("latest = %+v ok=%v", cp, ok)
	}
	if s.Stats().Checkpoints != 2 {
		t.Fatal("checkpoint count")
	}
}

func TestReset(t *testing.T) {
	s := NewStore()
	s.Flush([]Record{{Data: []byte{1, 2, 3}}})
	s.NoteRead(5)
	s.PutCheckpoint(Checkpoint{})
	s.Reset()
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("reset left stats %+v", st)
	}
}

func TestDepot(t *testing.T) {
	d := NewDepot(3)
	if d.Nodes() != 3 {
		t.Fatal("Nodes")
	}
	d.Store(0).Flush([]Record{{Data: make([]byte, 100-HeaderSize)}}) // 100 bytes
	d.Store(2).Flush([]Record{{Data: make([]byte, 50-HeaderSize)}})  // 50 bytes
	d.Store(2).Flush(nil)
	if d.TotalLoggedBytes() != 150 {
		t.Fatalf("total bytes = %d", d.TotalLoggedBytes())
	}
	if d.TotalFlushes() != 3 {
		t.Fatalf("total flushes = %d", d.TotalFlushes())
	}
	// Stores survive by identity: same pointer across lookups.
	if d.Store(0) != d.Store(0) {
		t.Fatal("store identity not stable")
	}
}

func TestDepotInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDepot(0)
}

func TestConcurrentFlushes(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Flush([]Record{{Data: make([]byte, 10)}})
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Flushes != 800 || st.LoggedBytes != 800*(HeaderSize+10) {
		t.Fatalf("concurrent stats = %+v", st)
	}
}

func TestValidPrefixIntactLog(t *testing.T) {
	s := NewStore()
	s.Flush([]Record{{Kind: 1, Op: 0, Data: []byte{1, 2}}, {Kind: 2, Op: 0, Data: []byte{3}}})
	s.Flush([]Record{{Kind: 3, Op: 1, Data: []byte{4}}})
	recs, dropped := s.ValidPrefix()
	if dropped != 0 || len(recs) != 3 {
		t.Fatalf("intact log: %d records, %d dropped", len(recs), dropped)
	}
	for i, r := range recs {
		if r.Sum == 0 {
			t.Fatalf("record %d has no checksum", i)
		}
	}
}

func TestTearTailDestroysOnlyFinalFlush(t *testing.T) {
	s := NewStore()
	s.Flush([]Record{{Kind: 1, Op: 0, Data: []byte{1}}, {Kind: 1, Op: 0, Data: []byte{2}}})
	payload := []byte{10, 11, 12}
	s.Flush([]Record{
		{Kind: 2, Op: 1, Data: []byte{3}},
		{Kind: 2, Op: 1, Data: payload},
		{Kind: 2, Op: 1, Data: []byte{5}},
	})
	// r % 3 == 1: one record of the final flush survives intact, the
	// second is torn, the third vanishes.
	destroyed := s.TearTail(7)
	if destroyed != 2 {
		t.Fatalf("destroyed = %d, want 2", destroyed)
	}
	recs, dropped := s.ValidPrefix()
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (the torn record)", dropped)
	}
	if len(recs) != 3 {
		t.Fatalf("valid prefix has %d records, want 3", len(recs))
	}
	if recs[2].Kind != 2 || recs[2].Data[0] != 3 {
		t.Fatalf("wrong surviving record: %+v", recs[2])
	}
	if payload[1] != 11 {
		t.Fatal("TearTail corrupted the caller's payload slice")
	}
}

func TestTearTailKeepZero(t *testing.T) {
	s := NewStore()
	s.Flush([]Record{{Kind: 1, Op: 0, Data: []byte{1}}})
	s.Flush([]Record{{Kind: 2, Op: 1, Data: []byte{2}}, {Kind: 2, Op: 1, Data: []byte{3}}})
	// r % 2 == 0: the entire final flush is lost.
	if destroyed := s.TearTail(4); destroyed != 2 {
		t.Fatalf("destroyed = %d, want 2", destroyed)
	}
	recs, dropped := s.ValidPrefix()
	if len(recs) != 1 || dropped != 1 {
		t.Fatalf("got %d valid, %d dropped", len(recs), dropped)
	}
	if recs[0].Op != 0 {
		t.Fatalf("survivor is %+v, want the first flush's record", recs[0])
	}
}

func TestTearTailEmptyStore(t *testing.T) {
	s := NewStore()
	if s.TearTail(1) != 0 {
		t.Fatal("tearing an empty store destroyed records")
	}
	s.Flush(nil) // empty flush (ML's empty sync-entry flush)
	if s.TearTail(1) != 0 {
		t.Fatal("tearing after an empty flush destroyed records")
	}
}

func TestTearTailEmptyPayloadRecord(t *testing.T) {
	s := NewStore()
	s.Flush([]Record{{Kind: 1, Op: 0}})
	if destroyed := s.TearTail(0); destroyed != 1 {
		t.Fatalf("destroyed = %d, want 1", destroyed)
	}
	recs, dropped := s.ValidPrefix()
	if len(recs) != 0 || dropped != 1 {
		t.Fatalf("got %d valid, %d dropped", len(recs), dropped)
	}
}

func TestTearTailDeterministic(t *testing.T) {
	build := func() *Store {
		s := NewStore()
		s.Flush([]Record{{Kind: 1, Data: []byte{1}}, {Kind: 1, Data: []byte{2}}, {Kind: 1, Data: []byte{3}}})
		return s
	}
	for _, r := range []uint64{0, 1, 2, 12345} {
		a, b := build(), build()
		a.TearTail(r)
		b.TearTail(r)
		ra, da := a.ValidPrefix()
		rb, db := b.ValidPrefix()
		if len(ra) != len(rb) || da != db {
			t.Fatalf("r=%d nondeterministic tear: %d/%d vs %d/%d", r, len(ra), da, len(rb), db)
		}
	}
}

// Property: total logged bytes always equals the sum of record wire sizes.
func TestLoggedBytesMatchesRecordsProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		s := NewStore()
		want := int64(0)
		for _, sz := range sizes {
			r := Record{Kind: 1, Data: make([]byte, int(sz)%4096)}
			want += int64(r.WireSize())
			s.Flush([]Record{r})
		}
		st := s.Stats()
		return st.LoggedBytes == want && st.Flushes == int64(len(sizes))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
