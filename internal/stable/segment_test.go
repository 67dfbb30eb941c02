package stable

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"sdsm/internal/racedetect"
)

// payload returns n deterministic pseudo-random bytes.
func payload(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// checkLog compares the store against the records a test expects it to
// hold, in append order, and reconciles every accounted size the way the
// log auditor does: the records' wire sizes, the store's charge and the
// image's length must all be the same number.
func checkLog(t *testing.T, s *Store, want []Record) {
	t.Helper()
	got := s.Records()
	if len(got) != len(want) {
		t.Fatalf("store holds %d records, want %d", len(got), len(want))
	}
	var wire int64
	for i, r := range got {
		w := want[i]
		if r.Kind != w.Kind || r.Op != w.Op || !bytes.Equal(r.Data, w.Data) {
			t.Fatalf("record %d = kind %d op %d (%d bytes), want kind %d op %d (%d bytes)",
				i, r.Kind, r.Op, len(r.Data), w.Kind, w.Op, len(w.Data))
		}
		if !r.Verify() {
			t.Fatalf("record %d fails its checksum", i)
		}
		wire += int64(r.WireSize())
	}
	prefix, dropped := s.ValidPrefix()
	if dropped != 0 || len(prefix) != len(want) {
		t.Fatalf("valid prefix %d records, %d dropped, want all %d", len(prefix), dropped, len(want))
	}
	st := s.Stats()
	if st.Records != len(want) || st.LoggedBytes != wire {
		t.Fatalf("stats %+v, want %d records of %d wire bytes", st, len(want), wire)
	}
	var image int64
	for _, seg := range s.segs {
		image += int64(len(seg))
	}
	if image != wire {
		t.Fatalf("image %d, want %d bytes", image, wire)
	}
}

// flushOps appends count records of the given payload size to the store
// and to want, one op per group of perFlush records.
func flushOps(s *Store, want *[]Record, rng *rand.Rand, op *int32, count, perFlush, size int) {
	for count > 0 {
		n := min(perFlush, count)
		group := make([]Record, n)
		for i := range group {
			group[i] = Record{Kind: 3, Op: *op, Data: payload(rng, size)}
		}
		s.Flush(group)
		*want = append(*want, group...)
		*op++
		count -= n
	}
}

func TestPayloadsIntactAcrossSegmentBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewStore()
	var want []Record
	var op int32
	flushOps(s, &want, rng, &op, 300, 7, 1000) // 300 KB in 7 KB flushes: five boundaries
	big := Record{Kind: 4, Op: op, Data: payload(rng, segmentSize*3/2+5)}
	s.Flush([]Record{big})
	want = append(want, big)
	op++
	flushOps(s, &want, rng, &op, 100, 3, 1000)
	checkLog(t, s, want)

	// Standard segments, each filled until the next record no longer fit,
	// and one of the big record's exact size.
	oversize := 0
	segs := s.segs
	for i, seg := range segs {
		switch {
		case cap(seg) == segmentSize:
		case cap(seg) == HeaderSize+len(big.Data):
			oversize++
		default:
			t.Errorf("segment %d has capacity %d", i, cap(seg))
		}
		if i+1 < len(segs) && cap(segs[i+1]) == segmentSize && cap(seg)-len(seg) >= HeaderSize+1000 {
			t.Errorf("segment %d was left with %d free bytes, room for the next record", i, cap(seg)-len(seg))
		}
	}
	if oversize != 1 {
		t.Errorf("%d exact-size segments, want one for the %d-byte record", oversize, len(big.Data))
	}
}

// A share larger than a segment gets one segment of its exact size, once
// the tail's free space is used up.
func TestBulkShareGetsOneSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := NewStore()
	var want []Record
	var op int32
	flushOps(s, &want, rng, &op, 4, 4, 4083)   // a quarter of a segment
	flushOps(s, &want, rng, &op, 40, 40, 4083) // 12 frames fill it, 28 need 112 KiB
	checkLog(t, s, want)
	segs := s.segs
	if len(segs) != 2 || len(segs[0]) != segmentSize || cap(segs[1]) != 28*4096 {
		t.Fatalf("%d segments, first %d bytes, second capacity %d", len(segs), len(segs[0]), cap(segs[len(segs)-1]))
	}
}

// Records handed to a reader alias the image, and the image never moves:
// what a reader took stays intact under any number of later flushes, and
// under a tear of the very record it holds.
func TestRecordsSurviveLaterFlushes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewStore()
	var want []Record
	var op int32
	flushOps(s, &want, rng, &op, 50, 5, 700)
	early := s.Records()
	flushOps(s, &want, rng, &op, 500, 5, 700) // six more segments
	held := s.Records()
	if s.TearTail(2) == 0 {
		t.Fatal("nothing torn")
	}
	flushOps(s, &want, rng, &op, 200, 5, 700)
	for i, r := range early {
		if !r.Verify() || !bytes.Equal(r.Data, want[i].Data) {
			t.Fatalf("record %d taken before later flushes no longer matches", i)
		}
	}
	for i, r := range held {
		if !r.Verify() || !bytes.Equal(r.Data, want[i].Data) {
			t.Fatalf("record %d taken before the tear no longer matches", i)
		}
	}
}

func TestTruncateAcrossSegmentBoundaryThenAppend(t *testing.T) {
	// A node has one log stream; the subtest keeps the name it had when
	// stores could hold several.
	t.Run("streams=1", func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		s := NewStore()
		var want []Record
		var op int32
		// 2000-byte records, four per op: the log grows past three segments,
		// and op boundaries fall inside segments.
		flushOps(s, &want, rng, &op, 120, 4, 2000)
		if n := len(s.segs); n < 4 {
			t.Fatalf("log has %d segments, want the cut to cross some", n)
		}
		// Cut so that the log keeps about a segment and a half.
		cutOp := op * 3 / 8
		keep := 0
		for keep < len(want) && want[keep].Op < cutOp {
			keep++
		}
		if got := s.TruncateFromOp(cutOp); got != len(want)-keep {
			t.Fatalf("truncate dropped %d records, want %d", got, len(want)-keep)
		}
		want = want[:keep]
		if n := len(s.segs); n != 2 {
			t.Fatalf("log keeps %d segments after the cut, want 2", n)
		}
		checkLog(t, s, want)

		op = cutOp
		flushOps(s, &want, rng, &op, 100, 4, 2000) // across the next boundary
		checkLog(t, s, want)
		if s.TruncateFromOp(op) != 0 {
			t.Fatal("truncating above every op dropped records")
		}
		checkLog(t, s, want)
	})
}

// A cut that lands exactly on a segment boundary drops the segment whole;
// cutting everything leaves an empty image that takes appends again.
func TestTruncateAtSegmentBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewStore()
	var want []Record
	var op int32
	flushOps(s, &want, rng, &op, 40, 1, 4096-HeaderSize) // 16 frames fill a segment exactly
	if got := s.TruncateFromOp(16); got != 24 {
		t.Fatalf("dropped %d records, want 24", got)
	}
	want = want[:16]
	if n := len(s.segs); n != 1 {
		t.Fatalf("%d segments left, want 1", n)
	}
	checkLog(t, s, want)
	if got := s.TruncateFromOp(0); got != 16 {
		t.Fatalf("dropped %d records, want 16", got)
	}
	if n := len(s.segs); n != 0 {
		t.Fatalf("%d segments left in an empty log", n)
	}
	want, op = nil, 0
	checkLog(t, s, want)
	flushOps(s, &want, rng, &op, 20, 3, 4096-HeaderSize)
	checkLog(t, s, want)
}

func TestTearTailOnFlushSpanningSegments(t *testing.T) {
	const before, final = 8, 12 // half a segment, then a flush that needs a second one
	for keep := 0; keep < final; keep++ {
		rng := rand.New(rand.NewSource(6))
		s := NewStore()
		var want []Record
		var op int32
		for i := 0; i < before; i++ {
			r := Record{Kind: 1, Op: op, Data: payload(rng, 4000)}
			s.Flush([]Record{r})
			want = append(want, r)
			op++
		}
		group := make([]Record, final)
		for i := range group {
			group[i] = Record{Kind: 2, Op: op, Data: payload(rng, 4000)}
		}
		s.Flush(group)
		if n := len(s.segs); n != 2 {
			t.Fatalf("final flush left the log with %d segments, want it to span 2", n)
		}
		if got := s.TearTail(uint64(final*5 + keep)); got != final-keep {
			t.Fatalf("keep=%d: destroyed %d records, want %d", keep, got, final-keep)
		}
		want = append(want, group[:keep]...)
		prefix, dropped := s.ValidPrefix()
		if dropped != 1 || len(prefix) != len(want) {
			t.Fatalf("keep=%d: valid prefix %d, dropped %d, want %d and the torn record",
				keep, len(prefix), dropped, len(want))
		}
		for i, r := range prefix {
			if !bytes.Equal(r.Data, want[i].Data) || r.Op != want[i].Op {
				t.Fatalf("keep=%d: surviving record %d differs", keep, i)
			}
		}
		all := s.Records()
		torn := all[len(all)-1]
		if torn.Verify() || torn.Op != op || len(torn.Data) != 4000 || bytes.Equal(torn.Data, group[keep].Data) {
			t.Fatalf("keep=%d: last record is not the torn one: verify %v op %d",
				keep, torn.Verify(), torn.Op)
		}
		// The log goes on after the tear, behind the torn record.
		s.Flush([]Record{{Kind: 5, Op: op + 1, Data: payload(rng, 100)}})
		if again, droppedAgain := s.ValidPrefix(); len(again) != len(prefix) || droppedAgain != 2 {
			t.Fatalf("keep=%d: after an append, valid prefix %d and %d dropped", keep, len(again), droppedAgain)
		}
	}
}

// The log costs what it holds: no doubling, no copy of what is already
// written, no per-record index beside the image.
func TestFlushAllocatesWhatItWrites(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const volume = 8 << 20
	for _, size := range []int{4096, 64} {
		data := make([]byte, size)
		recs := []Record{{Kind: 1, Data: data}}
		s := NewStore()
		flushed := 0
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < volume/size; i++ {
			recs[0].Op = int32(i)
			flushed += s.Flush(recs)
		}
		runtime.ReadMemStats(&m1)
		alloc := m1.TotalAlloc - m0.TotalAlloc
		t.Logf("%d-byte records: %d bytes flushed, %d allocated (%.3fx)", size, flushed, alloc, float64(alloc)/float64(flushed))
		if float64(alloc) > 1.15*float64(flushed) {
			t.Errorf("%d-byte records: flushing %d bytes allocated %d (limit 1.15x)", size, flushed, alloc)
		}
		if got := s.Stats().Records; got != volume/size {
			t.Errorf("%d records in the log, want %d", got, volume/size)
		}
	}
}
