package hlrc

import (
	"testing"
	"testing/quick"

	"sdsm/internal/memory"
	"sdsm/internal/racedetect"
	"sdsm/internal/vclock"
)

func TestNoticeEncodeDecode(t *testing.T) {
	n := Notice{Proc: 3, Seq: 9, Pages: []memory.PageID{1, 5, 7}}
	buf := n.Encode(nil)
	if len(buf) != n.WireSize() {
		t.Fatalf("wire size %d, encoded %d", n.WireSize(), len(buf))
	}
	got, rest, err := DecodeNotice(buf, nil)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v", err)
	}
	if got.Proc != 3 || got.Seq != 9 || len(got.Pages) != 3 || got.Pages[2] != 7 {
		t.Fatalf("decoded %+v", got)
	}
}

func TestNoticesListRoundTrip(t *testing.T) {
	f := func(procs []uint8) bool {
		ns := make([]Notice, 0, len(procs))
		for i, p := range procs {
			ns = append(ns, Notice{Proc: int32(p), Seq: int32(i + 1), Pages: []memory.PageID{memory.PageID(i)}})
		}
		buf := EncodeNotices(ns, nil)
		if len(buf) != NoticesWireSize(ns) {
			return false
		}
		got, rest, err := DecodeNotices(buf, nil, nil)
		return err == nil && len(rest) == 0 && len(got) == len(ns)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeNoticeErrors(t *testing.T) {
	if _, _, err := DecodeNotice([]byte{1}, nil); err == nil {
		t.Fatal("short header must fail")
	}
	n := Notice{Proc: 1, Seq: 1, Pages: []memory.PageID{4}}
	buf := n.Encode(nil)
	if _, _, err := DecodeNotice(buf[:13], nil); err == nil {
		t.Fatal("truncated pages must fail")
	}
	if _, _, err := DecodeNotices([]byte{9}, nil, nil); err == nil {
		t.Fatal("short list must fail")
	}
}

func TestNoticeStoreAddDelta(t *testing.T) {
	s := NewNoticeStore(3)
	s.Add(Notice{Proc: 0, Seq: 1, Pages: []memory.PageID{1}})
	s.Add(Notice{Proc: 0, Seq: 2, Pages: []memory.PageID{2}})
	s.Add(Notice{Proc: 2, Seq: 1, Pages: []memory.PageID{3}})
	know := s.Know()
	if !know.Equal(vclock.VC{2, 0, 1}) {
		t.Fatalf("know = %v", know)
	}
	d := s.Delta(vclock.VC{1, 0, 0})
	if len(d) != 2 {
		t.Fatalf("delta = %+v", d)
	}
	if d[0].Proc != 0 || d[0].Seq != 2 || d[1].Proc != 2 || d[1].Seq != 1 {
		t.Fatalf("delta order = %+v", d)
	}
	// Deltas feed stores contiguously.
	s2 := NewNoticeStore(3)
	s2.Add(Notice{Proc: 0, Seq: 1, Pages: nil})
	s2.AddAll(d)
	if !s2.Know().Equal(vclock.VC{2, 0, 1}) {
		t.Fatalf("after AddAll: %v", s2.Know())
	}
}

func TestNoticeStoreDuplicateIgnored(t *testing.T) {
	s := NewNoticeStore(2)
	s.Add(Notice{Proc: 1, Seq: 1, Pages: []memory.PageID{9}})
	s.Add(Notice{Proc: 1, Seq: 1, Pages: []memory.PageID{9}})
	if !s.Know().Equal(vclock.VC{0, 1}) {
		t.Fatal("duplicate changed knowledge")
	}
	if got := s.Pages(1, 1); len(got) != 1 || got[0] != 9 {
		t.Fatalf("Pages = %v", got)
	}
}

func TestNoticeStoreGapPanics(t *testing.T) {
	s := NewNoticeStore(2)
	defer func() {
		if recover() == nil {
			t.Fatal("gap must panic")
		}
	}()
	s.Add(Notice{Proc: 0, Seq: 2})
}

func TestNoticeStoreUnknownProcPanics(t *testing.T) {
	s := NewNoticeStore(2)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown proc must panic")
		}
	}()
	s.Add(Notice{Proc: 5, Seq: 1})
}

func TestNoticeStorePagesOutOfRange(t *testing.T) {
	s := NewNoticeStore(2)
	if s.Pages(-1, 1) != nil || s.Pages(0, 0) != nil || s.Pages(0, 5) != nil {
		t.Fatal("out-of-range Pages must be nil")
	}
}

// A store doubles each process's interval list from minIntervals: 1 000
// intervals from each of 8 processes cost 41 allocations, the store and
// five growths a process (to 64, 128, 256, 512 and 1 024 intervals).
// Appending from an empty list cost 89.
func TestNoticeStoreGrowthAllocations(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	pages := []memory.PageID{1}
	allocs := testing.AllocsPerRun(5, func() {
		s := NewNoticeStore(8)
		for seq := int32(1); seq <= 1000; seq++ {
			for p := range int32(8) {
				s.Add(Notice{Proc: p, Seq: seq, Pages: pages})
			}
		}
	})
	if allocs > 41 {
		t.Fatalf("1 000 intervals from each of 8 processes: %v allocs, want <= 41", allocs)
	}
}
