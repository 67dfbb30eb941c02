package hlrc

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

	"sdsm/internal/memory"
)

// returnsWithin runs f on its own goroutine and reports whether it
// finished within d; a call still blocked is left to finish later.
func returnsWithin(d time.Duration, f func()) (done <-chan struct{}, ok bool) {
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		f()
	}()
	select {
	case <-ch:
		return ch, true
	case <-time.After(d):
		return ch, false
	}
}

// A read of a valid page takes no lock: with nd.mu held elsewhere, every
// read accessor returns, on a home page and on a cached page alike. A read
// of an Invalid page still faults and fetches, and installs the fetched
// copy under nd.mu once it is free.
func TestValidReadsTakeNoLock(t *testing.T) {
	nodes := accessCluster(t)
	nd := nodes[0]
	for _, tc := range []struct {
		name string
		page int // 0 is homed at node 0, 1 is a valid cached copy of node 1's
	}{{"home page", 0}, {"cached page", 1}} {
		addr := tc.page*accPageSize + 8
		want := make([]byte, 16)
		for i := range want {
			want[i] = recognizableImage(addr + i)
		}
		for _, rd := range []struct {
			name string
			read func() []byte
		}{
			{"ReadF64s", func() []byte {
				v := make([]float64, 2)
				nd.ReadF64s(addr, v)
				return f64Bytes(v)
			}},
			{"ReadAt", func() []byte {
				b := make([]byte, 16)
				nd.ReadAt(addr, b)
				return b
			}},
			{"ReadF64", func() []byte { return f64Bytes([]float64{nd.ReadF64(addr), nd.ReadF64(addr + 8)}) }},
		} {
			var got []byte
			nd.mu.Lock()
			_, ok := returnsWithin(time.Second, func() { got = rd.read() })
			nd.mu.Unlock()
			if !ok {
				t.Fatalf("%s of a valid %s blocked on nd.mu", rd.name, tc.name)
			}
			if string(got) != string(want) {
				t.Fatalf("%s of a valid %s read %x, want %x", rd.name, tc.name, got, want)
			}
		}
	}
	if f := nd.stats.Faults.Load(); f != 0 {
		t.Fatalf("valid reads took %d faults", f)
	}

	nd.pt.Invalidate(3) // homed at node 1
	addr := 3*accPageSize + 16
	var got []byte
	nd.mu.Lock()
	done, ok := returnsWithin(50*time.Millisecond, func() { got = f64Bytes([]float64{nd.ReadF64(addr)}) })
	nd.mu.Unlock()
	if ok {
		t.Fatal("a read of an Invalid page installed its fetch without nd.mu")
	}
	<-done
	if got[0] != recognizableImage(addr) || got[7] != recognizableImage(addr+7) || nd.pt.State(3) != memory.ReadOnly {
		t.Fatalf("read of an Invalid page = %x (state %v), want the home's bytes from a fetch", got, nd.pt.State(3))
	}
	if f, p := nd.stats.Faults.Load(), nd.stats.PageFetches.Load(); f != 1 || p != 1 {
		t.Fatalf("read of an Invalid page: %d faults, %d fetches, want 1 and 1", f, p)
	}
}

// The ownership rule under the race detector: node 0's application reads
// the even words of one of its home pages, unlocked, while node 1's lock
// intervals keep landing diffs on the odd words of the same page through
// node 0's service goroutine. Data-race freedom of the program (disjoint
// words) is all the unlocked read relies on; the barrier orders the last
// diff before node 0's final read.
func TestUnlockedHomeReadsBesideIncomingDiffs(t *testing.T) {
	const psz, words, intervals = 256, 256 / 8, 200
	var written atomic.Bool
	nodes := testCluster(t, 2, 2, psz, func(nd *Node) {
		switch nd.ID() {
		case 0: // page 0's home
			for reads := 0; !written.Load() || reads < intervals; reads++ {
				for w := 0; w < words; w += 2 {
					if v := nd.ReadF64(8 * w); v != 0 {
						panic("an even word of the home page changed")
					}
				}
			}
		case 1:
			for i := 1; i <= intervals; i++ {
				nd.AcquireLock(0)
				for w := 1; w < words; w += 2 {
					nd.WriteF64(8*w, float64(i))
				}
				nd.ReleaseLock(0)
			}
			written.Store(true)
		}
		nd.Barrier(0)
		for w := 0; w < words; w++ {
			want := float64(intervals * (w % 2))
			if v := nd.ReadF64(8 * w); v != want {
				panic("the home page lost a diff")
			}
		}
	})
	if got := nodes[0].Stats().DiffsApplied.Load(); got != intervals {
		t.Fatalf("home applied %d diffs, want one per interval (%d)", got, intervals)
	}
}

// NewNode cuts a frame for every page the node owns, and only for those,
// out of one slab: a never-served home page exists before the service
// can apply a diff to it.
func TestNewNodeAllocatesOwnedHomeFrames(t *testing.T) {
	nd := soloNode(t, false) // pages 0 and 1 homed here, 2 and 3 at node 1
	for p := memory.PageID(0); p < 4; p++ {
		f := nd.pt.Frame(p)
		if home := p < 2; (f != nil) != home {
			t.Fatalf("page %d: frame %v, want one exactly for home pages", p, f != nil)
		}
		if f != nil && (len(f) != 64 || cap(f) != 64) {
			t.Fatalf("home frame %d has len %d cap %d, want 64 and 64", p, len(f), cap(f))
		}
	}
}

func f64Bytes(v []float64) []byte {
	var b []byte
	for _, f := range f64bits(v) {
		b = binary.LittleEndian.AppendUint64(b, f)
	}
	return b
}
