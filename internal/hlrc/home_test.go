package hlrc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"sdsm/internal/arena"
	"sdsm/internal/memory"
	"sdsm/internal/vclock"
)

// orderPageSize is the page size of the arrival-order test: eight words.
const orderPageSize = 32

// orderInterval is one writer interval of the arrival-order test: its
// key, the writer's vector time at its close, and the words it writes.
type orderInterval struct {
	writer, seq int32
	vt          vclock.VC
	writes      []orderWrite
}

type orderWrite struct {
	page memory.PageID
	word int
	val  uint32
}

// The home is node 0 of 4 and homes pages 0 and 1. Its own interval is
// open from the start; writers 1-3 send theirs as DiffUpdates. (1, 1),
// (2, 1) and (3, 1) are concurrent and write disjoint words; (2, 2)
// rewrites (1, 1)'s word after taking writer 1's lock, so its vector
// orders it after (1, 1) and (2, 1).
var orderIntervals = []orderInterval{
	{0, 1, vclock.VC{1, 0, 0, 0}, []orderWrite{{0, 2, 0xa0}}},
	{1, 1, vclock.VC{0, 1, 0, 0}, []orderWrite{{0, 0, 0x11}, {1, 0, 0x12}}},
	{2, 1, vclock.VC{0, 0, 1, 0}, []orderWrite{{0, 1, 0x21}}},
	{3, 1, vclock.VC{0, 0, 0, 1}, []orderWrite{{1, 1, 0x31}}},
	{2, 2, vclock.VC{0, 1, 2, 0}, []orderWrite{{0, 0, 0x42}}},
}

// The events of one arrival order: event 0 closes the home's interval,
// event k in 1..4 delivers interval k's DiffUpdate, and event k+4 delivers
// it a second time.
const (
	evClose  = 0
	orderEvs = 9
)

// orderDiffs[k][p] is interval k's diff on page p (nil: k leaves p
// alone).
var orderDiffs = func() (ds [5][2]*memory.Diff) {
	for k, iv := range orderIntervals {
		for p := range ds[k] {
			cur := make([]byte, orderPageSize)
			for _, w := range iv.writes {
				if int(w.page) == p {
					binary.LittleEndian.PutUint32(cur[w.word*memory.WordSize:], w.val)
					ds[k][p] = new(memory.Diff)
				}
			}
			if ds[k][p] != nil {
				*ds[k][p] = memory.MakeDiff(memory.PageID(p), make([]byte, orderPageSize), cur)
			}
		}
	}
	return ds
}()

// orderCanonical is page p as the intervals v admits (seq <= v[writer])
// leave the zero page in SortCanonical order, and the words they write.
func orderCanonical(t *testing.T, p memory.PageID, v vclock.VC) ([]byte, []int) {
	var entries []AdoptedDiff
	var words []int
	for k, iv := range orderIntervals {
		if d := orderDiffs[k][p]; d != nil && iv.seq <= v[iv.writer] {
			entries = append(entries, AdoptedDiff{Writer: iv.writer, Seq: iv.seq, VTSum: iv.vt.Sum(), Diff: *d})
			for _, w := range iv.writes {
				if w.page == p {
					words = append(words, w.word)
				}
			}
		}
	}
	data, err := applyCustody(orderPageSize, entries)
	if err != nil {
		t.Fatal(err)
	}
	return data, words
}

// orderHome builds the home, has a peer fetch each page, which arms its
// undo history, opens the home's interval as its first write does (an
// armed page takes a twin) and then delivers events in order.
func orderHome(events []int) *home {
	pt := memory.NewPageTable(2, orderPageSize)
	pt.AllocFrames([]memory.PageID{0, 1})
	var vcs arena.Slab[int32]
	h := newHome(Config{ID: 0, N: 4, PageSize: orderPageSize, NumPages: 2, Homes: []int{0, 0}, HomeUndo: true}, pt, &vcs)
	h.serve(0)
	h.serve(1)
	if h.armed(0) {
		pt.MakeTwin(0)
	}
	self := orderIntervals[0].writes[0]
	binary.LittleEndian.PutUint32(pt.Page(self.page)[self.word*memory.WordSize:], self.val)
	pt.MarkDirty(self.page)
	for _, e := range events {
		if e == evClose {
			h.closeSelf(self.page, orderIntervals[0].seq)
			pt.EndInterval()
			continue
		}
		k := (e-1)%4 + 1
		for _, d := range orderDiffs[k] {
			if d != nil {
				h.apply(*d, orderIntervals[k].writer, orderIntervals[k].seq)
			}
		}
	}
	return &h
}

// TestHomeArrivalOrders drives the home value alone, with no Node,
// Network or clock, through every order in which its events can arrive:
// the three writers' intervals in any order, (2, 2) only after (1, 1)
// and (2, 1) (a writer awaits its ack before it releases), every
// DiffUpdate possibly delivered again at any later point, and the home's
// own interval closed at any point. After every prefix of every order it
// serves both pages, current and at every version a recovering peer may
// ask for (a consistent cut of what has arrived), and checks that
//   - the home's version vector of each page names exactly the arrived
//     intervals that wrote it;
//   - a current copy holds, on the words of the intervals its vector
//     covers, what those intervals wrote;
//   - a versioned copy is the zero page with the SortCanonical prefix the
//     need admits applied: no interval beyond it, and none of the open
//     interval's writes.
func TestHomeArrivalOrders(t *testing.T) {
	// The needs a replay can carry, cuts closed under the vectors, and the
	// copy of each page at each.
	var cuts []vclock.VC
	var wantAt [][2][]byte
	for x := range 24 {
		need := vclock.VC{int32(x % 2), int32(x / 2 % 2), int32(x / 4 % 3), int32(x / 12)}
		closed := true
		for _, iv := range orderIntervals {
			closed = closed && (iv.seq > need[iv.writer] || need.Covers(iv.vt))
		}
		if closed {
			p0, _ := orderCanonical(t, 0, need)
			p1, _ := orderCanonical(t, 1, need)
			cuts, wantAt = append(cuts, need), append(wantAt, [2][]byte{p0, p1})
		}
	}
	orders := 0
	var walk func(events []int)
	walk = func(events []int) {
		var done [orderEvs]bool
		for _, e := range events {
			done[e] = true
		}
		arrived := vclock.New(4) // the newest arrived interval of each writer
		for k, iv := range orderIntervals {
			if done[k] && iv.seq > arrived[iv.writer] {
				arrived[iv.writer] = iv.seq
			}
		}
		h := orderHome(events)
		fail := func(format string, args ...any) {
			t.Helper()
			var names []string
			for _, e := range events {
				names = append(names, [...]string{"close", "u1", "u2", "u3", "u4", "dup1", "dup2", "dup3", "dup4"}[e])
			}
			t.Fatalf("after [%s]: %s", strings.Join(names, " "), fmt.Sprintf(format, args...))
		}
		for p := memory.PageID(0); p < 2; p++ {
			v := h.version(p)
			for w := range v {
				want := int32(0)
				for k, iv := range orderIntervals {
					if orderDiffs[k][p] != nil && int(iv.writer) == w && iv.seq <= arrived[w] {
						want = max(want, iv.seq)
					}
				}
				if v[w] != want {
					fail("page %d version %v, want writer %d at %d", p, v, w, want)
				}
			}
			got := h.serve(p)
			want, words := orderCanonical(t, p, v)
			for _, w := range words {
				if g, x := got[w*memory.WordSize:][:memory.WordSize], want[w*memory.WordSize:][:memory.WordSize]; !bytes.Equal(g, x) {
					fail("current copy of page %d at version %v has word %d = %x, want %x", p, v, w, g, x)
				}
			}
			arena.Put(got)
			for i, need := range cuts {
				if !arrived.Covers(need) {
					continue // no replay needs an interval the home has not acked
				}
				if got := h.serveAt(p, need); !bytes.Equal(got, wantAt[i][p]) {
					fail("page %d at need %v is %x, want %x", p, need, got, wantAt[i][p])
				} else {
					arena.Put(got)
				}
			}
		}
		orders++
		for e := range orderEvs {
			switch {
			case done[e]:
			case e == 4 && !(done[1] && done[2]): // (2, 2) follows (1, 1) and (2, 1)
			case e > 4 && !done[e-4]: // a copy follows its original
			default:
				walk(append(events[:len(events):len(events)], e))
			}
		}
	}
	walk(nil)
	t.Logf("%d prefixes checked", orders)
}
