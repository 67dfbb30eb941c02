package hlrc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"sdsm/internal/memory"
	"sdsm/internal/racedetect"
	"sdsm/internal/simtime"
	"sdsm/internal/transport"
	"sdsm/internal/vclock"
)

// undoNode is node 0 of a 3-node cluster whose page 0 it homes, with the
// undo history on. Nothing runs the service loop: tests drive the home by
// hand (remote intervals through ApplyDiffAsHome, its own through WriteAt
// and closeAndPropagate).
func undoNode(pageSize int, homeUndo bool) *Node {
	model := simtime.DefaultCostModel()
	return NewNode(Config{
		ID: 0, N: 3, PageSize: pageSize, NumPages: 2,
		Homes: []int{0, 1}, Model: model, HomeUndo: homeUndo,
	}, transport.NewNetwork(3, model), simtime.NewClock(0), nil, nil)
}

// servePage has home node nd answer one PageReq for p through its service
// loop and handlePageReq, as a peer's miss would, which arms p's undo
// history. The request is the node's own: these tests run no peers.
func servePage(nd *Node, p memory.PageID) {
	nd.StartService()
	defer nd.StopService()
	req := &PageReq{Page: p}
	nd.ep.Call(nd.ID(), KindPageReq, req.WireSize(), req)
}

// undoShape picks the words one interval writes on a page of nw words.
type undoShape struct {
	name  string
	words func(rng *rand.Rand, nw int) []int
}

// The three shapes the kernels give a home's undo history: Shallow's
// float64 updates change the low word of each pair, MG and 3D-FFT
// rewrite whole pages, and a kv transaction writes one 56-byte record.
var undoShapes = []undoShape{
	{"Shallow", func(rng *rand.Rand, nw int) []int {
		var ws []int
		for w := 2 * rng.Intn(nw/4); w < nw; w += 2 {
			ws = append(ws, w)
		}
		return ws
	}},
	{"MG", func(_ *rand.Rand, nw int) []int {
		ws := make([]int, nw)
		for w := range ws {
			ws[w] = w
		}
		return ws
	}},
	{"kv", func(rng *rand.Rand, nw int) []int {
		const record = 56 / memory.WordSize
		start := 2 * rng.Intn((nw-record)/2+1)
		ws := make([]int, record)
		for i := range ws {
			ws[i] = start + i
		}
		return ws
	}},
}

// refEntry is one applied interval as the reference keeps it: the forward
// diff and the page it was applied to.
type refEntry struct {
	writer, seq int32
	fwd         memory.Diff
	base        []byte
}

// undoRef is the reference PageAtVersion is checked against. It keeps
// forward diffs and rolls back by applying their run-form inverses (the
// runs with the base page's bytes) newest first; the open interval's
// self-writes are reverted word by word from the values they overwrote.
// Only what happens once the page is served is kept: intervals applied
// before the first serve, and a home interval open at it, stay in every
// rolled-back copy.
type undoRef struct {
	page []byte
	ver  vclock.VC
	hist []refEntry
	// served is set from the page's first serve on.
	served bool
	// pre holds, per word the home wrote in its open interval, the value
	// it overwrote; nil when no interval is open. kept says whether the
	// interval opened after the first serve.
	pre  map[int]uint32
	kept bool
	// remote marks the words remote intervals wrote since the home's
	// interval opened: data-race freedom keeps them off the home's writes.
	remote map[int]bool
}

func (r *undoRef) withoutOpenWrites() []byte {
	data := bytes.Clone(r.page)
	if !r.kept {
		return data
	}
	for w, v := range r.pre {
		binary.LittleEndian.PutUint32(data[w*memory.WordSize:], v)
	}
	return data
}

func (r *undoRef) at(need vclock.VC) []byte {
	data := r.withoutOpenWrites()
	for i := len(r.hist) - 1; i >= 0; i-- {
		e := r.hist[i]
		if e.seq <= need[e.writer] {
			continue
		}
		for run := e.fwd.Runs(); run.Valid(); run.Next() {
			off := run.Off()
			copy(data[off:], e.base[off:off+len(run.Data())])
		}
	}
	return data
}

// historySteps is the length of one random history.
const historySteps = 40

// Random histories of remote and self-write intervals, with the home's
// interval left open or closed and remote diffs landing inside it, and the
// page first served at a random step: every versioned fetch from then on,
// for random need vectors, equals the reference byte for byte. Trial 0 serves the page before anything is written, so the
// whole history is kept and every rollback reaches need exactly.
func TestPageAtVersionMatchesReference(t *testing.T) {
	for _, pageSize := range []int{64, 512, 4096} {
		for _, shape := range undoShapes {
			t.Run(fmt.Sprintf("%s/%d", shape.name, pageSize), func(t *testing.T) {
				for trial := 0; trial < 20; trial++ {
					seed := int64(1000*pageSize + trial)
					serveAt := 0
					if trial > 0 {
						serveAt = rand.New(rand.NewSource(-seed)).Intn(historySteps)
					}
					checkHistoryAgainstReference(t, pageSize, shape, seed, serveAt)
				}
			})
		}
	}
}

func checkHistoryAgainstReference(t *testing.T, pageSize int, shape undoShape, seed int64, serveAt int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nd := undoNode(pageSize, true)
	nw := pageSize / memory.WordSize
	ref := &undoRef{page: make([]byte, pageSize), ver: vclock.New(3)}
	value := func(w int) uint32 {
		if rng.Intn(8) == 0 { // a silent rewrite of the current value
			return binary.LittleEndian.Uint32(ref.page[w*memory.WordSize:])
		}
		return rng.Uint32()
	}
	fetch := func(step int) {
		need := ref.ver.Clone()
		for w := range need {
			if rng.Intn(3) > 0 {
				need[w] = int32(rng.Intn(int(need[w]) + 1))
			}
		}
		got, want := nd.PageAtVersion(0, need), ref.at(need)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d step %d, need %v: PageAtVersion differs from the reference\n got bytes %x\nwant bytes %x",
				seed, step, need, got[:min(32, pageSize)], want[:min(32, pageSize)])
		}
	}
	for step := 0; step < historySteps; step++ {
		if step == serveAt {
			servePage(nd, 0)
			ref.served = true
		}
		switch rng.Intn(4) {
		case 0, 1: // a remote interval's diff lands at the home
			writer := int32(1 + rng.Intn(2))
			next := bytes.Clone(ref.page)
			for _, w := range shape.words(rng, nw) {
				if ref.pre == nil || !hasWord(ref.pre, w) {
					binary.LittleEndian.PutUint32(next[w*memory.WordSize:], value(w))
					if ref.remote != nil {
						ref.remote[w] = true
					}
				}
			}
			d := memory.MakeDiff(0, ref.page, next)
			seq := ref.ver[writer] + 1
			if ref.served {
				ref.hist = append(ref.hist, refEntry{writer, seq, d, ref.page})
			}
			ref.page, ref.ver[writer] = next, seq
			nd.ApplyDiffAsHome(d, writer, seq)
		case 2: // the home writes, opening an interval if none is open
			if ref.pre == nil {
				ref.pre, ref.remote = map[int]uint32{}, map[int]bool{}
				ref.kept = ref.served
			}
			for _, w := range shape.words(rng, nw) {
				if ref.remote[w] {
					continue
				}
				off := w * memory.WordSize
				if !hasWord(ref.pre, w) {
					ref.pre[w] = binary.LittleEndian.Uint32(ref.page[off:])
				}
				binary.LittleEndian.PutUint32(ref.page[off:], value(w))
				nd.WriteAt(off, ref.page[off:off+memory.WordSize])
			}
		case 3: // the home's interval closes
			if len(ref.pre) == 0 { // nothing written: no interval to close
				ref.pre, ref.remote, ref.kept = nil, nil, false
				continue
			}
			nd.closeAndPropagate(int32(step))
			before := ref.withoutOpenWrites()
			seq := ref.ver[0] + 1
			if d := memory.MakeDiff(0, before, ref.page); ref.kept && !d.Empty() {
				ref.hist = append(ref.hist, refEntry{0, seq, d, before})
			}
			ref.ver[0], ref.pre, ref.remote, ref.kept = seq, nil, nil, false
		}
		if !bytes.Equal(nd.PageTable().Page(0), ref.page) {
			t.Fatalf("seed %d step %d: the home page diverged from the reference's", seed, step)
		}
		if ref.served { // a fetch is itself a serve: none before serveAt
			fetch(step)
		}
	}
}

func hasWord(m map[int]uint32, w int) bool {
	_, ok := m[w]
	return ok
}

// A warm versioned fetch allocates only the arena page buffer it returns,
// whether or not it rolls something back: the coverage bitmap is the
// node's.
func TestPageAtVersionAllocations(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	nd, need := pageAtVersionHistory(undoShapes[0])
	current := nd.HomeVersion(0)
	for _, c := range []struct {
		name string
		need vclock.VC
		want float64
		what string
	}{
		{"rollback", need, 1, "page buffer"},
		{"no rollback", current, 1, "page buffer"},
	} {
		nd.PageAtVersion(0, c.need)
		if a := allocsWithoutGC(100, func() { nd.PageAtVersion(0, c.need) }); a > c.want {
			t.Errorf("warm PageAtVersion, %s: %.1f allocs/op, want <= %v (%s)", c.name, a, c.want, c.what)
		}
	}
}

// pageAtVersionHistory builds a served 4 KB home page with sixteen
// intervals of the shape, alternating self-writes and remote diffs, and a
// need vector that rolls back the newer half of each writer's intervals.
func pageAtVersionHistory(shape undoShape) (*Node, vclock.VC) {
	rng := rand.New(rand.NewSource(1))
	nd := undoNode(4096, true)
	servePage(nd, 0)
	nw := 4096 / memory.WordSize
	cur := make([]byte, 4096)
	for i := 0; i < 16; i++ {
		next := bytes.Clone(cur)
		for _, w := range shape.words(rng, nw) {
			binary.LittleEndian.PutUint32(next[w*memory.WordSize:], rng.Uint32())
		}
		if i%2 == 0 {
			nd.WriteAt(0, next)
			nd.closeAndPropagate(int32(i))
		} else {
			nd.ApplyDiffAsHome(memory.MakeDiff(0, cur, next), 1, int32(i/2+1))
		}
		cur = next
	}
	return nd, vclock.VC{4, 4, 0}
}

// Closing a home interval costs one allocation, the entry, of at most the
// bitmap plus a word per changed word (rounded up to Go's size class):
// measured as the difference to a node without the undo history closing
// the same interval.
func TestHomeUndoIntervalCloseAllocatesWhatWasWritten(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const pageSize = 4096
	withUndo, without := undoNode(pageSize, true), undoNode(pageSize, false)
	servePage(withUndo, 0)
	write := func(nd *Node, round byte) {
		for off := 0; off < pageSize; off += 64 {
			nd.WriteAt(off, bytes.Repeat([]byte{round}, 16))
		}
	}
	// closeLeast returns the least mallocs and bytes of a few closes: a
	// collection starting mid-measurement adds a few of its own.
	closeLeast := func(nd *Node) (mallocs, alloc uint64) {
		mallocs, alloc = ^uint64(0), ^uint64(0)
		for round := byte(1); round < 7; round++ {
			write(nd, round)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			nd.closeAndPropagate(int32(round))
			runtime.ReadMemStats(&m1)
			if round > 1 { // the first close sizes the node's own lists
				mallocs = min(mallocs, m1.Mallocs-m0.Mallocs)
				alloc = min(alloc, m1.TotalAlloc-m0.TotalAlloc)
			}
		}
		return mallocs, alloc
	}
	mu, bu := closeLeast(withUndo)
	mp, bp := closeLeast(without)
	changed := pageSize / 64 * 16 / memory.WordSize
	limit := memory.BitmapLen(pageSize) + memory.WordSize*changed
	limit = (limit + 255) &^ 255 // Go's size classes are at most 256 B apart up to 2 KB
	if mu != mp+1 || bu > bp+uint64(limit) {
		t.Fatalf("undo-history close: %d allocs / %d B, without: %d / %d; want one more alloc of <= %d B",
			mu, bu, mp, bp, limit)
	}
	if n := len(withUndo.home.undo[0]); n != 6 {
		t.Fatalf("undo history holds %d entries, want one per interval", n)
	}
}

// A home page keeps undo history from its first remote serve on. Before
// it, the page's own and remote intervals take no twin and record no
// entry, and closing an interval allocates what it does with the history
// off. One handlePageReq arms the page: the next interval's first write
// twins it and its close records an entry. A versioned fetch arms a page
// too.
func TestHomeUndoStartsAtFirstServe(t *testing.T) {
	nd, off := soloNode(t, true), soloNode(t, false)
	var round byte
	interval := func(nd *Node, p memory.PageID) {
		nd.WriteAt(int(p)*64, []byte{round})
		if nd.pt.HasTwin(p) {
			t.Fatalf("round %d: never-served page %d was twinned", round, p)
		}
		nd.closeAndPropagate(int32(round))
	}
	for round = 1; round <= 4; round++ {
		for _, n := range []*Node{nd, off} {
			interval(n, 0)
			n.ApplyDiffAsHome(diffAt(0, 8, round), 1, int32(round))
		}
	}
	if n := len(nd.home.undo[0]); n != 0 {
		t.Fatalf("never-served page holds %d undo entries, want none", n)
	}
	if !racedetect.Enabled {
		closes := func(n *Node) float64 {
			return allocsWithoutGC(50, func() { round++; interval(n, 0) })
		}
		if with, without := closes(nd), closes(off); with != without {
			t.Fatalf("never-served close: %.1f allocs/op, %.1f with the history off", with, without)
		}
	}

	servePage(nd, 0)
	round++
	nd.WriteAt(0, []byte{round})
	if !nd.pt.HasTwin(0) {
		t.Fatal("first write after the first serve took no twin")
	}
	nd.closeAndPropagate(int32(round))
	if n := len(nd.home.undo[0]); n != 1 {
		t.Fatalf("served page holds %d undo entries after one interval, want 1", n)
	}
	nd.ApplyDiffAsHome(diffAt(0, 8, round), 1, 99)
	if n := len(nd.home.undo[0]); n != 2 {
		t.Fatalf("served page holds %d undo entries after a remote interval, want 2", n)
	}

	interval(nd, 1)
	nd.PageAtVersion(1, nd.HomeVersion(1))
	nd.WriteAt(64, []byte{round})
	if !nd.pt.HasTwin(1) {
		t.Fatal("first write after a versioned fetch took no twin")
	}
}
