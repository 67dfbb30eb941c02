package hlrc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
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

// undoRef is the reference pageAtVersion is checked against. It keeps
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
		got, want := nd.pageAtVersion(0, need), ref.at(need)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d step %d, need %v: pageAtVersion differs from the reference\n got bytes %x\nwant bytes %x",
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
		nd.pageAtVersion(0, c.need)
		if a := allocsWithoutGC(100, func() { nd.pageAtVersion(0, c.need) }); a > c.want {
			t.Errorf("warm pageAtVersion, %s: %.1f allocs/op, want <= %v (%s)", c.name, a, c.want, c.what)
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

// undoHistory returns how many undo entries home page p of nd keeps and
// how many bytes they hold.
func undoHistory(nd *Node, p memory.PageID) (entries, size int) {
	for e := nd.home.undo.Entries(p); e.Valid(); e.Next() {
		entries, size = entries+1, size+e.Undo().Size()
	}
	return entries, size
}

// writeEveryLine writes 16 bytes of value round at the start of each
// 64-byte line of a home page: one interval, changing pageSize/16 words.
func writeEveryLine(nd *Node, pageSize int, round byte) {
	var line [16]byte
	for i := range line {
		line[i] = round
	}
	for off := 0; off < pageSize; off += 64 {
		nd.WriteAt(off, line[:])
	}
}

// Closing a home interval appends its entry to the home's undo log: the
// log grows by exactly the bitmap plus a word per changed word, cut from
// the log's 32 KiB chunks. So 64 closes allocate, beyond what a node
// without the history allocates closing the same intervals, at most the
// chunks their entries fill (a chunk holds whole entries) and the entry
// table's growth: one doubling, as the warm-up has already filled it to
// 64 entries, and one more for the growth step's rounding.
func TestHomeUndoIntervalCloseAllocatesWhatWasWritten(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const pageSize, closes, chunk = 4096, 64, 32 << 10
	withUndo, without := undoNode(pageSize, true), undoNode(pageSize, false)
	servePage(withUndo, 0)
	changed := pageSize / 16
	entry := memory.BitmapLen(pageSize) + memory.WordSize*changed
	round := 0
	closeOne := func(nd *Node) {
		round++
		writeEveryLine(nd, pageSize, byte(round))
		_, before := undoHistory(withUndo, 0)
		nd.closeAndPropagate(int32(round))
		if _, after := undoHistory(withUndo, 0); nd == withUndo && after-before != entry {
			t.Fatalf("close %d grew the undo log by %d B, want bitmap + 4 B per changed word = %d",
				round, after-before, entry)
		}
	}
	// closeAll counts the mallocs of 64 closes with the collector held off,
	// after one close that refills arena's pools (the twin) the collection
	// emptied.
	closeAll := func(nd *Node) uint64 {
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		closeOne(nd)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range closes {
			closeOne(nd)
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	closeAll(withUndo) // warm: the node's own lists, the table's first rows
	closeAll(without)
	mu, mp := closeAll(withUndo), closeAll(without)
	chunks := (closes + chunk/entry - 1) / (chunk / entry)
	if limit := uint64(chunks + 2); mu > mp+limit {
		t.Fatalf("%d undo-history closes: %d allocs, without: %d; want at most %d chunks + 2 table growths more",
			closes, mu, mp, chunks)
	}
	if n, _ := undoHistory(withUndo, 0); n != 2*closes+2 {
		t.Fatalf("undo history holds %d entries, want one per interval (%d)", n, 2*closes+2)
	}
}

// A thousand armed home closes, each changing a quarter of a 4 KB page's
// words, allocate far fewer than a thousand times: their entries share
// the undo log's chunks and table instead of taking an allocation each
// and growing a per-page slice. Measured 62: 36 chunks, 11 growths of
// the entry table and the rest the node's own notice lists.
func TestHomeUndoThousandClosesAllocations(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const pageSize, closes, limit = 4096, 1000, 75
	nd := undoNode(pageSize, true)
	servePage(nd, 0)
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	writeEveryLine(nd, pageSize, 1) // refills arena's pools after the collection
	nd.closeAndPropagate(1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 2; i <= closes+1; i++ {
		writeEveryLine(nd, pageSize, byte(i))
		nd.closeAndPropagate(int32(i))
	}
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; n > limit {
		t.Fatalf("%d armed closes: %d allocs, want <= %d", closes, n, limit)
	}
}

// resetUndo drops the history: a versioned fetch at a version older than
// the reset serves the current copy, and the entries recorded afterwards,
// the home's own and a remote writer's, chain from the reset on.
func TestHomeUndoResetDropsHistory(t *testing.T) {
	const pageSize = 512
	nd := undoNode(pageSize, true)
	servePage(nd, 0)
	zero := vclock.New(3)
	for round := byte(1); round <= 3; round++ {
		writeEveryLine(nd, pageSize, round)
		nd.closeAndPropagate(int32(round))
		nd.ApplyDiffAsHome(diffAt(0, 8, round), 1, int32(round))
	}
	if got := nd.pageAtVersion(0, zero); !bytes.Equal(got, make([]byte, pageSize)) {
		t.Fatalf("before the reset, version 0 is %x, want the zero page", got[:16])
	}
	nd.mu.Lock()
	nd.home.resetUndo()
	nd.mu.Unlock()
	if n, _ := undoHistory(nd, 0); n != 0 {
		t.Fatalf("%d undo entries after the reset, want none", n)
	}
	atReset, verAtReset := bytes.Clone(nd.PageTable().Page(0)), nd.HomeVersion(0).Clone()
	if got := nd.pageAtVersion(0, zero); !bytes.Equal(got, atReset) {
		t.Fatalf("after the reset, version 0 is %x, want the current copy %x", got[:16], atReset[:16])
	}

	writeEveryLine(nd, pageSize, 4)
	nd.closeAndPropagate(4)
	afterSelf, verAfterSelf := bytes.Clone(nd.PageTable().Page(0)), nd.HomeVersion(0).Clone()
	nd.ApplyDiffAsHome(diffAt(0, 8, 4), 1, 4)
	writeEveryLine(nd, pageSize, 5)
	nd.closeAndPropagate(5)
	var writers []int32
	for e := nd.home.undo.Entries(0); e.Valid(); e.Next() {
		writers = append(writers, e.Writer(), e.Seq())
	}
	if want := []int32{0, 4, 1, 4, 0, 5}; !slices.Equal(writers, want) {
		t.Fatalf("entries after the reset chain as (writer, seq) %v, want %v", writers, want)
	}
	for _, c := range []struct {
		name string
		need vclock.VC
		want []byte
	}{
		{"version 0", zero, atReset},
		{"the reset's version", verAtReset, atReset},
		{"the first close's version", verAfterSelf, afterSelf},
	} {
		if got := nd.pageAtVersion(0, c.need); !bytes.Equal(got, c.want) {
			t.Fatalf("at %s %v: %x, want %x", c.name, c.need, got[:16], c.want[:16])
		}
	}
}

// The home's service loop appends a remote writer's entries to the undo
// log while its application goroutine appends its own at each close, both
// under nd.mu. Node 0 homes page 0, serves it once, which arms it, and
// writes its even float64 slots in lock intervals; node 1 writes the odd
// slots in intervals of another lock. Each writer's entries chain in
// interval order, one per interval, and the page rolls back to the zero
// page it was first served as.
func TestHomeUndoLogConcurrentAppends(t *testing.T) {
	const psz, slots, intervals = 256, 256 / 8, 100
	nodes := runCluster(t, Config{N: 2, NumPages: 2, PageSize: psz, HomeUndo: true}, func(nd *Node) {
		if nd.ID() == 0 {
			nd.pageAtVersion(0, nd.HomeVersion(0)) // a serve: it arms page 0
		}
		nd.Barrier(0)
		for i := 1; i <= intervals; i++ {
			nd.AcquireLock(nd.ID())
			for s := nd.ID(); s < slots; s += 2 {
				nd.WriteF64(8*s, float64(i))
			}
			nd.ReleaseLock(nd.ID())
		}
		nd.Barrier(1)
	})
	var count [2]int
	var last [2]int32
	for e := nodes[0].home.undo.Entries(0); e.Valid(); e.Next() {
		w := e.Writer()
		if e.Seq() <= last[w] {
			t.Fatalf("writer %d's entry %d chains after its entry %d", w, e.Seq(), last[w])
		}
		last[w] = e.Seq()
		count[w]++

	}
	if count != [2]int{intervals, intervals} {
		t.Fatalf("page 0 keeps %v entries per writer, want %d each", count, intervals)
	}
	if got := nodes[0].pageAtVersion(0, vclock.New(2)); !bytes.Equal(got, make([]byte, psz)) {
		t.Fatalf("page 0 at version 0 is %x, want the zero page it was served as", got[:16])
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
	if n, _ := undoHistory(nd, 0); n != 0 {
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
	if n, _ := undoHistory(nd, 0); n != 1 {
		t.Fatalf("served page holds %d undo entries after one interval, want 1", n)
	}
	nd.ApplyDiffAsHome(diffAt(0, 8, round), 1, 99)
	if n, _ := undoHistory(nd, 0); n != 2 {
		t.Fatalf("served page holds %d undo entries after a remote interval, want 2", n)
	}

	interval(nd, 1)
	nd.pageAtVersion(1, nd.HomeVersion(1))
	nd.WriteAt(64, []byte{round})
	if !nd.pt.HasTwin(1) {
		t.Fatal("first write after a versioned fetch took no twin")
	}
}
