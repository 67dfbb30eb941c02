package hlrc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sdsm/internal/memory"
	"sdsm/internal/simtime"
)

const (
	accPages    = 8
	accPageSize = 64
)

// accessCluster is a 2-node cluster (even pages homed at node 0, odd at
// node 1) whose every copy of every page holds the same recognizable
// initial image, so cached copies and fetched copies both carry data.
// The test goroutine plays node 0's application thread.
func accessCluster(t *testing.T) []*Node {
	t.Helper()
	nodes := imageCluster(recognizableImage)
	t.Cleanup(func() { stopAll(nodes) })
	return nodes
}

func recognizableImage(addr int) byte { return byte(7*(addr/accPageSize) + addr%accPageSize + 1) }

// imageCluster is accessCluster with the initial image given per byte
// address; the caller stops it.
func imageCluster(image func(addr int) byte) []*Node {
	nodes := benchCluster(2, accPages, accPageSize)
	for _, nd := range nodes {
		nd.mu.Lock()
		for p := 0; p < accPages; p++ {
			frame := nd.pt.Page(memory.PageID(p))
			for i := range frame {
				frame[i] = image(p*accPageSize + i)
			}
		}
		nd.mu.Unlock()
	}
	return nodes
}

// accessOutcome is everything the two paths must agree on.
type accessOutcome struct {
	vals                   []float64
	image                  [][]byte // sparse: nil for an all-zero page
	faults, fetches, twins int64
	clock                  simtime.Time
}

func outcome(nd *Node, vals []float64) accessOutcome {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	image, _ := nd.pt.Snapshot(nil)
	return accessOutcome{
		vals:    vals,
		image:   image,
		faults:  nd.stats.Faults.Load(),
		fetches: nd.stats.PageFetches.Load(),
		twins:   nd.stats.TwinsCreated.Load(),
		clock:   nd.clock.Now(),
	}
}

func (a accessOutcome) equal(b accessOutcome) bool {
	return slices.Equal(f64bits(a.vals), f64bits(b.vals)) && slices.EqualFunc(a.image, b.image, bytes.Equal) &&
		a.faults == b.faults && a.fetches == b.fetches && a.twins == b.twins && a.clock == b.clock
}

func (a accessOutcome) String() string {
	return fmt.Sprintf("faults=%d fetches=%d twins=%d clock=%d vals=%x", a.faults, a.fetches, a.twins, a.clock, f64bits(a.vals))
}

// f64bits compares floats by bit pattern (the image bytes decode to NaNs).
func f64bits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, f := range v {
		out[i] = math.Float64bits(f)
	}
	return out
}

// accessCase is one bulk access of n float64s at byte address addr by
// node 0 of an imageCluster.
type accessCase struct {
	addr, n    int
	write      bool
	src        []float64 // what a write stores (its first n values)
	invalidate []memory.PageID
	repeat     bool // access the range a second time: no new fault, fetch or twin
	image      func(addr int) byte
}

// run performs the access on a fresh cluster, through ReadF64s/WriteF64s
// (typed) or through ReadAt/WriteAt and a per-word little-endian codec —
// the definition of what the typed path must do.
func (tc accessCase) run(typed bool) accessOutcome {
	nodes := imageCluster(tc.image)
	defer stopAll(nodes)
	nd := nodes[0]
	for _, p := range tc.invalidate {
		nd.pt.Invalidate(p)
	}
	vals := make([]float64, tc.n)
	if tc.write {
		copy(vals, tc.src)
	}
	buf := make([]byte, 8*tc.n)
	access := func() {
		switch {
		case typed && tc.write:
			nd.WriteF64s(tc.addr, vals)
		case typed:
			nd.ReadF64s(tc.addr, vals)
		case tc.write:
			for i, v := range vals {
				binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
			}
			nd.WriteAt(tc.addr, buf)
		default:
			nd.ReadAt(tc.addr, buf)
			for i := range vals {
				vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
			}
		}
	}
	access()
	if tc.repeat {
		access()
	}
	return outcome(nd, vals)
}

func TestBulkF64PathMatchesBytePath(t *testing.T) {
	src := make([]float64, 24)
	for i := range src {
		src[i] = float64(i) + 0.5
	}
	for _, tc := range []struct {
		name       string
		addr, n    int
		write      bool
		invalidate []memory.PageID
		repeat     bool
		// what the range must cost, on either path
		faults, fetches, twins int64
	}{
		{name: "aligned read, home and cached pages", addr: 0, n: 16},
		{name: "unaligned read", addr: 4, n: 10},
		{name: "read of one word straddling a page boundary", addr: accPageSize - 4, n: 1},
		{name: "unaligned read straddling two boundaries", addr: accPageSize - 12, n: 17},
		{name: "read crossing an invalid page", addr: 8, n: 20, invalidate: []memory.PageID{1},
			repeat: true, faults: 1, fetches: 1},
		{name: "read of a straddling word into an invalid page", addr: accPageSize - 4, n: 1,
			invalidate: []memory.PageID{1}, faults: 1, fetches: 1},
		{name: "aligned first write", addr: 0, n: 16, write: true, repeat: true, faults: 1, twins: 1},
		{name: "unaligned first write straddling a boundary", addr: accPageSize - 12, n: 4, write: true,
			repeat: true, faults: 1, twins: 1},
		{name: "first write into an invalid page", addr: accPageSize, n: 8, write: true,
			invalidate: []memory.PageID{1}, faults: 2, fetches: 1, twins: 1},
		{name: "write to home pages only", addr: 2 * accPageSize, n: 8, write: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ac := accessCase{addr: tc.addr, n: tc.n, write: tc.write, src: src, invalidate: tc.invalidate, repeat: tc.repeat,
				image: recognizableImage}
			typed, byByte := ac.run(true), ac.run(false)
			if !typed.equal(byByte) {
				t.Fatalf("typed path and byte path disagree:\n typed %v\n bytes %v", typed, byByte)
			}
			if typed.faults != tc.faults || typed.fetches != tc.fetches || typed.twins != tc.twins {
				t.Fatalf("range cost %v, want faults=%d fetches=%d twins=%d", typed, tc.faults, tc.fetches, tc.twins)
			}
		})
	}
	t.Run("seeded sweep", sweepBulkF64Path)
}

// fragileBits are float64 bit patterns that survive a byte copy but not
// every float round trip (a load through an x87 register quiets a
// signalling NaN; arithmetic flushes subnormals and drops the sign of
// zero).
var fragileBits = []uint64{
	0x7ff0000000000001, // signalling NaN, smallest payload
	0xfff7ffffffffffff, // negative signalling NaN, largest payload
	0x7ff8000000000001, // quiet NaN with a payload
	0xffffffffffffffff, // all ones
	0x8000000000000000, // -0
	0x0000000000000001, // smallest subnormal
	0x800fffffffffffff, // largest negative subnormal
	0x7ff0000000000000, // +Inf
	0x3ff0000000000000, // 1
}

// sweepBulkF64Path draws random (addr, n) over the whole space — any byte
// offset, n from 0 up to a range crossing three page boundaries — with
// random non-home pages of the range Invalid, reads and first writes, on
// an image laid out so the words the access decodes are fragileBits. The
// typed path must leave the values, every frame byte, the counters and
// the clock exactly as the byte path does.
func sweepBulkF64Path(t *testing.T) {
	const space = accPages * accPageSize
	rng := rand.New(rand.NewSource(22))
	src := make([]float64, 3*accPageSize/8+2)
	var boundaries [4]int
	var oddOffset, empty, invalidInside, homeWrites, remoteWrites int
	for i := 0; i < 400; i++ {
		tc := accessCase{write: rng.Intn(2) == 0, repeat: rng.Intn(4) == 0, src: src}
		tc.addr = rng.Intn(space)
		tc.n = rng.Intn(min(len(src), (space-tc.addr)/8) + 1)
		// Words at addr, addr+8, ... cycle through fragileBits from a
		// random start; the bytes before addr continue the pattern.
		shift, rot := tc.addr%8, rng.Intn(len(fragileBits))
		tc.image = func(addr int) byte {
			w := (addr - shift + 8) / 8
			return byte(fragileBits[(w+rot)%len(fragileBits)] >> (8 * ((addr - shift + 8) % 8)))
		}
		for j := range src {
			src[j] = math.Float64frombits(fragileBits[rng.Intn(len(fragileBits))])
		}
		first := tc.addr / accPageSize
		last := max(first, (tc.addr+8*tc.n-1)/accPageSize)
		for p := first; p <= last && tc.n > 0; p++ {
			if p%2 == 1 && rng.Intn(3) == 0 { // odd pages are homed at node 1
				tc.invalidate = append(tc.invalidate, memory.PageID(p))
			}
			if tc.write && p%2 == 0 {
				homeWrites++
			} else if tc.write {
				remoteWrites++
			}
		}
		typed, byByte := tc.run(true), tc.run(false)
		if !typed.equal(byByte) {
			t.Fatalf("case %d (addr=%d n=%d write=%v invalid=%v repeat=%v): typed path and byte path disagree:\n typed %v\n bytes %v",
				i, tc.addr, tc.n, tc.write, tc.invalidate, tc.repeat, typed, byByte)
		}
		boundaries[min(last-first, 3)]++
		if tc.addr%8 != 0 {
			oddOffset++
		}
		if tc.n == 0 {
			empty++
		}
		if len(tc.invalidate) > 0 {
			invalidInside++
		}
	}
	for k, n := range boundaries {
		if n == 0 {
			t.Errorf("the sweep drew no range crossing %d page boundaries", k)
		}
	}
	if oddOffset == 0 || empty == 0 || invalidInside == 0 || homeWrites == 0 || remoteWrites == 0 {
		t.Errorf("the sweep missed a corner: odd offsets %d, n=0 %d, invalid pages in range %d, first writes to home pages %d and to non-home pages %d",
			oddOffset, empty, invalidInside, homeWrites, remoteWrites)
	}
}

// An out-of-range access must panic with the typed message before it
// touches (faults, fetches, twins, dirties) any page of the range.
func TestOutOfRangeAccessPanicsBeforeTouchingPages(t *testing.T) {
	const space = accPages * accPageSize
	buf := make([]float64, 9)
	for _, tc := range []struct {
		name   string
		access func(nd *Node)
	}{
		{"bulk read past the end", func(nd *Node) { nd.ReadF64s(space-accPageSize, buf) }},
		{"bulk write past the end", func(nd *Node) { nd.WriteF64s(space-accPageSize, buf) }},
		{"bulk read at a negative address", func(nd *Node) { nd.ReadF64s(-8, buf) }},
		{"byte read starting past the end", func(nd *Node) { nd.ReadAt(space+1, make([]byte, 1)) }},
		// addr+n wraps negative; the check must not.
		{"length that overflows addr+n", func(nd *Node) { nd.checkRange(accPageSize, math.MaxInt) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nd := accessCluster(t)[0]
			last := memory.PageID(accPages - 1) // homed at node 1, covered by the in-range prefix
			nd.pt.Invalidate(last)
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "outside shared space of 512 bytes") {
						t.Fatalf("panic %q, want the typed out-of-range message", msg)
					}
				}()
				tc.access(nd)
			}()
			got := outcome(nd, nil)
			if got.faults != 0 || got.fetches != 0 || got.twins != 0 || got.clock != 0 ||
				nd.pt.State(last) != memory.Invalid || len(nd.pt.DirtyPages()) != 0 {
				t.Fatalf("out-of-range access touched pages: %v", got)
			}
		})
	}
}
