package hlrc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
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
	nodes := benchCluster(2, accPages, accPageSize)
	t.Cleanup(func() { stopAll(nodes) })
	for _, nd := range nodes {
		nd.mu.Lock()
		for p := 0; p < accPages; p++ {
			frame := nd.pt.Page(memory.PageID(p))
			for i := range frame {
				frame[i] = byte(7*p + i + 1)
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
		repeat     bool // access the range a second time: no new fault, fetch or twin
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
			run := func(access func(nd *Node, vals []float64)) accessOutcome {
				nd := accessCluster(t)[0]
				for _, p := range tc.invalidate {
					nd.pt.Invalidate(p)
				}
				vals := make([]float64, tc.n)
				if tc.write {
					copy(vals, src)
				}
				access(nd, vals)
				if tc.repeat {
					access(nd, vals)
				}
				return outcome(nd, vals)
			}
			typed := run(func(nd *Node, vals []float64) {
				if tc.write {
					nd.WriteF64s(tc.addr, vals)
				} else {
					nd.ReadF64s(tc.addr, vals)
				}
			})
			byByte := run(func(nd *Node, vals []float64) {
				buf := make([]byte, 8*len(vals))
				if tc.write {
					for i, v := range vals {
						binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
					}
					nd.WriteAt(tc.addr, buf)
					return
				}
				nd.ReadAt(tc.addr, buf)
				for i := range vals {
					vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
				}
			})
			if !typed.equal(byByte) {
				t.Fatalf("typed path and byte path disagree:\n typed %v\n bytes %v", typed, byByte)
			}
			if typed.faults != tc.faults || typed.fetches != tc.fetches || typed.twins != tc.twins {
				t.Fatalf("range cost %v, want faults=%d fetches=%d twins=%d", typed, tc.faults, tc.fetches, tc.twins)
			}
		})
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
