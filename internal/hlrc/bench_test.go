package hlrc

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"sdsm/internal/arena"
	"sdsm/internal/memory"
	"sdsm/internal/simtime"
	"sdsm/internal/transport"
)

// benchCluster builds n nodes without the testing.T plumbing.
func benchCluster(n, numPages, pageSize int) []*Node {
	model := simtime.DefaultCostModel()
	nw := transport.NewNetwork(n, model)
	homes := make([]int, numPages)
	for i := range homes {
		homes[i] = i % n
	}
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = NewNode(Config{
			ID: i, N: n, PageSize: pageSize, NumPages: numPages,
			Homes: homes, Model: model,
		}, nw, simtime.NewClock(0), nil, nil)
		nodes[i].StartService()
	}
	return nodes
}

func stopAll(nodes []*Node) {
	for _, nd := range nodes {
		nd.StopService()
	}
}

func runAll(nodes []*Node, prog func(nd *Node)) {
	var wg sync.WaitGroup
	for _, nd := range nodes {
		wg.Add(1)
		go func(nd *Node) {
			defer wg.Done()
			prog(nd)
		}(nd)
	}
	wg.Wait()
}

// BenchmarkBarrierRound measures one full 8-node barrier (real goroutine
// coordination through the simulated manager).
func BenchmarkBarrierRound(b *testing.B) {
	nodes := benchCluster(8, 8, 4096)
	defer stopAll(nodes)
	b.ResetTimer()
	runAll(nodes, func(nd *Node) {
		for i := 0; i < b.N; i++ {
			nd.Barrier(i)
		}
	})
}

// BenchmarkLockHandoff measures a contended lock acquire/release cycle.
func BenchmarkLockHandoff(b *testing.B) {
	nodes := benchCluster(4, 8, 4096)
	defer stopAll(nodes)
	b.ResetTimer()
	runAll(nodes, func(nd *Node) {
		for i := 0; i < b.N; i++ {
			nd.AcquireLock(1)
			nd.ReleaseLock(1)
		}
	})
}

// BenchmarkPageFetch measures the miss path: invalidate + one-round-trip
// fetch from the home.
func BenchmarkPageFetch(b *testing.B) {
	nodes := benchCluster(2, 2, 4096)
	defer stopAll(nodes)
	nd := nodes[0]
	page := nd.PageTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page.Invalidate(1) // homed at node 1
		_ = nd.ReadI64(4096)
	}
}

// BenchmarkReleaseWithDiffs measures an interval close that diffs and
// flushes four dirty remote pages to their home.
func BenchmarkReleaseWithDiffs(b *testing.B) {
	nodes := benchCluster(2, 8, 4096)
	defer stopAll(nodes)
	nd := nodes[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for g := 0; g < 4; g++ {
			nd.WriteI64((2*g+1)*4096, int64(i)) // odd pages homed at node 1
		}
		nd.AcquireLock(3)
		nd.ReleaseLock(3)
	}
}

// benchRow is the kernels' usual bulk transfer: one 72-double grid row.
const benchRow = 72

// bulkBenchNode returns node 0 of a 2-node cluster with every page valid
// and already written in the open interval, so the benchmarks below time
// the steady-state access path (home and cached pages alike), not faults.
func bulkBenchNode(b *testing.B) (*Node, []float64) {
	nodes := benchCluster(2, 8, 4096)
	b.Cleanup(func() { stopAll(nodes) })
	nd := nodes[0]
	all := make([]float64, nd.PageTable().Bytes()/8)
	nd.WriteF64s(0, all)
	b.ReportAllocs()
	b.ResetTimer()
	return nd, all[:benchRow]
}

// The three places a row can sit, as byte addresses of the i'th access:
// rows packed from address 0 (row stride 576 bytes over 4096-byte pages,
// so one row in seven crosses a page boundary); a row centred on a page
// boundary, so every access covers two pages; and the packed rows shifted
// to an odd byte offset, where a crossing row also has a float64 with
// bytes on both pages.
func packedRow(nd *Node, i int) int {
	return (i % (nd.pt.Bytes() / (8 * benchRow))) * 8 * benchRow
}
func straddlingRow(nd *Node, i int) int {
	return (1+i%(nd.pt.NumPages()-1))*nd.pt.PageSize() - 8*benchRow/2
}
func unalignedRow(nd *Node, i int) int { return packedRow(nd, i) + 3 }

func benchBulkRead(b *testing.B, addr func(*Node, int) int) {
	nd, row := bulkBenchNode(b)
	for i := 0; i < b.N; i++ {
		nd.ReadF64s(addr(nd, i), row)
	}
}

func benchBulkWrite(b *testing.B, addr func(*Node, int) int) {
	nd, row := bulkBenchNode(b)
	for i := 0; i < b.N; i++ {
		nd.WriteF64s(addr(nd, i), row)
	}
}

func BenchmarkBulkReadF64s(b *testing.B)            { benchBulkRead(b, packedRow) }
func BenchmarkBulkWriteF64s(b *testing.B)           { benchBulkWrite(b, packedRow) }
func BenchmarkBulkReadF64sStraddling(b *testing.B)  { benchBulkRead(b, straddlingRow) }
func BenchmarkBulkWriteF64sStraddling(b *testing.B) { benchBulkWrite(b, straddlingRow) }
func BenchmarkBulkReadF64sUnaligned(b *testing.B)   { benchBulkRead(b, unalignedRow) }
func BenchmarkBulkWriteF64sUnaligned(b *testing.B)  { benchBulkWrite(b, unalignedRow) }

// BenchmarkPageAtVersion times a versioned fetch that rolls a 4 KB home
// page back across half of a sixteen-interval history, per write shape.
func BenchmarkPageAtVersion(b *testing.B) {
	for _, shape := range undoShapes {
		b.Run(shape.name, func(b *testing.B) {
			nd, need := pageAtVersionHistory(shape)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data := nd.pageAtVersion(0, need)
				arena.Put(data) // as the fetching node's Install does
			}
		})
	}
}

// BenchmarkHomeUndoClose times a served home page's interval close with
// the undo history on: one whole-page write that changes the shape's
// words, then the close that records the interval's undo entry.
func BenchmarkHomeUndoClose(b *testing.B) {
	for _, shape := range undoShapes {
		b.Run(shape.name, func(b *testing.B) {
			nd := undoNode(4096, true)
			servePage(nd, 0)
			rng := rand.New(rand.NewSource(1))
			imgs := [2][]byte{make([]byte, 4096), make([]byte, 4096)}
			for _, w := range shape.words(rng, 4096/memory.WordSize) {
				binary.LittleEndian.PutUint32(imgs[1][w*memory.WordSize:], rng.Uint32()|1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nd.WriteAt(0, imgs[i%2])
				nd.closeAndPropagate(int32(i))
				if i%64 == 63 {
					nd.home.resetUndo()
				}
			}
		})
	}
}

// BenchmarkWireSize sizes one full value of every payload type per
// iteration, as every simulated send does once: the cost of the codec's
// walk in its sizing mode, which must not allocate.
func BenchmarkWireSize(b *testing.B) {
	full := fullValues()
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		for _, tc := range full {
			n += tc.v.WireSize()
		}
	}
	if n == 0 {
		b.Fatal("no bytes sized")
	}
}

// BenchmarkAppendWire encodes one full value of every payload type per
// iteration into a buffer with room, as a tcp send does into its link's
// queue.
func BenchmarkAppendWire(b *testing.B) {
	full := fullValues()
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tc := range full {
			buf = tc.v.AppendWire(buf[:0])
		}
	}
}
