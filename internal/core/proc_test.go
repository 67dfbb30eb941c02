package core

import (
	"testing"

	"sdsm/internal/wal"
)

// TestBulkAccessorsZeroAllocs pins the access path's contract: once the
// covered pages are valid (home pages, and cached pages already fetched
// and twinned), a bulk read or write copies each word once and allocates
// nothing. testing.AllocsPerRun counts every goroutine's allocations, so
// the other nodes send nothing until node 0 has measured: their barrier
// check-ins would allocate on their goroutines and on the manager's.
func TestBulkAccessorsZeroAllocs(t *testing.T) {
	cfg := testCfg(wal.ProtocolNone)
	var reads, writes float64
	measured := make(chan struct{})
	_, err := Run(cfg, func(p *Proc) {
		if p.ID() != 0 {
			<-measured
		} else {
			// Every page of the space: node 0's home pages and its cached
			// copies of everyone else's.
			buf := make([]float64, p.MemBytes()/8)
			p.ReadF64s(0, buf)  // fetches nothing (initial image), touches every frame
			p.WriteF64s(0, buf) // first write: twins every cached page
			reads = testing.AllocsPerRun(50, func() { p.ReadF64s(0, buf) })
			writes = testing.AllocsPerRun(50, func() { p.WriteF64s(0, buf) })
			// An unaligned row, the kernels' usual size, straddling a page.
			row := buf[:72]
			reads += testing.AllocsPerRun(50, func() { p.ReadF64s(cfg.PageSize-12, row) })
			writes += testing.AllocsPerRun(50, func() { p.WriteF64s(cfg.PageSize-12, row) })
			close(measured)
		}
		p.Barrier(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if reads != 0 || writes != 0 {
		t.Fatalf("allocs per bulk access: ReadF64s %.1f, WriteF64s %.1f, want 0", reads, writes)
	}
}
