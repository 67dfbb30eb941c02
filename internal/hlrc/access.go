package hlrc

import (
	"encoding/binary"
	"fmt"
	"math"

	"sdsm/internal/memory"
	"sdsm/internal/obsv"
)

// Compute charges the node's virtual clock for application computation,
// expressed in floating-point operations.
func (nd *Node) Compute(flops float64) {
	t0, t1 := nd.clock.AdvanceSpan(nd.cfg.Model.FlopsTime(flops))
	nd.trc.Seg(obsv.EvCompute, obsv.CatCompute, t0, t1, int64(flops), 0)
}

// readable returns the frame of page p, valid for reading. It takes no
// lock: the application goroutine owns its page table's states and slots
// (DESIGN.md §2.8), so only a miss costs anything — one round trip to
// the home (the HLRC property).
func (nd *Node) readable(p memory.PageID) []byte {
	if nd.pt.State(p) == memory.Invalid {
		nd.validate(p)
	}
	return nd.pt.Page(p)
}

// validate resolves an Invalid page: through the recovery source during
// replay, by a fetch from the home otherwise.
func (nd *Node) validate(p memory.PageID) {
	if src := nd.source; src != nil {
		src.Validate(nd, p)
		return
	}
	nd.fetchPage(p)
}

// fetchPage performs the miss: fault cost, one round trip to the page's
// effective home (awaitHome follows the home if it has moved), install.
func (nd *Node) fetchPage(p memory.PageID) {
	if nd.OwnsHome(p) {
		panic(fmt.Sprintf("hlrc: node %d: home page %d is invalid", nd.cfg.ID, p))
	}
	home := nd.EffectiveHome(p)
	nd.stats.Faults.Add(1)
	t0, t1 := nd.clock.AdvanceSpan(nd.cfg.Model.FaultCost)
	nd.trc.Seg(obsv.EvPageFault, obsv.CatFault, t0, t1, int64(p), 0)
	var req *PageReq
	if nd.cfg.LeaseDuration > 0 {
		// The requester's vector time bounds a custody rebuild at an
		// adopter (the reply must cover every interval this node knows of).
		nd.mu.Lock()
		req = &PageReq{Page: p, VT: nd.vt.Share()}
		nd.mu.Unlock()
	} else {
		req = constPageReq(p, nd.cfg.NumPages) // shared, never written (pageReqs)
	}
	resp := nd.awaitHome(nd.ep.CallAsync(home, KindPageReq, req.WireSize(), req), home, KindPageReq, req)
	pr := resp.Payload.(*PageReply)
	nd.mu.Lock()
	nd.pt.Install(p, pr.Data)
	nd.hooks.OnPageFetched(nd.opIndex, p, pr.Data)
	nd.mu.Unlock()
	nd.stats.PageFetches.Add(1)
	end := nd.clock.Now()
	nd.trc.Span(obsv.EvPageFetch, t0, end, int64(p), int64(resp.Size))
	nd.trc.Observe(obsv.HistFetchLatency, int64(end-t0))
}

// lockWritable returns the frame of page p, writable in the current
// interval, with nd.mu held. A page already dirty costs one critical
// section; the first write of the interval takes the write fault.
func (nd *Node) lockWritable(p memory.PageID) []byte {
	nd.mu.Lock()
	if !nd.pt.IsDirty(p) {
		nd.writeFaultLocked(p)
	}
	return nd.pt.Page(p)
}

// writeFaultLocked is the first write to page p in the current interval:
// on a non-home page a software fault fires, the page is fetched if
// invalid, and a twin is created for later diffing. Home-page writes take
// no fault and create no twin (unless the page's undo history is armed and
// needs the before-image), matching the paper's home-node advantages. It
// is entered and left with nd.mu held and drops it around every clock
// charge and the fetch.
func (nd *Node) writeFaultLocked(p memory.PageID) {
	isHome := nd.OwnsHome(p)
	if nd.pt.State(p) == memory.Invalid {
		nd.mu.Unlock()
		nd.validate(p)
		nd.mu.Lock()
	}

	inRecovery := nd.source != nil
	if !nd.pt.IsDirty(p) {
		// Most replayed writes need no twin (the homes already have the
		// diffs), but two cases must recompute and re-flush them: the
		// crashed open interval (ops from TwinsFromOp on — its diffs never
		// left the node), and writes to this node's own migrated pages
		// under online recovery (their pre-crash self-writes reached no
		// other node, so the replay re-creates them in the successor's
		// custody; see closeReplayed).
		replayTwin := inRecovery &&
			((nd.TwinsFromOp >= 0 && nd.opIndex >= nd.TwinsFromOp) ||
				(nd.IsHome(p) && !isHome))
		switch {
		case isHome:
			if nd.home.armed(p) && !inRecovery && !nd.pt.HasTwin(p) {
				nd.pt.MakeTwin(p)
				nd.mu.Unlock()
				t0, t1 := nd.clock.AdvanceSpan(nd.cfg.Model.CopyTime(nd.cfg.PageSize))
				nd.trc.Seg(obsv.EvTwinCreate, obsv.CatCoherence, t0, t1, int64(p), int64(nd.cfg.PageSize))
				nd.mu.Lock()
			}
		case inRecovery && !replayTwin:
			// Replay recreates the writes but never the diffs (the homes
			// already have them), so the write fault costs a trap but no
			// twin copy.
			nd.mu.Unlock()
			nd.stats.Faults.Add(1)
			t0, t1 := nd.clock.AdvanceSpan(nd.cfg.Model.FaultCost)
			nd.trc.Seg(obsv.EvPageFault, obsv.CatFault, t0, t1, int64(p), 0)
			nd.mu.Lock()
			nd.pt.SetState(p, memory.Writable)
		default:
			if !nd.pt.HasTwin(p) {
				nd.pt.MakeTwin(p)
				nd.stats.TwinsCreated.Add(1)
			}
			nd.pt.SetState(p, memory.Writable)
			nd.mu.Unlock()
			nd.stats.Faults.Add(1)
			t0, t1 := nd.clock.AdvanceSpan(nd.cfg.Model.FaultCost)
			nd.trc.Seg(obsv.EvPageFault, obsv.CatFault, t0, t1, int64(p), 0)
			t0, t1 = nd.clock.AdvanceSpan(nd.cfg.Model.CopyTime(nd.cfg.PageSize))
			nd.trc.Seg(obsv.EvTwinCreate, obsv.CatCoherence, t0, t1, int64(p), int64(nd.cfg.PageSize))
			nd.mu.Lock()
		}
		nd.pt.MarkDirty(p)
	}
}

// checkRange panics on out-of-bounds shared-memory accesses.
func (nd *Node) checkRange(addr, n int) {
	if addr < 0 || n < 0 || n > nd.pt.Bytes()-addr {
		panic(fmt.Sprintf("hlrc: access of %d bytes at %d outside shared space of %d bytes", n, addr, nd.pt.Bytes()))
	}
}

// ReadAt copies len(dst) bytes of shared memory starting at addr into
// dst, faulting pages in as needed.
func (nd *Node) ReadAt(addr int, dst []byte) {
	nd.checkRange(addr, len(dst))
	for len(dst) > 0 {
		p, off := nd.pt.PageOf(addr)
		n := copy(dst, nd.readable(p)[off:])
		dst = dst[n:]
		addr += n
	}
}

// WriteAt copies src into shared memory starting at addr, taking write
// faults as needed.
func (nd *Node) WriteAt(addr int, src []byte) {
	nd.checkRange(addr, len(src))
	for len(src) > 0 {
		p, off := nd.pt.PageOf(addr)
		n := copy(nd.lockWritable(p)[off:], src)
		nd.mu.Unlock()
		src = src[n:]
		addr += n
	}
}

// ReadF64s bulk-reads len(dst) float64s starting at byte address addr (any
// alignment): each covered page's bytes move into dst in one block copy
// (memory.CopyToF64s). One bulk transfer faults each covered page at most
// once, like a real SDSM touching a range.
func (nd *Node) ReadF64s(addr int, dst []float64) {
	total := 8 * len(dst)
	nd.checkRange(addr, total)
	for done := 0; done < total; {
		p, off := nd.pt.PageOf(addr + done)
		n := min(nd.cfg.PageSize-off, total-done)
		memory.CopyToF64s(dst, done, nd.readable(p)[off:off+n])
		done += n
	}
}

// WriteF64s bulk-writes src starting at byte address addr, the write-side
// counterpart of ReadF64s (memory.CopyFromF64s).
func (nd *Node) WriteF64s(addr int, src []float64) {
	total := 8 * len(src)
	nd.checkRange(addr, total)
	for done := 0; done < total; {
		p, off := nd.pt.PageOf(addr + done)
		n := min(nd.cfg.PageSize-off, total-done)
		memory.CopyFromF64s(nd.lockWritable(p)[off:off+n], src, done)
		nd.mu.Unlock()
		done += n
	}
}

// ReadF64 reads a float64 at byte address addr.
func (nd *Node) ReadF64(addr int) float64 {
	var b [8]byte
	nd.ReadAt(addr, b[:])
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

// WriteF64 writes a float64 at byte address addr.
func (nd *Node) WriteF64(addr int, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	nd.WriteAt(addr, b[:])
}

// ReadI64 reads an int64 at byte address addr.
func (nd *Node) ReadI64(addr int) int64 {
	var b [8]byte
	nd.ReadAt(addr, b[:])
	return int64(binary.LittleEndian.Uint64(b[:]))
}

// WriteI64 writes an int64 at byte address addr.
func (nd *Node) WriteI64(addr int, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	nd.WriteAt(addr, b[:])
}
