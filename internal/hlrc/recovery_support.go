package hlrc

import (
	"sdsm/internal/memory"
	"sdsm/internal/obsv"
	"sdsm/internal/vclock"
)

// This file holds the narrow interface the recovery engine
// (internal/recovery) and the checkpointer (internal/checkpoint) use to
// drive a Node outside normal operation. All of it runs on the victim's
// application goroutine while the victim's service loop is stopped, so
// the internal mutex is uncontended; it is still taken for consistency.

// CrashedAtOp returns the op index at which the injected crash fired, or
// -1 if the node has not crashed. It is set just before the ErrCrashed
// panic unwinds the application goroutine.
func (nd *Node) CrashedAtOp() int32 {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.crashedAt
}

// BumpOp advances the synchronization-operation counter; the recovery
// delegate calls it once per fully replayed op.
func (nd *Node) BumpOp() {
	nd.mu.Lock()
	nd.opIndex++
	nd.mu.Unlock()
}

// SetOpIndex overwrites the op counter (checkpoint restore).
func (nd *Node) SetOpIndex(op int32) {
	nd.mu.Lock()
	nd.opIndex = op
	nd.mu.Unlock()
}

// SetGrantVT records the knowledge horizon associated with a held lock,
// reconstructed during replay, so the eventual live release computes the
// right delta. The node keeps vt: nobody may write it afterwards.
func (nd *Node) SetGrantVT(lock int32, vt vclock.VC) {
	nd.mu.Lock()
	nd.grantVT[lock] = vt
	nd.mu.Unlock()
}

// SetLastBarrierVT overwrites the last-barrier knowledge horizon
// (replay bookkeeping for the first live check-in after recovery). The
// node keeps vt: nobody may write it afterwards.
func (nd *Node) SetLastBarrierVT(vt vclock.VC) {
	nd.mu.Lock()
	nd.lastBarrierVT = vt
	nd.mu.Unlock()
}

// MergeVT merges v into the node's vector time.
func (nd *Node) MergeVT(v vclock.VC) {
	nd.mu.Lock()
	nd.vt.Merge(v)
	nd.mu.Unlock()
}

// SetVer overwrites the version vector of a home page (checkpoint
// restore).
func (nd *Node) SetVer(p memory.PageID, v vclock.VC) {
	nd.mu.Lock()
	nd.home.setVer(p, v)
	nd.mu.Unlock()
}

// ResetUndo clears the home-side undo history (taken checkpoints bound
// the history the same way they bound the log).
func (nd *Node) ResetUndo() {
	nd.mu.Lock()
	nd.home.resetUndo()
	nd.mu.Unlock()
}

// CloseIntervalLocal closes an interval during recovery replay: the
// dirty set becomes this node's next write notice, home-page version
// vectors advance, the page table ends the interval. Diffs of pages homed
// elsewhere are neither computed nor sent (the homes received them
// before the failure, and the log already holds them). The dirty
// migrated pages (statically homed here, but in a successor's custody
// since the crash) are the exception: their self-writes never reached
// another node, so they are diffed before the close drops their twins and
// flushed to their effective home under the interval's (writer, seq,
// vtSum) key, the one the live run would have used. The ack is awaited
// with a detached fixed-round-trip charge so a successor clock far ahead
// of the replay cannot catapult the replay clock forward. Returns the
// closed interval's sequence number, or 0 when the interval was empty.
func (nd *Node) CloseIntervalLocal() int32 {
	nd.mu.Lock()
	if len(nd.pt.DirtyPages()) == 0 {
		nd.mu.Unlock()
		return 0
	}
	seq, vtSum, diffs, compareBytes := nd.closeIntervalLocked(nil, false)
	nd.mu.Unlock()
	if len(diffs) == 0 {
		return seq
	}
	t0, t1 := nd.clock.AdvanceSpan(nd.cfg.Model.CopyTime(compareBytes))
	nd.trc.Seg(obsv.EvDiffMake, obsv.CatRecovery, t0, t1, int64(compareBytes), int64(len(diffs)))
	nd.stats.DiffsCreated.Add(int64(len(diffs)))
	du := &DiffUpdate{Writer: int32(nd.cfg.ID), Seq: seq, VTSum: vtSum, Diffs: diffs}
	to := nd.members.Serving(nd.cfg.ID)
	for {
		sz := du.WireSize()
		nd.stats.DiffBytesSent.Add(int64(sz))
		resp := nd.ep.CallAsync(to, KindDiffUpdate, sz, du).WaitDetached(nd.clock)
		if resp.Kind == KindFenced {
			panic(ErrFenced)
		}
		if resp.Kind != KindRedirectHome {
			return seq
		}
		nd.stats.RedirectedCalls.Add(1)
		to = int(resp.Payload.(*RedirectHome).Home)
	}
}

// HoldsLocks reports whether the node currently holds any lock.
// Checkpoints are only taken at lock-free points.
func (nd *Node) HoldsLocks() bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return len(nd.grantVT) > 0
}

// FrozenState is an atomic snapshot of everything a checkpoint saves.
// Its vectors are the node's own, shared: nobody may write them.
type FrozenState struct {
	// Pages is the sparse shared-memory image (see
	// memory.PageTable.Snapshot) and ChangedPages the number of pages
	// whose bytes differ from the image Freeze was given.
	Pages        [][]byte
	ChangedPages int
	VT           vclock.VC
	Op           int32
	Notices      []Notice
	VerPages     []memory.PageID
	Vers         []vclock.VC
}

// Freeze captures the node's checkpointable state under the state mutex,
// so concurrently applied asynchronous updates are either fully included
// (their event records tagged with an earlier op) or fully excluded
// (tagged with a later op and replayed after a restore). prev is the
// memory image of the previous checkpoint, nil for the first.
func (nd *Node) Freeze(prev [][]byte) *FrozenState {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	fs := &FrozenState{
		VT:      nd.vt.Share(),
		Op:      nd.opIndex,
		Notices: nd.notices.Delta(nil),
	}
	fs.Pages, fs.ChangedPages = nd.pt.Snapshot(prev)
	fs.VerPages, fs.Vers = nd.home.freeze()
	return fs
}

// AnyDirty reports whether any of the notices (not yet covered by vt)
// names a locally dirty page — the recovery replay's mirror of the live
// protocol's early-close condition.
func (nd *Node) AnyDirty(ns []Notice) bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.anyDirtyLocked(ns)
}

// InstallPage makes fetched or logged contents the local copy of page p
// and marks it ReadOnly (a recovery miss / ML log replay). The node takes
// ownership of data, as memory.PageTable.Install does.
func (nd *Node) InstallPage(p memory.PageID, data []byte) {
	nd.mu.Lock()
	nd.pt.Install(p, data)
	nd.mu.Unlock()
}

// StagePage makes fetched contents the local copy of page p but leaves the
// page Invalid (CCL-recovery's prefetch): the replay's first access then
// reaches the recovery delegate, which reveals the copy with RevealPage.
// The node takes ownership of data, as InstallPage does.
func (nd *Node) StagePage(p memory.PageID, data []byte) {
	nd.mu.Lock()
	nd.pt.Install(p, data)
	nd.pt.Invalidate(p)
	nd.mu.Unlock()
}

// RevealPage marks the copy StagePage left for page p ReadOnly.
func (nd *Node) RevealPage(p memory.PageID) {
	nd.mu.Lock()
	nd.pt.SetState(p, memory.ReadOnly)
	nd.mu.Unlock()
}

// InvalidatePage invalidates a local (non-home) copy (ML replay applies
// logged notices this way, CCL replay the notices of pages it does not
// prefetch). A recovered incarnation's migrated pages are
// non-home for this purpose: their stale copies must not be read.
func (nd *Node) InvalidatePage(p memory.PageID) {
	nd.mu.Lock()
	if !nd.OwnsHome(p) {
		nd.pt.Invalidate(p)
	}
	nd.mu.Unlock()
}

// NumPages returns the size of the shared space in pages.
func (nd *Node) NumPages() int { return nd.cfg.NumPages }

// HomeVersion returns a copy of the version vector of a home page, or nil
// if the page is not homed here. Torn-tail recovery uses it to bound its
// writer-log re-fetches to the intervals the home copy does not yet carry.
func (nd *Node) HomeVersion(p memory.PageID) vclock.VC {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if v := nd.home.version(p); v != nil {
		return v.Clone()
	}
	return nil
}

// HomeVersionAt returns component w of home page p's version vector (0
// if the page is not homed here).
func (nd *Node) HomeVersionAt(p memory.PageID, w int) int32 {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if v := nd.home.version(p); v != nil {
		return v[w]
	}
	return 0
}
