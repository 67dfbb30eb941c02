package hlrc

import (
	"sdsm/internal/memory"
	"sdsm/internal/obsv"
	"sdsm/internal/transport"
	"sdsm/internal/vclock"
)

// This file holds the narrow interface the recovery engine
// (internal/recovery) and the checkpointer (internal/checkpoint) use to
// drive a Node outside normal operation, on its application goroutine.

// CrashedAtOp returns the op index at which the injected crash fired, or
// -1 if the node has not crashed. It is set just before the ErrCrashed
// panic unwinds the application goroutine.
func (nd *Node) CrashedAtOp() int32 {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.crashedAt
}

// LoggedSync is what a replayed acquire or barrier received before the
// crash, read back by recovery: the grant's or release's write notices
// and a vector time covering them (a release receives nothing).
type LoggedSync struct {
	Notices []Notice
	VT      vclock.VC
}

// Replay says how much of a synchronization operation a SyncSource
// replays.
type Replay uint8

const (
	ReplayNone  Replay = iota // all of it runs live: the source has detached
	ReplayWhole               // all of it replays, without communicating
	ReplayLocal               // the crash op: its local half replays, its message goes live
)

// A SyncSource feeds a recovering node's synchronization operations from
// its logs in place of the managers (recovery.Replayer). While one is
// installed (ReplayFrom), every acquire, release and barrier runs the
// same sync step as the live protocol on the inputs the source supplies,
// and page misses resolve through it. All of it runs on the node's
// application goroutine.
type SyncSource interface {
	// Fate says how much of sync op op, of kind KindLockReq,
	// KindLockRelease or KindBarrierCheckin, replays.
	Fate(nd *Node, op int32, kind transport.Kind) Replay
	// Logged consumes the logged records of op and returns what the op
	// received. A release or a barrier has closed its interval first.
	Logged(nd *Node, op int32, kind transport.Kind) LoggedSync
	// Applied runs after the node has applied ls (a release applies
	// nothing): the source's own work at op, such as fetching the diffs
	// its home copies lack and prefetching pages. At the crash op it
	// detaches.
	Applied(nd *Node, op int32, ls LoggedSync)
	// Validate makes an Invalid page readable during replay.
	Validate(nd *Node, page memory.PageID)
}

// ReplayFrom installs src: the node replays its synchronization
// operations from src until src detaches.
func (nd *Node) ReplayFrom(src SyncSource) { nd.source = src }

// replay runs the part of sync op op (kind KindLockReq, KindLockRelease
// or KindBarrierCheckin; id names the lock or the barrier) that the
// installed source replays, and reports how much that was: the replay
// close of a release or barrier, the live step (learn) on what an
// acquire or barrier received, the source's own work.
func (nd *Node) replay(op int32, kind transport.Kind, id int32) Replay {
	src := nd.source
	if src == nil {
		return ReplayNone
	}
	how := src.Fate(nd, op, kind)
	if how == ReplayNone {
		nd.source = nil
		return how
	}
	if kind != KindLockReq {
		nd.closeReplayed()
		nd.mu.Lock()
		nd.reportedSelf = nd.vt.Get()[nd.cfg.ID]
		nd.mu.Unlock()
	}
	ls := src.Logged(nd, op, kind)
	if how == ReplayWhole && kind != KindLockRelease {
		nd.learn(op, kind, id, ls.Notices, ls.VT)
	}
	src.Applied(nd, op, ls)
	switch {
	case how == ReplayLocal:
		nd.source = nil
	case kind == KindLockRelease:
		nd.mu.Lock()
		nd.opIndex++
		nd.mu.Unlock()
	}
	return how
}

// closeReplayed is the replay's interval close: the dirty set becomes
// this node's next write notice, home-page version vectors advance, the
// page table ends the interval. Diffs of pages homed elsewhere are
// neither computed nor sent (the homes received them before the failure,
// and the log already holds them). The dirty migrated pages (statically
// homed here, but in a successor's custody since the crash) are the
// exception: their self-writes never reached another node, so they are
// diffed before the close drops their twins and flushed to their
// effective home under the interval's (writer, seq, vtSum) key, the one
// the live run would have used. The ack is awaited with a detached
// fixed-round-trip charge so a successor clock far ahead of the replay
// cannot catapult the replay clock forward.
func (nd *Node) closeReplayed() {
	nd.mu.Lock()
	if nd.TwinsFromOp >= 0 {
		// The crashed interval, re-diffed live at the crash op, restarts
		// here: only writes from the next op on can belong to it.
		nd.TwinsFromOp = nd.opIndex + 1
	}
	if len(nd.pt.DirtyPages()) == 0 {
		nd.mu.Unlock()
		return
	}
	seq, vtSum, diffs, compareBytes := nd.closeIntervalLocked(nil, false)
	nd.mu.Unlock()
	if len(diffs) == 0 {
		return
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
			return
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

// Restore loads a checkpoint's state into the node, the counterpart of
// Freeze: fs.Pages as the whole memory image, the vector time, the op
// counter, the notices and the home pages' version vectors, with the undo
// history cleared and the last-barrier horizon reset (conservatively).
// The node keeps fs's notice page lists.
func (nd *Node) Restore(fs *FrozenState) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.pt.Restore(fs.Pages)
	nd.vt.Set(fs.VT.Clone())
	nd.reportedSelf = fs.VT.At(nd.cfg.ID) // taken at a lock-free barrier exit or at op 0
	nd.opIndex = fs.Op
	nd.lastBarrierVT = vclock.New(nd.cfg.N)
	nd.notices.AddAll(fs.Notices)
	for i, p := range fs.VerPages {
		nd.home.setVer(p, fs.Vers[i])
	}
	nd.home.resetUndo()
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
// reaches the recovery source, which reveals the copy with RevealPage.
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
