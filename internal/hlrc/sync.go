package hlrc

import (
	"fmt"
	"sort"

	"sdsm/internal/fault"
	"sdsm/internal/memory"
	"sdsm/internal/obsv"
	"sdsm/internal/simtime"
	"sdsm/internal/transport"
	"sdsm/internal/vclock"
)

// AcquireLock acquires a lock: one request to the lock manager, whose
// grant piggybacks the write-invalidation notices the acquirer lacks.
func (nd *Node) AcquireLock(lock int) {
	l := int32(lock)
	op := nd.OpIndex()
	if d := nd.delegate; d != nil && d.Acquire(nd, op, l) {
		return
	}
	t0 := nd.clock.Now()
	nd.syncEntryFlush(op)
	nd.mu.Lock()
	req := &LockReq{Lock: l, VT: nd.vt.Clone()}
	nd.mu.Unlock()
	// The sync-wait mark lets peers' arrival fences skip this node while
	// it blocks for the grant (see transport.Endpoint.FenceArrivalsBefore);
	// no DiffUpdate is sent between here and the wake-up, so skipping is
	// safe for flush composition. The tag names the lock so a fence can
	// bound this node's wake by the published holder's clock.
	nd.ep.BeginSyncWait(nd.clock.Now(), transport.LockTag(int64(l)))
	resp := nd.ep.Call(ManagerNode, KindLockReq, req.WireSize(), req)
	nd.ep.EndSyncWait()
	if resp.Kind == KindFenced {
		panic(ErrFenced)
	}
	g := resp.Payload.(*LockGrant)

	nd.mu.Lock()
	nd.hooks.OnAcquireNotices(op, g.Notices)
	conflict := nd.anyDirtyLocked(g.Notices)
	nd.mu.Unlock()
	if conflict {
		// False-sharing path: an incoming notice names a page this node
		// has dirtied in the still-open interval. Close the interval
		// (flushing its diffs home) before invalidating, so the local
		// modifications are not lost.
		nd.stats.EarlyCloses.Add(1)
		nd.closeAndPropagate(op)
	}
	nd.mu.Lock()
	nd.applyNoticesLocked(g.Notices)
	nd.vt.Merge(g.VT)
	nd.grantVT[l] = g.VT.Clone()
	nd.opIndex++
	nd.mu.Unlock()
	// Holder registry: visible from here until just before the release
	// leaves (FinishReleaseLive), so a fence reading it can bound a
	// parked waiter's wake by this node's clock.
	nd.ep.PublishLockHeld(int64(l))
	nd.stats.LockAcquires.Add(1)
	end := nd.clock.Now()
	nd.lastSyncResume = end
	// The grant's manager-side stamp is the causal cut separating the
	// previous interval from this one: every peer message that should
	// land in the previous flush composition was sent before the manager
	// let this node proceed. resp.SentAt is stable across retransmission
	// (cached grants replay at their original stamps), unlike the local
	// resume time, which carries RTO charges.
	nd.lastSyncStamp = resp.SentAt
	nd.trc.Span(obsv.EvLockAcquire, t0, end, int64(l), int64(op))
	nd.trc.Observe(obsv.HistLockStall, int64(end-t0))
}

// ReleaseLock ends the current interval: diffs of dirty remote pages are
// flushed to their homes (and, under CCL, to the local disk, overlapped),
// then lock ownership returns to the manager together with the releaser's
// knowledge delta.
func (nd *Node) ReleaseLock(lock int) {
	l := int32(lock)
	op := nd.OpIndex()
	if d := nd.delegate; d != nil && d.Release(nd, op, l) {
		return
	}
	crashing := nd.crashingAt(op)
	if crashing && nd.PartitionFor > 0 {
		// Connectivity loss, not fail-stop: the node stays up and keeps
		// executing this op; only its links are cut (see partitionOnset).
		nd.partitionOnset(op)
		crashing = false
	}
	if crashing {
		nd.StopService()
		if nd.CrashPoint != fault.PointSyncExit {
			// Non-quiescent crash points fire before anything of this op
			// runs: the victim dies holding the lock, its final interval
			// neither flushed to the homes nor logged.
			nd.assertCrashPoint(op)
			nd.failStop(op)
		}
	}
	t0 := nd.clock.Now()
	nd.syncEntryFlush(op)
	nd.closeAndPropagate(op)
	if crashing {
		nd.failStop(op)
	}
	nd.FinishReleaseLive(op, l)
	nd.trc.Span(obsv.EvLockRelease, t0, nd.clock.Now(), int64(l), int64(op))
}

// FinishReleaseLive performs the post-crash-point part of a release: the
// LockRelease message to the manager. The recovery engine calls it
// directly when replay reaches the crash op (whose first half was already
// executed and logged before the failure).
func (nd *Node) FinishReleaseLive(op int32, l int32) {
	nd.mu.Lock()
	gvt, ok := nd.grantVT[l]
	if !ok {
		nd.mu.Unlock()
		panic(fmt.Sprintf("hlrc: node %d releases lock %d it does not hold", nd.cfg.ID, l))
	}
	delete(nd.grantVT, l)
	rel := &LockRelease{Lock: l, VT: nd.vt.Clone(), Notices: nd.notices.Delta(gvt)}
	nd.opIndex++
	nd.mu.Unlock()
	// Strictly before the release leaves: the fence's holder-bound skip
	// relies on "registry entry visible ⇒ release still in this node's
	// future" (see transport.Endpoint.ClearLockHeld).
	nd.ep.ClearLockHeld(int64(l))
	nd.ep.Send(ManagerNode, KindLockRelease, rel.WireSize(), rel)
	// lastSyncStamp is NOT advanced here: the release is one-way, so
	// there is no manager-side stamp to adopt; arrivals after it are
	// fenced by the next acquire/barrier's grant stamp instead.
	nd.lastSyncResume = nd.clock.Now()
}

// Barrier enters a global barrier: the interval is closed exactly as at a
// lock release, then a check-in message goes to the barrier manager and
// the reply (the barrier release, piggybacked with write-invalidation
// notices) ends the operation.
func (nd *Node) Barrier(barrier int) {
	b := int32(barrier)
	op := nd.OpIndex()
	if d := nd.delegate; d != nil && d.Barrier(nd, op, b) {
		return
	}
	crashing := nd.crashingAt(op)
	if crashing && nd.PartitionFor > 0 {
		// Connectivity loss, not fail-stop (see ReleaseLock).
		nd.partitionOnset(op)
		crashing = false
	}
	if crashing {
		nd.StopService()
		if nd.CrashPoint != fault.PointSyncExit {
			nd.assertCrashPoint(op)
			nd.failStop(op)
		}
	}
	t0 := nd.clock.Now()
	nd.syncEntryFlush(op)
	nd.closeAndPropagate(op)
	if crashing {
		nd.failStop(op)
	}
	nd.FinishBarrierLive(op, b)
	end := nd.clock.Now()
	nd.trc.Span(obsv.EvBarrierWait, t0, end, int64(b), int64(op))
	nd.trc.Observe(obsv.HistBarrierStall, int64(end-t0))
}

// FinishBarrierLive performs the post-crash-point part of a barrier:
// check-in, wait for the release, apply its notices.
func (nd *Node) FinishBarrierLive(op int32, b int32) {
	nd.mu.Lock()
	ci := &BarrierCheckin{Barrier: b, VT: nd.vt.Clone(), Notices: nd.notices.Delta(nd.lastBarrierVT)}
	round := nd.barrierRound[b]
	nd.mu.Unlock()
	// Sync-wait mark: peers' arrival fences skip a node parked at the
	// barrier (anything it sends after the release is past their cutoffs).
	// The tag names the barrier round so a fencing peer that still owes
	// its own check-in to this round recognizes the park as gated by
	// itself and never waits on it (the wake is behind the fencer).
	nd.ep.BeginSyncWait(nd.clock.Now(), transport.BarrierTag(int64(b), round))
	resp := nd.ep.Call(ManagerNode, KindBarrierCheckin, ci.WireSize(), ci)
	nd.ep.EndSyncWait()
	if resp.Kind == KindFenced {
		panic(ErrFenced)
	}
	rel := resp.Payload.(*BarrierRelease)
	nd.mu.Lock()
	nd.hooks.OnAcquireNotices(op, rel.Notices)
	nd.applyNoticesLocked(rel.Notices)
	nd.vt.Merge(rel.VT)
	nd.lastBarrierVT = rel.VT.Clone()
	nd.barrierRound[b] = round + 1
	nd.opIndex++
	nd.mu.Unlock()
	nd.stats.Barriers.Add(1)
	if nd.PostBarrier != nil {
		nd.PostBarrier(op)
	}
	nd.lastSyncResume = nd.clock.Now()
	// See AcquireLock: the manager-side release stamp is the sound cutoff
	// for the next interval's arrival fence.
	nd.lastSyncStamp = resp.SentAt
}

// failStop records the crash op and unwinds the application goroutine.
// The service loop was already stopped at the op's entry, so the volatile
// state is exactly what the op's flush captured — the paper's Fig. 1(b)
// scenario ("crashes ... after the volatile logs of this interval are
// flushed to the local disk").
func (nd *Node) failStop(op int32) {
	nd.mu.Lock()
	nd.crashedAt = op
	nd.mu.Unlock()
	if nd.cfg.LeaseDuration > 0 {
		// Record the death in the liveness registry and announce it. The
		// obituary is a simulator shortcut for every peer running an
		// independent lease-expiry detector: all of its effects are
		// stamped at D = crash time + LeaseDuration, so the timing matches
		// per-peer timeout tracking without any heartbeat traffic.
		tc := nd.clock.Now()
		nd.ep.MarkCrashed(tc)
		ob := &Obituary{Node: int32(nd.cfg.ID), At: tc}
		for i := 0; i < nd.cfg.N; i++ {
			if i != nd.cfg.ID {
				nd.ep.Send(i, KindObit, ob.WireSize(), ob)
			}
		}
	}
	panic(ErrCrashed)
}

// partitionOnset is the connectivity-loss variant of failStop: instead of
// unwinding, the node is cut off from every peer for PartitionFor of
// virtual time while the cluster — whose lease detectors cannot tell a
// partitioned node from a dead one — declares it dead, bumps the
// membership epoch, and fails over its homes and locks. The victim keeps
// running (service loop up, state intact): its in-window sends burn
// retransmission timeouts against the cut, and the first post-heal
// request is fenced by the receiver's epoch gate, unwinding the
// application goroutine with ErrFenced so the runner can re-admit it
// through the rejoin protocol. Obituaries travel via SendDetector —
// modeling the survivors' own lease-expiry detectors, which the
// partition cannot silence — and carry the bumped epoch.
func (nd *Node) partitionOnset(op int32) {
	tc := nd.clock.Now()
	nd.mu.Lock()
	nd.crashedAt = op
	nd.mu.Unlock()
	nd.CrashOp = -1 // fire once; later ops run normally until fenced
	nd.ep.MarkCrashed(tc)
	e := nd.ep.DeclareDead(nd.cfg.ID)
	ob := &Obituary{Node: int32(nd.cfg.ID), At: tc, Epoch: e}
	for i := 0; i < nd.cfg.N; i++ {
		if i != nd.cfg.ID {
			nd.ep.SendDetector(i, KindObit, ob.WireSize(), ob)
		}
	}
	nd.ep.InstallPartition(fault.PartitionWindow{
		Start:    tc,
		Duration: nd.PartitionFor,
		Groups:   [][]int{{nd.cfg.ID}}, // everyone else: implicit far side
	})
}

// gatesPeerPark is the arrival fence's gatedByMe callback: it reports
// whether a peer's sync park waits on a resource this node itself gates —
// a lock this node currently holds, or a barrier round this node has not
// yet checked into. Such a park's wake is causally behind the fencing
// node's own next release/check-in, so the fence must skip it (waiting
// would deadlock) and soundly can: nothing the peer sends after that wake
// can arrive at or before a cutoff stamped strictly earlier.
func (nd *Node) gatesPeerPark(peer int, tag int64) bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if b, round, ok := transport.TagBarrier(tag); ok {
		return nd.barrierRound[int32(b)] <= round
	}
	l, _ := transport.TagLock(tag)
	_, held := nd.grantVT[int32(l)]
	return held
}

// assertCrashPoint validates the non-quiescent crash-point preconditions
// the CrashPlan promised (dying in the wrong state would silently test
// nothing): the victim must hold a lock, and for the dirty-home point it
// must additionally be home for a page dirtied in the open interval.
func (nd *Node) assertCrashPoint(op int32) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if len(nd.grantVT) == 0 {
		panic(fmt.Sprintf("hlrc: node %d: %v crash point at op %d but no lock is held",
			nd.cfg.ID, nd.CrashPoint, op))
	}
	if nd.CrashPoint != fault.PointDirtyHome {
		return
	}
	for _, p := range nd.pt.DirtyPages() {
		if nd.IsHome(p) {
			return
		}
	}
	panic(fmt.Sprintf("hlrc: node %d: dirty-home crash point at op %d but no home page is dirty",
		nd.cfg.ID, op))
}

// crashingAt reports whether the injected fail-stop fires at this op.
func (nd *Node) crashingAt(op int32) bool {
	if nd.CrashOp < 0 || op < nd.CrashOp {
		return false
	}
	if nd.cfg.ID == ManagerNode {
		panic("hlrc: cannot crash a manager node (out of the paper's failure model)")
	}
	return true
}

// syncEntryFlush gives the logging protocol its synchronization-point
// flush opportunity (ML). The disk time lands fully on the critical path.
func (nd *Node) syncEntryFlush(op int32) {
	if n := nd.hooks.AtSyncEntry(op); n > 0 {
		d := nd.cfg.Model.DiskTime(n)
		t0, t1 := nd.clock.AdvanceSpan(d)
		nd.trc.Seg(obsv.EvLogFlush, obsv.CatLogging, t0, t1, int64(n), 0)
		nd.trc.Observe(obsv.HistFlushDisk, int64(d))
	}
}

// anyDirtyLocked reports whether any incoming notice (not yet covered by
// vt) names a page that is dirty in the open interval.
func (nd *Node) anyDirtyLocked(ns []Notice) bool {
	for _, n := range ns {
		if nd.vt.CoversInterval(int(n.Proc), n.Seq) {
			continue
		}
		for _, p := range n.Pages {
			if !nd.ownsHome(p) && nd.pt.IsDirty(p) {
				return true
			}
		}
	}
	return false
}

// applyNoticesLocked records incoming notices and invalidates the named
// remote copies. Home copies are never invalidated (they receive diffs
// directly). Callers hold nd.mu and have resolved dirty conflicts.
func (nd *Node) applyNoticesLocked(ns []Notice) {
	for _, n := range ns {
		if nd.vt.CoversInterval(int(n.Proc), n.Seq) {
			nd.notices.Add(n) // duplicate-safe
			continue
		}
		for _, p := range n.Pages {
			if nd.ownsHome(p) {
				continue
			}
			if nd.pt.IsDirty(p) {
				panic(fmt.Sprintf("hlrc: node %d invalidating dirty page %d (early close missed)", nd.cfg.ID, p))
			}
			nd.pt.Invalidate(p)
		}
		nd.notices.Add(n)
	}
}

// closeAndPropagate closes the current interval: diffs of dirty remote
// pages are computed against their twins and sent to the pages' homes
// (grouped per home, all in flight at once), the logging hook's release
// flush is overlapped with the ack wait, and the interval bookkeeping is
// advanced. With no dirty pages no interval is created, but the logging
// protocol still gets its flush opportunity (staged acquire notices and
// update-event records under CCL).
func (nd *Node) closeAndPropagate(op int32) {
	// With a deterministic-flush protocol (CCL) the release flush is
	// composed from handler-staged records that arrived by the previous
	// synchronization point. Fence those arrivals first — a real-time-only
	// wait — so the composition cannot depend on goroutine scheduling.
	// The cutoff is the manager-side stamp of the grant/release that
	// opened this interval (lastSyncStamp): the true causal cut — any
	// handler-staged record belonging to this flush was sent before the
	// manager let this node proceed. The locally observed resume time is
	// NOT sound here: it carries retransmission-timeout charges, so under
	// faults it drifts past peers' send stamps and the fence would wait
	// for arrivals that belong to the *next* interval. Skipped while the
	// service loop is down (the fail-stop crash path closes the interval
	// after StopService: the inbox is frozen) and during recovery replay.
	cutoff := nd.lastSyncStamp
	if nd.hooks.DeterministicFlush() && nd.stopSvc != nil && nd.delegate == nil {
		nd.ep.FenceArrivalsBefore(cutoff, nd.gatesPeerPark)
	}
	nd.mu.Lock()
	dirty := nd.pt.DirtyPages()
	if len(dirty) == 0 {
		vtSum := nd.vt.Sum()
		nd.mu.Unlock()
		if n := nd.hooks.AtRelease(op, 0, vtSum, cutoff, nil); n > 0 {
			d := nd.cfg.Model.DiskTime(n)
			t0, t1 := nd.clock.AdvanceSpan(d)
			nd.trc.Seg(obsv.EvLogFlush, obsv.CatLogging, t0, t1, int64(n), 0)
			nd.trc.Observe(obsv.HistFlushDisk, int64(d))
			// With no diffs to send there is no round trip to hide behind:
			// the whole flush is release-path stall.
			nd.trc.Observe(obsv.HistFlushStall, int64(d))
		}
		return
	}

	seq := nd.vt.Tick(nd.cfg.ID)
	vtSum := nd.vt.Sum()
	perHome := make(map[int][]memory.Diff)
	var created []memory.Diff
	pages := make([]memory.PageID, 0, len(dirty))
	compareBytes := 0
	for _, p := range dirty {
		pages = append(pages, p)
		if nd.ownsHome(p) {
			// Home writes need no diff to propagate (paper §2: "a
			// read/write to a page on its home node ... requires no
			// summary of write modifications"), but the write notice and
			// the version vector still advance.
			nd.ver[p][nd.cfg.ID] = seq
			if nd.cfg.HomeUndo && nd.pt.HasTwin(p) {
				// The undo entry of a self-write interval is what turns
				// the page back into its twin, which has absorbed every
				// remote update since: exactly the self-written words.
				if u := memory.UndoFromTwin(nd.pt.Page(p), nd.pt.Twin(p)); !u.Empty() {
					nd.undo[p] = append(nd.undo[p], undoEntry{writer: int32(nd.cfg.ID), seq: seq, undo: u})
				}
			}
			continue
		}
		d := nd.pt.MakeDiff(p)
		compareBytes += nd.cfg.PageSize
		if d.Empty() {
			continue // silent rewrite of identical values: nothing to send
		}
		home := nd.HomeOf(p)
		perHome[home] = append(perHome[home], d)
		created = append(created, d)
	}
	nd.notices.Add(Notice{Proc: int32(nd.cfg.ID), Seq: seq, Pages: pages})
	nd.pt.EndInterval()
	nd.mu.Unlock()

	nd.stats.Intervals.Add(1)
	nd.stats.DiffsCreated.Add(int64(len(created)))
	t0, t1 := nd.clock.AdvanceSpan(nd.cfg.Model.CopyTime(compareBytes))
	nd.trc.Seg(obsv.EvDiffMake, obsv.CatCoherence, t0, t1, int64(compareBytes), int64(len(created)))

	// The log flush executes before any diff leaves, so a diff a home has
	// applied is always already durable in its writer's log (torn-tail
	// recovery re-fetches lost home updates from the writers' logs and
	// relies on this). Its *virtual* disk time still overlaps the diff/ack
	// round trips (CCL's latency-tolerance technique): CallAsync does not
	// advance the clock, so flushDone computed here equals the paper's
	// flush-after-send overlap. With NoFlushOverlap (ablation) the flush
	// lands fully on the critical path instead.
	var flushDone simtime.Time
	var flushBytes int64
	if n := nd.hooks.AtRelease(op, seq, vtSum, cutoff, created); n > 0 {
		d := nd.cfg.Model.DiskTime(n)
		nd.trc.Observe(obsv.HistFlushDisk, int64(d))
		flushBytes = int64(n)
		if nd.cfg.NoFlushOverlap {
			ft0, ft1 := nd.clock.AdvanceSpan(d)
			nd.trc.Seg(obsv.EvLogFlush, obsv.CatLogging, ft0, ft1, flushBytes, 0)
		} else {
			flushDone = nd.clock.Now() + simtime.Time(d)
			nd.trc.DiskSpan(obsv.EvLogFlush, flushDone-simtime.Time(d), flushDone, flushBytes, 0)
		}
	}
	homes := make([]int, 0, len(perHome))
	for h := range perHome {
		homes = append(homes, h)
	}
	sort.Ints(homes)
	// Batches are keyed by static home (all pages of one batch share one
	// effective home) and addressed to whoever currently serves it.
	leases := nd.cfg.LeaseDuration > 0
	type flight struct {
		to int
		du *DiffUpdate
		pd *transport.Pending
	}
	flights := make([]flight, 0, len(homes))
	var sentBytes int64
	for _, h := range homes {
		dest := h
		du := &DiffUpdate{Writer: int32(nd.cfg.ID), Seq: seq, Diffs: perHome[h]}
		if leases {
			dest = nd.effectiveNode(h)
			// The custody-application ordering key, recorded by an adopter
			// if this batch lands in a migrated home's custody.
			du.VTSum = vtSum
		}
		sz := du.WireSize()
		sentBytes += int64(sz)
		flights = append(flights, flight{to: dest, du: du, pd: nd.ep.CallAsync(dest, KindDiffUpdate, sz, du)})
	}
	nd.stats.DiffBytesSent.Add(sentBytes)

	for i := range flights {
		f := &flights[i]
		if !leases {
			f.pd.Wait(nd.clock)
			continue
		}
		for {
			resp, ok := f.pd.WaitRedirect(nd.clock)
			if !ok {
				// The home crashed with the ack outstanding. Wait out its
				// lease, then resend to whoever serves its pages now. The
				// failover itself charges no virtual time, so this path
				// costs the same whether the death was noticed here or via
				// the obituary.
				nd.waitOutLease(f.to)
				nd.stats.RedirectedCalls.Add(1)
				f.to = nd.effectiveNode(f.to)
				f.pd = nd.ep.CallAsync(f.to, KindDiffUpdate, f.du.WireSize(), f.du)
				continue
			}
			if resp.Kind == KindFenced {
				// The receiver's cluster has declared this sender dead:
				// this incarnation's diffs must not land anywhere. Unwind
				// to the runner, which re-admits the node via rejoin.
				panic(ErrFenced)
			}
			if resp.Kind == KindRedirectHome {
				// The receiver no longer serves these pages: follow the
				// referral (bounded: custody only walks dead-node chains).
				nd.stats.RedirectedCalls.Add(1)
				f.to = int(resp.Payload.(*RedirectHome).Home)
				f.pd = nd.ep.CallAsync(f.to, KindDiffUpdate, f.du.WireSize(), f.du)
				continue
			}
			break // the DiffAck
		}
	}
	// Only the disk time not hidden behind the ack round trips remains on
	// the critical path.
	wt0, wt1 := nd.clock.MergePlusSpan(flushDone, 0)
	nd.trc.Seg(obsv.EvFlushWait, obsv.CatLogging, wt0, wt1, flushBytes, 0)
	nd.trc.Observe(obsv.HistFlushStall, int64(wt1-wt0))
}

// Manager-side handlers ------------------------------------------------

func (nd *Node) grantLocked(since vclock.VC) *LockGrant {
	return &LockGrant{VT: nd.mgrVT.Clone(), Notices: nd.mgrNotices.Delta(since)}
}

// issueGrantLocked records a fresh grant's retransmission state (and, with
// SenderLogs, appends it to the receiver's sender log). Callers hold nd.mu.
func (nd *Node) issueGrantLocked(ls *lockState, to int, reqID int64, g *LockGrant, at simtime.Time) {
	if nd.cfg.LeaseDuration > 0 {
		g.LeaseUntil = at + simtime.Time(nd.cfg.LeaseDuration)
	}
	ls.held = true
	ls.holder = to
	ls.holderReq = reqID
	ls.lastGrant = g
	ls.lastGrantAt = at
	if nd.cfg.SenderLogs {
		nd.grantLog[to] = append(nd.grantLog[to], g)
	}
}

func (nd *Node) handleLockReq(m transport.Message, at simtime.Time) {
	req := m.Payload.(*LockReq)
	nd.mu.Lock()
	ls := nd.locks[req.Lock]
	if ls == nil {
		ls = &lockState{}
		nd.locks[req.Lock] = ls
	}
	if ls.held {
		if ls.holder == m.From && ls.holderReq == m.ReqID {
			// Retransmission of the request we already granted: the grant
			// was lost on the wire. Re-send the identical grant, stamped
			// with the original grant time — the requester's clock already
			// carries the retransmission timeouts, and a stamp derived
			// from this copy's arrival would make the timing depend on
			// which handler path the retransmission raced into.
			g, gat := ls.lastGrant, ls.lastGrantAt
			nd.mu.Unlock()
			nd.ep.ReplyAt(gat, m, KindLockGrant, g.WireSize(), g)
			return
		}
		for i, q := range ls.queue {
			if q.m.From == m.From && q.m.ReqID == m.ReqID {
				// Retransmission of a still-queued request: keep the newest
				// copy (its reply fate is the live one) but the original
				// arrival time, which is what the handoff timing is
				// measured from.
				ls.queue[i].m = m
				nd.mu.Unlock()
				return
			}
		}
		ls.queue = append(ls.queue, pendingMsg{m: m, arrival: at})
		nd.mu.Unlock()
		return
	}
	g := nd.grantLocked(req.VT)
	nd.issueGrantLocked(ls, m.From, m.ReqID, g, at)
	nd.mu.Unlock()
	nd.trc.SvcSpanT(svcTrace(m), obsv.EvLockGrant, obsv.CatCoherence,
		at-simtime.Time(nd.cfg.Model.MsgHandling), at, m.From, m.SentAt,
		int64(req.Lock), 0)
	nd.ep.ReplyAt(at, m, KindLockGrant, g.WireSize(), g)
}

func (nd *Node) handleLockRelease(m transport.Message, at simtime.Time) {
	rel := m.Payload.(*LockRelease)
	nd.mu.Lock()
	nd.mgrNotices.AddAll(rel.Notices)
	nd.mgrVT.Merge(rel.VT)
	if rv, ok := nd.revoked[rel.Lock]; ok && rv.holder == m.From {
		// Replayed release of a lock this manager revoked when the holder
		// was declared dead: the knowledge delta was merged above, the
		// ownership change already happened at the revocation. Absorb.
		delete(nd.revoked, rel.Lock)
		nd.mu.Unlock()
		return
	}
	ls := nd.locks[rel.Lock]
	if ls == nil || !ls.held {
		nd.mu.Unlock()
		panic(fmt.Sprintf("hlrc: manager %d got release of free lock %d", nd.cfg.ID, rel.Lock))
	}
	var next pendingMsg
	var g *LockGrant
	var grantAt simtime.Time
	granted := false
	if len(ls.queue) > 0 {
		next, ls.queue = ls.queue[0], ls.queue[1:]
		g = nd.grantLocked(next.m.Payload.(*LockReq).VT)
		// The handoff happens when both the release and the queued
		// request have arrived.
		grantAt = at
		if next.arrival > grantAt {
			grantAt = next.arrival
		}
		nd.issueGrantLocked(ls, next.m.From, next.m.ReqID, g, grantAt)
		granted = true
	} else {
		ls.held = false
	}
	nd.mu.Unlock()
	if granted {
		// The handoff span's edge points at whichever message opened the
		// grant: the queued request if the handoff waited for it to
		// arrive, otherwise the release itself.
		edgeFrom, edgeSentAt := m.From, m.SentAt
		if next.arrival > at {
			edgeFrom, edgeSentAt = next.m.From, next.m.SentAt
		}
		// The handoff grant belongs to the queued requester's op: its trace
		// context (carried by the queued request copy) is what the grant
		// span joins, not the releaser's.
		nd.trc.SvcSpanT(svcTrace(next.m), obsv.EvLockGrant, obsv.CatCoherence,
			at-simtime.Time(nd.cfg.Model.MsgHandling), grantAt, edgeFrom, edgeSentAt,
			int64(rel.Lock), 0)
		nd.ep.ReplyAt(grantAt, next.m, KindLockGrant, g.WireSize(), g)
	}
}

func (nd *Node) handleBarrierCheckin(m transport.Message, at simtime.Time) {
	ci := m.Payload.(*BarrierCheckin)
	nd.mu.Lock()
	bs := nd.barriers[ci.Barrier]
	if bs == nil {
		bs = &barrierState{lastReply: make(map[int]barrierReply)}
		nd.barriers[ci.Barrier] = bs
	}
	if lr, ok := bs.lastReply[m.From]; ok && lr.reqID == m.ReqID {
		// Retransmission of a check-in from an already-released round: the
		// release was lost on the wire. Re-send the identical cached
		// release at the original release time (the check-in's own
		// retransmission timeouts are already on the sender's clock, and
		// a stamp derived from this copy's arrival would depend on which
		// handler path the retransmission raced into).
		nd.mu.Unlock()
		nd.ep.ReplyAt(lr.at, m, KindBarrierRelease, lr.rel.WireSize(), lr.rel)
		return
	}
	for i, w := range bs.waiting {
		if w.m.From == m.From {
			if w.m.ReqID != m.ReqID {
				nd.mu.Unlock()
				panic(fmt.Sprintf("hlrc: manager %d: node %d checked into barrier %d twice",
					nd.cfg.ID, m.From, ci.Barrier))
			}
			// Retransmission while the round is still filling: keep the
			// newest copy (its reply fate is the live one) but the first
			// copy's arrival time, which is what the barrier opening is
			// measured from.
			bs.waiting[i].m = m
			nd.mu.Unlock()
			return
		}
	}
	nd.mgrNotices.AddAll(ci.Notices)
	nd.mgrVT.Merge(ci.VT)
	bs.waiting = append(bs.waiting, pendingMsg{m: m, arrival: at})
	if len(bs.waiting) < nd.cfg.N {
		nd.mu.Unlock()
		return
	}
	waiting := bs.waiting
	bs.waiting = nil
	// The barrier opens when the last check-in has arrived. The last
	// arriver (ties broken by lowest node id, so the choice is
	// deterministic) is the release span's edge: it is the message the
	// critical path runs through.
	var releaseAt simtime.Time
	last := waiting[0]
	for _, w := range waiting {
		if w.arrival > releaseAt {
			releaseAt = w.arrival
		}
		if w.arrival > last.arrival || (w.arrival == last.arrival && w.m.From < last.m.From) {
			last = w
		}
	}
	type out struct {
		m   transport.Message
		rel *BarrierRelease
	}
	outs := make([]out, 0, len(waiting))
	for _, w := range waiting {
		since := w.m.Payload.(*BarrierCheckin).VT
		rel := &BarrierRelease{
			VT:      nd.mgrVT.Clone(),
			Notices: nd.mgrNotices.Delta(since),
		}
		if nd.cfg.LeaseDuration > 0 {
			rel.LeaseUntil = releaseAt + simtime.Time(nd.cfg.LeaseDuration)
		}
		bs.lastReply[w.m.From] = barrierReply{reqID: w.m.ReqID, rel: rel, at: releaseAt}
		if nd.cfg.SenderLogs {
			nd.releaseLog[w.m.From] = append(nd.releaseLog[w.m.From], rel)
		}
		outs = append(outs, out{m: w.m, rel: rel})
	}
	nd.mu.Unlock()
	// The release span joins the last arriver's trace: that check-in is the
	// message the release causally waits for.
	nd.trc.SvcSpanT(svcTrace(last.m), obsv.EvBarrierRelease, obsv.CatCoherence,
		releaseAt-simtime.Time(nd.cfg.Model.MsgHandling), releaseAt,
		last.m.From, last.m.SentAt, int64(ci.Barrier), int64(len(waiting)))
	for _, o := range outs {
		nd.ep.ReplyAt(releaseAt, o.m, KindBarrierRelease, o.rel.WireSize(), o.rel)
	}
}
