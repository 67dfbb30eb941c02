package hlrc

import (
	"cmp"
	"fmt"
	"slices"

	"sdsm/internal/fault"
	"sdsm/internal/memory"
	"sdsm/internal/obsv"
	"sdsm/internal/simtime"
	"sdsm/internal/transport"
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
	req := nd.lockReqs.New()
	req.Lock, req.VT = l, nd.vt.Share()
	nd.mu.Unlock()
	resp := nd.ep.Call(ManagerNode, KindLockReq, req.WireSize(), req)
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
	nd.grantVT[l] = g.VT
	nd.opIndex++
	nd.mu.Unlock()
	nd.stats.LockAcquires.Add(1)
	end := nd.clock.Now()
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
	t0 := nd.syncClose(op)
	nd.FinishReleaseLive(op, l)
	nd.trc.Span(obsv.EvLockRelease, t0, nd.clock.Now(), int64(l), int64(op))
}

// syncClose is the first half of a release or a barrier, and where the
// injected failure at op strikes: the interval is closed (the logging
// protocol's sync-entry flush, then the diffs flushed home and logged)
// before the op communicates with the manager. It returns the op's start
// time.
func (nd *Node) syncClose(op int32) simtime.Time {
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
			// runs: the victim dies holding a lock, its final interval
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
	return t0
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
	rel := nd.lockRels.New()
	rel.Lock, rel.VT, rel.Notices = l, nd.vt.Share(), nd.notices.Delta(gvt)
	nd.opIndex++
	nd.mu.Unlock()
	nd.ep.Send(ManagerNode, KindLockRelease, rel.WireSize(), rel)
	// lastSyncStamp is NOT advanced here: the release is one-way, so
	// there is no manager-side stamp to adopt; arrivals after it are
	// fenced by the next acquire/barrier's grant stamp instead.
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
	t0 := nd.syncClose(op)
	nd.FinishBarrierLive(op, b)
	end := nd.clock.Now()
	nd.trc.Span(obsv.EvBarrierWait, t0, end, int64(b), int64(op))
	nd.trc.Observe(obsv.HistBarrierStall, int64(end-t0))
}

// FinishBarrierLive performs the post-crash-point part of a barrier:
// check-in, wait for the release, apply its notices.
func (nd *Node) FinishBarrierLive(op int32, b int32) {
	nd.mu.Lock()
	ci := nd.checkins.New()
	ci.Barrier, ci.VT, ci.Notices = b, nd.vt.Share(), nd.notices.Delta(nd.lastBarrierVT)
	nd.mu.Unlock()
	resp := nd.ep.Call(ManagerNode, KindBarrierCheckin, ci.WireSize(), ci)
	if resp.Kind == KindFenced {
		panic(ErrFenced)
	}
	rel := resp.Payload.(*BarrierRelease)
	nd.mu.Lock()
	nd.hooks.OnAcquireNotices(op, rel.Notices)
	nd.applyNoticesLocked(rel.Notices)
	nd.vt.Merge(rel.VT)
	nd.lastBarrierVT = rel.VT
	nd.opIndex++
	nd.mu.Unlock()
	nd.stats.Barriers.Add(1)
	if nd.PostBarrier != nil {
		nd.PostBarrier(op)
	}
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
		// Record the death in the membership and announce it. The
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
// virtual time (its burial carries the heal time, and until then the
// membership cuts its links: transport.Membership.Cut) while the
// cluster — whose lease detectors cannot tell a partitioned node from a
// dead one — declares it dead, bumps the membership epoch, and fails
// over its homes and locks. The victim keeps
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
	e := nd.members.Bury(nd.cfg.ID, tc+simtime.Time(nd.PartitionFor))
	ob := &Obituary{Node: int32(nd.cfg.ID), At: tc, Epoch: e}
	for i := 0; i < nd.cfg.N; i++ {
		if i != nd.cfg.ID {
			nd.ep.SendDetector(i, KindObit, ob.WireSize(), ob)
		}
	}
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
		nd.chargeFlush(n, false)
	}
}

// chargeFlush charges a log flush of n bytes issued now: its disk time d
// goes into the flush histogram, and the flush either stalls the clock by
// d, as a logging segment on the critical path, or runs beside the
// coherence traffic (overlapped), as a span on the disk track. It returns
// d and the virtual time the flush completes.
func (nd *Node) chargeFlush(n int, overlapped bool) (simtime.Duration, simtime.Time) {
	d := nd.cfg.Model.DiskTime(n)
	nd.trc.Observe(obsv.HistFlushDisk, int64(d))
	if overlapped {
		t0 := nd.clock.Now()
		nd.trc.DiskSpan(obsv.EvLogFlush, t0, t0+simtime.Time(d), int64(n), 0)
		return d, t0 + simtime.Time(d)
	}
	t0, t1 := nd.clock.AdvanceSpan(d)
	nd.trc.Seg(obsv.EvLogFlush, obsv.CatLogging, t0, t1, int64(n), 0)
	return d, t1
}

// anyDirtyLocked reports whether any incoming notice (not yet covered by
// vt) names a page that is dirty in the open interval.
func (nd *Node) anyDirtyLocked(ns []Notice) bool {
	for _, n := range ns {
		if nd.vt.Get().CoversInterval(int(n.Proc), n.Seq) {
			continue
		}
		for _, p := range n.Pages {
			if !nd.OwnsHome(p) && nd.pt.IsDirty(p) {
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
		if nd.vt.Get().CoversInterval(int(n.Proc), n.Seq) {
			nd.notices.Add(n) // duplicate-safe
			continue
		}
		for _, p := range n.Pages {
			if nd.OwnsHome(p) {
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

// flight is one diff batch of closeAndPropagate awaiting its ack.
type flight struct {
	to int
	du *DiffUpdate
	pd *transport.Pending
}

// closeIntervalLocked ends the open interval, whose dirty set is not
// empty: it ticks vt, closes each owned page's home interval (closeSelf),
// appends to diffs, in page order, the non-empty diff of every other
// dirty page (live) or only of a twinned migrated one (replay), records
// the write notice and ends the page table's interval. Callers hold mu.
func (nd *Node) closeIntervalLocked(diffs []memory.Diff, live bool) (seq int32, vtSum int64, _ []memory.Diff, compareBytes int) {
	dirty := nd.pt.DirtyPages()
	seq = nd.vt.Tick(nd.cfg.ID)
	vtSum = nd.vt.Get().Sum()
	pages := nd.pageLists.Cut(len(dirty))
	copy(pages, dirty)
	for _, p := range dirty {
		switch {
		case nd.OwnsHome(p):
			nd.home.closeSelf(p, seq)
		case live || nd.IsHome(p) && nd.pt.HasTwin(p):
			compareBytes += nd.cfg.PageSize
			if d := nd.pt.MakeDiff(p); !d.Empty() { // else a silent rewrite: nothing to send
				diffs = append(diffs, d)
			}
		}
	}
	nd.notices.Add(Notice{Proc: int32(nd.cfg.ID), Seq: seq, Pages: pages})
	nd.pt.EndInterval()
	nd.stats.Intervals.Add(1)
	return seq, vtSum, diffs, compareBytes
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
	// composed from handler-staged records that arrived by the cutoff, the
	// manager-side stamp of the grant or release that opened this interval
	// (lastSyncStamp). The arrival fence first waits, in real time only,
	// for this node's bound to pass the cutoff (DESIGN.md §4), so the
	// composition cannot depend on goroutine scheduling. The locally
	// observed resume time would not do: it carries retransmission-timeout
	// charges, so under faults it drifts past peers' send stamps and the
	// fence would wait for arrivals of the *next* interval. Skipped while
	// the service loop is down (the fail-stop crash path closes the
	// interval after StopService: the inbox is frozen) and during recovery
	// replay.
	cutoff := nd.lastSyncStamp
	if nd.hooks.DeterministicFlush() && nd.stopSvc != nil && nd.delegate == nil {
		nd.ep.FenceArrivalsBefore(cutoff)
	}
	nd.mu.Lock()
	dirty := nd.pt.DirtyPages()
	if len(dirty) == 0 {
		vtSum := nd.vt.Get().Sum()
		nd.mu.Unlock()
		if n := nd.hooks.AtRelease(op, 0, vtSum, cutoff, nil); n > 0 {
			d, _ := nd.chargeFlush(n, false)
			// With no diffs to send there is no round trip to hide behind:
			// the whole flush is release-path stall.
			nd.trc.Observe(obsv.HistFlushStall, int64(d))
		}
		return
	}

	seq, vtSum, created, compareBytes := nd.closeIntervalLocked(nd.created[:0], true)
	nd.mu.Unlock()

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
		flushBytes = int64(n)
		_, flushDone = nd.chargeFlush(n, !nd.cfg.NoFlushOverlap)
	}
	// Batches are keyed by static home (all pages of one batch share one
	// effective home), ascending, each in page order, and addressed to
	// whoever currently serves the home. Every batch is in flight before
	// any ack is awaited. The grouped list is cut anew per interval:
	// in-flight copies of its batches may outlive the call.
	byHome := nd.batchDiff.Cut(len(created))
	copy(byHome, created)
	clear(created)
	nd.created = created[:0]
	slices.SortStableFunc(byHome, func(a, b memory.Diff) int {
		return cmp.Compare(nd.HomeOf(a.Page), nd.HomeOf(b.Page))
	})
	flights := nd.flights[:0]
	var sentBytes int64
	for len(byHome) > 0 {
		h := nd.HomeOf(byHome[0].Page)
		n := 1
		for n < len(byHome) && nd.HomeOf(byHome[n].Page) == h {
			n++
		}
		du := nd.batches.New()
		du.Writer, du.Seq, du.Diffs = int32(nd.cfg.ID), seq, byHome[:n:n]
		byHome = byHome[n:]
		if nd.cfg.LeaseDuration > 0 {
			// The custody-application ordering key, recorded by an adopter
			// if this batch lands in a migrated home's custody.
			du.VTSum = vtSum
		}
		to := nd.members.Serving(h)
		sz := du.WireSize()
		sentBytes += int64(sz)
		flights = append(flights, flight{to: to, du: du, pd: nd.ep.CallAsync(to, KindDiffUpdate, sz, du)})
	}
	nd.stats.DiffBytesSent.Add(sentBytes)
	for _, f := range flights {
		nd.awaitHome(f.pd, f.to, KindDiffUpdate, f.du)
	}
	clear(flights)
	nd.flights = flights[:0]
	// Only the disk time not hidden behind the ack round trips remains on
	// the critical path.
	wt0, wt1 := nd.clock.MergePlusSpan(flushDone, 0)
	nd.trc.Seg(obsv.EvFlushWait, obsv.CatLogging, wt0, wt1, flushBytes, 0)
	nd.trc.Observe(obsv.HistFlushStall, int64(wt1-wt0))
}
