// Package recovery implements the paper's crash-recovery schemes for the
// recoverable home-based SDSM:
//
//   - Re-execution (the no-logging baseline): restart the entire program
//     from the initial state; it costs the original execution time.
//
//   - ML-recovery: the victim replays alone from its local disk log. The
//     logged write notices are applied at each synchronization point, the
//     logged incoming diffs are applied to its home copies, and every
//     memory miss is served by reading the logged page copy from disk —
//     the per-miss disk stall is the "memory miss idle time" the paper
//     charges against ML.
//
//   - CCL-recovery (the paper's scheme): at the beginning of each replayed
//     interval the victim reads its (small) local log once, fetches the
//     logged update events' diffs from the writers' logs, and prefetches
//     every remote page named by the interval's write-invalidation
//     notices directly from the live homes, at exactly the version the
//     replay needs. Page faults never happen during replay.
//
// Surviving nodes answer the recovery's versioned page fetches and logged
// diff reads through a service handler installed on every node
// (InstallService).
package recovery

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"sdsm/internal/hlrc"
	"sdsm/internal/memory"
	"sdsm/internal/obsv"
	"sdsm/internal/simtime"
	"sdsm/internal/stable"
	"sdsm/internal/transport"
	"sdsm/internal/vclock"
	"sdsm/internal/wal"
)

// Kind selects a recovery scheme.
type Kind int

// The recovery schemes compared in Figure 5.
const (
	// ReExecution restarts the program from the initial state.
	ReExecution Kind = iota
	// MLRecovery replays the victim from its message log.
	MLRecovery
	// CCLRecovery replays the victim with prefetch-based reconstruction.
	CCLRecovery
)

// String names the scheme as in the paper's figures.
func (k Kind) String() string {
	switch k {
	case ReExecution:
		return "Re-Execution"
	case MLRecovery:
		return "ML-Recovery"
	case CCLRecovery:
		return "CCL-Recovery"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// InstallService installs the recovery-service handler on a node: it
// serves versioned page fetches (RecPageReq) from the node's home copies
// (rolling back with the undo history when the copy has advanced past the
// needed version) and logged-diff reads (RecDiffsReq) from the node's
// stable store. Every node gets this at cluster construction, so any
// single peer can recover.
func InstallService(nd *hlrc.Node, store *stable.Store) {
	ep := nd.Endpoint()
	// The adopter's custody rebuilds read this node's own logged diffs
	// through a direct call — a network round trip to self would deadlock
	// the service goroutine.
	nd.LocalLogDiffs = func(p memory.PageID, fromSeq, toSeq int32) ([]int32, []int64, []memory.Diff, int) {
		resp := readLoggedDiffs(store, &hlrc.RecDiffsReq{Page: p, FromSeq: fromSeq, ToSeq: toSeq})
		return resp.Seqs, resp.VTSums, resp.Diffs, resp.DiskBytes
	}
	nd.ExtraHandler = func(m transport.Message) bool {
		at := ep.ArrivalOf(m) + simtime.Time(nd.Model().MsgHandling)
		switch m.Kind {
		case hlrc.KindRecPageReq:
			req := m.Payload.(*hlrc.RecPageReq)
			if !nd.OwnsHome(req.Page) {
				// Migrated page: this node is its adopter (a recovering peer
				// resolves homes through the same ever-crashed registry, so
				// the request only lands here when nd is the effective home).
				data, ver, done := nd.RebuildCustody(req.Page, req.Need, at)
				resp := &hlrc.RecPageReply{Data: data, Ver: ver}
				ep.ReplyAt(done, m, hlrc.KindRecPageReply, resp.WireSize(), resp)
				return true
			}
			data, ver := nd.PageAtVersion(req.Page, req.Need)
			resp := &hlrc.RecPageReply{Data: data, Ver: ver}
			ep.ReplyAt(at, m, hlrc.KindRecPageReply, resp.WireSize(), resp)
			return true
		case hlrc.KindRecDiffsReq:
			req := m.Payload.(*hlrc.RecDiffsReq)
			resp := readLoggedDiffs(store, req)
			ep.ReplyAt(at, m, hlrc.KindRecDiffsReply, resp.WireSize(), resp)
			return true
		default:
			return false
		}
	}
}

// readLoggedDiffs scans a writer's log for its own diffs of one page in
// the interval range (FromSeq, ToSeq]. DiskBytes accounts the log bytes
// read on the writer's disk; the recovering node charges that time.
// A record outside the window is passed over on its prefix alone, and
// inside the window only the wanted page's diffs are copied out.
func readLoggedDiffs(store *stable.Store, req *hlrc.RecDiffsReq) *hlrc.RecDiffsReply {
	resp := &hlrc.RecDiffsReply{}
	for _, rec := range store.Records() {
		if rec.Kind != wal.RecDiffBatch {
			continue
		}
		writer, seq, vtSum, n, enc, err := wal.SplitDiffRecord(rec.Data)
		if err != nil {
			panic(fmt.Sprintf("recovery: corrupt diff record: %v", err))
		}
		// Only diffs this node created itself (CCL log), in the window.
		if writer != -1 || seq <= req.FromSeq || seq > req.ToSeq {
			continue
		}
		matched := false
		for i := 0; i < n; i++ {
			page, size, err := memory.PeekDiff(enc)
			if err != nil {
				panic(fmt.Sprintf("recovery: corrupt diff record: diff %d: %v", i, err))
			}
			if page == req.Page {
				d, _, _ := memory.DecodeDiff(enc[:size]) // PeekDiff accepted these bytes
				resp.Seqs = append(resp.Seqs, seq)
				resp.VTSums = append(resp.VTSums, vtSum)
				resp.Diffs = append(resp.Diffs, d)
				matched = true
			}
			enc = enc[size:]
		}
		if len(enc) != 0 {
			panic(fmt.Sprintf("recovery: corrupt diff record: %d trailing bytes", len(enc)))
		}
		if matched {
			// The whole record is read off the writer's disk even when only
			// one of a batch's diffs is wanted.
			resp.DiskBytes += rec.WireSize()
		}
	}
	store.NoteRead(resp.DiskBytes)
	return resp
}

// LoggedDiffs reads writer's own logged diffs of one page for the
// interval range (fromSeq, toSeq], as custody-record entries. The churn
// runner and the sdsminspect audit use it to assemble the authoritative
// content of migrated pages offline (hlrc.RebuildAdoptedImage).
func LoggedDiffs(store *stable.Store, writer int32, page memory.PageID, fromSeq, toSeq int32) []hlrc.AdoptedDiff {
	resp := readLoggedDiffs(store, &hlrc.RecDiffsReq{Page: page, FromSeq: fromSeq, ToSeq: toSeq})
	out := make([]hlrc.AdoptedDiff, 0, len(resp.Seqs))
	for i := range resp.Seqs {
		out = append(out, hlrc.AdoptedDiff{Writer: writer, Seq: resp.Seqs[i], VTSum: resp.VTSums[i], Diff: resp.Diffs[i]})
	}
	return out
}

// Replayer drives a recovering node through its logged execution. It
// implements hlrc.SyncDelegate: while installed, synchronization
// operations replay from the log instead of communicating, and page
// misses are resolved from the log (ML) or never happen (CCL).
type Replayer struct {
	kind    Kind
	store   *stable.Store
	crashOp int32
	// cfg is the victim's node configuration: the cost model, where the
	// managers live, and whether they keep sender logs.
	cfg hlrc.Config

	byOp      map[int32][]stable.Record
	pagesByOp map[int32]map[memory.PageID][]byte // ML page copies

	replayTime simtime.Time
	detached   bool
	// reportedSelf is the victim's own interval count as last reported
	// to the managers (at its releases and barrier check-ins). A lock
	// grant's knowledge horizon can never exceed it on the victim's own
	// component, so the replayed grantVT must use it — using the
	// victim's full vector time would make post-recovery release deltas
	// skip own intervals the manager never learned.
	reportedSelf int32
	// seeked: the replay reads the log as one forward sequential stream,
	// so only the first batch read pays the positioning latency; later
	// batches are bandwidth-only. (ML's per-miss page reads are random
	// accesses and always pay it — the paper's "memory miss idle time".)
	seeked bool
	// OnDetach runs when replay reaches the crash op, just before the
	// node resumes live operation (the runner restarts the service loop
	// here).
	OnDetach func()

	// Torn-tail state. A crash during the final log flush (a torn write)
	// leaves only a CRC-valid prefix of the log. Ops up to (excluding)
	// tailFromOp replay from disk as usual; from tailFromOp on, the lost
	// lock grants and barrier releases are re-fetched from the managers'
	// sender logs, and the lost asynchronous home updates are
	// reconstructed from the writers' own-diff logs (bounded by the
	// notices during replay, unbounded at detach).
	torn       bool
	tailFromOp int32
	acquireIdx int // acquires replayed so far (indexes the lock manager's sender log)
	barrierIdx int // barriers replayed so far (indexes the barrier manager's sender log)
	// TailOps counts sync ops that replayed from sender logs instead of
	// the disk log (observability for tests and reports).
	TailOps int

	// phases accounts the replay clock per recovery phase; sealed at
	// detach and exposed via Phases.
	phases PhaseReport
	// base is the clock the incarnation was given: zero offline, the
	// restart time when the cluster kept executing while the victim was
	// down. ReplayTime and the phase report are durations relative to it.
	base simtime.Time
	// reexec (non-quiescent crash points): the crash fired at the crash
	// op's entry before anything of it ran, so there are no records for
	// it; replay detaches just short of it and the live protocol
	// re-executes the whole op, recomputing the open interval's diffs
	// from twins.
	reexec bool
}

// NewReplayer indexes the log of nd — the victim's new incarnation, just
// restored from its checkpoint — for replay up to crashOp. The replay's
// time base is nd's clock as handed over, and where the managers live and
// whether they keep sender logs is read from nd's configuration.
//
// Only the CRC-valid prefix of the log is used: if a torn write destroyed
// the tail of the final flush, the records of the last op covered by the
// prefix (and everything after it) are distrusted and that tail replays
// from the managers' sender logs (hlrc.Config.SenderLogs) instead.
//
// reexec marks the crash op as never executed: a non-quiescent crash
// point fired at the op's entry — or a partition cut it off — before its
// flush, log append, or manager communication landed, so the disk log has
// no records for it. Replay stops just short of the op and returns control
// to the live protocol, which re-executes it whole — recomputing the open
// interval's diffs from twins, which are re-enabled over every replayed
// write since the last interval close (closeInterval keeps nd.TwinsFromOp
// tracking it).
func NewReplayer(kind Kind, nd *hlrc.Node, store *stable.Store, crashOp int32, reexec bool) *Replayer {
	if kind != MLRecovery && kind != CCLRecovery {
		panic(fmt.Sprintf("recovery: no replayer for %v", kind))
	}
	r := &Replayer{
		kind:      kind,
		store:     store,
		crashOp:   crashOp,
		cfg:       nd.Config(),
		base:      nd.Clock().Now(),
		reexec:    reexec,
		byOp:      make(map[int32][]stable.Record),
		pagesByOp: make(map[int32]map[memory.PageID][]byte),
	}
	if reexec {
		nd.TwinsFromOp = 0
	}
	recs, dropped := store.ValidPrefix()
	// Record op tags are nondecreasing (both protocols stage and flush
	// chronologically), so every op strictly below the prefix's maximum
	// tag is fully covered; the maximum tag itself may have lost records
	// to the tear and is replayed from sender logs instead.
	var maxOp int32 = -1
	for _, rec := range recs {
		if rec.Op > maxOp {
			maxOp = rec.Op
		}
	}
	if dropped > 0 {
		r.torn = true
		r.tailFromOp = maxOp
		if maxOp < 0 {
			r.tailFromOp = 0 // the whole log is gone
		}
	}
	for _, rec := range recs {
		if r.torn && rec.Op >= r.tailFromOp && rec.Kind != wal.RecPage {
			// Possibly-partial op: ignore its disk records; the tail path
			// rebuilds the op from the managers' and writers' logs. (A
			// logged ML page copy that did survive is still individually
			// valid and stays usable.)
			continue
		}
		if kind == MLRecovery && rec.Kind == wal.RecPage {
			page, data, err := wal.DecodePageRecord(rec.Data)
			if err != nil {
				panic(fmt.Sprintf("recovery: corrupt page record: %v", err))
			}
			m := r.pagesByOp[rec.Op]
			if m == nil {
				m = make(map[memory.PageID][]byte)
				r.pagesByOp[rec.Op] = m
			}
			m[page] = data
			continue
		}
		r.byOp[rec.Op] = append(r.byOp[rec.Op], rec)
	}
	return r
}

// closeInterval closes the replayed interval. The victim's dirty migrated
// pages (there are none unless the cluster ran on without it) are
// re-flushed to their adopter first, because the close drops the twins the
// diffs are computed from.
func (r *Replayer) closeInterval(nd *hlrc.Node) {
	nd.FlushReplayDiffs()
	nd.CloseIntervalLocal()
	if r.reexec {
		// The open interval restarts here: only writes from the next op on
		// can belong to the crashed interval that must be re-diffed live.
		nd.TwinsFromOp = nd.OpIndex() + 1
	}
}

// Torn reports whether the log had a torn tail.
func (r *Replayer) Torn() bool { return r.torn }

// tailActive reports whether op must replay from sender logs.
func (r *Replayer) tailActive(op int32) bool {
	if !r.torn || op < r.tailFromOp {
		return false
	}
	if !r.cfg.SenderLogs {
		panic(fmt.Sprintf("recovery: log tail torn at op %d but sender-log recovery is not enabled", op))
	}
	return true
}

// ReplayTime reports the virtual time the replay consumed (valid after
// detach).
func (r *Replayer) ReplayTime() simtime.Time { return r.replayTime }

// Phases reports the recovery-time breakdown (valid after detach): the
// per-phase durations partition ReplayTime exactly.
func (r *Replayer) Phases() PhaseReport { return r.phases }

// Detached reports whether replay has completed.
func (r *Replayer) Detached() bool { return r.detached }

// Acquire implements hlrc.SyncDelegate.
func (r *Replayer) Acquire(nd *hlrc.Node, op int32, lock int32) bool {
	if op >= r.crashOp {
		panic(fmt.Sprintf("recovery: replay reached acquire op %d beyond crash op %d", op, r.crashOp))
	}
	idx := r.acquireIdx
	r.acquireIdx++
	if r.tailActive(op) {
		r.tailAcquire(nd, op, lock, idx)
		nd.BumpOp()
		return true
	}
	r.enterPhase(nd, op, true)
	// The merged vector time equals the grant's knowledge horizon on
	// every foreign component (all knowledge routes through the
	// centralized manager); on the victim's own component the manager
	// only knows what the victim last reported.
	gvt := nd.VT()
	gvt[nd.ID()] = r.reportedSelf
	nd.SetGrantVT(lock, gvt)
	nd.BumpOp()
	return true
}

// Release implements hlrc.SyncDelegate. Per the paper's Figure 2, a
// release during recovery performs no communication.
func (r *Replayer) Release(nd *hlrc.Node, op int32, lock int32) bool {
	if r.reexec && op >= r.crashOp {
		// The victim died at this op's entry (non-quiescent crash point):
		// nothing of it was flushed, logged, or sent. Detach and decline —
		// the live protocol re-executes the whole release, flushing the
		// crashed interval's diffs (recomputed from the replay twins) to
		// the effective homes.
		r.detach(nd)
		return false
	}
	r.closeInterval(nd)
	r.reportedSelf = nd.VT()[nd.ID()]
	if r.tailActive(op) {
		// A release receives nothing from the managers; the disk records
		// this op lost were asynchronous home updates, which the tail
		// acquires' notice-bounded re-fetches and the detach catch-up
		// reconstruct (sync-ordered visibility is all a data-race-free
		// replay can observe).
		r.TailOps++
	} else {
		r.enterPhase(nd, op, false)
	}
	if op >= r.crashOp {
		r.detach(nd)
		// The failure struck after this op's local half: the release
		// message never reached the manager. Send it now, live.
		nd.FinishReleaseLive(op, lock)
		return true
	}
	nd.BumpOp()
	return true
}

// Barrier implements hlrc.SyncDelegate.
func (r *Replayer) Barrier(nd *hlrc.Node, op int32, barrier int32) bool {
	if r.reexec && op >= r.crashOp {
		// Non-quiescent crash point at a barrier: detach and let the live
		// protocol execute the whole check-in (see Release).
		r.detach(nd)
		return false
	}
	r.closeInterval(nd)
	r.reportedSelf = nd.VT()[nd.ID()]
	if op >= r.crashOp {
		// The victim never checked in to this barrier before the crash
		// (so the manager issued no release for it): no sender-log entry
		// to consume. Replay whatever the disk still has and go live.
		if !r.tailActive(op) {
			r.enterPhase(nd, op, false)
		}
		r.detach(nd)
		nd.FinishBarrierLive(op, barrier)
		return true
	}
	if r.tailActive(op) {
		r.tailBarrier(nd, op, r.barrierIdx)
		r.barrierIdx++
		nd.BumpOp()
		return true
	}
	r.barrierIdx++
	r.enterPhase(nd, op, false)
	nd.SetLastBarrierVT(nd.VT())
	nd.BumpOp()
	return true
}

// Validate implements hlrc.SyncDelegate: resolve an invalid page during
// replay.
func (r *Replayer) Validate(nd *hlrc.Node, page memory.PageID) bool {
	switch r.kind {
	case MLRecovery:
		// The logged copy fetched at this point of the original run is
		// read from the local disk — one seek per miss (the memory miss
		// idle time the paper charges against ML-recovery).
		op := nd.OpIndex()
		data := r.pagesByOp[op][page]
		if data == nil {
			if r.torn {
				// The logged copy was in the torn tail: fall back to a
				// versioned fetch from the live home (which needs the homes'
				// undo histories, enabled for hardened ML runs).
				r.fetchPages(nd, []memory.PageID{page})
				return true
			}
			panic(fmt.Sprintf("recovery: ML replay diverged: no logged copy of page %d at op %d", page, op))
		}
		n := r.store.NoteRead(stable.HeaderSize + 4 + len(data))
		t0, t1 := nd.Clock().AdvanceSpan(r.cfg.Model.DiskTime(n))
		nd.Tracer().Seg(obsv.EvReplayOp, obsv.CatRecovery, t0, t1, int64(page), int64(n))
		r.phases.note(PhaseLogRead, t0, t1, int64(n))
		// data aliases the log record, which later reads and audits of the
		// store still need: the node gets its own copy.
		nd.InstallPage(page, bytes.Clone(data))
		return true
	case CCLRecovery:
		// Prefetch should have validated everything; as a safety net,
		// fetch the page at the current replay version.
		r.fetchPages(nd, []memory.PageID{page})
		return true
	}
	return false
}

// detach ends replay: the node returns to live operation. After a torn
// tail, the lost asynchronous home updates that no replayed notice covered
// are re-fetched first — unbounded, directly from every live writer's
// own-diff log — so the victim's home copies are complete before the
// service loop resumes and starts acknowledging fresh updates.
func (r *Replayer) detach(nd *hlrc.Node) {
	if r.torn {
		r.catchUpHomePages(nd)
	}
	r.replayTime = nd.Clock().Now() - r.base
	r.phases.close(r.replayTime)
	r.detached = true
	nd.SetDelegate(nil)
	if r.OnDetach != nil {
		r.OnDetach()
	}
}

// enterPhase consumes the log records tagged with op: write notices,
// update events, and (ML) incoming home diffs. isAcquire selects the
// dirty-conflict check that mirrors the live protocol's early close.
func (r *Replayer) enterPhase(nd *hlrc.Node, op int32, isAcquire bool) {
	recs := r.byOp[op]
	delete(r.byOp, op)

	// One batched local-log read per interval (CCL's "reducing disk
	// access frequency"); ML reads its (bigger) batch the same way, and
	// pays again at every miss. The stream is sequential, so only the
	// first read pays the positioning latency.
	batch := 0
	for _, rec := range recs {
		batch += rec.WireSize()
	}
	if batch > 0 {
		r.store.NoteRead(batch)
		cost := r.cfg.Model.DiskTime(batch)
		if r.seeked {
			cost -= r.cfg.Model.DiskSeek
		}
		r.seeked = true
		t0, t1 := nd.Clock().AdvanceSpan(cost)
		nd.Tracer().Seg(obsv.EvReplayOp, obsv.CatRecovery, t0, t1, int64(op), int64(batch))
		r.phases.note(PhaseLogRead, t0, t1, int64(batch))
	}

	var notices []hlrc.Notice
	var events []hlrc.UpdateEvent
	for _, rec := range recs {
		switch rec.Kind {
		case wal.RecNotices:
			ns, rest, err := hlrc.DecodeNotices(rec.Data)
			if err != nil || len(rest) != 0 {
				panic(fmt.Sprintf("recovery: corrupt notices record: %v", err))
			}
			notices = append(notices, ns...)
		case wal.RecEvents:
			evs, err := wal.DecodeEventsRecord(rec.Data)
			if err != nil {
				panic(fmt.Sprintf("recovery: corrupt events record: %v", err))
			}
			events = append(events, evs...)
		case wal.RecDiffBatch:
			writer, seq, _, diffs, err := wal.DecodeDiffBatchRecord(rec.Data)
			if err != nil {
				panic(fmt.Sprintf("recovery: corrupt diff-batch record: %v", err))
			}
			if writer == -1 {
				// The victim's own outgoing diffs (CCL): the homes already
				// have them, and replay recomputes the writes; skip.
				continue
			}
			// ML: one incoming writer interval's diffs, applied to the
			// victim's home copies.
			for _, d := range diffs {
				nd.ApplyDiffAsHome(d, writer, seq)
			}
		default:
			panic(fmt.Sprintf("recovery: unexpected record kind %d", rec.Kind))
		}
	}

	if isAcquire && nd.AnyDirty(notices) {
		// Mirror the live protocol's early close on the false-sharing
		// path so the interval numbering stays aligned.
		r.closeInterval(nd)
	}

	// Merge knowledge.
	if len(notices) > 0 {
		vt := vclock.New(nd.N())
		for _, n := range notices {
			if n.Seq > vt[int(n.Proc)] {
				vt[int(n.Proc)] = n.Seq
			}
		}
		nd.Notices().AddAll(notices)
		nd.MergeVT(vt)
	}

	switch r.kind {
	case CCLRecovery:
		r.fetchEvents(nd, events)
		// Prefetch every remote page the notices name, eliminating the
		// memory-miss idle time during the coming interval.
		pages := pagesToValidate(nd, notices)
		r.fetchPages(nd, pages)
	case MLRecovery:
		// No prefetch: invalidate as the original run did; misses will
		// read logged copies from disk.
		for _, n := range notices {
			for _, p := range n.Pages {
				nd.InvalidatePage(p)
			}
		}
	}
}

// pagesToValidate lists the distinct non-home pages named by notices.
func pagesToValidate(nd *hlrc.Node, notices []hlrc.Notice) []memory.PageID {
	seen := make(map[memory.PageID]bool)
	var out []memory.PageID
	for _, n := range notices {
		for _, p := range n.Pages {
			if nd.IsHome(p) || seen[p] {
				continue
			}
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// fetchEvents retrieves the diffs named by the logged update events from
// the writers' logs, all round trips overlapped, and applies them to the
// victim's home copies — "the recovery process fetches the corresponding
// logs of updates (i.e., diffs) for its home copy from the writer
// process(es)".
func (r *Replayer) fetchEvents(nd *hlrc.Node, events []hlrc.UpdateEvent) {
	if len(events) == 0 {
		return
	}
	ep := nd.Endpoint()
	start := nd.Clock().Now()
	type call struct {
		ev      hlrc.UpdateEvent
		pending *transport.Pending
	}
	calls := make([]call, 0, len(events))
	for _, ev := range events {
		req := &hlrc.RecDiffsReq{Page: ev.Page, FromSeq: ev.Seq - 1, ToSeq: ev.Seq}
		calls = append(calls, call{
			ev:      ev,
			pending: ep.CallAsync(int(ev.Writer), hlrc.KindRecDiffsReq, req.WireSize(), req),
		})
	}
	diskByWriter := make(map[int32]int)
	for _, c := range calls {
		m := c.pending.WaitDetached(nd.Clock())
		resp := m.Payload.(*hlrc.RecDiffsReply)
		if len(resp.Diffs) == 0 {
			panic(fmt.Sprintf("recovery: writer %d has no logged diff for page %d seq %d",
				c.ev.Writer, c.ev.Page, c.ev.Seq))
		}
		diskByWriter[c.ev.Writer] += resp.DiskBytes
		for i, d := range resp.Diffs {
			nd.ApplyDiffAsHome(d, c.ev.Writer, resp.Seqs[i])
		}
	}
	// The writers' disk reads are on the recovery critical path, but the
	// writers' disks work in parallel: charge the slowest one.
	var worst simtime.Duration
	worstBytes, totalBytes := 0, 0
	for _, bytes := range diskByWriter {
		totalBytes += bytes
		if d := r.cfg.Model.DiskTime(bytes); d > worst {
			worst = d
			worstBytes = bytes
		}
	}
	t0, t1 := nd.Clock().AdvanceSpan(worst)
	nd.Tracer().Seg(obsv.EvReplayOp, obsv.CatRecovery, t0, t1, -1, int64(worstBytes))
	end := nd.Clock().Now()
	nd.Tracer().Span(obsv.EvDiffFetch, start, end, int64(len(calls)), int64(totalBytes))
	r.phases.note(PhaseDiffFetch, start, end, int64(totalBytes))
}

// fetchPages prefetches remote pages at exactly the replay's current
// version, all round trips overlapped.
func (r *Replayer) fetchPages(nd *hlrc.Node, pages []memory.PageID) {
	if len(pages) == 0 {
		return
	}
	ep := nd.Endpoint()
	start := nd.Clock().Now()
	need := nd.VT()
	pendings := make([]*transport.Pending, 0, len(pages))
	for _, p := range pages {
		req := &hlrc.RecPageReq{Page: p, Need: need}
		// EffectiveHome routes pages whose static home has crashed to their
		// adopter (it is HomeOf with leases disabled).
		pendings = append(pendings, ep.CallAsync(nd.EffectiveHome(p), hlrc.KindRecPageReq, req.WireSize(), req))
	}
	for i, pd := range pendings {
		m := pd.WaitDetached(nd.Clock())
		resp := m.Payload.(*hlrc.RecPageReply)
		nd.InstallPage(pages[i], resp.Data)
	}
	end := nd.Clock().Now()
	nd.Tracer().Span(obsv.EvPrefetch, start, end, int64(len(pages)), 0)
	r.phases.note(PhasePageFetch, start, end, 0)
}

// --- torn-tail (sender-log) replay -------------------------------------

// tailAcquire replays an acquire whose disk records were lost to the torn
// tail: the exact grant the manager issued before the crash is re-fetched
// from its sender log and handled like the live protocol handled it.
func (r *Replayer) tailAcquire(nd *hlrc.Node, op int32, lock int32, idx int) {
	r.TailOps++
	g := r.fetchLoggedGrant(nd, idx)
	if nd.AnyDirty(g.Notices) {
		// Mirror the live protocol's early close on the false-sharing path
		// so the interval numbering stays aligned.
		r.closeInterval(nd)
	}
	r.reconstructHomeDiffs(nd, g.Notices)
	r.applyTailNotices(nd, g.Notices, g.VT)
	// The live acquire records the grant's own horizon, and here we hold
	// the very grant the pre-crash acquire received.
	nd.SetGrantVT(lock, g.VT)
}

// tailBarrier replays a barrier whose disk records were lost: the exact
// release the manager issued is re-fetched from its sender log.
func (r *Replayer) tailBarrier(nd *hlrc.Node, op int32, idx int) {
	r.TailOps++
	rel := r.fetchLoggedRelease(nd, idx)
	r.reconstructHomeDiffs(nd, rel.Notices)
	r.applyTailNotices(nd, rel.Notices, rel.VT)
	nd.SetLastBarrierVT(rel.VT)
}

// applyTailNotices applies a re-fetched grant's or release's knowledge the
// way enterPhase applies logged notices, then validates pages per scheme.
func (r *Replayer) applyTailNotices(nd *hlrc.Node, notices []hlrc.Notice, vt vclock.VC) {
	if len(notices) > 0 {
		nd.Notices().AddAll(notices)
	}
	nd.MergeVT(vt)
	switch r.kind {
	case CCLRecovery:
		r.fetchPages(nd, pagesToValidate(nd, notices))
	case MLRecovery:
		for _, n := range notices {
			for _, p := range n.Pages {
				nd.InvalidatePage(p)
			}
		}
	}
}

// fetchLoggedGrant reads the idx-th grant issued to this node from the
// lock manager's sender log.
func (r *Replayer) fetchLoggedGrant(nd *hlrc.Node, idx int) *hlrc.LockGrant {
	ep := nd.Endpoint()
	start := nd.Clock().Now()
	req := &hlrc.RecSyncReq{Node: int32(nd.ID()), Idx: int32(idx)}
	m := ep.CallAsync(hlrc.ManagerNode, hlrc.KindRecGrantReq, req.WireSize(), req).WaitDetached(nd.Clock())
	g := m.Payload.(*hlrc.RecGrantReply).Grant
	if g == nil {
		panic(fmt.Sprintf("recovery: lock manager %d has no sender-logged grant %d for node %d",
			hlrc.ManagerNode, idx, nd.ID()))
	}
	end := nd.Clock().Now()
	nd.Tracer().Span(obsv.EvTailFetch, start, end, int64(idx), 0)
	r.phases.note(PhaseTailSync, start, end, 0)
	return g
}

// fetchLoggedRelease reads the idx-th barrier release issued to this node
// from the barrier manager's sender log.
func (r *Replayer) fetchLoggedRelease(nd *hlrc.Node, idx int) *hlrc.BarrierRelease {
	ep := nd.Endpoint()
	start := nd.Clock().Now()
	req := &hlrc.RecSyncReq{Node: int32(nd.ID()), Idx: int32(idx)}
	m := ep.CallAsync(hlrc.ManagerNode, hlrc.KindRecBarrierReq, req.WireSize(), req).WaitDetached(nd.Clock())
	rel := m.Payload.(*hlrc.RecBarrierReply).Rel
	if rel == nil {
		panic(fmt.Sprintf("recovery: barrier manager %d has no sender-logged release %d for node %d",
			hlrc.ManagerNode, idx, nd.ID()))
	}
	end := nd.Clock().Now()
	nd.Tracer().Span(obsv.EvTailFetch, start, end, int64(idx), 0)
	r.phases.note(PhaseTailSync, start, end, 0)
	return rel
}

// reconstructHomeDiffs re-fetches the asynchronous updates to the victim's
// home pages whose event/diff records were lost with the torn tail. The
// incoming notices bound which writer intervals the coming replay interval
// may observe: for every notice naming one of the victim's home pages, the
// writer's own-diff log is read for the intervals the home copy does not
// yet carry. (Data-race-free programs cannot observe an asynchronous
// update before a sync operation covers it, so applying at the sync
// horizon reproduces every replayed read; updates never covered by any
// notice are restored by the detach-time catch-up.)
func (r *Replayer) reconstructHomeDiffs(nd *hlrc.Node, notices []hlrc.Notice) {
	ep := nd.Endpoint()
	var calls []diffFetch
	for _, n := range notices {
		if int(n.Proc) == nd.ID() {
			continue // own intervals: the writes replay themselves
		}
		for _, p := range n.Pages {
			if !nd.OwnsHome(p) {
				continue
			}
			have := nd.HomeVersion(p)[n.Proc]
			if n.Seq <= have {
				continue
			}
			req := &hlrc.RecDiffsReq{Page: p, FromSeq: have, ToSeq: n.Seq}
			calls = append(calls, diffFetch{
				writer:  n.Proc,
				pending: ep.CallAsync(int(n.Proc), hlrc.KindRecDiffsReq, req.WireSize(), req),
			})
		}
	}
	if len(calls) == 0 {
		return
	}
	start := nd.Clock().Now()
	bytes := r.applyFetchedDiffs(nd, calls)
	end := nd.Clock().Now()
	nd.Tracer().Span(obsv.EvHomeRebuild, start, end, int64(len(calls)), int64(bytes))
	r.phases.note(PhaseHomeRebuild, start, end, int64(bytes))
}

// catchUpHomePages restores every remaining lost home update before the
// victim goes live: each live writer's own-diff log is read, unbounded,
// for every page homed at the victim. Already-applied intervals are
// skipped idempotently, and DiffUpdates still queued in the victim's inbox
// re-apply as no-ops once the service loop drains them.
func (r *Replayer) catchUpHomePages(nd *hlrc.Node) {
	ep := nd.Endpoint()
	var calls []diffFetch
	for p := 0; p < nd.NumPages(); p++ {
		pg := memory.PageID(p)
		// Migrated pages (online recovery after a crash) are no longer this
		// node's to rebuild: their adopter serves them from custody.
		if !nd.OwnsHome(pg) {
			continue
		}
		ver := nd.HomeVersion(pg)
		for w := 0; w < nd.N(); w++ {
			if w == nd.ID() {
				continue
			}
			req := &hlrc.RecDiffsReq{Page: pg, FromSeq: ver[w], ToSeq: math.MaxInt32}
			calls = append(calls, diffFetch{
				writer:  int32(w),
				pending: ep.CallAsync(w, hlrc.KindRecDiffsReq, req.WireSize(), req),
			})
		}
	}
	if len(calls) == 0 {
		return
	}
	start := nd.Clock().Now()
	bytes := r.applyFetchedDiffs(nd, calls)
	end := nd.Clock().Now()
	nd.Tracer().Span(obsv.EvCatchUp, start, end, int64(len(calls)), int64(bytes))
	r.phases.note(PhaseCatchUp, start, end, int64(bytes))
}

// diffFetch is one in-flight RecDiffsReq round trip.
type diffFetch struct {
	writer  int32
	pending *transport.Pending
}

// applyFetchedDiffs collects overlapped RecDiffsReq round trips, applies
// the returned diffs to the victim's home copies (idempotently, keyed by
// writer interval), charges the slowest writer's disk-read time (the
// writers' disks work in parallel), and returns the total disk bytes the
// writers read.
//
// Diffs from different writers may target the same bytes when their
// intervals were lock-serialized (the home applied them in arrival order
// pre-crash), so the batch is applied in ascending vector-time-sum order
// — a linear extension of the intervals' causal order. Intervals the sum
// cannot order are causally concurrent, and under a data-race-free
// program concurrent diffs touch disjoint bytes, so their relative order
// is immaterial (the writer/seq tiebreak just keeps replay
// deterministic).
func (r *Replayer) applyFetchedDiffs(nd *hlrc.Node, calls []diffFetch) int {
	if len(calls) == 0 {
		return 0
	}
	type fetched struct {
		writer int32
		seq    int32
		vtSum  int64
		diff   memory.Diff
	}
	var all []fetched
	diskByWriter := make(map[int32]int)
	for _, c := range calls {
		m := c.pending.WaitDetached(nd.Clock())
		resp := m.Payload.(*hlrc.RecDiffsReply)
		diskByWriter[c.writer] += resp.DiskBytes
		for i, d := range resp.Diffs {
			all = append(all, fetched{c.writer, resp.Seqs[i], resp.VTSums[i], d})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.vtSum != b.vtSum {
			return a.vtSum < b.vtSum
		}
		if a.writer != b.writer {
			return a.writer < b.writer
		}
		return a.seq < b.seq
	})
	for _, f := range all {
		nd.ApplyDiffAsHome(f.diff, f.writer, f.seq)
	}
	var worst simtime.Duration
	worstBytes, totalBytes := 0, 0
	for _, bytes := range diskByWriter {
		totalBytes += bytes
		if d := r.cfg.Model.DiskTime(bytes); d > worst {
			worst = d
			worstBytes = bytes
		}
	}
	t0, t1 := nd.Clock().AdvanceSpan(worst)
	nd.Tracer().Seg(obsv.EvReplayOp, obsv.CatRecovery, t0, t1, -1, int64(worstBytes))
	return totalBytes
}
