// Package recovery implements the paper's crash-recovery schemes for the
// recoverable home-based SDSM:
//
//   - Re-execution (the no-logging baseline): restart the entire program
//     from the initial state; it costs the original execution time.
//
//   - ML-recovery: the victim replays alone from its local disk log. The
//     logged write notices are learned at each synchronization point, the
//     logged incoming diffs are applied to its home copies, and every
//     memory miss is served by reading the logged page copy from disk —
//     the per-miss disk stall is the "memory miss idle time" the paper
//     charges against ML.
//
//   - CCL-recovery (the paper's scheme): at the beginning of each replayed
//     interval the victim reads its (small) local log once, fetches the
//     logged update events' diffs from the writers' logs, and prefetches
//     the remote pages named by the interval's write-invalidation notices
//     that the replay will need — those it has used so far, and any on
//     its first notice — directly from the live homes, at exactly the
//     version the replay needs. A noticed page left out is invalidated and
//     fetched at that same version if the replay touches it after all.
//
// The Replayer does not re-implement the protocol's synchronization: it
// is the node's hlrc.SyncSource. At each replayed acquire or barrier it
// supplies what the op received before the crash (hlrc.LoggedSync, read
// from the disk log or, past a torn tail, from a manager's sender log),
// and the node runs the live sync step on it: early close, notice store
// and invalidation, vector-time merge, horizon, op count. The Replayer
// keeps what is recovery's own: which records each op consumes and the
// charge for reading them, the home-copy diffs and prefetches around the
// step, page misses, the torn-tail home rebuild, the phase report and the
// detach at the crash op.
//
// Surviving nodes answer the recovery's versioned page fetches and logged
// diff reads in hlrc.Node.handle; a node's log is read for the latter by
// wal.ReadLoggedDiffs, which the cluster binds to hlrc.Config.LogDiffs.
package recovery

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"sdsm/internal/arena"
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

// Replayer is a recovering node's hlrc.SyncSource: while installed, the
// node's synchronization operations run the live sync step on the inputs
// the replayer reads back from the log (or, past a torn tail, from the
// managers' sender logs) instead of communicating, and page misses are
// resolved from the log (ML) or reveal a prefetched copy (CCL). It is
// used on the victim's application goroutine only.
type Replayer struct {
	kind    Kind
	store   *stable.Store
	crashOp int32
	// cfg is the victim's node configuration: the cost model, where the
	// managers live, and whether they keep sender logs.
	cfg hlrc.Config

	byOp      map[int32][]stable.Record
	pagesByOp map[int32]map[memory.PageID]loggedPage // ML page copies
	dis       wal.Dissector                          // decodes every record the replay reads

	// marks holds CCL's prefetch state per page (nil under ML), and
	// scratch the page list prefetchable builds, reused every round.
	marks   []pageMark
	scratch []memory.PageID
	// The op in hand, from Logged to Applied: its notices, the vector
	// they reach and its update events, each reused every op (the node
	// keeps neither list nor vector), and whether a sender log supplied
	// the op.
	notices []hlrc.Notice
	vt      vclock.VC
	events  []hlrc.UpdateEvent
	tail    bool
	// pageReqs cuts fetchPages' requests (DESIGN.md §2.8).
	pageReqs arena.Slab[hlrc.PageReq]
	// Misses counts CCL's on-demand fetches: pages the replay touched
	// that the prefetch had left invalid.
	Misses int

	replayTime simtime.Time
	detached   bool
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

// pageMark is CCL-recovery's prefetch state of one page.
type pageMark uint8

const (
	markNoticed pageMark = 1 << iota // a replayed notice named it before
	markUsed                         // the replay has accessed it
	markStaged                       // its prefetched copy waits, Invalid, for the first access
)

// loggedPage is an ML page copy read from the log: its bytes, and the
// size of the record that holds them (what reading it off the disk costs).
type loggedPage struct {
	data []byte
	size int
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
// write since the last interval close (the node's replay close keeps
// nd.TwinsFromOp tracking it).
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
		pagesByOp: make(map[int32]map[memory.PageID]loggedPage),
		vt:        vclock.New(nd.N()),
	}
	if kind == CCLRecovery {
		r.marks = make([]pageMark, nd.NumPages())
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
			if r.pagesByOp[rec.Op] == nil {
				r.pagesByOp[rec.Op] = make(map[memory.PageID]loggedPage)
			}
			p := r.dissect(rec).Page
			r.pagesByOp[rec.Op][p.Page] = loggedPage{data: p.Data, size: rec.WireSize()}
			continue
		}
		r.byOp[rec.Op] = append(r.byOp[rec.Op], rec)
	}
	return r
}

// dissect decodes one of the victim's log records. The replay reads only
// the CRC-valid prefix of a log its own predecessor wrote, so a record
// that does not decode is damage it cannot explain.
func (r *Replayer) dissect(rec stable.Record) *wal.Dissected {
	d, err := r.dis.Dissect(rec)
	if err != nil {
		panic(fmt.Sprintf("recovery: %v", err))
	}
	return d
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

// Fate implements hlrc.SyncSource: every op before the crash op replays
// whole, and an acquire can never reach it.
func (r *Replayer) Fate(nd *hlrc.Node, op int32, kind transport.Kind) hlrc.Replay {
	switch {
	case op < r.crashOp:
		return hlrc.ReplayWhole
	case kind == hlrc.KindLockReq:
		panic(fmt.Sprintf("recovery: replay reached acquire op %d beyond crash op %d", op, r.crashOp))
	case r.reexec:
		// The victim died at this op's entry (non-quiescent crash point):
		// nothing of it was flushed, logged, or sent. Detach: the live
		// protocol re-executes the whole release or barrier, flushing the
		// crashed interval's diffs (recomputed from the replay twins) to
		// the effective homes.
		r.detach(nd)
		return hlrc.ReplayNone
	default:
		// The failure struck after this op's local half: its message never
		// reached the manager, and goes now, live.
		return hlrc.ReplayLocal
	}
}

// Logged implements hlrc.SyncSource: it consumes op's records from the
// disk log, or past a torn tail the grant or barrier release a manager's
// sender log kept. Per the paper's Figure 2, a release performs no
// communication: a torn-tail release has nothing to read, and the
// asynchronous home updates the tail lost are rebuilt at the later
// acquires' notices and at detach (sync-ordered visibility is all a
// data-race-free replay can observe).
func (r *Replayer) Logged(nd *hlrc.Node, op int32, kind transport.Kind) hlrc.LoggedSync {
	r.tail = r.tailActive(op)
	idx := 0
	switch {
	case kind == hlrc.KindLockReq:
		idx = r.acquireIdx
		r.acquireIdx++
	case kind == hlrc.KindBarrierCheckin && op < r.crashOp:
		idx = r.barrierIdx
		r.barrierIdx++
	case r.tail && kind == hlrc.KindLockRelease:
		r.TailOps++
		return hlrc.LoggedSync{}
	case r.tail:
		// The victim never checked in to this crash-op barrier (so the
		// manager issued no release for it): no sender-log entry to
		// consume.
		return hlrc.LoggedSync{}
	}
	if r.tail {
		return r.tailSync(nd, kind, idx)
	}
	return r.enterPhase(nd, op)
}

// Applied implements hlrc.SyncSource. After a sender-log op it rebuilds
// the home updates the notices bound (reconstructHomeDiffs). CCL then
// fetches the logged update events' diffs for the victim's home copies
// and prefetches the remote pages the notices name that the replay will
// need (prefetchable), eliminating the memory-miss idle time during the
// coming interval; ML's misses will read logged copies from disk. At the
// crash op the replay detaches.
func (r *Replayer) Applied(nd *hlrc.Node, op int32, ls hlrc.LoggedSync) {
	if r.tail {
		r.reconstructHomeDiffs(nd, ls.Notices)
	}
	if r.kind == CCLRecovery {
		// "The recovery process fetches the corresponding logs of updates
		// (i.e., diffs) for its home copy from the writer process(es)."
		reqs := make([]diffReq, 0, len(r.events))
		for _, ev := range r.events {
			reqs = append(reqs, diffReq{ev.Writer, &hlrc.RecDiffsReq{Page: ev.Page, FromSeq: ev.Seq - 1, ToSeq: ev.Seq}})
		}
		r.fetchDiffs(nd, reqs, obsv.EvDiffFetch, PhaseDiffFetch)
		r.fetchPages(nd, r.prefetchable(nd, ls.Notices), true)
	}
	r.events = r.events[:0]
	if op >= r.crashOp {
		r.detach(nd)
	}
}

// Validate implements hlrc.SyncSource: resolve an invalid page during
// replay.
func (r *Replayer) Validate(nd *hlrc.Node, page memory.PageID) {
	switch r.kind {
	case MLRecovery:
		// The logged copy fetched at this point of the original run is
		// read from the local disk — one seek per miss (the memory miss
		// idle time the paper charges against ML-recovery).
		op := nd.OpIndex()
		lp, ok := r.pagesByOp[op][page]
		if !ok {
			if r.torn {
				// The logged copy was in the torn tail: fall back to a
				// versioned fetch from the live home (which needs the homes'
				// undo histories, enabled for hardened ML runs).
				r.fetchPages(nd, []memory.PageID{page}, false)
				return
			}
			panic(fmt.Sprintf("recovery: ML replay diverged: no logged copy of page %d at op %d", page, op))
		}
		n := r.store.NoteRead(lp.size)
		t0, t1 := nd.Clock().AdvanceSpan(r.cfg.Model.DiskTime(n))
		nd.Tracer().Seg(obsv.EvReplayOp, obsv.CatRecovery, t0, t1, int64(page), int64(n))
		r.phases.note(PhaseLogRead, t0, t1, int64(n))
		// The data aliases the log record, which later reads and audits of
		// the store still need: the node gets its own copy.
		nd.InstallPage(page, bytes.Clone(lp.data))
	case CCLRecovery:
		m := r.marks[page]
		r.marks[page] = m&^markStaged | markUsed
		if m&markStaged != 0 {
			// The prefetch fetched this copy at the version the replay
			// still needs: reveal it, at no virtual cost.
			nd.RevealPage(page)
			return
		}
		// A page the prefetch left invalid: fetch it at the replay's
		// current version.
		r.Misses++
		r.fetchPages(nd, []memory.PageID{page}, false)
	}
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
	// A staged copy the replay never reached is as current as a valid
	// prefetched copy: the live protocol keeps it instead of faulting the
	// page in again.
	for p, m := range r.marks {
		if m&markStaged != 0 {
			nd.RevealPage(memory.PageID(p))
		}
	}
	r.replayTime = nd.Clock().Now() - r.base
	r.phases.close(r.replayTime)
	r.detached = true
	if r.OnDetach != nil {
		r.OnDetach()
	}
}

// enterPhase consumes the log records tagged with op: write notices,
// update events, and (ML) incoming home diffs, which it applies. It
// returns the notices and the vector they reach.
func (r *Replayer) enterPhase(nd *hlrc.Node, op int32) hlrc.LoggedSync {
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

	notices := r.notices[:0]
	for _, rec := range recs {
		if wal.OwnDiffBatch(rec) {
			// The victim's own outgoing diffs (CCL): the homes already have
			// them, and replay recomputes the writes.
			continue
		}
		d := r.dissect(rec)
		switch rec.Kind {
		case wal.RecNotices:
			notices = append(notices, d.Notices...)
		case wal.RecEvents:
			r.events = append(r.events, d.Events...)
		case wal.RecDiffBatch:
			// ML: one incoming writer interval's diffs, applied to the
			// victim's home copies.
			b := d.DiffBatch
			for _, df := range b.Diffs {
				nd.ApplyDiffAsHome(df, b.Writer, b.Seq)
			}
		default:
			panic(fmt.Sprintf("recovery: unexpected %s record at op %d", wal.KindName(rec.Kind), op))
		}
	}
	r.notices = notices
	clear(r.vt)
	for _, n := range notices {
		r.vt[n.Proc] = max(r.vt[n.Proc], n.Seq)
	}
	return hlrc.LoggedSync{Notices: notices, VT: r.vt}
}

// tailSync reads back an acquire (kind KindLockReq) or a barrier
// (KindBarrierCheckin) whose disk records were lost to the torn tail: the
// idx-th grant or release the manager issued to this node before the
// crash, from its sender log.
func (r *Replayer) tailSync(nd *hlrc.Node, kind transport.Kind, idx int) hlrc.LoggedSync {
	r.TailOps++
	start := nd.Clock().Now()
	req := &hlrc.RecSyncReq{Node: int32(nd.ID()), Idx: int32(idx)}
	reqKind := hlrc.KindRecGrantReq
	if kind == hlrc.KindBarrierCheckin {
		reqKind = hlrc.KindRecBarrierReq
	}
	m := nd.Endpoint().CallAsync(hlrc.ManagerNode, reqKind, req.WireSize(), req).WaitDetached(nd.Clock())
	var ls hlrc.LoggedSync
	logged := false
	switch p := m.Payload.(type) {
	case *hlrc.RecGrantReply:
		if logged = p.Grant != nil; logged {
			ls = hlrc.LoggedSync{Notices: p.Grant.Notices, VT: p.Grant.VT}
		}
	case *hlrc.RecBarrierReply:
		if logged = p.Rel != nil; logged {
			ls = hlrc.LoggedSync{Notices: p.Rel.Notices, VT: p.Rel.VT}
		}
	}
	if !logged {
		panic(fmt.Sprintf("recovery: manager %d has no sender-logged reply %d to %s for node %d",
			hlrc.ManagerNode, idx, obsv.KindName(uint8(reqKind)), nd.ID()))
	}
	end := nd.Clock().Now()
	nd.Tracer().Span(obsv.EvTailFetch, start, end, int64(idx), 0)
	r.phases.note(PhaseTailSync, start, end, 0)
	return ls
}

// prefetchable returns, in page order, the distinct non-home pages named
// by notices that the replay has used since it began or that no earlier
// notice named. Every other one is invalidated: if the replay touches it
// before another notice names it, Validate fetches it then, at the
// replay's current version — the one a prefetch here would have fetched,
// since no interval the replay has learned of since wrote the page. The
// list lives in r.scratch until the next call.
func (r *Replayer) prefetchable(nd *hlrc.Node, notices []hlrc.Notice) []memory.PageID {
	named := r.scratch[:0]
	for _, n := range notices {
		for _, p := range n.Pages {
			if !nd.IsHome(p) {
				named = append(named, p)
			}
		}
	}
	slices.Sort(named)
	named = slices.Compact(named)
	r.scratch = named
	out := named[:0]
	for _, p := range named {
		m := r.marks[p]
		if m&markUsed != 0 || m&markNoticed == 0 {
			out = append(out, p)
		} else {
			m &^= markStaged // the node has invalidated the page
		}
		r.marks[p] = m | markNoticed
	}
	return out
}

// fetchPages fetches remote pages at exactly the replay's current version,
// all round trips overlapped, and stages them for the replay's first
// access (stage) or installs them valid.
func (r *Replayer) fetchPages(nd *hlrc.Node, pages []memory.PageID, stage bool) {
	if len(pages) == 0 {
		return
	}
	ep := nd.Endpoint()
	start := nd.Clock().Now()
	need := nd.VT()
	pendings := make([]*transport.Pending, 0, len(pages))
	// Every request of the round shares need, and the round's requests
	// are cut at once; none is written after it is sent.
	reqs := r.pageReqs.Cut(len(pages))
	for i, p := range pages {
		req := &reqs[i]
		req.Page, req.VT = p, need
		// EffectiveHome routes pages whose static home has crashed to their
		// adopter (it is HomeOf with leases disabled).
		pendings = append(pendings, ep.CallAsync(nd.EffectiveHome(p), hlrc.KindRecPageReq, req.WireSize(), req))
	}
	for i, pd := range pendings {
		resp := pd.WaitDetached(nd.Clock()).Payload.(*hlrc.PageReply)
		if stage {
			nd.StagePage(pages[i], resp.Data)
			r.marks[pages[i]] |= markStaged
		} else {
			nd.InstallPage(pages[i], resp.Data)
		}
	}
	end := nd.Clock().Now()
	nd.Tracer().Span(obsv.EvPrefetch, start, end, int64(len(pages)), 0)
	r.phases.note(PhasePageFetch, start, end, 0)
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
	var reqs []diffReq
	for _, n := range notices {
		if int(n.Proc) == nd.ID() {
			continue // own intervals: the writes replay themselves
		}
		for _, p := range n.Pages {
			if !nd.OwnsHome(p) {
				continue
			}
			if have := nd.HomeVersionAt(p, int(n.Proc)); n.Seq > have {
				reqs = append(reqs, diffReq{n.Proc, &hlrc.RecDiffsReq{Page: p, FromSeq: have, ToSeq: n.Seq}})
			}
		}
	}
	r.fetchDiffs(nd, reqs, obsv.EvHomeRebuild, PhaseHomeRebuild)
}

// catchUpHomePages restores every remaining lost home update before the
// victim goes live: each live writer's own-diff log is read, unbounded,
// for every page homed at the victim. Already-applied intervals are
// skipped idempotently, and DiffUpdates still queued in the victim's inbox
// re-apply as no-ops once the service loop drains them.
func (r *Replayer) catchUpHomePages(nd *hlrc.Node) {
	var reqs []diffReq
	for p := 0; p < nd.NumPages(); p++ {
		pg := memory.PageID(p)
		// Migrated pages (online recovery after a crash) are no longer this
		// node's to rebuild: their adopter serves them from custody.
		if !nd.OwnsHome(pg) {
			continue
		}
		ver := nd.HomeVersion(pg)
		for w := 0; w < nd.N(); w++ {
			if w != nd.ID() {
				reqs = append(reqs, diffReq{int32(w), &hlrc.RecDiffsReq{Page: pg, FromSeq: ver[w], ToSeq: math.MaxInt32}})
			}
		}
	}
	r.fetchDiffs(nd, reqs, obsv.EvCatchUp, PhaseCatchUp)
}

// diffReq is one logged-diff read addressed to a writer.
type diffReq struct {
	writer int32
	req    *hlrc.RecDiffsReq
}

// fetchDiffs reads logged diffs from the writers' logs, all round trips
// overlapped, applies them to the victim's home copies (idempotently,
// keyed by writer interval), charges the slowest writer's disk-read time
// (the writers' disks work in parallel), and records the round as span ev
// and as phase. A PhaseDiffFetch request names an interval a logged update
// event says its writer logged, so an empty reply is a replay divergence.
//
// Diffs from different writers may target the same bytes when their
// intervals were lock-serialized (the home applied them in arrival order
// pre-crash), so the batch is applied in the canonical order of
// hlrc.SortCanonical, a linear extension of the intervals' causal order.
func (r *Replayer) fetchDiffs(nd *hlrc.Node, reqs []diffReq, ev obsv.EventKind, phase Phase) {
	if len(reqs) == 0 {
		return
	}
	ep := nd.Endpoint()
	start := nd.Clock().Now()
	pendings := make([]*transport.Pending, len(reqs))
	for i, q := range reqs {
		pendings[i] = ep.CallAsync(int(q.writer), hlrc.KindRecDiffsReq, q.req.WireSize(), q.req)
	}
	var all []hlrc.AdoptedDiff
	diskByWriter := make(map[int32]int)
	for i, pd := range pendings {
		q := reqs[i]
		resp := pd.WaitDetached(nd.Clock()).Payload.(*hlrc.RecDiffsReply)
		if phase == PhaseDiffFetch && len(resp.Diffs) == 0 {
			panic(fmt.Sprintf("recovery: writer %d has no logged diff for page %d seq %d",
				q.writer, q.req.Page, q.req.ToSeq))
		}
		diskByWriter[q.writer] += resp.DiskBytes
		for j, d := range resp.Diffs {
			all = append(all, hlrc.AdoptedDiff{Writer: q.writer, Seq: resp.Seqs[j], VTSum: resp.VTSums[j], Diff: d})
		}
	}
	hlrc.SortCanonical(all)
	for _, f := range all {
		nd.ApplyDiffAsHome(f.Diff, f.Writer, f.Seq)
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
	end := nd.Clock().Now()
	nd.Tracer().Span(ev, start, end, int64(len(reqs)), int64(totalBytes))
	r.phases.note(phase, start, end, int64(totalBytes))
}
