package hlrc

import (
	"errors"
	"fmt"
	"sync"

	"sdsm/internal/arena"
	"sdsm/internal/fault"
	"sdsm/internal/memory"
	"sdsm/internal/obsv"
	"sdsm/internal/simtime"
	"sdsm/internal/transport"
	"sdsm/internal/vclock"
)

// ErrCrashed is the panic value used to unwind a node's application
// goroutine when a fail-stop crash is injected. The runner recovers it.
var ErrCrashed = errors.New("hlrc: node crashed (injected fail-stop)")

// ErrFenced is the panic value used to unwind a node's application
// goroutine when a peer rejects one of its messages as stale-epoch
// (the node was declared dead — rightly or wrongly — and the cluster
// has moved on). The runner recovers it and re-admits the node through
// the rejoin protocol.
var ErrFenced = errors.New("hlrc: fenced (stale membership epoch; node was declared dead)")

// ManagerNode hosts the state of every lock and every barrier.
// Centralized managers keep single-node failure recoverable without
// manager-state reconstruction (the paper's experiments fail a worker,
// not a manager).
const ManagerNode = 0

// Config describes one node of the home-based SDSM.
type Config struct {
	ID       int
	N        int
	PageSize int
	NumPages int
	// Homes maps every page to its home node. All nodes share one
	// assignment (read-only after construction).
	Homes []int
	Model simtime.CostModel
	// HomeUndo maintains a volatile per-home-page undo history so a live
	// home can serve an earlier version of a page during a peer's
	// recovery ("home rollback" in the paper, implemented as in-memory
	// undo instead of re-execution; see DESIGN.md). A page's history
	// starts at its first remote serve: before that no peer holds a copy
	// a replay could need rolled back, so the page takes no twin and
	// keeps no entry.
	HomeUndo bool
	// NoFlushOverlap disables CCL's flush/communication overlap
	// (ablation): the release flush lands fully on the critical path.
	NoFlushOverlap bool
	// SenderLogs makes the manager keep an in-memory log of every lock
	// grant and barrier release it issues, per receiver. A victim whose
	// disk log lost its tail to a torn write replays those operations from
	// the manager's logs instead (sender-based message logging; the
	// manager is outside the failure model, so its volatile logs survive).
	SenderLogs bool
	// LeaseDuration enables online recovery when positive: lock grants and
	// barrier releases carry virtual-clock leases (renewed implicitly by
	// every message the node sends), a node is declared dead only after
	// its lease expires, its homes are adopted by a deterministic
	// successor, and its locks are revoked by the manager. Zero (the
	// default) keeps the offline stop-the-world recovery semantics and a
	// byte-identical wire format.
	LeaseDuration simtime.Duration
	// LogDiffs reads this node's own logged diffs for a recovering peer
	// (a KindRecDiffsReq, answered in handle) and for the node's own
	// custody rebuilds (RebuildCustody). It is a function because the log
	// format lives above this package: the cluster binds it to the node's
	// stable store.
	LogDiffs func(*RecDiffsReq) *RecDiffsReply
	// Tracer records the node's coherence events; nil disables tracing at
	// zero cost.
	Tracer *obsv.Tracer
}

// SyncDelegate intercepts synchronization operations and page validation
// during recovery replay. A nil delegate means normal operation.
// Each method returns true when it fully handled the operation.
type SyncDelegate interface {
	Acquire(nd *Node, op int32, lock int32) bool
	Release(nd *Node, op int32, lock int32) bool
	Barrier(nd *Node, op int32, barrier int32) bool
	// Validate is consulted when an access hits an Invalid page during
	// replay; it must make the page readable.
	Validate(nd *Node, page memory.PageID) bool
}

type undoEntry struct {
	writer int32
	seq    int32
	undo   memory.Undo // restoring it removes (writer, seq)'s update
}

// Node is one process of the home-based SDSM: its page table, interval
// state, home-side bookkeeping, and (on ManagerNode) the lock and barrier
// manager. The application goroutine calls the public synchronization
// and access methods; a service goroutine started by StartService
// handles incoming protocol messages.
type Node struct {
	cfg     Config
	ep      *transport.Endpoint
	members *transport.Membership
	clock   *simtime.Clock
	hooks   LogHooks
	stats   *Stats
	trc     *obsv.Tracer

	mu sync.Mutex
	pt *memory.PageTable
	// vt is the node's vector time. Sent messages carry it shared
	// (DESIGN.md §2.8): the next Tick or Merge copies it.
	vt      vclock.COW
	notices *NoticeStore
	// grantVT[l] is the lock manager's knowledge horizon received with
	// the grant of lock l (still held); release deltas are relative to it.
	// It is the grant's own vector, kept, never written.
	grantVT map[int32]vclock.VC
	// lastBarrierVT is the knowledge horizon of the last barrier release
	// (the release's own vector, kept, never written).
	lastBarrierVT vclock.VC
	// ver[p] is the version vector of home page p (nil for non-home
	// pages): ver[p][w] = last interval of writer w applied to p. Only
	// Freeze shares it, so a write copies it only after a checkpoint;
	// the vectors are cut from one slab, their copies from vcs.
	ver  []vclock.COW
	undo map[memory.PageID][]undoEntry
	// served[p] is set once a reply has been built from home frame p
	// (HomeUndo only, nil otherwise): it arms p's undo history.
	served []bool
	// undoDone is PageAtVersion's word-coverage bitmap (HomeUndo only),
	// cleared per fetch.
	undoDone []byte
	// opIndex counts synchronization operations, used to tag log records
	// and to place crash points.
	opIndex int32
	// lastSyncStamp is the manager-side stamp (reply SentAt) of the
	// grant or barrier release that opened the node's current interval
	// (application goroutine only). It is the arrival cutoff for
	// deterministic release-flush composition: every handler-staged
	// record that arrived by then causally precedes the manager event,
	// so filtering by it is deterministic and eventually complete. The
	// locally observed resume time is NOT a sound cutoff: it also carries
	// fault-injected retransmission charges that exist only on this
	// node's clock, pushing it above what causality bounds.
	lastSyncStamp simtime.Time
	// crashedAt records the op at which the injected crash fired (-1
	// until then).
	crashedAt int32
	// flights is closeAndPropagate's in-flight batch list (application
	// goroutine only), reused across intervals.
	flights []flight
	// created is closeAndPropagate's list of the interval's diffs
	// (application goroutine only), reused across intervals: the hooks
	// read it during AtRelease and never keep it, and the batches sent
	// to the homes are cut from a copy.
	created []memory.Diff
	// svcEvents and svcApplied are handleDiffUpdate's scratch (service
	// goroutine only): the hooks read them during the call, never after.
	svcEvents  []UpdateEvent
	svcApplied []memory.Diff
	// Sent payloads are cut from slabs, one allocation per block
	// (DESIGN.md §2.8). Each slab is serialized with the state its call
	// sites already hold: vt's and ver's copies, the sync payloads, page
	// replies and interval page lists under mu; closeAndPropagate's diff
	// batches on the application goroutine, like flights.
	vcs       arena.Slab[int32]
	lockReqs  arena.Slab[LockReq]
	lockRels  arena.Slab[LockRelease]
	checkins  arena.Slab[BarrierCheckin]
	replies   arena.Slab[PageReply]
	pageLists arena.Slab[memory.PageID]
	batches   arena.Slab[DiffUpdate]
	batchDiff arena.Slab[memory.Diff]

	delegate SyncDelegate
	// CrashOp: the node fail-stops at the first release/barrier whose op
	// index is >= CrashOp, after its diffs are flushed and acknowledged
	// but before it communicates with the managers (the paper's Fig. 1(b)
	// scenario). Negative: never.
	CrashOp int32
	// CrashPoint refines where the fail-stop fires relative to the sync
	// op (fault.CrashPoint; the zero value keeps the quiescent default).
	CrashPoint fault.CrashPoint
	// PartitionFor, when positive, turns the injected failure at CrashOp
	// into a network partition instead of a fail-stop: the node is cut
	// off from every peer for this long (virtual time), declared dead by
	// the survivors when its lease expires inside the window, and keeps
	// running — so its post-heal traffic is exercised against the epoch
	// fence and the runner re-admits it through the rejoin protocol.
	PartitionFor simtime.Duration
	// TwinsFromOp, during recovery replay, re-enables twin creation for
	// ops >= the value so the crashed open interval's diffs can be
	// recomputed and flushed at detach (-1: never, the default).
	TwinsFromOp int32

	// Online-recovery state (Config.LeaseDuration > 0), guarded by mu.
	// adoptedFrom is the dead node whose home pages this node holds in
	// custody (-1 outside custody); adopted is the per-page custody state.
	adoptedFrom int
	adopted     map[memory.PageID]*adoptedPage

	// mgr is the lock and barrier manager: non-nil on ManagerNode only,
	// and touched only by its service goroutine (no lock).
	mgr *manager

	stopSvc chan struct{}
	svcDone chan struct{}
	// PostBarrier, when set, runs on the application goroutine after each
	// live barrier completes (op already counted). The runner uses it to
	// take periodic checkpoints at quiesced points.
	PostBarrier func(op int32)
}

// NewNode builds a node attached to the network. The clock and stats are
// owned by the caller (they may outlive a crashed incarnation for
// reporting).
func NewNode(cfg Config, nw *transport.Network, clock *simtime.Clock, hooks LogHooks, stats *Stats) *Node {
	if len(cfg.Homes) != cfg.NumPages {
		panic(fmt.Sprintf("hlrc: homes table has %d entries for %d pages", len(cfg.Homes), cfg.NumPages))
	}
	if hooks == nil {
		hooks = NopHooks{}
	}
	if stats == nil {
		stats = &Stats{}
	}
	nd := &Node{
		cfg:           cfg,
		ep:            nw.NewEndpoint(cfg.ID, clock),
		members:       nw.Members(),
		clock:         clock,
		hooks:         hooks,
		stats:         stats,
		trc:           cfg.Tracer,
		pt:            memory.NewPageTable(cfg.NumPages, cfg.PageSize),
		notices:       NewNoticeStore(cfg.N),
		grantVT:       make(map[int32]vclock.VC),
		lastBarrierVT: vclock.New(cfg.N),
		ver:           make([]vclock.COW, cfg.NumPages),
		undo:          make(map[memory.PageID][]undoEntry),
		CrashOp:       -1,
		crashedAt:     -1,
		TwinsFromOp:   -1,
		adoptedFrom:   -1,
		adopted:       make(map[memory.PageID]*adoptedPage),
	}
	nd.vt = vclock.Own(vclock.New(cfg.N), &nd.vcs)
	if cfg.ID == ManagerNode {
		nd.mgr = newManager(cfg, stats)
	}
	// Home version vectors are cut from one slab, as home frames are.
	homes := 0
	for _, h := range cfg.Homes {
		if h == cfg.ID {
			homes++
		}
	}
	slab := vclock.New(homes * cfg.N)
	var owned []memory.PageID
	for p := range cfg.Homes {
		if nd.cfg.Homes[p] == cfg.ID {
			nd.ver[p] = vclock.Own(slab[:cfg.N:cfg.N], &nd.vcs)
			slab = slab[cfg.N:]
			if nd.OwnsHome(memory.PageID(p)) {
				owned = append(owned, memory.PageID(p))
			}
		}
	}
	// Every home frame exists before the service starts, so the service
	// never writes a frame slot (the ownership rule, DESIGN.md §2.8).
	nd.pt.AllocFrames(owned)
	if cfg.HomeUndo {
		nd.undoDone = make([]byte, memory.BitmapLen(cfg.PageSize))
		nd.served = make([]bool, cfg.NumPages)
		if cfg.LeaseDuration > 0 {
			// Under leases every page is armed from the start. This is
			// coupling with home migration, not a knob: a home page can
			// migrate mid-interval, and the close of a page the node no
			// longer owns diffs it against its HomeUndo twin (MakeDiff), so
			// the twin must exist whether or not the page was served.
			for p := range nd.served {
				nd.served[p] = true
			}
		}
	}
	nd.ep.SetTracer(cfg.Tracer)
	return nd
}

// ID returns the node id.
func (nd *Node) ID() int { return nd.cfg.ID }

// N returns the number of nodes.
func (nd *Node) N() int { return nd.cfg.N }

// Clock returns the node's virtual clock.
func (nd *Node) Clock() *simtime.Clock { return nd.clock }

// Model returns the cost model.
func (nd *Node) Model() simtime.CostModel { return nd.cfg.Model }

// Config returns the configuration the node was built with.
func (nd *Node) Config() Config { return nd.cfg }

// Endpoint returns the node's network endpoint.
func (nd *Node) Endpoint() *transport.Endpoint { return nd.ep }

// Stats returns the node's protocol counters.
func (nd *Node) Stats() *Stats { return nd.stats }

// Tracer returns the node's event tracer (nil when tracing is off).
func (nd *Node) Tracer() *obsv.Tracer { return nd.trc }

// PageTable exposes the node's page table. Outside the engine it must
// only be touched while the service loop is stopped (recovery replay).
func (nd *Node) PageTable() *memory.PageTable { return nd.pt }

// HomeOf returns the home node of a page.
func (nd *Node) HomeOf(p memory.PageID) int { return nd.cfg.Homes[p] }

// IsHome reports whether this node is the page's home.
func (nd *Node) IsHome(p memory.PageID) bool { return nd.cfg.Homes[p] == nd.cfg.ID }

// VT returns a copy of the node's vector time, the caller's to write.
func (nd *Node) VT() vclock.VC {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.vt.Get().Clone()
}

// VTAt returns component proc of the node's vector time.
func (nd *Node) VTAt(proc int) int32 {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.vt.Get()[proc]
}

// SetVT overwrites the node's vector time (recovery restore).
func (nd *Node) SetVT(v vclock.VC) {
	nd.mu.Lock()
	nd.vt.Set(v.Clone())
	nd.mu.Unlock()
}

// Notices exposes the node's write-notice store (recovery replay only).
func (nd *Node) Notices() *NoticeStore { return nd.notices }

// OpIndex returns the current synchronization-operation index.
func (nd *Node) OpIndex() int32 {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.opIndex
}

// SetDelegate installs (or, with nil, removes) the recovery delegate.
func (nd *Node) SetDelegate(d SyncDelegate) { nd.delegate = d }

// StartService launches the protocol service goroutine.
func (nd *Node) StartService() {
	nd.stopSvc = make(chan struct{})
	nd.svcDone = make(chan struct{})
	go nd.serve(nd.stopSvc, nd.svcDone)
}

// StopService stops the service goroutine and waits for it to finish the
// message in hand. Unprocessed messages stay queued in the inbox and are
// handled by the next incarnation's service loop, like a TCP backlog
// surviving a reboot.
func (nd *Node) StopService() {
	if nd.stopSvc == nil {
		return
	}
	close(nd.stopSvc)
	<-nd.svcDone
	nd.stopSvc = nil
}

func (nd *Node) serve(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	var horizon <-chan struct{} // nil, never ready, on all but the manager
	if nd.mgr != nil {
		horizon = nd.ep.HorizonWake()
	}
	inbox := nd.ep.Inbox()
	for {
		var m transport.Message
		got, woken := false, false
		// A stop is seen first, and a waiting message is taken without the
		// full select, which locks every channel it names.
		select {
		case <-stop:
			return
		default:
		}
		select {
		case m = <-inbox:
			got = true
		default:
			select {
			case <-stop:
				return
			case m = <-inbox:
				got = true
			case <-horizon:
				woken = true
			}
		}
		if got {
			// A fault-injected duplicate copy is discarded.
			if !nd.ep.WireDup(m) {
				nd.handle(m)
			}
			nd.ep.MarkHandled()
		}
		if nd.mgr != nil {
			nd.decideHeld(woken)
		}
	}
}

// decideHeld decides the manager's held traffic up to the horizon, one
// message at a time, sends the replies, and publishes how far it got for
// the arrival fence (transport.Endpoint.PublishDecided). When the head is
// blocked by a running node's clock it watches that clock, so the loop
// wakes when the clock moves and never blocks on it. A pass runs only
// when something it reads may have changed: a message was admitted, the
// last pass found the inbox not drained, or the loop was woken (with
// nothing held, that is mostly a fence asking for a fresh decided bound).
func (nd *Node) decideHeld(woken bool) {
	mg := nd.mgr
	if !woken && !mg.due {
		return
	}
	mg.due = false
	defer func() { nd.ep.PublishDecided(mg.decided, mg.quiet) }()
	for len(mg.held) > 0 || woken {
		woken = false
		h, low := nd.ep.Horizon(mg.quiet)
		rs, ok := mg.decide(h)
		if !ok {
			switch {
			case len(mg.held) == 0:
			case low >= 0:
				nd.ep.WatchHorizon(low, mg.held[0].arrival)
			default: // the inbox is not drained: pass again after the next message
				mg.due = true
			}
			return
		}
		nd.send(rs)
	}
}

// handle dispatches one service message. Protocol handlers run like the
// asynchronous message handlers of a real SDSM — concurrently with
// application compute — so their replies are stamped from the request's
// arrival time plus the handling cost, never from the application clock
// (which may have advanced deep into a compute phase and would otherwise
// artificially serialize remote misses behind it).
func (nd *Node) handle(m transport.Message) {
	at := nd.ep.ArrivalOf(m) + simtime.Time(nd.cfg.Model.MsgHandling)
	if m.From != nd.cfg.ID && m.Kind != KindObit && m.Kind != KindFenced {
		// Membership fence: a message stamped with an epoch older than
		// the sender's own burial epoch was sent by an incarnation the
		// cluster has already declared dead — typically a partitioned
		// node whose pre-heal state is arriving late. Acting on it
		// (serving a home update, accepting a lock release) would be
		// split-brain; instead the request is NACKed with a typed
		// diagnostic so the sender's wait-site can escalate to rejoin.
		// Obituaries are exempt (they carry the epoch bump itself) and
		// so are fence NACKs. Without a lease no node is ever declared
		// dead, so nobody is buried and nothing is fenced.
		if buried, stale := nd.members.Stale(m.From, m.Epoch); stale {
			nd.stats.FencedMsgs.Add(1)
			if m.WantsReply() {
				f := &Fenced{Node: int32(m.From), MsgEpoch: m.Epoch, Buried: buried, Epoch: nd.members.View(nd.cfg.ID)}
				nd.ep.ReplyAt(at, m, KindFenced, f.WireSize(), f)
			}
			return
		}
	}
	switch m.Kind {
	case KindPageReq:
		nd.handlePageReq(m, at)
	case KindDiffUpdate:
		nd.handleDiffUpdate(m, at)
	case KindLockReq, KindLockRelease, KindBarrierCheckin:
		nd.manager(m).admit(m, nd.ep.ArrivalOf(m))
	case KindRecGrantReq, KindRecBarrierReq:
		nd.send(nd.manager(m).senderLog(m, at))
	case KindObit:
		nd.handleObit(m, at)
	case KindRecPageReq:
		nd.handleRecPageReq(m, at)
	case KindRecDiffsReq:
		resp := nd.cfg.LogDiffs(m.Payload.(*RecDiffsReq))
		nd.ep.ReplyAt(at, m, KindRecDiffsReply, resp.WireSize(), resp)
	default:
		panic(fmt.Sprintf("hlrc: node %d: unexpected message kind %d from %d", nd.cfg.ID, m.Kind, m.From))
	}
}

// manager returns the node's manager for a manager kind; the kind reaching
// any other node is a routing bug.
func (nd *Node) manager(m transport.Message) *manager {
	if nd.mgr == nil {
		panic(fmt.Sprintf("hlrc: node %d is not the manager but got %s from %d",
			nd.cfg.ID, obsv.KindName(uint8(m.Kind)), m.From))
	}
	return nd.mgr
}

// send records each manager reply's span and sends the reply.
func (nd *Node) send(rs []mgrReply) {
	for i := range rs {
		r := &rs[i]
		s := &r.span
		nd.trc.SvcSpanT(s.tc, s.ev, obsv.CatCoherence, s.t0, s.t1, s.from, s.sentAt, s.a1, s.a2)
		nd.ep.ReplyAt(r.at, r.req, r.kind, r.payload.WireSize(), r.payload)
	}
}

// svcTrace derives the trace context a handler span records for the
// request it serves: the same trace, with a span id derived as a child
// of the message's parent span. Zero in, zero out — untraced requests
// stay free.
func svcTrace(m transport.Message) obsv.TraceCtx {
	tc := m.Trace
	if tc.Valid() {
		tc.SpanID = obsv.ChildSpanID(tc.SpanID, uint8(m.Kind))
	}
	return tc
}

// handlePageReq serves a remote miss: one round trip returns the current
// home copy (HLRC's single-round-trip property).
func (nd *Node) handlePageReq(m transport.Message, at simtime.Time) {
	req := m.Payload.(*PageReq)
	nd.mu.Lock()
	if !nd.OwnsHome(req.Page) {
		nd.mu.Unlock()
		if nd.cfg.LeaseDuration > 0 {
			nd.handleForeignPageReq(m, req, at)
			return
		}
		panic(fmt.Sprintf("hlrc: node %d asked for page %d homed at %d", nd.cfg.ID, req.Page, nd.HomeOf(req.Page)))
	}
	resp := nd.replies.New()
	resp.Data = nd.pt.CopyPage(req.Page)
	nd.markServedLocked(req.Page)
	nd.mu.Unlock()
	nd.trc.SvcSpanT(svcTrace(m), obsv.EvPageServe, obsv.CatCoherence,
		at-simtime.Time(nd.cfg.Model.MsgHandling), at, m.From, m.SentAt,
		int64(req.Page), int64(resp.WireSize()))
	nd.ep.ReplyAt(at, m, KindPageReply, resp.WireSize(), resp)
}

// handleRecPageReq serves a recovering peer's page fetch at the version
// its replay needs: from the home copy, rolled back if it has advanced
// (PageAtVersion), or — for a migrated page, whose adopter this node is
// (the requester resolves homes through the same membership)
// — rebuilt from custody.
func (nd *Node) handleRecPageReq(m transport.Message, at simtime.Time) {
	req := m.Payload.(*RecPageReq)
	resp := &PageReply{}
	if nd.OwnsHome(req.Page) {
		resp.Data = nd.PageAtVersion(req.Page, req.Need)
	} else {
		resp.Data, at = nd.RebuildCustody(req.Page, req.Need, at)
	}
	nd.ep.ReplyAt(at, m, KindRecPageReply, resp.WireSize(), resp)
}

// handleDiffUpdate applies a writer interval's diffs to the home copies,
// records the update events, and acknowledges. This is the paper's
// "Asynchronous Update Handler".
func (nd *Node) handleDiffUpdate(m transport.Message, at simtime.Time) {
	du := m.Payload.(*DiffUpdate)
	if nd.cfg.LeaseDuration > 0 && len(du.Diffs) > 0 && !nd.OwnsHome(du.Diffs[0].Page) {
		// Diff batches are grouped per static home, so the first page
		// decides the whole message's routing: custody record or redirect.
		nd.handleForeignDiffUpdate(m, du, at)
		return
	}
	var copied int
	nd.mu.Lock()
	events, applied := nd.svcEvents[:0], nd.svcApplied[:0]
	for _, d := range du.Diffs {
		if !nd.IsHome(d.Page) {
			nd.mu.Unlock()
			panic(fmt.Sprintf("hlrc: node %d got diff for page %d homed at %d", nd.cfg.ID, d.Page, nd.HomeOf(d.Page)))
		}
		if !nd.applyHomeDiffLocked(d, du.Writer, du.Seq) {
			continue // retransmitted interval, already applied and logged
		}
		copied += d.DataBytes()
		applied = append(applied, d)
		events = append(events, UpdateEvent{Page: d.Page, Writer: du.Writer, Seq: du.Seq})
	}
	if len(applied) > 0 {
		nd.hooks.OnIncomingDiffs(nd.opIndex, at-simtime.Time(nd.cfg.Model.MsgHandling), events, applied)
		nd.stats.DiffsApplied.Add(int64(len(applied)))
	}
	nd.mu.Unlock()
	// The ack leaves after the diffs are applied; the copy cost is the
	// handler's, not the application's.
	arrival := at - simtime.Time(nd.cfg.Model.MsgHandling)
	at += simtime.Time(nd.cfg.Model.CopyTime(copied))
	nd.trc.SvcSpanT(svcTrace(m), obsv.EvHomeUpdate, obsv.CatCoherence,
		arrival, at, m.From, m.SentAt, int64(len(applied)), int64(copied))
	for _, d := range applied {
		nd.trc.SvcInstantT(svcTrace(m), obsv.EvDiffApply, at, int64(d.Page), int64(d.DataBytes()))
	}
	clear(applied) // hold no payload past its message
	nd.svcEvents, nd.svcApplied = events[:0], applied[:0]
	nd.ep.ReplyAt(at, m, KindDiffAck, DiffAck{}.WireSize(), DiffAck{})
}

// applyHomeDiffLocked applies one diff to a home copy, maintaining the
// page's version vector and (when enabled) the undo history. A page with an
// open twinned interval (a home self-write under HomeUndo, or a migrated
// page in online replay) gets the diff in its twin too, so the twin lacks
// only the home's own writes: the close-time undo entry and the replayed
// self-diff (both page against twin) then hold exactly those. Data-race
// freedom keeps the writers' word sets disjoint, so no self-write is
// overwritten. The frame must exist: the service writes page contents,
// never a frame slot. Callers hold nd.mu.
func (nd *Node) applyHomeDiffLocked(d memory.Diff, writer, seq int32) bool {
	v := nd.ver[d.Page].Get()
	tracked := int(writer) >= 0 && int(writer) < len(v)
	if tracked && seq <= v[writer] {
		// The writer interval is already applied: this is a retransmitted
		// or duplicated DiffUpdate (or a recovery re-fetch overlapping the
		// live stream). Re-applying must be a no-op, keyed by the writer
		// interval — and must not grow the undo history.
		return false
	}
	page := nd.pt.Frame(d.Page)
	if page == nil {
		panic(fmt.Sprintf("hlrc: node %d: home page %d has no frame", nd.cfg.ID, d.Page))
	}
	if nd.undoArmed(d.Page) {
		nd.undo[d.Page] = append(nd.undo[d.Page], undoEntry{
			writer: writer, seq: seq, undo: memory.UndoOf(d, page),
		})
	}
	d.Apply(page)
	if twin := nd.pt.Twin(d.Page); twin != nil {
		d.Apply(twin)
	}
	if tracked {
		nd.ver[d.Page].SetAt(int(writer), seq)
	}
	return true
}

// ApplyDiffAsHome is the exported form of applyHomeDiffLocked for the
// recovery engine (which runs while the service loop is stopped). It
// reports whether the diff was new (false: the interval was already
// applied, an idempotent re-delivery). The diff is bounds-checked first:
// recovery feeds this with diffs decoded from disk logs and peers, and
// Apply trusts run offsets, so a corrupt log must fail here rather than
// scribble outside the page.
func (nd *Node) ApplyDiffAsHome(d memory.Diff, writer, seq int32) bool {
	if err := d.Validate(nd.cfg.PageSize); err != nil {
		panic(fmt.Sprintf("hlrc: node %d rejected recovered diff: %v", nd.cfg.ID, err))
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.pt.Page(d.Page) // a migrated home of a recovered incarnation has no slab frame
	return nd.applyHomeDiffLocked(d, writer, seq)
}

// markServedLocked records that a reply was built from home frame p,
// arming its undo history. Callers hold nd.mu.
func (nd *Node) markServedLocked(p memory.PageID) {
	if nd.served != nil {
		nd.served[p] = true
	}
}

// undoArmed reports whether home page p keeps undo history: HomeUndo is
// on and p has been served. Callers hold nd.mu.
func (nd *Node) undoArmed(p memory.PageID) bool {
	return nd.served != nil && nd.served[p]
}

// PageAtVersion returns a copy of home page p rolled back through every
// writer interval beyond need applied since p was first served (this call
// counts as a serve). Intervals applied before the first serve stay in
// the copy: a recovering peer only reads p from a version it fetched,
// which is no earlier than the first serve, and such an interval either
// precedes that fetch (need covers it) or is concurrent with it (data-race
// freedom keeps its words out of what the peer reads); see DESIGN.md.
// With HomeUndo disabled, or when the current copy already satisfies
// need, the current copy is returned.
func (nd *Node) PageAtVersion(p memory.PageID, need vclock.VC) []byte {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	data := nd.pt.CopyPage(p)
	if !nd.cfg.HomeUndo {
		return data // documented fallback: current copy
	}
	nd.markServedLocked(p)
	// Strip the open interval's provisional self-writes: the home may be
	// mid-interval (dirty with a twin), and those writes have no undo
	// entry until the interval closes, so they must never leak into a
	// versioned fetch. The twin has absorbed every remote update since it
	// was taken, so it is the current copy without them. An interval that
	// opened before the first serve has no twin and stays, like every
	// interval before the first serve.
	if nd.pt.IsDirty(p) && nd.pt.HasTwin(p) {
		copy(data, nd.pt.Twin(p))
	}
	if need.Covers(nd.ver[p].Get()) {
		return data
	}
	// Roll back every update beyond need, oldest first: each word ends at
	// the pre-image of the oldest rolled-back entry that covers it, and is
	// written once.
	done := nd.undoDone
	clear(done)
	for _, e := range nd.undo[p] {
		if int(e.writer) < len(need) && e.seq > need[e.writer] {
			e.undo.Restore(data, done)
		}
	}
	return data
}
