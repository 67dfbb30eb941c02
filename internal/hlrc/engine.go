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
	// format lives above this package: the cluster binds it to
	// wal.ReadLoggedDiffs over the node's stable store.
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
	// home is the node's home side: version vectors, undo histories,
	// served marks and custody records (home.go), called under mu.
	home home
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
	// sites already hold: the clocks' copies, the sync payloads, page
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

	// adoptedFrom is the dead node whose home pages this node holds in
	// custody (-1 outside custody; Config.LeaseDuration > 0 only),
	// guarded by mu.
	adoptedFrom int

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
		CrashOp:       -1,
		crashedAt:     -1,
		TwinsFromOp:   -1,
		adoptedFrom:   -1,
	}
	nd.vt = vclock.Own(vclock.New(cfg.N), &nd.vcs)
	nd.home = newHome(cfg, nd.pt, &nd.vcs)
	if cfg.ID == ManagerNode {
		nd.mgr = newManager(cfg, stats)
	}
	// Every home frame exists before the service starts, so the service
	// never writes a frame slot (the ownership rule, DESIGN.md §2.8).
	var owned []memory.PageID
	for p := range cfg.Homes {
		if nd.OwnsHome(memory.PageID(p)) {
			owned = append(owned, memory.PageID(p))
		}
	}
	nd.pt.AllocFrames(owned)
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
	case KindPageReq, KindRecPageReq:
		nd.handlePageReq(m, at)
	case KindDiffUpdate:
		nd.handleDiffUpdate(m, at)
	case KindLockReq, KindLockRelease, KindBarrierCheckin:
		nd.manager(m).admit(m, nd.ep.ArrivalOf(m))
	case KindRecGrantReq, KindRecBarrierReq:
		nd.send(nd.manager(m).senderLog(m, at))
	case KindObit:
		nd.handleObit(m, at)
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
		nd.trc.SvcSpan(s.tc, s.ev, obsv.CatCoherence, s.t0, s.t1, s.from, s.sentAt, s.a1, s.a2)
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

// redirect answers m, about page p, with eff, the node that serves p
// now. Without a lease no home moves, so the message was misrouted.
func (nd *Node) redirect(m transport.Message, p memory.PageID, eff int, at simtime.Time) {
	if nd.cfg.LeaseDuration == 0 {
		panic(fmt.Sprintf("hlrc: node %d got %s for page %d homed at %d",
			nd.cfg.ID, obsv.KindName(uint8(m.Kind)), p, nd.HomeOf(p)))
	}
	rd := &RedirectHome{Page: p, Home: int32(eff)}
	nd.ep.ReplyAt(at, m, KindRedirectHome, rd.WireSize(), rd)
}

// handlePageReq serves a page: for a KindPageReq the current copy, in one
// round trip (HLRC's single-round-trip property); for a KindRecPageReq
// the copy at the version VT a recovering peer's replay needs. An owned
// page is served from its frame, an adopted one rebuilt from custody
// (RebuildCustody); a current-copy request for a page another node
// serves now is redirected, a versioned one never is.
func (nd *Node) handlePageReq(m transport.Message, at simtime.Time) {
	req := m.Payload.(*PageReq)
	versioned := m.Kind == KindRecPageReq
	var resp *PageReply
	tc, ev, done := svcTrace(m), obsv.EvPageServe, at
	if nd.OwnsHome(req.Page) {
		nd.mu.Lock()
		resp = nd.replies.New()
		if versioned {
			resp.Data = nd.home.serveAt(req.Page, req.VT)
		} else {
			resp.Data = nd.home.serve(req.Page)
		}
		nd.mu.Unlock()
	} else if eff := nd.EffectiveHome(req.Page); eff != nd.cfg.ID && !versioned {
		nd.redirect(m, req.Page, eff, at)
		return
	} else {
		resp, ev = &PageReply{}, obsv.EvAdoptServe
		resp.Data, done = nd.RebuildCustody(req.Page, req.VT, at)
	}
	if !versioned {
		nd.trc.SvcSpan(tc, ev, obsv.CatCoherence, at-simtime.Time(nd.cfg.Model.MsgHandling), done,
			m.From, m.SentAt, int64(req.Page), int64(resp.WireSize()))
	}
	// Each request kind's reply is the next kind: KindPageReply or
	// KindRecPageReply.
	nd.ep.ReplyAt(done, m, m.Kind+1, resp.WireSize(), resp)
}

// handleDiffUpdate takes a writer interval's diffs for the pages of one
// static home, whose first page routes the whole message: applied, with
// their update events, to owned pages (the paper's "Asynchronous Update
// Handler"), recorded into custody for adopted ones, or redirected.
func (nd *Node) handleDiffUpdate(m transport.Message, at simtime.Time) {
	du := m.Payload.(*DiffUpdate)
	adopted := len(du.Diffs) > 0 && !nd.OwnsHome(du.Diffs[0].Page)
	if adopted {
		p0 := du.Diffs[0].Page
		if eff := nd.EffectiveHome(p0); eff != nd.cfg.ID {
			nd.redirect(m, p0, eff, at)
			return
		}
	}
	var copied, taken int
	nd.mu.Lock()
	events, applied := nd.svcEvents[:0], nd.svcApplied[:0]
	for _, d := range du.Diffs {
		if adopted {
			if !nd.home.record(d, du.Writer, du.Seq, du.VTSum) {
				continue // retransmitted interval, already recorded
			}
		} else {
			if !nd.IsHome(d.Page) {
				nd.mu.Unlock()
				panic(fmt.Sprintf("hlrc: node %d got diff for page %d homed at %d", nd.cfg.ID, d.Page, nd.HomeOf(d.Page)))
			}
			if !nd.home.apply(d, du.Writer, du.Seq) {
				continue // retransmitted interval, already applied and logged
			}
			applied = append(applied, d)
			events = append(events, UpdateEvent{Page: d.Page, Writer: du.Writer, Seq: du.Seq})
		}
		copied += d.DataBytes()
		taken++
	}
	if len(applied) > 0 {
		nd.hooks.OnIncomingDiffs(nd.opIndex, at-simtime.Time(nd.cfg.Model.MsgHandling), events, applied)
		nd.stats.DiffsApplied.Add(int64(len(applied)))
	}
	nd.mu.Unlock()
	if adopted && taken > 0 {
		nd.stats.AdoptedDiffs.Add(int64(taken))
	}
	// The ack leaves after the diffs are taken; the copy cost is the
	// handler's, not the application's.
	arrival := at - simtime.Time(nd.cfg.Model.MsgHandling)
	at += simtime.Time(nd.cfg.Model.CopyTime(copied))
	tc := svcTrace(m)
	nd.trc.SvcSpan(tc, obsv.EvHomeUpdate, obsv.CatCoherence,
		arrival, at, m.From, m.SentAt, int64(taken), int64(copied))
	for _, d := range applied {
		nd.trc.SvcInstant(tc, obsv.EvDiffApply, at, int64(d.Page), int64(d.DataBytes()))
	}
	clear(applied) // hold no payload past its message
	nd.svcEvents, nd.svcApplied = events[:0], applied[:0]
	nd.ep.ReplyAt(at, m, KindDiffAck, DiffAck{}.WireSize(), DiffAck{})
}

// ApplyDiffAsHome applies a writer interval's diff as the home does, for
// the recovery engine (its service loop stopped), and reports whether it
// was new. The diff, decoded from a log or a peer, is bounds-checked
// first: Apply trusts run offsets.
func (nd *Node) ApplyDiffAsHome(d memory.Diff, writer, seq int32) bool {
	if err := d.Validate(nd.cfg.PageSize); err != nil {
		panic(fmt.Sprintf("hlrc: node %d rejected recovered diff: %v", nd.cfg.ID, err))
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.pt.Page(d.Page) // a migrated home of a recovered incarnation has no slab frame
	return nd.home.apply(d, writer, seq)
}

// PageAtVersion returns a copy of home page p at version need, as a
// versioned fetch is served (this call counts as a serve).
func (nd *Node) PageAtVersion(p memory.PageID, need vclock.VC) []byte {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.home.serveAt(p, need)
}
