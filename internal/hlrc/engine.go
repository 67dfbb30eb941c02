package hlrc

import (
	"errors"
	"fmt"
	"sync"

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
	// SenderLogs makes manager nodes keep an in-memory log of every lock
	// grant and barrier release they issue, per receiver. A victim whose
	// disk log lost its tail to a torn write replays those operations from
	// the managers' logs instead (sender-based message logging; managers
	// are outside the failure model, so their volatile logs survive).
	SenderLogs bool
	// LeaseDuration enables online recovery when positive: lock grants and
	// barrier releases carry virtual-clock leases (renewed implicitly by
	// every message the node sends), a node is declared dead only after
	// its lease expires, its homes are adopted by a deterministic
	// successor, and its locks are revoked by the manager. Zero (the
	// default) keeps the offline stop-the-world recovery semantics and a
	// byte-identical wire format.
	LeaseDuration simtime.Duration
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

// pendingMsg is a queued request together with its virtual arrival time.
type pendingMsg struct {
	m       transport.Message
	arrival simtime.Time
}

type lockState struct {
	held  bool
	queue []pendingMsg // waiting LockReq messages (with reply channels)
	// Retransmission state: who holds the lock, under which request id,
	// and the grant that was sent — so a requester whose grant was lost
	// on the wire gets the identical grant again.
	holder      int
	holderReq   int64
	lastGrant   *LockGrant
	lastGrantAt simtime.Time
}

// barrierReply caches the release sent to one node for one barrier round,
// so a retransmitted check-in (its release was lost) is answered with the
// identical payload.
type barrierReply struct {
	reqID int64
	rel   *BarrierRelease
	at    simtime.Time
}

type barrierState struct {
	waiting []pendingMsg // checkins collected so far
	// lastReply[node] is the node's release from its most recent
	// completed round.
	lastReply map[int]barrierReply
}

// Node is one process of the home-based SDSM: its page table, interval
// state, home-side bookkeeping, and (when it is a manager) the lock and
// barrier manager state. The application goroutine calls the public
// synchronization and access methods; a service goroutine started by
// StartService handles incoming protocol messages.
type Node struct {
	cfg   Config
	ep    *transport.Endpoint
	clock *simtime.Clock
	hooks LogHooks
	stats *Stats
	trc   *obsv.Tracer

	mu      sync.Mutex
	pt      *memory.PageTable
	vt      vclock.VC
	notices *NoticeStore
	// grantVT[l] is the lock manager's knowledge horizon received with
	// the grant of lock l (still held); release deltas are relative to it.
	grantVT map[int32]vclock.VC
	// lastBarrierVT is the knowledge horizon of the last barrier release.
	lastBarrierVT vclock.VC
	// ver[p] is the version vector of home page p (nil for non-home
	// pages): ver[p][w] = last interval of writer w applied to p.
	ver  []vclock.VC
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
	// lastSyncResume is the completion time of the node's most recent
	// synchronization operation (application goroutine only).
	lastSyncResume simtime.Time
	// lastSyncStamp is the manager-side stamp (reply SentAt) of the
	// grant or barrier release that opened the node's current interval
	// (application goroutine only). It is the arrival cutoff for
	// deterministic release-flush composition: every handler-staged
	// record that arrived by then causally precedes the manager event,
	// so filtering by it is deterministic and eventually complete. The
	// locally observed resume time (lastSyncResume) is NOT a sound
	// cutoff: it also carries fault-injected retransmission charges that
	// exist only on this node's clock, pushing it above what causality
	// bounds (ROADMAP item 4).
	lastSyncStamp simtime.Time
	// barrierRound[b] counts the barrier-b releases this node has
	// consumed (application goroutine only; read under mu by the arrival
	// fence's gate callback). A peer parked on round r of barrier b is
	// gated by this node while barrierRound[b] <= r: the release that
	// wakes it still needs this node's own check-in.
	barrierRound map[int32]int64
	// crashedAt records the op at which the injected crash fired (-1
	// until then).
	crashedAt int32

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
	// LocalLogDiffs, set by recovery.InstallService, reads this node's own
	// logged diffs for one page and writer intervals in (from, to]. The
	// adopter's custody backfill uses it for its own writes — a network
	// call to self would deadlock the service goroutine.
	LocalLogDiffs func(p memory.PageID, fromSeq, toSeq int32) (seqs []int32, vtSums []int64, diffs []memory.Diff, diskBytes int)

	// Online-recovery state (Config.LeaseDuration > 0), guarded by mu.
	// lastHeard[w] is the arrival time of the most recent message from w:
	// every coherence message doubles as a lease renewal.
	lastHeard []simtime.Time
	// revoked[l] records a lock this manager reclaimed from a dead holder,
	// so the holder's replayed release is absorbed instead of panicking as
	// a double free.
	revoked map[int32]revokedLock
	// adoptedFrom is the dead node whose home pages this node holds in
	// custody (-1 outside custody); adopted is the per-page custody state.
	adoptedFrom int
	adopted     map[memory.PageID]*adoptedPage

	// Manager state (used only on manager nodes).
	mgrVT      vclock.VC
	mgrNotices *NoticeStore
	locks      map[int32]*lockState
	barriers   map[int32]*barrierState
	// Sender logs (SenderLogs): every grant/release issued, per receiver,
	// in issue order. A torn-tail recovery replays from these.
	grantLog   map[int][]*LockGrant
	releaseLog map[int][]*BarrierRelease

	stopSvc chan struct{}
	svcDone chan struct{}
	// ExtraHandler, when set, is offered every service message the engine
	// does not understand (the recovery-service kinds). It runs on the
	// service goroutine.
	ExtraHandler func(m transport.Message) bool
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
		clock:         clock,
		hooks:         hooks,
		stats:         stats,
		trc:           cfg.Tracer,
		pt:            memory.NewPageTable(cfg.NumPages, cfg.PageSize),
		vt:            vclock.New(cfg.N),
		notices:       NewNoticeStore(cfg.N),
		grantVT:       make(map[int32]vclock.VC),
		lastBarrierVT: vclock.New(cfg.N),
		barrierRound:  make(map[int32]int64),
		ver:           make([]vclock.VC, cfg.NumPages),
		undo:          make(map[memory.PageID][]undoEntry),
		CrashOp:       -1,
		crashedAt:     -1,
		TwinsFromOp:   -1,
		lastHeard:     make([]simtime.Time, cfg.N),
		revoked:       make(map[int32]revokedLock),
		adoptedFrom:   -1,
		adopted:       make(map[memory.PageID]*adoptedPage),
		mgrVT:         vclock.New(cfg.N),
		mgrNotices:    NewNoticeStore(cfg.N),
		locks:         make(map[int32]*lockState),
		barriers:      make(map[int32]*barrierState),
		grantLog:      make(map[int][]*LockGrant),
		releaseLog:    make(map[int][]*BarrierRelease),
	}
	var owned []memory.PageID
	for p := range cfg.Homes {
		if nd.cfg.Homes[p] == cfg.ID {
			nd.ver[p] = vclock.New(cfg.N)
			if nd.ownsHome(memory.PageID(p)) {
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

// Hooks returns the logging hooks.
func (nd *Node) Hooks() LogHooks { return nd.hooks }

// PageTable exposes the node's page table. Outside the engine it must
// only be touched while the service loop is stopped (recovery replay).
func (nd *Node) PageTable() *memory.PageTable { return nd.pt }

// HomeOf returns the home node of a page.
func (nd *Node) HomeOf(p memory.PageID) int { return nd.cfg.Homes[p] }

// IsHome reports whether this node is the page's home.
func (nd *Node) IsHome(p memory.PageID) bool { return nd.cfg.Homes[p] == nd.cfg.ID }

// VT returns a copy of the node's vector time.
func (nd *Node) VT() vclock.VC {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.vt.Clone()
}

// SetVT overwrites the node's vector time (recovery restore).
func (nd *Node) SetVT(v vclock.VC) {
	nd.mu.Lock()
	nd.vt = v.Clone()
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

// Ver returns a copy of the version vector of one of this node's home
// pages, or nil when the page is not homed here.
func (nd *Node) Ver(p memory.PageID) vclock.VC {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.ver[p] == nil {
		return nil
	}
	return nd.ver[p].Clone()
}

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
	for {
		select {
		case <-stop:
			return
		case m := <-nd.ep.Inbox():
			if nd.ep.WireDup(m) {
				nd.ep.MarkHandled()
				continue // fault-injected duplicate copy
			}
			nd.handle(m)
			nd.ep.MarkHandled()
		}
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
	if nd.cfg.LeaseDuration > 0 && m.From != nd.cfg.ID && m.Kind != KindObit && m.Kind != KindFenced {
		// Membership fence: a message stamped with an epoch older than
		// the sender's own death epoch was sent by an incarnation the
		// cluster has already declared dead — typically a partitioned
		// node whose pre-heal state is arriving late. Acting on it
		// (serving a home update, accepting a lock release) would be
		// split-brain; instead the request is NACKed with a typed
		// diagnostic so the sender's wait-site can escalate to rejoin.
		// Obituaries are exempt (they carry the epoch bump itself) and
		// so are fence NACKs.
		if de := nd.ep.DeathEpoch(m.From); de > 0 && m.Epoch < de {
			nd.stats.FencedMsgs.Add(1)
			if m.WantsReply() {
				f := &Fenced{Node: int32(m.From), MsgEpoch: m.Epoch, DeathEpoch: de, Epoch: nd.ep.EpochView()}
				nd.ep.ReplyAt(at, m, KindFenced, f.WireSize(), f)
			}
			return
		}
	}
	if nd.cfg.LeaseDuration > 0 && m.From >= 0 && m.From < len(nd.lastHeard) {
		// Piggybacked lease renewal: hearing anything from a peer renews
		// its lease — no dedicated heartbeat traffic.
		nd.mu.Lock()
		if arr := nd.ep.ArrivalOf(m); arr > nd.lastHeard[m.From] {
			nd.lastHeard[m.From] = arr
		}
		nd.mu.Unlock()
	}
	switch m.Kind {
	case KindPageReq:
		nd.handlePageReq(m, at)
	case KindDiffUpdate:
		nd.handleDiffUpdate(m, at)
	case KindLockReq:
		nd.handleLockReq(m, at)
	case KindLockRelease:
		nd.handleLockRelease(m, at)
	case KindBarrierCheckin:
		nd.handleBarrierCheckin(m, at)
	case KindObit:
		nd.handleObit(m, at)
	default:
		if nd.ExtraHandler != nil && nd.ExtraHandler(m) {
			return
		}
		panic(fmt.Sprintf("hlrc: node %d: unexpected message kind %d from %d", nd.cfg.ID, m.Kind, m.From))
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
	if !nd.ownsHome(req.Page) {
		nd.mu.Unlock()
		if nd.cfg.LeaseDuration > 0 {
			nd.handleForeignPageReq(m, req, at)
			return
		}
		panic(fmt.Sprintf("hlrc: node %d asked for page %d homed at %d", nd.cfg.ID, req.Page, nd.HomeOf(req.Page)))
	}
	data := nd.pt.CopyPage(req.Page)
	ver := nd.ver[req.Page].Clone()
	nd.markServedLocked(req.Page)
	nd.mu.Unlock()
	resp := &PageReply{Data: data, Ver: ver}
	nd.trc.SvcSpanT(svcTrace(m), obsv.EvPageServe, obsv.CatCoherence,
		at-simtime.Time(nd.cfg.Model.MsgHandling), at, m.From, m.SentAt,
		int64(req.Page), int64(resp.WireSize()))
	nd.ep.ReplyAt(at, m, KindPageReply, resp.WireSize(), resp)
}

// handleDiffUpdate applies a writer interval's diffs to the home copies,
// records the update events, and acknowledges. This is the paper's
// "Asynchronous Update Handler".
func (nd *Node) handleDiffUpdate(m transport.Message, at simtime.Time) {
	du := m.Payload.(*DiffUpdate)
	if nd.cfg.LeaseDuration > 0 && len(du.Diffs) > 0 && !nd.ownsHome(du.Diffs[0].Page) {
		// Diff batches are grouped per static home, so the first page
		// decides the whole message's routing: custody record or redirect.
		nd.handleForeignDiffUpdate(m, du, at)
		return
	}
	var copied int
	nd.mu.Lock()
	events := make([]UpdateEvent, 0, len(du.Diffs))
	applied := make([]memory.Diff, 0, len(du.Diffs))
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
	v := nd.ver[d.Page]
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
		v[writer] = seq
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
// need, the current copy is returned. The second result is the version
// vector of the returned copy.
func (nd *Node) PageAtVersion(p memory.PageID, need vclock.VC) ([]byte, vclock.VC) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	data := nd.pt.CopyPage(p)
	ver := nd.ver[p].Clone()
	if !nd.cfg.HomeUndo {
		return data, ver // documented fallback: current copy
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
	if need.Covers(ver) {
		return data, ver
	}
	// Roll back every update beyond need, oldest first: each word ends at
	// the pre-image of the oldest rolled-back entry that covers it, and is
	// written once.
	done := nd.undoDone
	clear(done)
	for _, e := range nd.undo[p] {
		if int(e.writer) < len(need) && e.seq > need[e.writer] {
			e.undo.Restore(data, done)
			if ver[e.writer] >= e.seq {
				ver[e.writer] = e.seq - 1
			}
		}
	}
	return data, ver
}
