// Package transport implements the simulated cluster interconnect.
//
// The paper's testbed is eight workstations on switched 100 Mbps Ethernet.
// Here each node is a pair of goroutines (application + protocol service)
// and the interconnect is one inbox per node: a 128-slot channel the
// service loop receives from, over a FIFO spill that exists only while a
// backlog is deeper than that (see inbox.go). A delivery is a
// non-blocking channel send on the sender's goroutine; memory follows the
// queue's depth, not a worst case. Message timing is charged to the
// nodes' virtual clocks by the callers using the helpers on Endpoint: a
// receive merges the sender's timestamp plus the message cost (Lamport
// rule), so virtual time respects causality without a global event queue.
//
// Reliability: the wire may be lossy under a fault.Plan. Every copy put on
// a link carries a per-link sequence number, and the fault plan decides —
// as a pure function of (seed, link, sequence) — whether that copy is
// dropped, duplicated, or delayed. Requests recover by sender
// retransmission: Pending.Wait charges the retransmission timeout
// (exponential backoff) to the virtual clock and resends until a reply
// arrives or the attempt bound declares the peer unreachable. One-way
// messages use background ARQ: the transport keeps retransmitting without
// involving the caller, so a drop becomes extra delivery delay. Receivers
// suppress wire-level duplicates by sequence number (Endpoint.WireDup);
// retransmitted requests carry a stable per-link ReqID so protocol
// handlers can recognize them.
//
// Crash model: a node crash stops its service loop and discards its
// volatile state, but messages addressed to it keep queueing in its inbox
// — exactly like TCP senders blocking on a dead peer — and are processed
// when the node rejoins after recovery. Stable storage lives outside this
// package and survives.
package transport

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sdsm/internal/fault"
	"sdsm/internal/obsv"
	"sdsm/internal/simtime"
)

// Kind tags the protocol meaning of a message. The values are defined by
// the protocol layer; transport treats them opaquely.
type Kind uint8

// Message is one protocol message in flight.
type Message struct {
	From, To int
	Kind     Kind
	SentAt   simtime.Time // sender's virtual clock when the message left
	Size     int          // wire size in bytes, for cost accounting
	Payload  any

	// Trace is the causal request context piggybacked on the message
	// (zero when the sending op is untraced). Requests carry the
	// sender's current context; replies echo the request's context
	// (see ReplyAt), so a grant, page reply or diff ack stays joined to
	// the op that caused it across any number of nodes. A 17-byte value
	// struct: piggybacking costs no allocation on any path.
	Trace obsv.TraceCtx

	// Seq is the per-link wire sequence number of this copy. A
	// fault-injected duplicate carries the same Seq as the original;
	// a retransmission carries a fresh one.
	Seq int64

	// ReqID identifies the logical request on its link: it stays the same
	// across retransmissions, so handlers with side effects can recognize
	// a request they have already served.
	ReqID int64

	// Epoch is the sender's membership-epoch view when the message left.
	// Handlers fence a message whose epoch predates the sender's own
	// death declaration (see Network.DeathEpoch): a node buried while
	// merely partitioned keeps stamping its pre-burial epoch, so its
	// post-heal traffic is recognizably stale no matter how it is routed.
	Epoch int64

	extraDelay simtime.Duration // fault-injected extra wire latency
	dropReply  bool             // fault: the reply to this copy is lost
	replyKey   uint64           // the sender's reply slot (see reply.go); 0 on one-way copies
}

// WantsReply reports whether the sender is waiting for a reply.
func (m Message) WantsReply() bool { return m.replyKey != 0 }

// Network connects n nodes. It is created once per run and shared by all
// node endpoints.
type Network struct {
	n       int
	model   simtime.CostModel
	faults  fault.Plan
	inboxes []inbox
	linkSeq []atomic.Int64 // wire sequence numbers, one counter per link
	linkMu  []sync.Mutex   // per-link send locks, see lockLink
	reqSeq  []atomic.Int64 // logical request ids, one counter per link

	msgCount  atomic.Int64
	byteCount atomic.Int64
	kindMsgs  [256]atomic.Int64 // per-kind copies on the wire
	kindBytes [256]atomic.Int64 // per-kind bytes on the wire

	// Arrival-fence state (see Endpoint.FenceArrivalsBefore): the nodes'
	// virtual clocks as registered by NewEndpoint, per-inbox delivery and
	// handling counters, and a per-node record of an application
	// goroutine blocked inside a synchronization reply wait (nil when
	// not parked; the record carries the park's virtual send stamp and
	// an opaque protocol tag naming the awaited resource).
	clocks    []atomic.Pointer[simtime.Clock]
	delivered []atomic.Int64 // messages enqueued into each inbox
	handled   []atomic.Int64 // inbox messages the service loop finished
	syncWait  []atomic.Pointer[SyncPark]

	// Fence wake-ups: fencing[i] is set while node i's application
	// goroutine is inside FenceArrivalsBefore, and fenceWake[i] (capacity
	// one) is where it parks. Every writer of state the fence's
	// predicates read pokes the fencing nodes after its store (see
	// wakeFencers); clock values reach the same channel through
	// simtime.Clock.NotifyPast.
	fencing   []atomic.Bool
	fenceWake []chan struct{}

	// Liveness registry (online recovery): crashed[i] holds the victim's
	// fail-stop virtual time + 1 while node i is down, 0 while it is up.
	// It is the simulation's ground truth of node death; the protocol
	// layer is only allowed to act on it after the victim's lease has
	// expired (see internal/hlrc). MarkRejoined clears the entry when the
	// recovered incarnation resumes live operation.
	crashed []atomic.Int64
	// down[i] is closed by node i's next MarkCrashed and replaced by a
	// fresh channel at MarkRejoined (under downMu): a WaitRedirect parked
	// on a call to node i wakes on it.
	downMu sync.Mutex
	down   []atomic.Pointer[chan struct{}]
	// failedAt[i] holds the virtual time + 1 of node i's first fail-stop
	// and is never cleared: "has node i ever crashed" is the key of the
	// permanent home-migration rule (a crashed node's static homes move to
	// its successor for the rest of the run; see internal/hlrc).
	failedAt []atomic.Int64

	// Membership epochs (partition-safe fencing): epoch is the cluster
	// membership epoch, bumped by every death declaration and every
	// rejoin. The network doubles as the membership manager that stamps
	// it — the simulator shortcut for an external membership service.
	// deathEpoch[i] is the post-bump epoch of node i's most recent death
	// declaration (0 = never declared dead); it survives rejoin so that
	// the buried incarnation's in-flight traffic stays fenceable.
	// view[i] is node i's last-adopted epoch, stamped on its outgoing
	// messages; a buried node's view is deliberately NOT advanced by its
	// own declaration, so everything it sends afterwards is stale.
	epoch      atomic.Int64
	deathEpoch []atomic.Int64
	view       []atomic.Int64

	// partitions is the live schedule of partition windows, all installed
	// at runtime (a churn scenario computes its window from the victim's
	// onset clock).
	partitions atomic.Pointer[[]fault.PartitionWindow]

	// lockHolders is the network-wide registry of current lock holders
	// (lock id → int32 node), maintained by PublishLockHeld and
	// ClearLockHeld. An entry is published only after the holder's grant
	// completed and cleared strictly before its release message leaves,
	// so while an entry is visible the holder's release is still in that
	// node's future — the causal bound FenceArrivalsBefore's
	// independent-lock skip rests on.
	lockHolders sync.Map

	// replies holds each node's reply slots (see reply.go).
	replies []replyTable

	// fabric is the wire backend moving message copies between nodes
	// (see fabric.go). The default in-process fabric delivers directly
	// into the inbox channels.
	fabric Fabric
}

// SyncPark describes one node's application goroutine parked in a
// synchronization reply wait: At is the virtual send stamp of the
// request that parked it, Tag the resource awaited (see LockTag and
// BarrierTag). Peers' arrival fences use both to decide whether the
// parked node's post-wake sends can land below their cutoffs.
type SyncPark struct {
	At  simtime.Time
	Tag int64
}

// Sync-wait tags name the resource a parked node awaits. The transport
// owns the encoding so FenceArrivalsBefore can recognize lock waits and
// resolve their holders without a protocol callback.
const (
	barrierTagBit   = int64(1) << 62
	barrierTagShift = 40
)

// LockTag tags a park awaiting the grant of a lock.
func LockTag(lock int64) int64 { return lock }

// BarrierTag tags a park awaiting a barrier release: barrier names the
// barrier object, round how many releases of it the parker has already
// seen (so successive rounds of one barrier are distinct resources).
func BarrierTag(barrier, round int64) int64 {
	return barrierTagBit | barrier<<barrierTagShift | round
}

// TagLock reports whether tag names a lock wait and, if so, which lock.
func TagLock(tag int64) (lock int64, ok bool) {
	if tag&barrierTagBit != 0 {
		return 0, false
	}
	return tag, true
}

// TagBarrier reports whether tag names a barrier wait and, if so, the
// barrier and round.
func TagBarrier(tag int64) (barrier, round int64, ok bool) {
	if tag&barrierTagBit == 0 {
		return 0, 0, false
	}
	tag &^= barrierTagBit
	return tag >> barrierTagShift, tag & (1<<barrierTagShift - 1), true
}

// DefaultInboxCap is the queued depth (window plus spill) at which a
// delivery to a node panics with "inbox overflow". It is a diagnostic
// depth, not an allocation: senders never block on an inbox (that could
// deadlock the simulation), so a service loop that is stuck, or a run
// that leaks messages, would otherwise grow its queue without a word.
// The deepest inboxes measured on the benchmark's workloads are 9
// messages on table2_sim, 7 on kv_sim and on kv_tcp, and 96 on
// recovery_sim, behind a crashed node.
const DefaultInboxCap = 1 << 14

// NewNetwork returns a network of n nodes with the given cost model.
func NewNetwork(n int, model simtime.CostModel) *Network {
	if n <= 0 {
		panic(fmt.Sprintf("transport: invalid node count %d", n))
	}
	nw := &Network{
		n: n, model: model,
		inboxes:    make([]inbox, n),
		linkSeq:    make([]atomic.Int64, n*n),
		linkMu:     make([]sync.Mutex, n*n),
		reqSeq:     make([]atomic.Int64, n*n),
		clocks:     make([]atomic.Pointer[simtime.Clock], n),
		delivered:  make([]atomic.Int64, n),
		handled:    make([]atomic.Int64, n),
		syncWait:   make([]atomic.Pointer[SyncPark], n),
		fencing:    make([]atomic.Bool, n),
		fenceWake:  make([]chan struct{}, n),
		crashed:    make([]atomic.Int64, n),
		down:       make([]atomic.Pointer[chan struct{}], n),
		failedAt:   make([]atomic.Int64, n),
		deathEpoch: make([]atomic.Int64, n),
		view:       make([]atomic.Int64, n),
		replies:    make([]replyTable, n),
	}
	nw.epoch.Store(1)
	for i := range nw.view {
		nw.view[i].Store(1)
	}
	for i := range nw.inboxes {
		nw.inboxes[i].win = make(chan Message, inboxWindow)
		nw.fenceWake[i] = make(chan struct{}, 1)
		down := make(chan struct{})
		nw.down[i].Store(&down)
	}
	nw.fabric = procFabric{nw}
	return nw
}

// SetFaultPlan installs the fault-injection plan: per-copy loss,
// duplication and delay, and torn log writes. Partition windows are not
// part of it (see InstallPartition). Call it once, before any traffic
// flows; it panics on an invalid plan.
func (nw *Network) SetFaultPlan(p fault.Plan) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	nw.faults = p
}

// InstallPartition adds a partition window at runtime. Churn scenarios
// use it: the window's start is the victim's onset clock, which is only
// known once the victim reaches its trigger op. The window is still a
// pure function of virtual time, so cut decisions stay deterministic.
func (nw *Network) InstallPartition(w fault.PartitionWindow) {
	for {
		old := nw.partitions.Load()
		var ws []fault.PartitionWindow
		if old != nil {
			ws = append(ws, *old...)
		}
		ws = append(ws, w)
		if nw.partitions.CompareAndSwap(old, &ws) {
			return
		}
	}
}

// cutAt reports whether the link from→to is severed by a partition
// window at the given virtual instant.
func (nw *Network) cutAt(from, to int, at simtime.Time) bool {
	ws := nw.partitions.Load()
	if ws == nil {
		return false
	}
	for _, w := range *ws {
		if w.Cuts(from, to, at) {
			return true
		}
	}
	return false
}

// partitionsActive reports whether any partition window is installed;
// the send paths consult the window schedule only then.
func (nw *Network) partitionsActive() bool { return nw.partitions.Load() != nil }

// FaultPlan returns the installed fault plan (zero when none).
func (nw *Network) FaultPlan() fault.Plan { return nw.faults }

// Nodes returns the number of nodes.
func (nw *Network) Nodes() int { return nw.n }

// Model returns the cost model.
func (nw *Network) Model() simtime.CostModel { return nw.model }

// MsgCount returns the total number of message copies put on the wire so
// far, including copies the fault plan lost or duplicated.
func (nw *Network) MsgCount() int64 { return nw.msgCount.Load() }

// ByteCount returns the total bytes put on the wire so far.
func (nw *Network) ByteCount() int64 { return nw.byteCount.Load() }

// KindCounts returns the wire traffic per message kind (kinds with no
// traffic are omitted), sorted by kind byte.
func (nw *Network) KindCounts() []obsv.KindCount {
	var out []obsv.KindCount
	for k := range nw.kindMsgs {
		msgs := nw.kindMsgs[k].Load()
		if msgs == 0 {
			continue
		}
		out = append(out, obsv.KindCount{
			Kind:  uint8(k),
			Name:  obsv.KindName(uint8(k)),
			Msgs:  msgs,
			Bytes: nw.kindBytes[k].Load(),
		})
	}
	return out
}

// MarkCrashed records that a node fail-stopped at the given virtual
// time. Requests already in flight to it can then resolve via
// Pending.WaitRedirect instead of blocking until the node's recovered
// incarnation drains its inbox.
func (nw *Network) MarkCrashed(id int, at simtime.Time) {
	nw.crashed[id].Store(int64(at) + 1)
	nw.failedAt[id].CompareAndSwap(0, int64(at)+1)
	nw.downMu.Lock()
	if down := *nw.down[id].Load(); !closed(down) {
		close(down)
	}
	nw.downMu.Unlock()
	nw.wakeFencers()
}

// MarkRejoined clears a node's crashed mark: its recovered incarnation
// is live again and will answer its inbox. The next crash signal is
// installed before the mark clears, so a waiter that sees the node up
// never holds the spent (closed) one.
func (nw *Network) MarkRejoined(id int) {
	nw.downMu.Lock()
	if closed(*nw.down[id].Load()) {
		down := make(chan struct{})
		nw.down[id].Store(&down)
	}
	nw.downMu.Unlock()
	nw.crashed[id].Store(0)
	nw.wakeFencers()
}

func closed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// CrashedAt reports whether a node is currently down and, if so, the
// virtual time of its fail-stop.
func (nw *Network) CrashedAt(id int) (simtime.Time, bool) {
	v := nw.crashed[id].Load()
	if v == 0 {
		return 0, false
	}
	return simtime.Time(v - 1), true
}

// EverCrashed reports whether a node has ever fail-stopped (even if its
// recovered incarnation has since rejoined) and, if so, the virtual time
// of its first fail-stop. Once set it never reverts: home migration is
// permanent, so routing decisions keyed off it are stable.
func (nw *Network) EverCrashed(id int) (simtime.Time, bool) {
	v := nw.failedAt[id].Load()
	if v == 0 {
		return 0, false
	}
	return simtime.Time(v - 1), true
}

// Epoch returns the current cluster membership epoch (starts at 1).
func (nw *Network) Epoch() int64 { return nw.epoch.Load() }

// DeclareDead bumps the membership epoch and records the new epoch as
// node id's death epoch. Every message the declared-dead incarnation
// sends afterwards carries a view below the returned epoch and is
// fenceable by handlers. The victim's own view is left untouched on
// purpose: a partitioned-but-alive node must keep stamping its stale
// view so survivors can recognize its post-heal traffic.
func (nw *Network) DeclareDead(id int) int64 {
	e := nw.epoch.Add(1)
	nw.deathEpoch[id].Store(e)
	return e
}

// Rejoin bumps the membership epoch and admits node id at the new one:
// its view jumps past its death epoch, so everything its recovered
// incarnation sends is fresh, while deathEpoch keeps fencing whatever
// the buried incarnation still has in flight. Returns the new epoch.
func (nw *Network) Rejoin(id int) int64 {
	e := nw.epoch.Add(1)
	nw.view[id].Store(e)
	return e
}

// DeathEpoch returns the epoch at which node id was most recently
// declared dead, or 0 if it never was. It is not cleared by rejoin.
func (nw *Network) DeathEpoch(id int) int64 { return nw.deathEpoch[id].Load() }

// NodeEpoch returns node id's current epoch view.
func (nw *Network) NodeEpoch(id int) int64 { return nw.view[id].Load() }

// adoptView raises node id's epoch view to at least e (monotone).
func (nw *Network) adoptView(id int, e int64) {
	for {
		v := nw.view[id].Load()
		if v >= e || nw.view[id].CompareAndSwap(v, e) {
			return
		}
	}
}

// nextSeq issues the next wire sequence number for the link from→to.
// Link counters survive node crashes, so sequence numbers stay monotone
// across incarnations.
func (nw *Network) nextSeq(from, to int) int64 { return nw.linkSeq[from*nw.n+to].Add(1) }

// lockLink takes the send lock of the link from→to. A copy is numbered
// (nextSeq) and injected (deliver) inside one hold of it: a node sends
// from two goroutines — its application, and its service loop's
// sub-requests (CallAsyncAt) and obituaries — and a copy that took its
// number first but reached the inbox second would be discarded by
// WireDup as a duplicate of a number it never duplicated.
func (nw *Network) lockLink(from, to int) *sync.Mutex {
	mu := &nw.linkMu[from*nw.n+to]
	mu.Lock()
	return mu
}

// nextReqID issues the next logical request id for the link from→to.
func (nw *Network) nextReqID(from, to int) int64 { return nw.reqSeq[from*nw.n+to].Add(1) }

// countWire accounts one copy put on the wire (delivered or not).
func (nw *Network) countWire(kind Kind, size int) {
	nw.msgCount.Add(1)
	nw.byteCount.Add(int64(size))
	nw.kindMsgs[kind].Add(1)
	nw.kindBytes[kind].Add(int64(size))
}

func (nw *Network) deliver(m Message) {
	if m.To < 0 || m.To >= nw.n {
		panic(fmt.Sprintf("transport: send to invalid node %d", m.To))
	}
	nw.countWire(m.Kind, m.Size)
	// The delivered counter is incremented before the copy enters the
	// fabric: an arrival fence must hold until every in-flight copy has
	// been injected and handled, even when the fabric keeps it in flight
	// for real time (TCP backend). Self-addressed copies skip the fabric:
	// their payloads need no wire codec.
	nw.delivered[m.To].Add(1)
	if m.To == m.From {
		nw.Inject(m)
		return
	}
	nw.fabric.Deliver(m)
}

// Endpoint is one node's attachment to the network. The clock is the
// node's virtual clock; the endpoint stamps outgoing messages with it and
// offers helpers that charge receive costs to it.
type Endpoint struct {
	id    int
	nw    *Network
	clock *simtime.Clock
	trc   *obsv.Tracer // nil when tracing is disabled

	// seen holds the highest wire sequence number received per sender,
	// for duplicate suppression. Only the node's service goroutine
	// touches it (via WireDup), so it needs no lock.
	seen map[int]int64
}

// NewEndpoint attaches node id with its clock to the network.
func (nw *Network) NewEndpoint(id int, clock *simtime.Clock) *Endpoint {
	if id < 0 || id >= nw.n {
		panic(fmt.Sprintf("transport: invalid endpoint id %d", id))
	}
	nw.clocks[id].Store(clock)
	nw.wakeFencers() // a reincarnation replaces the clock a fence may be watching
	return &Endpoint{id: id, nw: nw, clock: clock, seen: make(map[int]int64)}
}

// SetTracer installs the node's event tracer; waits and retransmission
// stalls charged to the clock are then recorded as trace segments. A nil
// tracer disables recording.
func (e *Endpoint) SetTracer(t *obsv.Tracer) { e.trc = t }

// ID returns the node id of the endpoint.
func (e *Endpoint) ID() int { return e.id }

// Clock returns the node's virtual clock.
func (e *Endpoint) Clock() *simtime.Clock { return e.clock }

// Inbox returns the node's receive channel, consumed by its protocol
// service loop. The channel is the inbox's window: a consumer must call
// MarkHandled once per message it takes, which is also what moves a
// backlog deeper than the window into it.
func (e *Endpoint) Inbox() <-chan Message { return e.nw.inboxes[e.id].win }

// WireDup reports whether m is a wire-level duplicate (a copy whose
// sequence number was already received from that sender) and must be
// discarded without dispatching. Service loops call it once per inbox
// message. A link's copies are numbered and injected under its send lock
// (see Network.lockLink), so sequence numbers arrive monotonically and a
// lagging number is always a fault-injected or re-sent duplicate.
func (e *Endpoint) WireDup(m Message) bool {
	if m.From == e.id || m.Seq == 0 {
		return false
	}
	if m.Seq <= e.seen[m.From] {
		return true
	}
	e.seen[m.From] = m.Seq
	return false
}

// MarkHandled records that the service loop finished with one inbox
// message (including wire-duplicate discards), and tops the inbox window
// up from its spill. The counter pairs with the delivery counter to let
// FenceArrivalsBefore detect a drained inbox; it lives in the network, so
// it survives a node's crash and reincarnation.
func (e *Endpoint) MarkHandled() {
	nw := e.nw
	nw.inboxes[e.id].topUp()
	if nw.handled[e.id].Add(1) >= nw.delivered[e.id].Load() {
		nw.wakeFencer(e.id) // drained: the fence's second phase may end
	}
}

// BeginSyncWait marks this node's application goroutine as blocked in a
// synchronization reply wait (lock grant, barrier release). at is the
// virtual send stamp of the parking request, tag an opaque protocol
// identifier of the awaited resource; peers' arrival fences use both
// (see FenceArrivalsBefore) to decide whether this node's post-wake
// sends can land below their cutoffs.
func (e *Endpoint) BeginSyncWait(at simtime.Time, tag int64) {
	e.nw.syncWait[e.id].Store(&SyncPark{At: at, Tag: tag})
	e.nw.wakeFencers()
}

// EndSyncWait clears the BeginSyncWait mark.
func (e *Endpoint) EndSyncWait() {
	e.nw.syncWait[e.id].Store(nil)
	e.nw.wakeFencers()
}

// PublishLockHeld records this node as the current holder of a lock in
// the network-wide holder registry. The protocol layer calls it after a
// grant completes; the entry lets peers' arrival fences bound the wake
// of a node parked on the lock by this holder's clock.
func (e *Endpoint) PublishLockHeld(lock int64) {
	e.nw.lockHolders.Store(lock, int32(e.id))
	e.nw.wakeFencers()
}

// ClearLockHeld removes this node's holder-registry entry for a lock.
// It MUST be called strictly before the release message is sent: the
// fence's soundness needs "entry visible ⇒ release still in the
// holder's future".
func (e *Endpoint) ClearLockHeld(lock int64) {
	e.nw.lockHolders.Delete(lock)
	e.nw.wakeFencers()
}

// FenceArrivalsBefore blocks (in real time only — no virtual cost) until
// every message whose virtual arrival at this node is <= cutoff has been
// handled by this node's service loop. It makes any state derived from
// incoming messages a deterministic function of virtual time: CCL's
// release flush composes its record set from arrivals up to a cutoff, and
// without the fence the set would depend on goroutine scheduling.
//
// The cutoff must be causally meaningful: callers pass the manager-side
// stamp of the grant/release that opened the interval being closed (see
// internal/hlrc), NOT a locally observed resume time. The local resume
// time includes fault-injected retransmission charges that exist only on
// this node's clock; a cutoff inflated by them is above anything
// causality bounds and historically let parked peers wake below it
// (ROADMAP item 4). The manager stamp is the event every in-set arrival
// causally precedes, and it is stable across retransmissions because
// managers replay cached grants/releases at the original stamp.
//
// Two phases. First, for every peer, wait until one of:
//
//   - the peer's clock is close enough to the cutoff that any *future*
//     send must arrive after it (clocks are monotone and a message needs
//     at least the wire latency). Sends happen in program order before
//     the sender's clock advances past them, so once the clock is
//     observed past cutoff-minTransit, all its <=cutoff sends are
//     already in the inbox;
//   - the peer is parked in a synchronization reply wait whose request
//     stamp At is itself within 2*minTransit of the cutoff: every wake
//     path (a fresh grant, a cached-grant replay answering a
//     retransmission, a revocation re-grant) is stamped at or after the
//     request's arrival at the manager (>= At + transit), so the wake is
//     >= At + 2*transit and the peer's post-wake sends arrive past the
//     cutoff;
//   - the peer is parked on a resource gated by this node (a lock this
//     node holds, a barrier round this node has not yet checked into,
//     per the gatedByMe callback): the wake is then stamped from an
//     arrival of this node's own *future* release/check-in, which
//     leaves at or after this node's current clock >= cutoff;
//   - the peer is parked on an independent lock whose current holder H
//     (per the PublishLockHeld registry) has a clock past
//     cutoff - 3*minTransit. H's release leaves at or after H's clock
//     (holders clear their registry entry before the release message is
//     composed, and the holder check is re-read after the clock read, so
//     "entry visible" proves the release is still in H's future); the
//     manager's handoff grant is stamped at or after that release's
//     arrival, the parked peer's wake one more transit later, and its
//     post-wake sends land a third transit after that — past the cutoff.
//     A holder that crashes after the clock read only raises the bound:
//     the revocation re-grant is stamped from its lease expiry, which is
//     later still;
//   - the peer is marked crashed: a buried node's future traffic is
//     fenced by the epoch layer before it can enter any flush set.
//
// A peer parked on an independent lock that satisfies none of these may
// genuinely wake below the cutoff (its grant can already be in flight
// with an early stamp), so this node waits. The wait terminates in real
// time: barrier wake chains never block on a fencing node (a fence runs
// before its own check-in, so every peer parked on a round this node
// still owes a check-in to is skipped as gated; a round this node has
// already checked into either released — the wake is in flight — or
// waits on a third node that is itself live), and a hypothetical ring of
// fencing nodes each waiting on a peer parked on the next fencer's lock
// cannot close: fencer i waits on a holder-bound peer only while the
// holder's clock <= cutoff_i - 3*transit, and a fencing holder's clock
// is at least its own cutoff + transit, so cutoff_{i+1} + 4*transit <=
// cutoff_i strictly decreases around the ring — impossible. Every wait
// therefore sits above a peer making real progress, which eventually
// wakes, re-parks with a later stamp, or passes the clock predicate.
//
// Second, wait until the inbox is drained (handled catches up with
// delivered).
//
// Waiting parks the goroutine (after fenceYields yields): a fence that
// stayed runnable would keep its processor out of the scheduler's idle
// path, and on the TCP backend that path is where socket readiness is
// noticed. The park is woken by exactly the writers of what the
// predicates read — BeginSyncWait/EndSyncWait, PublishLockHeld/
// ClearLockHeld, MarkCrashed/MarkRejoined, NewEndpoint replacing a
// clock, MarkHandled, and the watched clock passing its threshold
// (simtime.Clock.NotifyPast). Each stores first and pokes second, the
// fence raises its fencing flag before it reads, and the wake channel
// holds one token, so a change between the read and the park is never
// lost; a stale token costs one re-read.
func (e *Endpoint) FenceArrivalsBefore(cutoff simtime.Time, gatedByMe func(peer int, tag int64) bool) {
	nw := e.nw
	minTransit := simtime.Time(nw.model.NetLatency)
	nw.fencing[e.id].Store(true)
	defer nw.fencing[e.id].Store(false)
	for i := 0; i < nw.n; i++ {
		if i == e.id {
			continue
		}
		for tries := 0; ; tries++ {
			if _, down := nw.CrashedAt(i); down {
				break
			}
			if p := nw.syncWait[i].Load(); p != nil {
				if p.At+2*minTransit > cutoff {
					break
				}
				if gatedByMe != nil && gatedByMe(i, p.Tag) {
					break
				}
				bounded, holder := e.holderBoundsPark(p, cutoff, minTransit)
				if bounded {
					break
				}
				e.fenceWait(tries, holder, cutoff-3*minTransit)
				continue
			}
			c := nw.clocks[i].Load()
			if c == nil || c.Now()+minTransit > cutoff {
				break
			}
			e.fenceWait(tries, c, cutoff-minTransit)
		}
	}
	for tries := 0; nw.handled[e.id].Load() < nw.delivered[e.id].Load(); tries++ {
		e.fenceWait(tries, nil, 0)
	}
}

// fenceYields is how many times a waiting fence yields the processor and
// re-reads its predicate before it parks. Most waits are for a goroutine
// that is runnable right now (this node's own service loop, a peer about
// to advance its clock); yielding to it is cheaper than a park and a
// wake-up.
const fenceYields = 4

// fenceWait is one wait step of FenceArrivalsBefore after a predicate
// read came back false: yield for the first fenceYields tries, then park
// until something the predicates read has changed. watch, when non-nil,
// is the clock whose passing of past would satisfy the predicate.
func (e *Endpoint) fenceWait(tries int, watch *simtime.Clock, past simtime.Time) {
	if tries < fenceYields {
		runtime.Gosched()
		return
	}
	wake := e.nw.fenceWake[e.id]
	if watch == nil {
		<-wake
		return
	}
	if !watch.NotifyPast(past, wake) {
		return // passed since the predicate read it
	}
	<-wake
	watch.StopNotify(wake)
}

// wakeFencers pokes every node currently inside FenceArrivalsBefore.
// Writers of fence-visible network state call it after their store.
func (nw *Network) wakeFencers() {
	for id := range nw.fencing {
		nw.wakeFencer(id)
	}
}

// wakeFencer pokes node id if it is fencing. The send never blocks: a
// full channel already holds the wake-up.
func (nw *Network) wakeFencer(id int) {
	if !nw.fencing[id].Load() {
		return
	}
	select {
	case nw.fenceWake[id] <- struct{}{}:
	default:
	}
}

// holderBoundsPark reports whether a peer's lock park is provably woken
// past the cutoff because the lock's current holder's clock is already
// close enough to it (see FenceArrivalsBefore). The holder registry is
// re-read after the clock read: only an entry that stayed visible across
// the read proves the holder's release had not left yet. When the bound
// fails only because the holder's clock is not there yet, holder is that
// clock — the one whose passing cutoff - 3*minTransit a fence waits for.
func (e *Endpoint) holderBoundsPark(p *SyncPark, cutoff, minTransit simtime.Time) (bounded bool, holder *simtime.Clock) {
	l, isLock := TagLock(p.Tag)
	if !isLock {
		return false, nil
	}
	nw := e.nw
	h, ok := nw.lockHolders.Load(l)
	if !ok {
		return false, nil
	}
	hid := int(h.(int32))
	if hid == e.id || hid < 0 || hid >= nw.n {
		return false, nil
	}
	hc := nw.clocks[hid].Load()
	if hc == nil {
		return false, nil
	}
	now := hc.Now()
	if h2, ok2 := nw.lockHolders.Load(l); !ok2 || h2 != h {
		return false, nil
	}
	return now+3*minTransit > cutoff, hc
}

// Send delivers a one-way message. Under a fault plan, lost copies are
// retransmitted in the background (sender-based ARQ): the surviving copy
// arrives with the accumulated retransmission timeouts as extra delay,
// and the sender's clock is not charged — exactly like a kernel-level
// reliable datagram layer under the application.
func (e *Endpoint) Send(to int, kind Kind, size int, payload any) {
	nw := e.nw
	m := Message{
		From: e.id, To: to, Kind: kind,
		SentAt: e.clock.Now(), Size: size, Payload: payload,
		Trace: e.trc.Trace(),
		Epoch: nw.view[e.id].Load(),
	}
	f := nw.faults
	// Partition windows live outside the fault plan, so a zero plan must
	// still route through the fate checks once any window exists (the
	// zero plan's drop/dup/delay rolls all miss).
	if to == e.id || (!f.Enabled() && !nw.partitionsActive()) {
		link := nw.lockLink(e.id, to)
		m.Seq = nw.nextSeq(e.id, to)
		nw.deliver(m)
		link.Unlock()
		return
	}
	var extra simtime.Duration
	for attempt := 1; ; attempt++ {
		link := nw.lockLink(e.id, to)
		seq := nw.nextSeq(e.id, to)
		// A copy departing inside a partition window is lost exactly like
		// a drop fault: the background ARQ keeps retransmitting, each
		// retry departing one RTO later in virtual time, until the window
		// heals and a copy gets through.
		cut := nw.cutAt(e.id, to, m.SentAt+simtime.Time(extra))
		if cut || f.DropCopy(e.id, to, seq) {
			link.Unlock()
			nw.countWire(kind, size)
			if attempt >= fault.DefaultMaxAttempts {
				panic(fmt.Sprintf(
					"transport: node %d: one-way kind %d to node %d lost %d times — peer unreachable",
					e.id, kind, to, attempt))
			}
			extra += fault.RTO(attempt)
			continue
		}
		m.Seq = seq
		m.extraDelay = extra + f.DelayCopy(e.id, to, seq)
		nw.deliver(m)
		if f.DuplicateCopy(e.id, to, seq) {
			nw.deliver(m)
		}
		link.Unlock()
		return
	}
}

// SendDetector delivers a one-way message outside the fault schedule:
// no drop, duplicate, delay or partition cut applies. It models an
// out-of-band failure-detector channel — the simulator shortcut for
// every survivor running an independent lease-expiry detector — so
// death declarations propagate even while the declared node is
// partitioned from the cluster.
func (e *Endpoint) SendDetector(to int, kind Kind, size int, payload any) {
	nw := e.nw
	m := Message{
		From: e.id, To: to, Kind: kind,
		SentAt: e.clock.Now(), Size: size, Payload: payload,
		Trace: e.trc.Trace(),
		Epoch: nw.view[e.id].Load(),
	}
	link := nw.lockLink(e.id, to)
	m.Seq = nw.nextSeq(e.id, to)
	nw.deliver(m)
	link.Unlock()
}

// Pending is an outstanding request. It lives in one of the requesting
// node's reply slots (see reply.go), and every copy of the request —
// retransmissions and fault-plan duplicates alike — carries that slot's
// key, so exactly one reply reaches the wait by construction: the first
// to arrive closes the call's generation and every later one is dropped.
//
// A *Pending is dead once Wait, WaitDetached or WaitRedirect has
// returned: its slot goes back to the node, and the next call may reuse
// the same handle. A second wait on a released handle panics naming the
// slot and generation while the slot is still idle; once a later call
// has re-armed it, the stale handle would wait for that call's reply.
type Pending struct {
	ep *Endpoint
	// trc records the waits on the application track; nil (records
	// nothing) for a CallAsyncAt request, whose wait runs on the service
	// goroutine and must not touch the application's tracer state.
	trc     *obsv.Tracer
	slot    *replySlot
	to      int
	payload any
	reqID   int64
	sentAt  simtime.Time // when the latest attempt left
	reqSize int
	trace   obsv.TraceCtx // stamped onto every attempt, incl. retransmissions
	attempt int
	gen     uint32 // the slot generation this call opened
	kind    Kind
	local   bool // request to self: no wire cost, only handling
	live    bool // latest attempt's reply will arrive
}

// CallAsync sends a request and returns a handle to wait for the reply.
// Issuing several CallAsyncs before waiting models the protocol's
// "send all updates, then collect all acks" pattern.
func (e *Endpoint) CallAsync(to int, kind Kind, size int, payload any) *Pending {
	return e.call(e.clock.Now(), e.trc, e.trc.Trace(), to, kind, size, payload)
}

// CallAsyncAt is CallAsync with an explicit departure timestamp instead
// of the endpoint's clock. Service-side protocol actions (a home
// adopter rebuilding pages from writer logs inside a handler) use it so
// their sub-requests are stamped from the triggering message's arrival,
// not from the application clock — keeping the resulting timing a pure
// function of virtual time. Such sub-requests carry no trace context
// and their waits record no application-track event: the current context
// and the application track are owned by the application goroutine and
// must not be read or written from service handlers.
func (e *Endpoint) CallAsyncAt(at simtime.Time, to int, kind Kind, size int, payload any) *Pending {
	return e.call(at, nil, obsv.TraceCtx{}, to, kind, size, payload)
}

// call arms a reply slot and sends the request's first copy.
func (e *Endpoint) call(at simtime.Time, trc *obsv.Tracer, trace obsv.TraceCtx, to int, kind Kind, size int, payload any) *Pending {
	s, gen := e.nw.replies[e.id].arm()
	p := &s.p
	*p = Pending{
		ep: e, trc: trc, slot: s, gen: gen,
		to: to, kind: kind, payload: payload,
		reqID:   e.nw.nextReqID(e.id, to),
		sentAt:  at,
		reqSize: size,
		trace:   trace,
		local:   to == e.id,
		attempt: 1,
	}
	e.attemptSend(p)
	return p
}

// attemptSend puts one copy of the request on the wire and records
// whether its reply will ever arrive (the fault plan decides both the
// request's and the reply's fate up front; the receiver-side effects of a
// copy whose reply is lost still happen, which is why protocol handlers
// must be idempotent).
func (e *Endpoint) attemptSend(p *Pending) {
	nw := e.nw
	m := Message{
		From: e.id, To: p.to, Kind: p.kind,
		SentAt: p.sentAt, Size: p.reqSize, Payload: p.payload,
		Trace: p.trace, ReqID: p.reqID, replyKey: p.key(),
		Epoch: nw.view[e.id].Load(),
	}
	link := nw.lockLink(e.id, p.to)
	defer link.Unlock()
	m.Seq = nw.nextSeq(e.id, p.to)
	f := nw.faults
	// See Send: installed partition windows cut links even under a zero
	// fault plan.
	if p.local || (!f.Enabled() && !nw.partitionsActive()) {
		p.live = true
		nw.deliver(m)
		return
	}
	// A partition cut is evaluated at the attempt's departure time only:
	// a request that got through before the window opened also gets its
	// reply (in-flight traffic drains; the partition severs new
	// injections, not the fabric). The caller's retransmission loop
	// re-attempts with later departure stamps until the window heals.
	if nw.cutAt(e.id, p.to, p.sentAt) || f.DropCopy(e.id, p.to, m.Seq) {
		nw.countWire(m.Kind, m.Size)
		p.live = false
		return
	}
	m.extraDelay = f.DelayCopy(e.id, p.to, m.Seq)
	m.dropReply = f.DropReply(e.id, p.to, m.Seq)
	p.live = !m.dropReply
	nw.deliver(m)
	if f.DuplicateCopy(e.id, p.to, m.Seq) {
		nw.deliver(m)
	}
}

// retransmit charges the current attempt's retransmission timeout
// (exponential backoff) to the caller's clock and sends the next copy,
// or declares the peer unreachable once the attempt bound is spent.
func (p *Pending) retransmit(clock *simtime.Clock) {
	t0, t1 := clock.MergePlusSpan(p.sentAt, fault.RTO(p.attempt))
	p.trc.Seg(obsv.EvArqRetry, obsv.CatRetry, t0, t1, int64(p.kind), int64(p.attempt))
	if p.attempt >= fault.DefaultMaxAttempts {
		panic(fmt.Sprintf(
			"transport: node %d: no reply from node %d for kind %d after %d attempts — peer unreachable",
			p.ep.id, p.to, p.kind, p.attempt))
	}
	p.attempt++
	p.sentAt = clock.Now()
	p.ep.attemptSend(p)
}

// await retransmits until an attempt's reply is due, then blocks for the
// reply.
func (p *Pending) await(clock *simtime.Clock) Message {
	p.checkLive()
	for !p.live {
		p.retransmit(clock)
	}
	return <-p.slot.ch
}

// receive charges a reply's receipt to the caller's clock with the
// Lamport receive rule: clock = max(clock, reply.SentAt + msgTime).
func (p *Pending) receive(clock *simtime.Clock, m Message) {
	var t0, t1 simtime.Time
	if p.local {
		t0, t1 = clock.MergePlusSpan(m.SentAt, 0)
	} else {
		t0, t1 = clock.MergePlusSpan(m.SentAt, p.ep.nw.model.MsgTime(m.Size)+m.extraDelay)
	}
	p.trc.Recv(t0, t1, m.From, m.SentAt, uint8(m.Kind), m.Size)
}

// Wait blocks for the reply and charges the caller's clock with the
// Lamport receive rule: clock = max(clock, reply.SentAt + msgTime).
// Replies to self-requests (a node acting as its own lock or barrier
// manager) carry no wire cost, only the handling already charged. Lost
// requests or replies cost the retransmission timeouts on top.
func (p *Pending) Wait(clock *simtime.Clock) Message {
	m := p.await(clock)
	p.receive(clock, m)
	p.release()
	return m
}

// WaitDetached blocks for the reply but charges only the fixed round-trip
// cost instead of merging the responder's absolute clock. Recovery uses
// this: the surviving nodes' clocks are frozen near the crash time, far
// ahead of the victim's replay clock, and merging them would corrupt the
// recovery-time measurement. The responder is idle, so the fixed
// round-trip is the faithful cost.
func (p *Pending) WaitDetached(clock *simtime.Clock) Message {
	m := p.await(clock)
	var t0, t1 simtime.Time
	if p.local {
		t0, t1 = clock.MergePlusSpan(p.sentAt, 2*p.ep.nw.model.MsgHandling)
	} else {
		t0, t1 = clock.MergePlusSpan(p.sentAt, p.ep.nw.model.RoundTrip(p.reqSize, m.Size)+m.extraDelay)
	}
	p.trc.RecvDetached(t0, t1, m.From, m.SentAt, uint8(m.Kind), m.Size)
	p.release()
	return m
}

// WaitRedirect blocks for the reply like Wait, but fails over when the
// target is down: if the peer is marked crashed while the reply is
// outstanding, it cancels the call and returns ok=false without charging
// the caller's clock, and the caller re-resolves the request (waiting out
// the peer's lease and redirecting to the adopting node — see
// internal/hlrc). The wait parks on the reply slot and on the peer's
// crash signal, so a crash wakes it at once. A peer that crashes and
// rejoins before the wait looks stays on the normal path: its recovered
// incarnation answers from the drained inbox.
func (p *Pending) WaitRedirect(clock *simtime.Clock) (m Message, ok bool) {
	p.checkLive()
	nw := p.ep.nw
	for {
		// The signal is loaded before the registry is read: a crash after
		// the read closes the channel this wait parks on.
		down := *nw.down[p.to].Load()
		if _, crashed := nw.CrashedAt(p.to); crashed {
			p.cancel()
			return Message{}, false
		}
		if !p.live {
			p.retransmit(clock)
			continue
		}
		select {
		case m := <-p.slot.ch:
			p.receive(clock, m)
			p.release()
			return m, true
		case <-down:
		}
	}
}

// PeerDown reports whether a peer is currently marked crashed, and if
// so since when (virtual time of its fail-stop).
func (e *Endpoint) PeerDown(id int) (simtime.Time, bool) { return e.nw.CrashedAt(id) }

// MarkCrashed records this node's own fail-stop in the liveness registry.
func (e *Endpoint) MarkCrashed(at simtime.Time) { e.nw.MarkCrashed(e.id, at) }

// MarkRejoined clears this node's crashed mark (recovered incarnation).
func (e *Endpoint) MarkRejoined() { e.nw.MarkRejoined(e.id) }

// EverCrashed reports whether a peer (or this node itself) has ever
// fail-stopped, and if so when it first did.
func (e *Endpoint) EverCrashed(id int) (simtime.Time, bool) { return e.nw.EverCrashed(id) }

// EpochView returns this node's current membership-epoch view.
func (e *Endpoint) EpochView() int64 { return e.nw.view[e.id].Load() }

// AdoptEpoch raises this node's epoch view to at least ep (monotone).
// Handlers call it when a membership message (obituary, rejoin notice)
// carries a newer epoch; returns true if the view actually advanced.
func (e *Endpoint) AdoptEpoch(ep int64) bool {
	if e.nw.view[e.id].Load() >= ep {
		return false
	}
	e.nw.adoptView(e.id, ep)
	return true
}

// DeathEpoch returns the epoch at which a peer (or this node itself)
// was most recently declared dead, or 0 if it never was.
func (e *Endpoint) DeathEpoch(id int) int64 { return e.nw.DeathEpoch(id) }

// DeclareDead declares a node dead through the membership manager and
// returns the bumped epoch (see Network.DeclareDead).
func (e *Endpoint) DeclareDead(id int) int64 { return e.nw.DeclareDead(id) }

// InstallPartition installs a partition window on the shared network
// (see Network.InstallPartition). The protocol layer's partition-onset
// path uses it to cut the victim off at the injected fault time.
func (e *Endpoint) InstallPartition(w fault.PartitionWindow) { e.nw.InstallPartition(w) }

// Call is CallAsync followed by Wait.
func (e *Endpoint) Call(to int, kind Kind, size int, payload any) Message {
	return e.CallAsync(to, kind, size, payload).Wait(e.clock)
}

// Arrive charges the receive of m to the node's clock (Lamport rule plus
// per-message handling cost) and returns the updated time. Protocol
// service loops call this once per message taken from the inbox.
// Self-messages carry no wire cost.
func (e *Endpoint) Arrive(m Message) simtime.Time {
	model := e.nw.Model()
	if m.From == e.id {
		e.clock.AdvanceTo(m.SentAt)
	} else {
		e.clock.MergePlus(m.SentAt, model.MsgTime(m.Size)+m.extraDelay)
	}
	return e.clock.Advance(model.MsgHandling)
}

// Reply answers a request stamped with the node's current clock. It
// panics if m does not want a reply. Reply never waits for the
// requester (see ReplyAt).
func (e *Endpoint) Reply(m Message, kind Kind, size int, payload any) {
	e.ReplyAt(e.clock.Now(), m, kind, size, payload)
}

// ArrivalOf returns the virtual time at which m became available at this
// node: the sender's timestamp plus the wire cost (zero for
// self-messages) plus any fault-injected delay. It is a pure function of
// the message, so concurrent request streams do not contaminate each
// other's timing.
func (e *Endpoint) ArrivalOf(m Message) simtime.Time {
	if m.From == e.id {
		return m.SentAt
	}
	return m.SentAt + simtime.Time(e.nw.Model().MsgTime(m.Size)+m.extraDelay)
}

// ReplyAt answers a request with an explicit virtual timestamp, used by
// protocol service handlers that run concurrently with application
// compute (their replies are stamped from the request's arrival plus the
// handling cost, like an interrupt handler, not from the application
// clock). If the fault plan decided the reply to this request copy is
// lost, the reply is charged to the wire and discarded; the requester
// recovers by retransmitting. The reply goes to the requester's reply
// slot by key: directly when the requester is this node, through the
// fabric otherwise. A reply to a call that has already been answered or
// abandoned is dropped there, so replying never waits for the requester.
func (e *Endpoint) ReplyAt(at simtime.Time, m Message, kind Kind, size int, payload any) {
	if m.replyKey == 0 {
		panic(fmt.Sprintf("transport: reply to one-way message kind %d from %d", m.Kind, m.From))
	}
	// The reply inherits the request's trace context: the requester's op
	// owns whatever work the handler did on its behalf. This also covers
	// deferred replies answered through a different message copy (queued
	// lock handoffs reply to the queued requester's copy, barrier
	// releases to each waiter's check-in), so every hop of a traced op
	// stays joined without the handler doing anything.
	r := Message{
		From: e.id, To: m.From, Kind: kind,
		SentAt: at, Size: size, Payload: payload,
		Trace: m.Trace,
		Epoch: e.nw.view[e.id].Load(),
	}
	if m.From != e.id && e.nw.faults.Enabled() {
		if m.dropReply {
			// The reply to this request copy is lost on the wire. Do not
			// count it: how many doomed replies get *composed* depends on
			// goroutine interleaving (a retransmission may be answered from
			// a cached grant or coalesced in a queue), and wire statistics
			// must stay schedule-independent. Only delivered replies count.
			return
		}
		r.extraDelay = e.nw.faults.DelayReply(e.id, m.From, m.Seq)
	}
	e.nw.countWire(kind, size)
	if m.From == e.id {
		e.nw.DeliverReply(m.replyKey, r)
		return
	}
	e.nw.fabric.Reply(m.replyKey, r)
}
