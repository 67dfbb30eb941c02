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
	// burial (see Membership.Stale): a node buried while merely
	// partitioned keeps stamping its pre-burial epoch, so its post-heal
	// traffic is recognizably stale no matter how it is routed.
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

	// The bound's inputs (see horizon.go): the nodes' virtual clocks as
	// registered by NewEndpoint, per-inbox delivery and handling counters,
	// running[i], set while node i's application runs a program, and what
	// the deciding node has published of its progress (PublishDecided):
	// every message with an arrival below decided is decided, and
	// awaiting[i] is set while node i's request waits there unanswered.
	clocks    []atomic.Pointer[simtime.Clock]
	delivered []atomic.Int64 // messages enqueued into each inbox
	handled   []atomic.Int64 // inbox messages the service loop finished
	running   []atomic.Bool
	decided   atomic.Int64
	awaiting  []atomic.Bool
	// wake holds the bound's waiters' channels, capacity one each: node
	// id's service loop parks on wake[id], its application inside
	// FenceArrivalsBefore on wake[n+id] (see poke).
	wake []chan struct{}

	// members is the cluster membership (see membership.go). The wire
	// reads it for the epoch stamped on every copy, the partition cut,
	// WaitRedirect's crash wake-up and the arrival fence's crashed-peer
	// skip.
	members *Membership

	// replies holds each node's reply slots (see reply.go).
	replies []replyTable

	// fabric is the wire backend moving message copies between nodes
	// (see fabric.go). The default in-process fabric delivers directly
	// into the inbox channels.
	fabric Fabric
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
		inboxes:   make([]inbox, n),
		linkSeq:   make([]atomic.Int64, n*n),
		linkMu:    make([]sync.Mutex, n*n),
		reqSeq:    make([]atomic.Int64, n*n),
		clocks:    make([]atomic.Pointer[simtime.Clock], n),
		delivered: make([]atomic.Int64, n),
		handled:   make([]atomic.Int64, n),
		running:   make([]atomic.Bool, n),
		awaiting:  make([]atomic.Bool, n),
		wake:      make([]chan struct{}, 2*n),
		members:   newMembership(n),
		replies:   make([]replyTable, n),
	}
	nw.decided.Store(int64(noHorizon))
	for i := range nw.inboxes {
		nw.inboxes[i].win = make(chan Message, inboxWindow)
	}
	for i := range nw.wake {
		nw.wake[i] = make(chan struct{}, 1)
	}
	nw.fabric = procFabric{nw}
	return nw
}

// SetFaultPlan installs the fault-injection plan: per-copy loss,
// duplication and delay, and torn log writes. Partitions are not part of
// it (see Membership.Cut). Call it once, before any traffic flows; it
// panics on an invalid plan.
func (nw *Network) SetFaultPlan(p fault.Plan) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	nw.faults = p
}

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

// Members returns the cluster membership.
func (nw *Network) Members() *Membership { return nw.members }

// MarkCrashed records that a node fail-stopped at the given virtual
// time. Requests already in flight to it can then resolve via
// Pending.WaitRedirect instead of blocking until the node's recovered
// incarnation drains its inbox, and parked arrival fences re-read.
func (nw *Network) MarkCrashed(id int, at simtime.Time) {
	nw.members.crash(id, at)
	nw.poke(0, len(nw.wake))
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

	// watched is the last WatchHorizon's clock watch (service goroutine
	// only).
	watched clockWatch
}

// NewEndpoint attaches node id with its clock to the network.
func (nw *Network) NewEndpoint(id int, clock *simtime.Clock) *Endpoint {
	if id < 0 || id >= nw.n {
		panic(fmt.Sprintf("transport: invalid endpoint id %d", id))
	}
	nw.clocks[id].Store(clock)
	// A reincarnation replaces a clock a waiter may be watching.
	nw.poke(0, len(nw.wake))
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
// the bound (Horizon) detect a drained inbox; it lives in the network, so
// it survives a node's crash and reincarnation.
func (e *Endpoint) MarkHandled() {
	nw := e.nw
	nw.inboxes[e.id].topUp()
	if nw.handled[e.id].Add(1) >= nw.delivered[e.id].Load() {
		w := nw.n + e.id
		nw.poke(w, w+1) // drained: this node's fence may pass
	}
}

// stamp builds a copy of a message from this node: departure time at,
// the given trace context, and this node's current epoch view.
func (e *Endpoint) stamp(to int, kind Kind, at simtime.Time, size int, payload any, trace obsv.TraceCtx) Message {
	return Message{
		From: e.id, To: to, Kind: kind,
		SentAt: at, Size: size, Payload: payload,
		Trace: trace,
		Epoch: e.nw.members.View(e.id),
	}
}

// put numbers one copy of m on its link and injects it: the one fate
// rule of the wire. An unfated copy (SendDetector), a self-addressed one,
// and every copy while there is neither a fault plan nor a burial is
// delivered as is. Otherwise a copy the membership cuts at its departure
// (SentAt plus the retransmission delay it already carries) is lost
// exactly like a drop fault; a surviving copy gets the
// plan's extra delay, the fate of its reply if it is a request (the
// receiver-side effects of a copy whose reply is lost still happen, which
// is why protocol handlers must be idempotent), and possibly a duplicate.
// put reports whether the copy was delivered; a lost one is still
// counted on the wire. The fault plan decides as a pure function of
// (seed, link, sequence).
func (nw *Network) put(m *Message, fated bool) bool {
	link := nw.lockLink(m.From, m.To)
	defer link.Unlock()
	m.Seq = nw.nextSeq(m.From, m.To)
	f := nw.faults
	// Partitions live outside the fault plan, so a zero plan must still
	// route through the fate checks once anyone is buried (the zero
	// plan's drop/dup/delay rolls all miss).
	if !fated || m.To == m.From || (!f.Enabled() && !nw.members.anyBuried.Load()) {
		nw.deliver(*m)
		return true
	}
	// The cut is evaluated at the copy's departure only: a copy that got
	// through before the partition began also gets its reply (in-flight
	// traffic drains; the partition severs new injections, not the
	// fabric).
	if nw.members.Cut(m.From, m.To, m.SentAt+simtime.Time(m.extraDelay)) || f.DropCopy(m.From, m.To, m.Seq) {
		nw.countWire(m.Kind, m.Size)
		return false
	}
	m.extraDelay += f.DelayCopy(m.From, m.To, m.Seq)
	if m.replyKey != 0 {
		m.dropReply = f.DropReply(m.From, m.To, m.Seq)
	}
	nw.deliver(*m)
	if f.DuplicateCopy(m.From, m.To, m.Seq) {
		nw.deliver(*m)
	}
	return true
}

// Send delivers a one-way message. Under a fault plan, lost copies are
// retransmitted in the background (sender-based ARQ): each retry departs
// one RTO later in virtual time, so the surviving copy arrives with the
// accumulated retransmission timeouts as extra delay, and the sender's
// clock is not charged — exactly like a kernel-level reliable datagram
// layer under the application. A copy cut by a partition is retried the
// same way until the partition heals.
func (e *Endpoint) Send(to int, kind Kind, size int, payload any) {
	m := e.stamp(to, kind, e.clock.Now(), size, payload, e.trc.Trace())
	for attempt := 1; !e.nw.put(&m, true); attempt++ {
		if attempt >= fault.DefaultMaxAttempts {
			panic(fmt.Sprintf(
				"transport: node %d: one-way kind %d to node %d lost %d times — peer unreachable",
				e.id, kind, to, attempt))
		}
		m.extraDelay += fault.RTO(attempt)
	}
}

// SendDetector delivers a one-way message outside the fault schedule:
// no drop, duplicate, delay or partition cut applies. It models an
// out-of-band failure-detector channel — the simulator shortcut for
// every survivor running an independent lease-expiry detector — so
// death declarations propagate even while the declared node is
// partitioned from the cluster.
func (e *Endpoint) SendDetector(to int, kind Kind, size int, payload any) {
	m := e.stamp(to, kind, e.clock.Now(), size, payload, e.trc.Trace())
	e.nw.put(&m, false)
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
// whether its reply will ever arrive (see Network.put). The caller's
// retransmission loop re-attempts with later departure stamps until a
// copy's reply is due.
func (e *Endpoint) attemptSend(p *Pending) {
	m := e.stamp(p.to, p.kind, p.sentAt, p.reqSize, p.payload, p.trace)
	m.ReqID, m.replyKey = p.reqID, p.key()
	p.live = e.nw.put(&m, true) && !m.dropReply
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
// reply. down is the peer's crash signal (WaitRedirect) or nil (Wait,
// WaitDetached): with it, a peer that has ever crashed cancels the call
// and await reports ok=false without charging the clock.
func (p *Pending) await(clock *simtime.Clock, down <-chan struct{}) (Message, bool) {
	p.checkLive()
	for {
		if down != nil {
			if _, crashed := p.ep.nw.members.Crashed(p.to); crashed {
				p.cancel()
				return Message{}, false
			}
		}
		if !p.live {
			p.retransmit(clock)
			continue
		}
		select {
		case m := <-p.slot.ch:
			return m, true
		case <-down:
		}
	}
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
	m, _ := p.await(clock, nil)
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
	m, _ := p.await(clock, nil)
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
// internal/hlrc). It runs Wait's one retransmit-and-receive loop (await)
// with the peer's crash signal added, so a crash wakes it at once. A peer
// that has ever crashed fails over at once, even after its recovered
// incarnation is back: its homes stay with their adopter for the rest of
// the run.
func (p *Pending) WaitRedirect(clock *simtime.Clock) (m Message, ok bool) {
	if m, ok = p.await(clock, p.ep.nw.members.down[p.to]); ok {
		p.receive(clock, m)
		p.release()
	}
	return m, ok
}

// MarkCrashed records this node's own fail-stop (see Network.MarkCrashed).
func (e *Endpoint) MarkCrashed(at simtime.Time) { e.nw.MarkCrashed(e.id, at) }

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
	r := e.stamp(m.From, kind, at, size, payload, m.Trace)
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
