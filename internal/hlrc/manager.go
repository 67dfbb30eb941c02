package hlrc

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"sdsm/internal/arena"
	"sdsm/internal/obsv"
	"sdsm/internal/simtime"
	"sdsm/internal/transport"
	"sdsm/internal/vclock"
)

// The lock and barrier manager. It lives on ManagerNode only and is
// touched only by that node's service goroutine, so it takes no lock;
// it never sends either. Each handler decides its replies and returns
// them in a buffer that the next call reuses; Node.handle records their
// spans and sends them.
//
// The messages that change the manager's state (lock requests and
// releases, barrier check-ins, obituaries) are decided in key order, the
// order of (virtual arrival, sender, link sequence number), not in the
// order they reach the inbox: admit holds each one, and decide takes the
// lowest-keyed one once its key lies below the horizon — the arrival
// below which no node can still send the manager anything (see
// transport.Endpoint.Horizon). Which requester gets a lock, and every
// stamp that follows from it, is then a function of virtual time alone.

// pendingMsg is a held or queued message together with its virtual
// arrival time.
type pendingMsg struct {
	m       transport.Message
	arrival simtime.Time
}

// before reports whether p's key is lower than q's.
func (p pendingMsg) before(q pendingMsg) bool {
	if p.arrival != q.arrival {
		return p.arrival < q.arrival
	}
	if p.m.From != q.m.From {
		return p.m.From < q.m.From
	}
	return p.m.Seq < q.m.Seq
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

// mgrSpan is the service span recorded just before a reply leaves. The
// zero span records nothing (the tracer drops spans with t1 <= t0).
type mgrSpan struct {
	tc     obsv.TraceCtx
	ev     obsv.EventKind
	t0, t1 simtime.Time
	from   int
	sentAt simtime.Time
	a1, a2 int64
}

// mgrReply is one reply a handler decided: payload answers req at virtual
// time at.
type mgrReply struct {
	req     transport.Message
	kind    transport.Kind
	payload interface{ WireSize() int }
	at      simtime.Time
	span    mgrSpan
}

type manager struct {
	n          int
	lease      simtime.Duration
	senderLogs bool
	handling   simtime.Duration // the cost model's MsgHandling
	stats      *Stats

	// vt is the manager's knowledge horizon. Grants and barrier releases
	// carry it shared: the next merge that raises it copies it.
	vt      vclock.COW
	vcs     arena.Slab[int32] // vt's copies
	notices *NoticeStore
	locks   map[int32]*lockState
	// The barrier round that is filling (one at a time: every node takes
	// part in every barrier): its barrier id and the check-ins collected
	// so far, a slice reused across rounds. No round fills while waiting
	// is empty.
	round   int32
	waiting []pendingMsg
	// lastReply[node] is the node's release from its most recent
	// completed round (rel nil: none yet). A link delivers in order and
	// the manager decides in key order, so a late copy of a check-in the
	// manager answered always finds its reply here, even while the next
	// round fills: its sender checks in again only once it has the reply.
	lastReply []barrierReply
	// revoked[l] is the dead holder this manager reclaimed lock l from, so
	// the holder's replayed release is absorbed instead of panicking as a
	// double free.
	revoked map[int32]int
	// Sender logs (Config.SenderLogs): every grant/release issued, per
	// receiver, in issue order. A torn-tail recovery replays from these.
	grantLog   map[int][]*LockGrant
	releaseLog map[int][]*BarrierRelease

	// held is the admitted traffic not yet decided, in key order, and
	// last[i] the arrival of node i's latest admitted message. A link
	// delivers in order, so a message arrives at
	// transport.Endpoint.ArrivalOf or at its sender's previous arrival,
	// whichever is later: a release carrying many notices is not
	// overtaken by its sender's smaller next message. asks[i] counts node
	// i's requests the manager holds unanswered: held, queued on a lock or
	// waiting in a barrier round. A node with one sends the manager
	// nothing until it is answered (quiet).
	held []pendingMsg
	last []simtime.Time
	asks []int32
	// due is set when a message is admitted (Node.decideHeld's cue).
	due bool
	// decided is the highest key decided, or horizon at which decide found
	// nothing to decide: every message below it is decided, and none still
	// to come arrives below it, so a quiet node is answered at or above
	// it. Decided keys never decrease.
	decided simtime.Time

	out []mgrReply
	// The replies' payloads are cut from slabs (DESIGN.md §2.8).
	grants arena.Slab[LockGrant]
	rels   arena.Slab[BarrierRelease]
}

func newManager(cfg Config, stats *Stats) *manager {
	mg := &manager{
		n:          cfg.N,
		lease:      cfg.LeaseDuration,
		senderLogs: cfg.SenderLogs,
		handling:   cfg.Model.MsgHandling,
		stats:      stats,
		notices:    NewNoticeStore(cfg.N),
		locks:      make(map[int32]*lockState),
		waiting:    make([]pendingMsg, 0, cfg.N),
		lastReply:  make([]barrierReply, cfg.N),
		revoked:    make(map[int32]int),
		grantLog:   make(map[int][]*LockGrant),
		releaseLog: make(map[int][]*BarrierRelease),
		last:       make([]simtime.Time, cfg.N),
		asks:       make([]int32, cfg.N),
		decided:    simtime.Time(math.MinInt64),
	}
	mg.vt = vclock.Own(vclock.New(cfg.N), &mg.vcs)
	return mg
}

// admit holds one message of the manager's ordered traffic until decide
// reaches its key. The slice is reused, so admitting allocates nothing
// once it has grown to the deepest backlog.
func (mg *manager) admit(m transport.Message, arrival simtime.Time) {
	arrival = max(arrival, mg.last[m.From])
	mg.last[m.From] = arrival
	p := pendingMsg{m: m, arrival: arrival}
	i := len(mg.held)
	for i > 0 && p.before(mg.held[i-1]) {
		i--
	}
	mg.held = slices.Insert(mg.held, i, p)
	mg.due = true
	if m.Kind == KindLockReq || m.Kind == KindBarrierCheckin {
		mg.asks[m.From]++
	}
}

// quiet reports whether node sends the manager nothing until the manager
// answers it: it waits for a grant or a barrier release.
func (mg *manager) quiet(node int) bool { return mg.asks[node] > 0 }

// decide decides the held message with the lowest key if its arrival lies
// below horizon and returns the replies (ok reports whether it decided
// one). It is a pure step: the caller computes the horizon, and computes
// it anew after every step, since a reply can end a node's quiet.
func (mg *manager) decide(horizon simtime.Time) (out []mgrReply, ok bool) {
	if len(mg.held) == 0 || mg.held[0].arrival >= horizon {
		mg.decided = max(mg.decided, horizon)
		return nil, false
	}
	p := mg.held[0]
	mg.decided = max(mg.decided, p.arrival)
	n := copy(mg.held, mg.held[1:])
	mg.held[n] = pendingMsg{}
	mg.held = mg.held[:n]
	at := p.arrival + simtime.Time(mg.handling)
	switch p.m.Kind {
	case KindLockReq:
		mg.asks[p.m.From]--
		return mg.lockReq(p.m, at), true
	case KindLockRelease:
		return mg.lockRelease(p.m, at), true
	case KindBarrierCheckin:
		mg.asks[p.m.From]--
		return mg.checkin(p.m, at), true
	case KindObit:
		return mg.obit(p.m, at), true
	}
	panic(fmt.Sprintf("hlrc: manager holds unexpected kind %d from %d", p.m.Kind, p.m.From))
}

func (mg *manager) reply(req transport.Message, kind transport.Kind, payload interface{ WireSize() int }, at simtime.Time, span mgrSpan) {
	mg.out = append(mg.out, mgrReply{req: req, kind: kind, payload: payload, at: at, span: span})
}

// grant builds a grant carrying the manager's horizon and the notices a
// requester at since lacks, and records it as the lock's current grant to
// (to, reqID) at virtual time at (with SenderLogs, also in to's log).
func (mg *manager) grant(ls *lockState, to int, reqID int64, since vclock.VC, at simtime.Time) *LockGrant {
	g := mg.grants.New()
	g.VT, g.Notices = mg.vt.Share(), mg.notices.Delta(since)
	if mg.lease > 0 {
		g.LeaseUntil = at + simtime.Time(mg.lease)
	}
	ls.held = true
	ls.holder = to
	ls.holderReq = reqID
	ls.lastGrant = g
	ls.lastGrantAt = at
	if mg.senderLogs {
		mg.grantLog[to] = append(mg.grantLog[to], g)
	}
	return g
}

func (mg *manager) lockReq(m transport.Message, at simtime.Time) []mgrReply {
	mg.out = mg.out[:0]
	req := m.Payload.(*LockReq)
	ls := mg.locks[req.Lock]
	if ls == nil {
		ls = &lockState{}
		mg.locks[req.Lock] = ls
	}
	if ls.held {
		if ls.holder == m.From && ls.holderReq == m.ReqID {
			// Retransmission of the request we already granted: the grant
			// was lost on the wire. Re-send the identical grant, stamped
			// with the original grant time — the requester's clock already
			// carries the retransmission timeouts, and a stamp derived
			// from this copy's arrival would make the timing depend on
			// which handler path the retransmission raced into.
			mg.reply(m, KindLockGrant, ls.lastGrant, ls.lastGrantAt, mgrSpan{})
			return mg.out
		}
		for i, q := range ls.queue {
			if q.m.From == m.From && q.m.ReqID == m.ReqID {
				// Retransmission of a still-queued request: keep the newest
				// copy (its reply fate is the live one) but the original
				// arrival time, which is what the handoff timing is
				// measured from.
				ls.queue[i].m = m
				return mg.out
			}
		}
		ls.queue = append(ls.queue, pendingMsg{m: m, arrival: at})
		mg.asks[m.From]++
		return mg.out
	}
	g := mg.grant(ls, m.From, m.ReqID, req.VT, at)
	mg.reply(m, KindLockGrant, g, at, mgrSpan{tc: svcTrace(m), ev: obsv.EvLockGrant,
		t0: at - simtime.Time(mg.handling), t1: at, from: m.From, sentAt: m.SentAt, a1: int64(req.Lock)})
	return mg.out
}

func (mg *manager) lockRelease(m transport.Message, at simtime.Time) []mgrReply {
	mg.out = mg.out[:0]
	rel := m.Payload.(*LockRelease)
	mg.notices.AddAll(rel.Notices)
	mg.vt.Merge(rel.VT)
	if h, ok := mg.revoked[rel.Lock]; ok && h == m.From {
		// Replayed release of a lock this manager revoked when the holder
		// was declared dead: the knowledge delta was merged above, the
		// ownership change already happened at the revocation. Absorb.
		delete(mg.revoked, rel.Lock)
		return mg.out
	}
	ls := mg.locks[rel.Lock]
	if ls == nil || !ls.held {
		panic(fmt.Sprintf("hlrc: manager got release of free lock %d from %d", rel.Lock, m.From))
	}
	mg.handOff(rel.Lock, ls, m, at, at)
	return mg.out
}

// handOff passes lock l, freed at virtual time free by cause (a release,
// or the obituary of its holder) handled at at, to the head of its queue;
// with no one queued the lock becomes free. The grant is stamped when
// both the freeing event and the queued request have arrived.
func (mg *manager) handOff(l int32, ls *lockState, cause transport.Message, at, free simtime.Time) {
	if len(ls.queue) == 0 {
		ls.held = false
		return
	}
	next := ls.queue[0]
	n := copy(ls.queue, ls.queue[1:])
	ls.queue[n] = pendingMsg{}
	ls.queue = ls.queue[:n]
	mg.asks[next.m.From]--
	grantAt := max(free, next.arrival)
	g := mg.grant(ls, next.m.From, next.m.ReqID, next.m.Payload.(*LockReq).VT, grantAt)
	span := mgrSpan{ev: obsv.EvLockGrant, t0: at - simtime.Time(mg.handling), t1: grantAt,
		from: cause.From, sentAt: cause.SentAt, a1: int64(l)}
	if cause.Kind == KindLockRelease {
		// The handoff grant belongs to the queued requester's op: its trace
		// context (carried by the queued request copy) is what the grant
		// span joins, not the releaser's. The span's edge points at
		// whichever message opened the grant: the queued request if the
		// handoff waited for it to arrive, otherwise the release itself.
		// An obituary regrant keeps no trace context and its edge is the
		// obituary.
		span.tc = svcTrace(next.m)
		if next.arrival > free {
			span.from, span.sentAt = next.m.From, next.m.SentAt
		}
	}
	mg.reply(next.m, KindLockGrant, g, grantAt, span)
}

func (mg *manager) checkin(m transport.Message, at simtime.Time) []mgrReply {
	mg.out = mg.out[:0]
	ci := m.Payload.(*BarrierCheckin)
	if lr := mg.lastReply[m.From]; lr.rel != nil && lr.reqID == m.ReqID {
		// Retransmission of a check-in from an already-released round: the
		// release was lost on the wire. Re-send the identical cached
		// release at the original release time (the check-in's own
		// retransmission timeouts are already on the sender's clock, and
		// a stamp derived from this copy's arrival would depend on which
		// handler path the retransmission raced into).
		mg.reply(m, KindBarrierRelease, lr.rel, lr.at, mgrSpan{})
		return mg.out
	}
	if len(mg.waiting) == 0 {
		mg.round = ci.Barrier
	} else if ci.Barrier != mg.round {
		panic(fmt.Sprintf("hlrc: manager: node %d checked into barrier %d while barrier %d fills", m.From, ci.Barrier, mg.round))
	}
	for i, w := range mg.waiting {
		if w.m.From == m.From {
			if w.m.ReqID != m.ReqID {
				panic(fmt.Sprintf("hlrc: manager: node %d checked into barrier %d twice", m.From, ci.Barrier))
			}
			// Retransmission while the round is still filling: keep the
			// newest copy (its reply fate is the live one) but the first
			// copy's arrival time, which is what the barrier opening is
			// measured from.
			mg.waiting[i].m = m
			return mg.out
		}
	}
	mg.notices.AddAll(ci.Notices)
	mg.vt.Merge(ci.VT)
	mg.waiting = append(mg.waiting, pendingMsg{m: m, arrival: at})
	mg.asks[m.From]++
	if len(mg.waiting) < mg.n {
		return mg.out
	}
	mg.release(ci.Barrier)
	clear(mg.waiting) // hold no check-in past its round
	mg.waiting = mg.waiting[:0]
	return mg.out
}

// release opens the full round of barrier b. The barrier opens when the
// last check-in has arrived. The last arriver (ties broken by lowest node
// id, so the choice is deterministic) is the release span's edge: it is
// the message the critical path runs through, and the span joins its
// trace.
func (mg *manager) release(b int32) {
	var releaseAt simtime.Time
	last := mg.waiting[0]
	for _, w := range mg.waiting {
		releaseAt = max(releaseAt, w.arrival)
		if w.arrival > last.arrival || (w.arrival == last.arrival && w.m.From < last.m.From) {
			last = w
		}
	}
	span := mgrSpan{tc: svcTrace(last.m), ev: obsv.EvBarrierRelease,
		t0: releaseAt - simtime.Time(mg.handling), t1: releaseAt,
		from: last.m.From, sentAt: last.m.SentAt, a1: int64(b), a2: int64(len(mg.waiting))}
	// One clock snapshot per round, and the round's releases and notice
	// lists each cut at once: every node's delta is sized first, then cut
	// from one allocation, each list with cap == len.
	vt := mg.vt.Share()
	rels := mg.rels.Cut(len(mg.waiting))
	total := 0
	for _, w := range mg.waiting {
		total += mg.notices.deltaLen(checkinVT(w))
	}
	notices := mg.notices.deltas.Cut(total)
	for i, w := range mg.waiting {
		rel := &rels[i]
		rel.VT = vt
		since := checkinVT(w)
		if n := mg.notices.deltaLen(since); n > 0 {
			rel.Notices = mg.notices.appendDelta(notices[:0:n], since)
			notices = notices[n:]
		}
		if mg.lease > 0 {
			rel.LeaseUntil = releaseAt + simtime.Time(mg.lease)
		}
		mg.lastReply[w.m.From] = barrierReply{reqID: w.m.ReqID, rel: rel, at: releaseAt}
		mg.asks[w.m.From]--
		if mg.senderLogs {
			mg.releaseLog[w.m.From] = append(mg.releaseLog[w.m.From], rel)
		}
		mg.reply(w.m, KindBarrierRelease, rel, releaseAt, span)
		span = mgrSpan{}
	}
}

// checkinVT is the clock a waiting check-in declared.
func checkinVT(w pendingMsg) vclock.VC { return w.m.Payload.(*BarrierCheckin).VT }

// obit sweeps the manager state after a death declaration: queued
// requests from the dead node are dropped, and locks it held are revoked
// at its lease expiry and handed to their queue heads.
func (mg *manager) obit(m transport.Message, at simtime.Time) []mgrReply {
	mg.out = mg.out[:0]
	ob := m.Payload.(*Obituary)
	dead := int(ob.Node)
	expiry := ob.At + simtime.Time(mg.lease)
	// Lock ids are sorted so the (idempotent) sweep order never depends on
	// map iteration.
	ids := make([]int32, 0, len(mg.locks))
	for lid := range mg.locks {
		ids = append(ids, lid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, lid := range ids {
		ls := mg.locks[lid]
		q := ls.queue[:0]
		for _, w := range ls.queue {
			if w.m.From != dead {
				q = append(q, w)
			} else {
				mg.asks[dead]--
			}
		}
		ls.queue = q
		if !ls.held || ls.holder != dead {
			continue
		}
		// Revoke: the victim died holding the lock. Its open interval was
		// neither flushed nor logged; the lost updates reappear when its
		// recovered incarnation replays the interval, and the eventual
		// replayed release is absorbed against the revocation record.
		mg.revoked[lid] = dead
		mg.stats.LockRevocations.Add(1)
		mg.handOff(lid, ls, m, at, expiry)
	}
	return mg.out
}

// senderLog answers a torn-tail recovery's read of the Idx-th lock grant
// (KindRecGrantReq) or barrier release (KindRecBarrierReq) this manager
// sent to Node; past the end of the log the reply carries nil.
func (mg *manager) senderLog(m transport.Message, at simtime.Time) []mgrReply {
	mg.out = mg.out[:0]
	req := m.Payload.(*RecSyncReq)
	if m.Kind == KindRecGrantReq {
		mg.reply(m, KindRecGrantReply, &RecGrantReply{Grant: logEntry(mg.grantLog[int(req.Node)], req.Idx)}, at, mgrSpan{})
	} else {
		mg.reply(m, KindRecBarrierReply, &RecBarrierReply{Rel: logEntry(mg.releaseLog[int(req.Node)], req.Idx)}, at, mgrSpan{})
	}
	return mg.out
}

func logEntry[T any](log []*T, idx int32) *T {
	if idx < 0 || int(idx) >= len(log) {
		return nil
	}
	return log[idx]
}
