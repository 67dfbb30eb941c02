package hlrc

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"sdsm/internal/memory"
	"sdsm/internal/simtime"
	"sdsm/internal/transport"
	"sdsm/internal/vclock"
)

// The manager value is driven here with hand-built messages and no
// cluster: each test feeds requests at chosen virtual arrival times and
// checks the replies the handlers decide.

const mgrTestN = 4

func testManager(lease simtime.Duration) *manager {
	return newManager(Config{N: mgrTestN, LeaseDuration: lease, SenderLogs: true}, &Stats{})
}

func lockReqMsg(from int, reqID int64, lock int32) transport.Message {
	return transport.Message{From: from, Kind: KindLockReq, ReqID: reqID,
		Payload: &LockReq{Lock: lock, VT: vclock.New(mgrTestN)}}
}

func checkinMsg(from int, reqID int64, b int32, vt vclock.VC) transport.Message {
	return transport.Message{From: from, Kind: KindBarrierCheckin, ReqID: reqID,
		Payload: &BarrierCheckin{Barrier: b, VT: vt}}
}

// replyTrace renders decided replies for comparison across arrival
// orders: recipient, kind, stamp and the payload's content.
func replyTrace(b *strings.Builder, out []mgrReply) {
	for _, rp := range out {
		fmt.Fprintf(b, "%d k%d @%d ", rp.req.From, rp.kind, rp.at)
		switch p := rp.payload.(type) {
		case *LockGrant:
			fmt.Fprintf(b, "lock %d vt %v notices %v lease %d;", rp.req.Payload.(*LockReq).Lock, p.VT, p.Notices, p.LeaseUntil)
		case *BarrierRelease:
			fmt.Fprintf(b, "vt %v notices %v lease %d;", p.VT, p.Notices, p.LeaseUntil)
		default:
			fmt.Fprintf(b, "%+v;", p)
		}
	}
}

// lockModel is the reference the lock orders are checked against: FIFO
// queues in key order, one holder per lock, and each requester's program
// acquire(0) acquire(1) release(1) release(0). A requester's message is
// admitted when it is sent, and the manager may decide the message with
// the lowest key at any later point once the model's horizon (the lowest
// arrival any requester can still send) has passed it.
type lockModel struct {
	mg     *manager
	holder [2]int   // -1: free
	queue  [2][]int // requesters waiting, in key order
	// Per requester (index = node id; node 0 is the manager and idle).
	pc      [mgrTestN]int // next op of the program
	waiting [mgrTestN]bool
	owns    [mgrTestN]int // locks granted and not yet released, as the requester sees it
	clock   [mgrTestN]simtime.Time
	arrival [mgrTestN]simtime.Time // of the request being waited on
	grants  [mgrTestN]int
	rels    [mgrTestN]int32 // releases sent, the node's interval count
	// handled[w] is the number of w's releases the manager has merged.
	handled vclock.VC
	// The crash: dead is the obituary's node (0: none yet), obitHeld is
	// set until the obituary is decided, and replay the locks whose
	// replayed release it still owes.
	dead     int
	obitHeld bool
	replay   []int32
	free     simtime.Time // when the lock being handed off was freed
	// sent holds the admitted messages not yet decided, in key order;
	// seq numbers them. all holds every message sent and replies every
	// decided reply, compared across orders.
	sent    []modelMsg
	seq     int64
	all     []modelMsg
	replies []mgrReply
}

// modelMsg is one message a requester sent: a lock request or release
// (replay marks the dead node's replayed release) or an obituary, with
// its arrival at the manager and, for a release, its interval count.
type modelMsg struct {
	r      int
	kind   transport.Kind
	lock   int32
	at     simtime.Time
	seq    int64
	rel    int32
	replay bool
}

func (e modelMsg) before(o modelMsg) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.r != o.r {
		return e.r < o.r
	}
	return e.seq < o.seq
}

// progLock is the lock of op pc in every requester's program.
var progLock = [4]int32{0, 1, 1, 0}

const (
	mgrLease  = 4
	obitDelay = 2
)

// delay is requester r's message latency: distinct per requester, so
// virtual arrival order differs from the order messages are sent in.
// obitDelay is below every delay: the model's one-way latency.
func delay(r int) simtime.Time { return simtime.Time(9 - 2*r) }

// event is one choice of the exploration: requester r sends its next
// message, the obituary of r (obit), or r's replayed release after it
// (replay); or the manager decides one message (decide).
type event struct {
	r                    int
	obit, replay, decide bool
}

func (e event) String() string {
	switch {
	case e.decide:
		return "decide"
	case e.obit:
		return fmt.Sprintf("obit(%d)", e.r)
	case e.replay:
		return fmt.Sprintf("replay(%d)", e.r)
	}
	return fmt.Sprint(e.r)
}

func (lm *lockModel) enabled(withObit bool) []event {
	var ev []event
	if len(lm.sent) > 0 && lm.sent[0].at < lm.horizon() {
		ev = append(ev, event{decide: true})
	}
	for r := 1; r < mgrTestN; r++ {
		if r == lm.dead {
			if !lm.obitHeld && len(lm.replay) > 0 {
				ev = append(ev, event{r: r, replay: true})
			}
			continue
		}
		if !lm.waiting[r] && lm.pc[r] < len(progLock) {
			ev = append(ev, event{r: r})
		}
		if withObit && lm.dead == 0 && lm.owns[r] > 0 {
			ev = append(ev, event{r: r, obit: true})
		}
	}
	return ev
}

// horizon is the lowest arrival any requester can still send: a live
// requester that is not waiting sends at its clock plus at least the
// latency, the dead one replays at its clock plus its delay, and a
// waiting or finished requester sends nothing.
func (lm *lockModel) horizon() simtime.Time {
	h := simtime.Time(math.MaxInt64)
	for r := 1; r < mgrTestN; r++ {
		switch {
		case r == lm.dead:
			if lm.obitHeld || len(lm.replay) > 0 {
				h = min(h, lm.clock[r]+delay(r))
			}
		case !lm.waiting[r] && lm.pc[r] < len(progLock):
			h = min(h, lm.clock[r]+obitDelay)
		}
	}
	return h
}

// send admits one message to the manager and to the model's key order.
func (lm *lockModel) send(e modelMsg, m transport.Message) {
	lm.seq++
	e.seq, m.Seq = lm.seq, lm.seq
	lm.mg.admit(m, e.at)
	i := len(lm.sent)
	for i > 0 && e.before(lm.sent[i-1]) {
		i--
	}
	lm.sent = slices.Insert(lm.sent, i, e)
	lm.all = append(lm.all, e)
}

func (lm *lockModel) step(e event) error {
	r := e.r
	switch {
	case e.decide:
		return lm.decideOne()
	case e.obit:
		lm.dead, lm.obitHeld = r, true
		ob := transport.Message{From: r, Kind: KindObit, Payload: &Obituary{Node: int32(r), At: lm.clock[r]}}
		lm.send(modelMsg{r: r, kind: KindObit, at: lm.clock[r] + obitDelay}, ob)
	case e.replay:
		l := lm.replay[0]
		lm.replay = lm.replay[1:]
		lm.rels[r]++
		lm.send(modelMsg{r: r, kind: KindLockRelease, lock: l, at: lm.clock[r] + delay(r), rel: lm.rels[r], replay: true},
			lm.releaseMsg(r, l))
	default:
		l := progLock[lm.pc[r]]
		at := lm.clock[r] + delay(r)
		lm.clock[r] = at
		if lm.pc[r] == 0 || lm.pc[r] == 1 {
			lm.waiting[r] = true
			lm.arrival[r] = at
			lm.send(modelMsg{r: r, kind: KindLockReq, lock: l, at: at}, lockReqMsg(r, int64(lm.pc[r]+1), l))
			break
		}
		lm.pc[r]++
		lm.rels[r]++
		lm.owns[r]--
		lm.send(modelMsg{r: r, kind: KindLockRelease, lock: l, at: at, rel: lm.rels[r]}, lm.releaseMsg(r, l))
	}
	// Above the horizon nothing is decided.
	if h := lm.horizon(); len(lm.sent) == 0 || lm.sent[0].at >= h {
		if _, ok := lm.mg.decide(h); ok {
			return fmt.Errorf("manager decided at horizon %v with nothing below it", h)
		}
	}
	return lm.checkQuiet()
}

// decideOne has the manager decide at the model's horizon and checks the
// decision against the model's prediction for the message with the lowest
// key.
func (lm *lockModel) decideOne() error {
	out, ok := lm.mg.decide(lm.horizon())
	if !ok {
		return fmt.Errorf("manager held back %+v below the horizon %v", lm.sent[0], lm.horizon())
	}
	e := lm.sent[0]
	lm.sent = lm.sent[1:]
	if err := lm.decided(e, out); err != nil {
		return fmt.Errorf("deciding %+v: %w", e, err)
	}
	lm.replies = append(lm.replies, out...)
	return lm.checkQuiet()
}

// checkQuiet checks that the manager's quiet set is the model's: the
// requesters waiting for a grant, the dead one until its obituary is
// decided.
func (lm *lockModel) checkQuiet() error {
	for r := 1; r < mgrTestN; r++ {
		if want := lm.waiting[r] && (r != lm.dead || lm.obitHeld); lm.mg.quiet(r) != want {
			return fmt.Errorf("manager quiet(%d) = %v, want %v", r, lm.mg.quiet(r), want)
		}
	}
	return nil
}

// decided predicts the replies to the decision of e and checks out.
func (lm *lockModel) decided(e modelMsg, out []mgrReply) error {
	r, l := e.r, e.lock
	switch {
	case e.kind == KindObit:
		return lm.obit(r, out)
	case e.replay:
		lm.handled[r] = e.rel
		if len(out) != 0 {
			return fmt.Errorf("replayed release of revoked lock %d by %d answered with %d replies", l, r, len(out))
		}
		return nil
	case e.kind == KindLockReq:
		if lm.holder[l] >= 0 || len(lm.queue[l]) > 0 {
			lm.queue[l] = append(lm.queue[l], r)
			return lm.expect(out, -1, l)
		}
		lm.free = e.at
		return lm.expect(out, r, l)
	}
	lm.handled[r] = e.rel
	if lm.holder[l] != r {
		return fmt.Errorf("model: %d releases lock %d held by %d", r, l, lm.holder[l])
	}
	lm.holder[l] = -1
	lm.free = e.at
	return lm.expect(out, lm.popQueue(l), l)
}

func (lm *lockModel) releaseMsg(r int, l int32) transport.Message {
	vt := vclock.New(mgrTestN)
	vt[r] = lm.rels[r]
	return transport.Message{From: r, Kind: KindLockRelease, ReqID: 100 + int64(lm.rels[r]),
		Payload: &LockRelease{Lock: l, VT: vt, Notices: []Notice{{Proc: int32(r), Seq: lm.rels[r]}}}}
}

func (lm *lockModel) popQueue(l int32) int {
	if len(lm.queue[l]) == 0 {
		return -1
	}
	next := lm.queue[l][0]
	lm.queue[l] = lm.queue[l][1:]
	return next
}

func (lm *lockModel) obit(dead int, out []mgrReply) error {
	lm.obitHeld = false
	lm.free = lm.clock[dead] + mgrLease
	for l := range lm.queue {
		q := lm.queue[l][:0]
		for _, w := range lm.queue[l] {
			if w != dead {
				q = append(q, w)
			}
		}
		lm.queue[l] = q
	}
	for _, l := range []int32{1, 0} { // the program's release order
		if lm.holder[l] == dead {
			lm.replay = append(lm.replay, l)
		}
	}
	// The regrants the sweep must make, in lock-id order (-1: none).
	want := []int{-1, -1}
	for l := range want {
		if lm.holder[l] == dead {
			lm.holder[l] = -1
			want[l] = lm.popQueue(int32(l))
		}
	}
	k := 0
	for l, w := range want {
		if w < 0 {
			continue
		}
		if k >= len(out) {
			return fmt.Errorf("obituary of %d: %d regrants, want one of lock %d to %d", dead, len(out), l, w)
		}
		if err := lm.expect(out[k:k+1], w, out[k].req.Payload.(*LockReq).Lock); err != nil {
			return fmt.Errorf("obituary of %d: %w", dead, err)
		}
		k++
	}
	if k != len(out) {
		return fmt.Errorf("obituary of %d: %d regrants, want %d", dead, len(out), k)
	}
	return nil
}

// expect checks a decision's replies against the model's prediction: one
// grant of lock l to requester to, or none when to < 0.
func (lm *lockModel) expect(out []mgrReply, to int, l int32) error {
	if to < 0 {
		if len(out) != 0 {
			return fmt.Errorf("lock %d granted to %d while held by %d", l, out[0].req.From, lm.holder[l])
		}
		return nil
	}
	if len(out) != 1 {
		return fmt.Errorf("lock %d: %d replies, want a grant to %d", l, len(out), to)
	}
	rp := out[0]
	g, ok := rp.payload.(*LockGrant)
	if rp.kind != KindLockGrant || !ok {
		return fmt.Errorf("lock %d: reply kind %d, want a grant", l, rp.kind)
	}
	if got := rp.req.Payload.(*LockReq).Lock; got != l {
		return fmt.Errorf("grant of lock %d, want lock %d", got, l)
	}
	if rp.req.From != to {
		return fmt.Errorf("lock %d handed to %d, want %d (FIFO in key order)", l, rp.req.From, to)
	}
	if lm.holder[l] >= 0 {
		return fmt.Errorf("lock %d granted to %d while held by %d", l, to, lm.holder[l])
	}
	if want := max(lm.arrival[to], lm.free); rp.at != want {
		return fmt.Errorf("lock %d grant to %d stamped %v, want %v (request at %v, freed at %v)",
			l, to, rp.at, want, lm.arrival[to], lm.free)
	}
	if !g.VT.Covers(lm.handled) {
		return fmt.Errorf("lock %d grant VT %v misses merged releases %v", l, g.VT, lm.handled)
	}
	if !lm.waiting[to] {
		return fmt.Errorf("lock %d granted to %d, which is not waiting", l, to)
	}
	lm.holder[l] = to
	lm.waiting[to] = false
	lm.owns[to]++
	lm.pc[to]++
	lm.grants[to]++
	lm.clock[to] = max(lm.clock[to], rp.at)
	return nil
}

// done checks a state with no event enabled: every live requester ran its
// whole program with each acquire granted once, and the manager is idle.
func (lm *lockModel) done() error {
	for r := 1; r < mgrTestN; r++ {
		if r == lm.dead {
			continue
		}
		if lm.pc[r] != len(progLock) || lm.grants[r] != 2 {
			return fmt.Errorf("blocked: node %d at op %d with %d grants (waiting %v)", r, lm.pc[r], lm.grants[r], lm.waiting[r])
		}
	}
	if len(lm.mg.held) != 0 {
		return fmt.Errorf("%d messages still held at the end", len(lm.mg.held))
	}
	for l, ls := range lm.mg.locks {
		if ls.held || len(ls.queue) != 0 {
			return fmt.Errorf("lock %d still held by %d (queue %d) at the end", l, ls.holder, len(ls.queue))
		}
	}
	if len(lm.mg.revoked) != 0 {
		return fmt.Errorf("revocation records left: %v", lm.mg.revoked)
	}
	return nil
}

func newLockModel() *lockModel {
	return &lockModel{mg: testManager(mgrLease), holder: [2]int{-1, -1}, handled: vclock.New(mgrTestN)}
}

// exploreLocks visits every order in which the requesters' messages can
// reach the manager (depth-first, replaying each prefix on a fresh
// manager). Orders that send the same message set must get the same
// replies: recipient, payload and stamp. It returns the number of
// complete orders and of distinct message sets.
func exploreLocks(t *testing.T, withObit bool) (orders, sets int) {
	replies := map[string]string{} // message set -> reply trace
	var prefix []event
	var walk func() bool
	walk = func() bool {
		lm := newLockModel()
		for i, e := range prefix {
			if err := lm.step(e); err != nil {
				t.Errorf("order %v, step %d: %v", prefix[:i+1], i, err)
				return false
			}
		}
		ev := lm.enabled(withObit)
		if len(ev) == 0 {
			orders++
			if err := lm.done(); err != nil {
				t.Errorf("order %v: %v", prefix, err)
				return false
			}
			var msgs []string
			for _, e := range lm.all {
				msgs = append(msgs, fmt.Sprintf("%d k%d l%d @%d", e.r, e.kind, e.lock, e.at))
			}
			slices.Sort(msgs)
			set := strings.Join(msgs, "; ")
			var trace strings.Builder
			replyTrace(&trace, lm.replies)
			if prev, ok := replies[set]; !ok {
				replies[set] = trace.String()
			} else if prev != trace.String() {
				t.Errorf("order %v: replies differ from another order of the same messages:\n got %s\nwant %s", prefix, trace.String(), prev)
				return false
			}
			return true
		}
		for _, e := range ev {
			prefix = append(prefix, e)
			ok := walk()
			prefix = prefix[:len(prefix)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	walk()
	return orders, len(replies)
}

// Every order in which three requesters that each take two nested locks
// can send, without and with an obituary of a current holder at every
// point: grants follow key order, and every order of one message set
// gets identical replies.
func TestManagerLockArrivalOrders(t *testing.T) {
	start := time.Now()
	plain, plainSets := exploreLocks(t, false)
	crashed, crashedSets := exploreLocks(t, true)
	t.Logf("%d orders of %d message set(s), %d with an obituary (%d sets), in %v",
		plain, plainSets, crashed, crashedSets, time.Since(start))
	if plain == 0 || crashed <= plain || plainSets != 1 {
		t.Fatalf("explored %d and %d orders, %d plain message sets (want 1)", plain, crashed, plainSets)
	}
}

// Every order of four barrier check-ins, two rounds of one barrier: each
// check-in is admitted and then decided at the horizon of the check-ins
// still to come, so nothing is released before the last one; then every
// node gets one release stamped at the latest arrival, covering every
// check-in's knowledge, and every order gets identical replies.
func TestManagerBarrierArrivalOrders(t *testing.T) {
	arrivals := [mgrTestN]simtime.Time{30, 10, 40, 20}
	var perms [][]int
	var permute func(p []int, k int)
	permute = func(p []int, k int) {
		if k == len(p) {
			perms = append(perms, append([]int(nil), p...))
			return
		}
		for i := k; i < len(p); i++ {
			p[k], p[i] = p[i], p[k]
			permute(p, k+1)
			p[k], p[i] = p[i], p[k]
		}
	}
	permute([]int{0, 1, 2, 3}, 0)
	var first string
	for _, order := range perms {
		mg := testManager(mgrLease)
		var trace strings.Builder
		for round := 0; round < 2; round++ {
			base := simtime.Time(100 * round)
			all := vclock.New(mgrTestN)
			var out []mgrReply
			for i, node := range order {
				vt := vclock.New(mgrTestN)
				vt[node] = int32(round + 1)
				all.Merge(vt)
				m := checkinMsg(node, int64(round), 0, vt)
				m.Seq = int64(round + 1)
				m.Payload.(*BarrierCheckin).Notices = []Notice{{Proc: int32(node), Seq: int32(round + 1), Pages: []memory.PageID{memory.PageID(node)}}}
				mg.admit(m, base+arrivals[node])
				h := simtime.Time(math.MaxInt64)
				for _, later := range order[i+1:] {
					h = min(h, base+arrivals[later])
				}
				for {
					rs, ok := mg.decide(h)
					if !ok {
						break
					}
					out = append(out, rs...)
				}
				if i < len(order)-1 && len(out) != 0 {
					t.Fatalf("order %v: released after %d check-ins", order, i+1)
				}
			}
			if len(out) != mgrTestN {
				t.Fatalf("order %v: %d releases, want %d", order, len(out), mgrTestN)
			}
			seen := map[int]bool{}
			for _, rp := range out {
				rel := rp.payload.(*BarrierRelease)
				if rp.kind != KindBarrierRelease || seen[rp.req.From] {
					t.Fatalf("order %v: reply kind %d to %d (seen %v)", order, rp.kind, rp.req.From, seen)
				}
				seen[rp.req.From] = true
				if rp.at != base+40 {
					t.Fatalf("order %v: node %d released at %v, want the last arrival %v", order, rp.req.From, rp.at, base+40)
				}
				if !rel.VT.Covers(all) {
					t.Fatalf("order %v: release VT %v misses %v", order, rel.VT, all)
				}
			}
			replyTrace(&trace, out)
		}
		if first == "" {
			first = trace.String()
		} else if trace.String() != first {
			t.Fatalf("order %v: replies differ from order %v:\n got %s\nwant %s", order, perms[0], trace.String(), first)
		}
	}
}

// A link delivers in order: a release that carries notices is decided
// before the sender's next messages even when those, being smaller,
// would arrive earlier, so the manager's notice store sees each interval
// in turn; they arrive, and are stamped, no earlier than it.
func TestManagerLinkOrder(t *testing.T) {
	mg := testManager(0)
	var out []mgrReply
	drain := func() {
		out = out[:0]
		for {
			rs, ok := mg.decide(math.MaxInt64)
			if !ok {
				return
			}
			out = append(out, rs...)
		}
	}
	for l := int32(0); l < 2; l++ {
		m := lockReqMsg(1, int64(l+1), l)
		m.Seq = int64(l + 1)
		mg.admit(m, simtime.Time(10*(l+1)))
	}
	drain()
	if len(out) != 2 {
		t.Fatalf("grants: %+v", out)
	}
	release := func(seq int64, l int32, interval int32, at simtime.Time) {
		vt := vclock.New(mgrTestN)
		vt[1] = interval
		mg.admit(transport.Message{From: 1, Kind: KindLockRelease, Seq: seq,
			Payload: &LockRelease{Lock: l, VT: vt, Notices: []Notice{{Proc: 1, Seq: interval}}}}, at)
	}
	release(3, 1, 1, 60) // the bigger message, sent first
	release(4, 0, 2, 55)
	req := lockReqMsg(1, 3, 0)
	req.Seq = 5
	mg.admit(req, 58)
	drain()
	if len(out) != 1 || out[0].at != 60 || out[0].req.Seq != 5 {
		t.Fatalf("re-acquire after both releases: %+v, want one grant stamped at 60, behind the first release", out)
	}
	if !out[0].payload.(*LockGrant).VT.Covers(vclock.VC{0, 2, 0, 0}) {
		t.Fatalf("grant VT %v misses both releases", out[0].payload.(*LockGrant).VT)
	}
}

// A retransmitted LockReq from the holder is answered with the cached
// grant at its original stamp; a retransmitted queued request keeps its
// first arrival.
func TestManagerLockReqRetransmission(t *testing.T) {
	mg := testManager(0)
	out := mg.lockReq(lockReqMsg(1, 7, 3), 10)
	if len(out) != 1 || out[0].at != 10 {
		t.Fatalf("first request: %+v", out)
	}
	g := out[0].payload
	out = mg.lockReq(lockReqMsg(1, 7, 3), 50)
	if len(out) != 1 || out[0].payload != g || out[0].at != 10 || out[0].span != (mgrSpan{}) {
		t.Fatalf("retransmitted request: %+v, want the cached grant at lastGrantAt 10", out)
	}
	if out := mg.lockReq(lockReqMsg(2, 3, 3), 20); len(out) != 0 {
		t.Fatalf("queued request answered: %+v", out)
	}
	if out := mg.lockReq(lockReqMsg(2, 3, 3), 60); len(out) != 0 {
		t.Fatalf("retransmitted queued request answered: %+v", out)
	}
	rel := transport.Message{From: 1, Kind: KindLockRelease, Payload: &LockRelease{Lock: 3, VT: vclock.New(mgrTestN)}}
	out = mg.lockRelease(rel, 25)
	if len(out) != 1 || out[0].req.From != 2 || out[0].at != 25 {
		t.Fatalf("handoff: %+v, want a grant to 2 at 25", out)
	}
}

// A retransmitted check-in from a released round is answered from
// lastReply at the release stamp.
func TestManagerCheckinRetransmission(t *testing.T) {
	mg := testManager(0)
	var out []mgrReply
	for node := 0; node < mgrTestN; node++ {
		out = mg.checkin(checkinMsg(node, 5, 2, vclock.New(mgrTestN)), simtime.Time(10*(node+1)))
	}
	if len(out) != mgrTestN {
		t.Fatalf("round did not release: %d replies", len(out))
	}
	rel := out[1].payload
	out = mg.checkin(checkinMsg(1, 5, 2, vclock.New(mgrTestN)), 99)
	if len(out) != 1 || out[0].payload != rel || out[0].at != 40 || out[0].kind != KindBarrierRelease {
		t.Fatalf("retransmitted check-in: %+v, want the cached release at 40", out)
	}
}

// The manager fills one round at a time. A late copy of a check-in it
// answered, arriving while the next barrier's round fills, is answered
// from its sender's last reply and joins nothing; a check-in for another
// barrier id while a round fills is a program error and panics naming
// both ids. Under 0.01 s.
func TestManagerOneLiveRound(t *testing.T) {
	mg := testManager(0)
	var first []mgrReply
	for node := 0; node < mgrTestN; node++ {
		first = mg.checkin(checkinMsg(node, 5, 7, vclock.New(mgrTestN)), simtime.Time(10*(node+1)))
	}
	if len(first) != mgrTestN {
		t.Fatalf("barrier 7 did not release: %d replies", len(first))
	}
	rel := first[2].payload
	if out := mg.checkin(checkinMsg(0, 6, 8, vclock.New(mgrTestN)), 50); len(out) != 0 {
		t.Fatalf("first check-in of barrier 8 answered: %+v", out)
	}
	out := mg.checkin(checkinMsg(2, 5, 7, vclock.New(mgrTestN)), 60)
	if len(out) != 1 || out[0].payload != rel || out[0].at != 40 || out[0].req.From != 2 {
		t.Fatalf("late copy of a barrier 7 check-in: %+v, want node 2's cached release at 40", out)
	}
	if len(mg.waiting) != 1 || mg.round != 8 {
		t.Fatalf("round after the late copy: barrier %d with %d check-ins, want barrier 8 with 1", mg.round, len(mg.waiting))
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "barrier 9") || !strings.Contains(msg, "barrier 8") {
			t.Fatalf("panic %q does not name both barriers", msg)
		}
	}()
	mg.checkin(checkinMsg(1, 6, 9, vclock.New(mgrTestN)), 70)
}

// A run's barriers use fresh ids (the kernels count them up), and the
// manager keeps nothing per id: after 1 000 rounds it holds no check-in,
// its round slice has not grown, and each node's cached reply is its
// release from the last round. Under 0.01 s.
func TestManagerFreshBarrierIDsKeepNoState(t *testing.T) {
	mg := newManager(Config{N: mgrTestN}, &Stats{})
	const rounds = 1000
	var last []mgrReply
	for b := range int32(rounds) {
		for node := 0; node < mgrTestN; node++ {
			vt := vclock.New(mgrTestN) // everything up to the last round, and its own interval
			for i := range vt {
				vt[i] = b
			}
			vt[node] = b + 1
			m := checkinMsg(node, int64(b+1), b, vt)
			m.Payload.(*BarrierCheckin).Notices = []Notice{{Proc: int32(node), Seq: b + 1}}
			last = mg.checkin(m, simtime.Time(100*int(b)+node))
		}
		if len(last) != mgrTestN {
			t.Fatalf("barrier %d: %d releases, want %d", b, len(last), mgrTestN)
		}
	}
	if len(mg.waiting) != 0 || cap(mg.waiting) != mgrTestN {
		t.Fatalf("after %d rounds the manager holds %d check-ins in a slice of %d, want none in %d",
			rounds, len(mg.waiting), cap(mg.waiting), mgrTestN)
	}
	for _, rp := range last {
		if lr := mg.lastReply[rp.req.From]; lr.rel != rp.payload || lr.reqID != rounds {
			t.Fatalf("node %d's cached reply is request %d, want the last round's %d", rp.req.From, lr.reqID, rounds)
		}
		// The round's lists are cut from one allocation, each with cap ==
		// len, holding what Delta would: the other nodes' last intervals.
		ns := rp.payload.(*BarrierRelease).Notices
		if len(ns) != mgrTestN-1 || cap(ns) != len(ns) {
			t.Fatalf("last release to %d carries %d notices (cap %d), want the other %d nodes'", rp.req.From, len(ns), cap(ns), mgrTestN-1)
		}
		for i, n := range ns {
			proc := i
			if proc >= rp.req.From {
				proc++
			}
			if n.Proc != int32(proc) || n.Seq != rounds {
				t.Fatalf("last release to %d: notice %d is %d/%d, want %d/%d", rp.req.From, i, n.Proc, n.Seq, proc, rounds)
			}
		}
	}
}

// The sender log serves both kinds by index; past its end the reply
// carries nil.
func TestManagerSenderLog(t *testing.T) {
	mg := testManager(0)
	g0 := mg.lockReq(lockReqMsg(1, 1, 0), 5)[0].payload
	mg.lockRelease(transport.Message{From: 1, Payload: &LockRelease{Lock: 0, VT: vclock.New(mgrTestN)}}, 6)
	g1 := mg.lockReq(lockReqMsg(1, 2, 0), 7)[0].payload
	var rel any
	for node := 0; node < mgrTestN; node++ {
		if out := mg.checkin(checkinMsg(node, 3, 0, vclock.New(mgrTestN)), 8); len(out) > 0 {
			rel = out[1].payload
		}
	}
	read := func(kind transport.Kind, idx int32) mgrReply {
		out := mg.senderLog(transport.Message{From: 1, Kind: kind, Payload: &RecSyncReq{Node: 1, Idx: idx}}, 42)
		if len(out) != 1 || out[0].at != 42 {
			t.Fatalf("sender-log read: %+v", out)
		}
		return out[0]
	}
	for idx, want := range []any{g0, g1} {
		rp := read(KindRecGrantReq, int32(idx))
		if rp.kind != KindRecGrantReply || rp.payload.(*RecGrantReply).Grant != want {
			t.Fatalf("grant %d: %+v", idx, rp)
		}
	}
	if rp := read(KindRecGrantReq, 2); rp.payload.(*RecGrantReply).Grant != nil {
		t.Fatal("grant past the end of the log is not nil")
	}
	if rp := read(KindRecBarrierReq, 0); rp.kind != KindRecBarrierReply || rp.payload.(*RecBarrierReply).Rel != rel {
		t.Fatalf("release 0: %+v", rp)
	}
	if rp := read(KindRecBarrierReq, 1); rp.payload.(*RecBarrierReply).Rel != nil {
		t.Fatal("release past the end of the log is not nil")
	}
}

// A manager kind reaching a node that is not the manager panics with the
// kind and the sender.
func TestManagerKindOnNonManagerPanics(t *testing.T) {
	model := simtime.DefaultCostModel()
	nw := transport.NewNetwork(2, model)
	nd := NewNode(Config{ID: 1, N: 2, PageSize: 64, NumPages: 1, Homes: []int{0}, Model: model},
		nw, simtime.NewClock(0), nil, nil)
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "lock-req") || !strings.Contains(msg, "from 0") {
			t.Fatalf("panic %q does not name the kind and the sender", msg)
		}
	}()
	nd.handle(lockReqMsg(0, 1, 0))
}
