package hlrc

import (
	"fmt"
	"strings"
	"testing"
	"time"

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

// lockModel is the reference the lock orders are checked against: FIFO
// queues, one holder per lock, and each requester's program
// acquire(0) acquire(1) release(1) release(0).
type lockModel struct {
	mg     *manager
	holder [2]int   // -1: free
	queue  [2][]int // requesters waiting, in handling order
	// Per requester (index = node id; node 0 is the manager and idle).
	pc      [mgrTestN]int // next op of the program
	waiting [mgrTestN]bool
	clock   [mgrTestN]simtime.Time
	arrival [mgrTestN]simtime.Time // of the request being waited on
	grants  [mgrTestN]int
	rels    [mgrTestN]int32 // releases sent, the node's interval count
	// handled[w] is the number of w's releases the manager has merged.
	handled vclock.VC
	// The crash: dead is the obituary's node (0: none yet) and replay the
	// locks whose replayed release it still owes.
	dead   int
	replay []int32
	free   simtime.Time // when the lock being handed off was freed
}

// progLock is the lock of op pc in every requester's program.
var progLock = [4]int32{0, 1, 1, 0}

const (
	mgrLease  = 4
	obitDelay = 2
)

// delay is requester r's message latency: distinct per requester, so
// virtual arrival order differs from handling order.
func delay(r int) simtime.Time { return simtime.Time(9 - 2*r) }

// event is one choice of the exploration: requester r's next message,
// the obituary of r (obit), or r's replayed release after it (replay).
type event struct {
	r            int
	obit, replay bool
}

func (e event) String() string {
	switch {
	case e.obit:
		return fmt.Sprintf("obit(%d)", e.r)
	case e.replay:
		return fmt.Sprintf("replay(%d)", e.r)
	}
	return fmt.Sprint(e.r)
}

func (lm *lockModel) enabled(withObit bool) []event {
	var ev []event
	for r := 1; r < mgrTestN; r++ {
		if r == lm.dead {
			if len(lm.replay) > 0 {
				ev = append(ev, event{r: r, replay: true})
			}
			continue
		}
		if !lm.waiting[r] && lm.pc[r] < len(progLock) {
			ev = append(ev, event{r: r})
		}
		if withObit && lm.dead == 0 && (lm.holder[0] == r || lm.holder[1] == r) {
			ev = append(ev, event{r: r, obit: true})
		}
	}
	return ev
}

func (lm *lockModel) step(e event) error {
	r := e.r
	switch {
	case e.obit:
		return lm.obit(r)
	case e.replay:
		l := lm.replay[0]
		lm.replay = lm.replay[1:]
		lm.rels[r]++
		lm.handled[r] = lm.rels[r]
		out := lm.mg.lockRelease(lm.releaseMsg(r, l), lm.clock[r]+delay(r))
		if len(out) != 0 {
			return fmt.Errorf("replayed release of revoked lock %d by %d answered with %d replies", l, r, len(out))
		}
		return nil
	}
	l := progLock[lm.pc[r]]
	at := lm.clock[r] + delay(r)
	lm.clock[r] = at
	if lm.pc[r] == 0 || lm.pc[r] == 1 {
		lm.waiting[r] = true
		lm.arrival[r] = at
		out := lm.mg.lockReq(lockReqMsg(r, int64(lm.pc[r]+1), l), at)
		if lm.holder[l] >= 0 || len(lm.queue[l]) > 0 {
			lm.queue[l] = append(lm.queue[l], r)
			return lm.expect(out, -1, l)
		}
		lm.free = at
		return lm.expect(out, r, l)
	}
	lm.pc[r]++
	lm.rels[r]++
	lm.handled[r] = lm.rels[r]
	out := lm.mg.lockRelease(lm.releaseMsg(r, l), at)
	if lm.holder[l] != r {
		return fmt.Errorf("model: %d releases lock %d held by %d", r, l, lm.holder[l])
	}
	lm.holder[l] = -1
	lm.free = at
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

func (lm *lockModel) obit(dead int) error {
	lm.dead = dead
	at := lm.clock[dead]
	lm.free = at + mgrLease
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
	ob := transport.Message{From: dead, Kind: KindObit, Payload: &Obituary{Node: int32(dead), At: at}}
	out := lm.mg.obit(ob, at+obitDelay)
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

// expect checks a handler's replies against the model's prediction: one
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
		return fmt.Errorf("lock %d handed to %d, want %d (FIFO)", l, rp.req.From, to)
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

// exploreLocks visits every arrival order reachable from the empty
// manager (depth-first, replaying each prefix on a fresh manager) and
// returns the number of complete orders.
func exploreLocks(t *testing.T, withObit bool) int {
	var orders int
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
	return orders
}

// Every arrival order of three requesters that each take two nested
// locks, without and with an obituary of a current holder at every
// point.
func TestManagerLockArrivalOrders(t *testing.T) {
	start := time.Now()
	plain := exploreLocks(t, false)
	crashed := exploreLocks(t, true)
	t.Logf("%d orders, %d with an obituary, in %v", plain, crashed, time.Since(start))
	if plain == 0 || crashed <= plain {
		t.Fatalf("explored %d and %d orders", plain, crashed)
	}
}

// Every order of four barrier check-ins, as consecutive rounds of one
// barrier: nothing is released before the last check-in, and then every
// node gets one release stamped at the latest arrival, covering every
// check-in's knowledge.
func TestManagerBarrierArrivalOrders(t *testing.T) {
	mg := testManager(0)
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
	for round, order := range perms {
		base := simtime.Time(100 * round)
		all := vclock.New(mgrTestN)
		var out []mgrReply
		for i, node := range order {
			vt := vclock.New(mgrTestN)
			vt[node] = int32(round + 1)
			all.Merge(vt)
			out = mg.checkin(checkinMsg(node, int64(round), 0, vt), base+arrivals[node])
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
