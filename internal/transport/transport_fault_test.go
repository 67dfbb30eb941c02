package transport

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sdsm/internal/fault"
	"sdsm/internal/simtime"
)

func faultyPair(t *testing.T, p fault.Plan) (*Network, *Endpoint, *Endpoint) {
	t.Helper()
	nw := NewNetwork(2, simtime.DefaultCostModel())
	nw.SetFaultPlan(p)
	return nw, nw.NewEndpoint(0, simtime.NewClock(0)), nw.NewEndpoint(1, simtime.NewClock(0))
}

// echoUntilQuit services b's inbox like a protocol loop: suppress wire
// duplicates, then answer every (possibly retransmitted) request.
func echoUntilQuit(b *Endpoint, quit <-chan struct{}) {
	for {
		select {
		case m := <-b.Inbox():
			if !b.WireDup(m) {
				b.ReplyAt(b.ArrivalOf(m), m, m.Kind, 16, m.Payload)
			}
			b.MarkHandled()
		case <-quit:
			return
		}
	}
}

func mustPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q", substr)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v does not contain %q", r, substr)
		}
	}()
	f()
}

// TestUnreachablePeerWaitPanics drops every copy: Pending.Wait must
// charge the full backoff schedule to the virtual clock and then declare
// the peer unreachable rather than hang.
func TestUnreachablePeerWaitPanics(t *testing.T) {
	_, a, _ := faultyPair(t, fault.Plan{Seed: 1, DropProb: 1})
	p := a.CallAsync(1, Kind(3), 64, nil)
	mustPanic(t, fmt.Sprintf("after %d attempts — peer unreachable", fault.DefaultMaxAttempts),
		func() { p.Wait(a.Clock()) })
	var schedule simtime.Duration
	for attempt := 1; attempt <= fault.DefaultMaxAttempts; attempt++ {
		schedule += fault.RTO(attempt)
	}
	if got := simtime.Duration(a.Clock().Now()); got < schedule {
		t.Errorf("clock charged %v, want the full backoff schedule %v", got, schedule)
	}
}

// TestUnreachablePeerWaitDetachedPanics exercises the same bound through
// the recovery-side wait path.
func TestUnreachablePeerWaitDetachedPanics(t *testing.T) {
	_, a, _ := faultyPair(t, fault.Plan{Seed: 1, DropProb: 1})
	p := a.CallAsync(1, Kind(3), 64, nil)
	mustPanic(t, fmt.Sprintf("after %d attempts — peer unreachable", fault.DefaultMaxAttempts),
		func() { p.WaitDetached(a.Clock()) })
}

// TestUnreachablePeerOneWayPanics: one-way sends use background ARQ, so
// the attempt bound fires inside Send itself.
func TestUnreachablePeerOneWayPanics(t *testing.T) {
	_, a, _ := faultyPair(t, fault.Plan{Seed: 1, DropProb: 1})
	mustPanic(t, fmt.Sprintf("lost %d times — peer unreachable", fault.DefaultMaxAttempts),
		func() { a.Send(1, Kind(5), 32, nil) })
}

// TestLocalCallBypassesFaults: requests to self (a node acting as its own
// manager) take the local branch and must never be dropped, duplicated or
// delayed, even under a total-loss plan.
func TestLocalCallBypassesFaults(t *testing.T) {
	nw := NewNetwork(2, simtime.DefaultCostModel())
	nw.SetFaultPlan(fault.Plan{Seed: 1, DropProb: 1})
	a := nw.NewEndpoint(0, simtime.NewClock(0))
	go func() {
		m := <-a.Inbox()
		a.ReplyAt(a.ArrivalOf(m), m, Kind(2), 8, "self")
	}()
	resp := a.CallAsync(0, Kind(1), 8, nil).Wait(a.Clock())
	if resp.Payload.(string) != "self" {
		t.Fatalf("self call answered %+v", resp)
	}
}

// TestRetryRecoversFromLoss runs an echo workload under heavy seeded
// loss, duplication and delay; every call must still complete, and the
// retransmission timeouts must show up on the caller's clock.
func TestRetryRecoversFromLoss(t *testing.T) {
	_, a, b := faultyPair(t, fault.Plan{Seed: 42, DropProb: 0.4, DupProb: 0.3, DelayProb: 0.3})
	quit := make(chan struct{})
	defer close(quit)
	go echoUntilQuit(b, quit)
	for i := 0; i < 200; i++ {
		resp := a.Call(1, Kind(9), 64, i)
		if resp.Payload.(int) != i {
			t.Fatalf("call %d answered %v", i, resp.Payload)
		}
	}
	// 40% request loss (and more reply loss on top) over 200 calls must
	// have triggered at least one retransmission timeout; a pure-RTT clock
	// would stay under 200 round trips.
	pureRTT := simtime.Time(200) * simtime.Time(a.nw.Model().RoundTrip(64, 16))
	if a.Clock().Now() <= pureRTT {
		t.Errorf("clock %v shows no retry charges (pure RTT would be %v)", a.Clock().Now(), pureRTT)
	}
}

// TestOneWayLossBecomesDelay: a dropped one-way copy is retransmitted in
// the background; the surviving copy must carry the accumulated timeouts
// as extra wire delay rather than charging the sender.
func TestOneWayLossBecomesDelay(t *testing.T) {
	_, a, b := faultyPair(t, fault.Plan{Seed: 3, DropProb: 0.5})
	const n = 50
	for i := 0; i < n; i++ {
		a.Send(1, Kind(4), 8, i)
	}
	if a.Clock().Now() != 0 {
		t.Errorf("one-way ARQ charged the sender's clock: %v", a.Clock().Now())
	}
	delayed, got := 0, 0
	for got < n {
		m := <-b.Inbox()
		if b.WireDup(m) {
			continue
		}
		if m.Payload.(int) != got {
			t.Fatalf("message %d arrived out of order (got %d)", got, m.Payload.(int))
		}
		if m.extraDelay > 0 {
			delayed++
		}
		got++
	}
	if delayed == 0 {
		t.Errorf("50%% loss over %d sends produced no retransmission delay", n)
	}
}

// TestWireDupSuppression forces a duplicate of every delivered copy and
// checks the receiver discards exactly the duplicates, in order.
func TestWireDupSuppression(t *testing.T) {
	nw, a, b := faultyPair(t, fault.Plan{Seed: 1, DupProb: 1})
	const n = 20
	for i := 0; i < n; i++ {
		a.Send(1, Kind(4), 8, i)
	}
	got, dups := 0, 0
	for i := 0; i < 2*n; i++ { // every send put exactly two copies on the wire
		m := <-b.Inbox()
		if b.WireDup(m) {
			dups++
			continue
		}
		if m.Payload.(int) != got {
			t.Fatalf("message %d arrived out of order (got %d)", got, m.Payload.(int))
		}
		got++
	}
	if got != n {
		t.Fatalf("delivered %d distinct messages, want %d", got, n)
	}
	if dups != n {
		t.Errorf("DupProb=1 delivered %d duplicates for %d messages", dups, n)
	}
	if nw.MsgCount() != 2*n {
		t.Errorf("wire counter %d, want %d (original + duplicate per send)", nw.MsgCount(), 2*n)
	}
}

// TestFaultDeterministicSchedule: the fates are pure functions of (seed,
// link, sequence), so two identical networks must produce identical wire
// statistics and identical per-copy delays.
func TestFaultDeterministicSchedule(t *testing.T) {
	run := func() (int64, int64, simtime.Duration) {
		nw, a, b := faultyPair(t, fault.Plan{Seed: 99, DropProb: 0.3, DupProb: 0.3, DelayProb: 0.5})
		quit := make(chan struct{})
		defer close(quit)
		go echoUntilQuit(b, quit)
		var total simtime.Duration
		for i := 0; i < 100; i++ {
			m := a.Call(1, Kind(6), 32, i)
			total += m.extraDelay
		}
		return nw.MsgCount(), nw.ByteCount(), total
	}
	m1, b1, d1 := run()
	m2, b2, d2 := run()
	if m1 != m2 || b1 != b2 || d1 != d2 {
		t.Errorf("schedules diverge: msgs %d/%d bytes %d/%d delay %v/%v", m1, m2, b1, b2, d1, d2)
	}
}

// TestInboxOverflowPanicNamesCulprit: a full inbox must fail loudly with
// the stuck node, the queue depth and the message kind in the message.
func TestInboxOverflowPanicNamesCulprit(t *testing.T) {
	_, a, _ := faultyPair(t, fault.Plan{})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("overflowing an inbox must panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic payload %T, want string", r)
		}
		for _, want := range []string{"inbox overflow at node 1", "kind 8", "from node 0", "messages queued"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q missing %q", msg, want)
			}
		}
	}()
	for i := 0; i <= DefaultInboxCap; i++ {
		a.Send(1, Kind(8), 8, nil)
	}
}

// TestRetryBackoffCaps: the charged timeout grows exponentially but must
// stop doubling at the cap so late retries stay bounded.
func TestRetryBackoffCaps(t *testing.T) {
	if fault.RTO(1) != fault.DefaultRetryTimeout {
		t.Errorf("first RTO = %v, want base", fault.RTO(1))
	}
	if fault.RTO(2) != 2*fault.DefaultRetryTimeout {
		t.Errorf("second RTO = %v, want doubled base", fault.RTO(2))
	}
	capped := fault.RTO(19)
	if fault.RTO(18) != capped {
		t.Errorf("backoff keeps growing past the cap: %v then %v", fault.RTO(18), capped)
	}
}

// TestTwoSendersOneLink drives one link from two goroutines, the shape
// of an application thread and its node's service loop both calling a
// peer. A copy is numbered and injected under the link's send lock, so
// numbers arrive in order and every request is answered; numbered first
// but injected second, a copy would be discarded as a duplicate and its
// caller would wait forever.
func TestTwoSendersOneLink(t *testing.T) {
	const perSender = 2000
	nw := NewNetwork(2, simtime.DefaultCostModel())
	a := nw.NewEndpoint(0, simtime.NewClock(0))
	b := nw.NewEndpoint(1, simtime.NewClock(0))
	quit := make(chan struct{})
	defer close(quit)
	go func() {
		for {
			select {
			case <-quit:
				return
			case m := <-b.Inbox():
				if !b.WireDup(m) {
					b.ReplyAt(b.ArrivalOf(m), m, Kind(2), 8, m.Payload)
				}
				b.MarkHandled()
			}
		}
	}()
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			clock := simtime.NewClock(0)
			for i := 0; i < perSender; i++ {
				want := s*perSender + i
				m := a.CallAsyncAt(clock.Now(), 1, Kind(1), 8, want).WaitDetached(clock)
				if m.Payload.(int) != want {
					t.Errorf("sender %d call %d answered %v", s, i, m.Payload)
					return
				}
			}
		}(s)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a request on a link shared by two senders was never answered")
	}
}

// TestPartitionCutsSends: a node crashed at start and buried with a
// heal time is cut off from every peer for copies departing inside
// [start, heal). A one-way copy cut there is lost and retransmitted by
// the background ARQ, one RTO later each time, until a copy departs at or
// after the heal; a copy departing at the heal is not cut at all. A
// request copy is cut by the same rule, and the caller's retransmission
// loop charges each RTO to its clock. Links between the other nodes stay
// up, and a self-send is never cut.
func TestPartitionCutsSends(t *testing.T) {
	const start, heal = simtime.Time(1_000_000), simtime.Time(11_000_000)
	bury := func(nw *Network) {
		nw.MarkCrashed(0, start)
		nw.Members().Bury(0, heal)
	}
	nw := NewNetwork(4, simtime.DefaultCostModel())
	ep := make([]*Endpoint, 4)
	for i := range ep {
		ep[i] = nw.NewEndpoint(i, simtime.NewClock(0))
	}
	bury(nw)

	// send puts one copy on from→to at the given departure time and
	// returns the retransmission delay the delivered copy carries, and how
	// many copies went on the wire to deliver it.
	send := func(from, to int, at simtime.Time) (simtime.Duration, int64) {
		t.Helper()
		ep[from].Clock().AdvanceTo(at)
		before := nw.MsgCount()
		ep[from].Send(to, Kind(4), 8, nil)
		m := <-ep[to].Inbox()
		if m.From != from || m.SentAt != at {
			t.Fatalf("%d→%d: got copy from %d sent at %d", from, to, m.From, m.SentAt)
		}
		return m.extraDelay, nw.MsgCount() - before
	}

	// Departing at start+1ms, the first copy and its retry at +4ms are
	// cut; the third copy departs at start+13ms, after the heal.
	inside := start + 1_000_000
	if d, copies := send(0, 1, inside); d != fault.RTO(1)+fault.RTO(2) || copies != 3 {
		t.Errorf("copy from the partitioned node: delay %v over %d copies, want %v over 3",
			d, copies, fault.RTO(1)+fault.RTO(2))
	}
	if inside+simtime.Time(fault.RTO(1)+fault.RTO(2)) < heal {
		t.Fatal("the delivered copy departed before the partition healed")
	}
	if d, copies := send(2, 3, inside); d != 0 || copies != 1 {
		t.Errorf("copy 2→3 between connected nodes: delay %v over %d copies, want 0 over 1", d, copies)
	}
	if d, copies := send(0, 0, inside); d != 0 || copies != 1 {
		t.Errorf("self-send of the partitioned node: delay %v over %d copies, want 0 over 1", d, copies)
	}
	if d, _ := send(3, 0, inside); d == 0 {
		t.Error("copy 3→0 to the partitioned node was not cut")
	}
	if d, copies := send(1, 0, heal); d != 0 || copies != 1 {
		t.Errorf("copy to the partitioned node departing at the heal: delay %v over %d copies, want 0 over 1", d, copies)
	}

	// A request departing at start+1ms: the copies departing then and at
	// +4ms are cut, and the third departs after the heal.
	c := NewNetwork(2, simtime.DefaultCostModel())
	a, b := c.NewEndpoint(0, simtime.NewClock(0)), c.NewEndpoint(1, simtime.NewClock(0))
	bury(c)
	a.Clock().AdvanceTo(inside)
	go func() { // only the copy departing after the heal arrives
		m := <-b.Inbox()
		b.ReplyAt(b.ArrivalOf(m), m, Kind(5), 8, nil)
		b.MarkHandled()
	}()
	r := a.Call(1, Kind(4), 8, nil)
	rtos := simtime.Time(fault.RTO(1) + fault.RTO(2))
	if r.SentAt < inside+rtos || r.SentAt < heal {
		t.Errorf("request answered at %d, want its delivered copy to depart at %d, after the heal %d", r.SentAt, inside+rtos, heal)
	}
	if now := a.Clock().Now(); now < inside+rtos {
		t.Errorf("caller's clock %d after the cut request, want >= %d + RTO(1) + RTO(2)", now, inside)
	}
	if got := c.kindMsgs[4].Load(); got != 3 {
		t.Errorf("%d request copies on the wire, want 3", got)
	}
}
