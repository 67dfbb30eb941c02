package tcp

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sdsm/internal/fault"
	"sdsm/internal/simtime"
	"sdsm/internal/transport"
)

// newFabricNet builds a network with the TCP fabric installed.
func newFabricNet(t *testing.T, n int, opts Options) (*transport.Network, *Fabric) {
	t.Helper()
	nw := transport.NewNetwork(n, simtime.DefaultCostModel())
	if opts.Payloads == nil {
		opts.Payloads = []any{&testPayload{}}
	}
	fab, err := New(nw, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	nw.SetFabric(fab)
	t.Cleanup(func() { fab.Close() })
	return nw, fab
}

func TestFabricSendReceive(t *testing.T) {
	nw, fab := newFabricNet(t, 2, Options{})
	a := nw.NewEndpoint(0, simtime.NewClock(0))
	b := nw.NewEndpoint(1, simtime.NewClock(0))
	a.Clock().Advance(time.Millisecond)
	sent := &testPayload{A: 42, B: "over the wire"}
	a.Send(1, transport.Kind(7), sent.WireSize(), sent)
	m := <-b.Inbox()
	if m.From != 0 || m.To != 1 || m.Kind != 7 {
		t.Fatalf("message = %+v", m)
	}
	p, ok := m.Payload.(*testPayload)
	if !ok || p.A != 42 || p.B != "over the wire" {
		t.Fatalf("payload = %#v", m.Payload)
	}
	if m.SentAt != simtime.Time(time.Millisecond) {
		t.Fatalf("SentAt lost in transit: %v", m.SentAt)
	}
	b.Arrive(m)
	min := m.SentAt + simtime.Time(nw.Model().MsgTime(sent.WireSize()))
	if b.Clock().Now() < min {
		t.Fatalf("receiver clock %v < causal minimum %v", b.Clock().Now(), min)
	}
	if s := fab.Stats(); s.Frames != 1 || s.WireBytes == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFabricSelfSendBypasses(t *testing.T) {
	nw, fab := newFabricNet(t, 2, Options{})
	a := nw.NewEndpoint(0, simtime.NewClock(0))
	// A self payload type deliberately without a wire codec: it must
	// never touch one.
	type local struct{ ch chan int }
	a.Send(0, transport.Kind(1), 10, &local{ch: make(chan int)})
	m := <-a.Inbox()
	if _, ok := m.Payload.(*local); !ok {
		t.Fatalf("self payload = %#v", m.Payload)
	}
	if s := fab.Stats(); s.Frames != 0 {
		t.Fatalf("self send crossed the fabric: %+v", s)
	}
}

func TestFabricCallReply(t *testing.T) {
	nw, _ := newFabricNet(t, 2, Options{})
	a := nw.NewEndpoint(0, simtime.NewClock(0))
	b := nw.NewEndpoint(1, simtime.NewClock(0))
	req, page := &testPayload{A: 1}, &testPayload{Data: []byte("page")}
	done := make(chan struct{})
	go func() {
		defer close(done)
		m := <-b.Inbox()
		b.Arrive(m)
		if !m.WantsReply() {
			t.Error("request lost its reply binding in transit")
			return
		}
		b.Reply(m, transport.Kind(2), page.WireSize(), page)
	}()
	resp := a.Call(1, transport.Kind(1), req.WireSize(), req)
	<-done
	p, ok := resp.Payload.(*testPayload)
	if resp.Kind != 2 || !ok || string(p.Data) != "page" {
		t.Fatalf("resp = %+v", resp)
	}
	min := simtime.Time(nw.Model().RoundTrip(req.WireSize(), page.WireSize()))
	if a.Clock().Now() < min {
		t.Fatalf("caller clock %v < round trip %v", a.Clock().Now(), min)
	}
}

// TestFabricFence sends a burst of one-way messages and fences: the
// delivered counter is incremented before a copy enters the fabric, so
// the fence must not pass until every in-flight frame has crossed the
// socket and been handled.
func TestFabricFence(t *testing.T) {
	const burst = 400
	nw, _ := newFabricNet(t, 2, Options{})
	a := nw.NewEndpoint(0, simtime.NewClock(0))
	b := nw.NewEndpoint(1, simtime.NewClock(0))
	var handled atomic.Int64
	go func() {
		for m := range b.Inbox() {
			_ = m
			handled.Add(1)
			b.MarkHandled()
		}
	}()
	for i := 0; i < burst; i++ {
		p := &testPayload{A: int32(i)}
		a.Send(1, transport.Kind(3), p.WireSize(), p)
	}
	b.FenceArrivalsBefore(1, nil)
	if got := handled.Load(); got != burst {
		t.Fatalf("fence passed with %d of %d messages handled", got, burst)
	}
}

// TestFabricReconnect breaks every established connection under live
// links and verifies traffic resumes over fresh ones.
func TestFabricReconnect(t *testing.T) {
	nw, fab := newFabricNet(t, 2, Options{})
	a := nw.NewEndpoint(0, simtime.NewClock(0))
	b := nw.NewEndpoint(1, simtime.NewClock(0))
	send := func(p *testPayload) { a.Send(1, transport.Kind(1), p.WireSize(), p) }
	send(&testPayload{A: 1})
	<-b.Inbox()
	// Sever both sides of the established link.
	fab.link(0, 1).closeConn()
	fab.cmu.Lock()
	for c := range fab.conns {
		c.Close()
	}
	fab.cmu.Unlock()
	send(&testPayload{A: 2})
	m := <-b.Inbox()
	if p := m.Payload.(*testPayload); p.A != 2 {
		t.Fatalf("payload after reconnect = %+v", p)
	}
	if s := fab.Stats(); s.Reconnects < 1 {
		t.Fatalf("no reconnect counted: %+v", s)
	}
}

// TestFabricCoalescesQueuedFrames: all messages of a burst arrive, and
// coalescing packs the queued frames into fewer batches. The burst is
// queued while the test holds the link's connection mutex, so the
// writer's first batch cannot reach the wire (its dial blocks) until
// every later frame is already waiting in the queue: coalescing does not
// depend on who wins a race. (The burst, ≈ 250 KB, stays under
// linkQueueBytes, so queueing it never waits for the blocked writer.)
func TestFabricCoalescesQueuedFrames(t *testing.T) {
	const burst = 60
	nw, fab := newFabricNet(t, 2, Options{})
	a := nw.NewEndpoint(0, simtime.NewClock(0))
	b := nw.NewEndpoint(1, simtime.NewClock(0))
	got := make(chan transport.Message, burst)
	go func() {
		for m := range b.Inbox() {
			got <- m
			b.MarkHandled()
		}
	}()
	l := fab.link(0, 1)
	l.mu.Lock()
	for i := 0; i < burst; i++ {
		p := &testPayload{A: int32(i), Data: make([]byte, 4096)}
		a.Send(1, transport.Kind(5), p.WireSize(), p)
	}
	l.mu.Unlock()
	for i := 0; i < burst; i++ {
		select {
		case <-got:
		case <-time.After(10 * time.Second):
			t.Fatalf("message %d never arrived", i)
		}
	}
	s := fab.Stats()
	if s.Frames != burst {
		t.Fatalf("frames = %d, want %d", s.Frames, burst)
	}
	// At most the first batch was composed before the burst was queued;
	// from the second on, a batch takes every queued frame up to the
	// coalescing bounds (15 of these frames fill coalesceBytes).
	if maxBatches := int64(1 + (burst-1+14)/15); s.Batches > maxBatches {
		t.Fatalf("no coalescing: %d batches for %d frames, want <= %d", s.Batches, s.Frames, maxBatches)
	}
}

// TestFabricSizeMismatchFailsLoudly: the send path refuses a frame whose
// payload does not encode to the size the cost model charged, naming the
// kind — the two halves of a payload's codec have come apart.
func TestFabricSizeMismatchFailsLoudly(t *testing.T) {
	_, fab := newFabricNet(t, 2, Options{})
	p := &testPayload{A: 1, B: "abc"}
	l := fab.link(0, 1)
	l.appendChecked(nil, &Frame{Type: frameMsg, To: 1, Kind: 9, Size: int32(p.WireSize()), Payload: p})
	for _, f := range []*Frame{
		{Type: frameMsg, To: 1, Kind: 9, Size: int32(p.WireSize() + 1), Payload: p},
		{Type: frameMsg, To: 1, Kind: 9, Size: 8}, // accounted bytes, nothing encoded
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "kind 9") || !strings.Contains(msg, "accounted") {
					t.Errorf("size mismatch (size %d): panic %q does not name the kind", f.Size, msg)
				}
			}()
			l.appendChecked(nil, f)
		}()
	}
}

func TestFabricWireDupAfterRetransmit(t *testing.T) {
	// A batch retransmitted after a broken write may redeliver frames the
	// peer already read; the endpoint's wire-sequence check must discard
	// them. Simulate by injecting the same framed copy twice at the
	// decode layer: same Seq → second copy is a duplicate.
	nw, fab := newFabricNet(t, 2, Options{})
	a := nw.NewEndpoint(0, simtime.NewClock(0))
	b := nw.NewEndpoint(1, simtime.NewClock(0))
	p := &testPayload{A: 5}
	a.Send(1, transport.Kind(1), p.WireSize(), p)
	m1 := <-b.Inbox()
	// Re-inject the decoded copy as a redelivery would.
	f := &Frame{Type: frameMsg, From: 0, To: 1, Kind: 1, Seq: m1.Seq, SentAt: int64(m1.SentAt),
		Size: 10, Payload: m1.Payload}
	fab.receive(f)
	m2 := <-b.Inbox()
	if b.WireDup(m1) {
		t.Fatal("first copy flagged as duplicate")
	}
	if !b.WireDup(m2) {
		t.Fatal("redelivered copy not flagged as duplicate")
	}
}

// goroutinesSettle polls until the process runs want goroutines or a
// deadline passes, and returns the last count: goroutines that have been
// told to exit take a moment to do so.
func goroutinesSettle(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() != want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// goroutinesSteady returns the goroutine count once it has held still for
// 50 ms: goroutines an earlier test stopped may still be exiting, and a
// baseline sampled while they do is too high.
func goroutinesSteady() int {
	deadline := time.Now().Add(5 * time.Second)
	n, since := runtime.NumGoroutine(), time.Now()
	for time.Since(since) < 50*time.Millisecond && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, since = m, time.Now()
		}
	}
	return n
}

// TestFabricGoroutinesFixedUnderReplyLoss: the fabric runs a fixed set
// of goroutines — one per listener, one writer per link, one reader per
// accepted connection — however many requests it carries and however
// many of their replies the fault plan drops (a dropped reply leaves
// nothing behind on either side), and Close stops all of them.
func TestFabricGoroutinesFixedUnderReplyLoss(t *testing.T) {
	for _, calls := range []int{100, 2000} {
		base := goroutinesSteady()
		nw := transport.NewNetwork(2, simtime.DefaultCostModel())
		nw.SetFaultPlan(fault.Plan{Seed: 1, DropProb: 0.2})
		fab, err := New(nw, Options{Payloads: []any{&testPayload{}}})
		if err != nil {
			t.Fatal(err)
		}
		nw.SetFabric(fab)
		a := nw.NewEndpoint(0, simtime.NewClock(0))
		b := nw.NewEndpoint(1, simtime.NewClock(0))
		quit, served := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(served)
			for {
				select {
				case m := <-b.Inbox():
					if !b.WireDup(m) {
						b.ReplyAt(b.ArrivalOf(m), m, transport.Kind(2), m.Size, m.Payload)
					}
					b.MarkHandled()
				case <-quit:
					return
				}
			}
		}()
		for i := 0; i < calls; i++ {
			p := &testPayload{A: int32(i)}
			if m := a.Call(1, transport.Kind(1), p.WireSize(), p); m.Payload.(*testPayload).A != int32(i) {
				t.Fatalf("call %d answered %+v", i, m.Payload)
			}
		}
		// 2 listeners + 2 link writers + 2 readers, and the echo server.
		if want, got := base+2+2+2+1, goroutinesSettle(base+7); got != want {
			t.Errorf("%d calls under reply loss: %d goroutines, want %d", calls, got, want)
		}
		close(quit)
		<-served
		fab.Close()
		if got := goroutinesSettle(base); got != base {
			t.Errorf("%d calls: %d goroutines after Close, want the %d before New", calls, got, base)
		}
	}
}
