package transport

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"sdsm/internal/racedetect"
	"sdsm/internal/simtime"
)

// linkOrder checks what a consumer takes from an inbox: under a zero fault
// plan no copy is a wire duplicate, and each sender's payloads (ints
// counting up from zero) arrive in send order.
type linkOrder struct {
	t    *testing.T
	ep   *Endpoint
	next map[int]int
}

func (o *linkOrder) take(m Message) {
	o.t.Helper()
	if o.ep.WireDup(m) {
		o.t.Errorf("WireDup fired on seq %d from node %d with no fault plan", m.Seq, m.From)
	}
	if got := m.Payload.(int); got != o.next[m.From] {
		o.t.Errorf("from node %d: got message %d, want %d", m.From, got, o.next[m.From])
	}
	o.next[m.From]++
	o.ep.MarkHandled()
}

// TestInboxWindowSpillWindowKeepsLinkOrder drives one inbox from several
// senders at once through a whole cycle: the window fills while the
// consumer is held, everything after that spills, the consumer drains both
// while the senders keep sending, and once the spill is empty deliveries
// go straight to the window again. Every link must come out in send order.
func TestInboxWindowSpillWindowKeepsLinkOrder(t *testing.T) {
	const senders, perPhase = 4, 3 * inboxWindow
	nw := NewNetwork(senders+1, simtime.DefaultCostModel())
	dst := nw.NewEndpoint(senders, simtime.NewClock(0))
	eps := make([]*Endpoint, senders)
	for i := range eps {
		eps[i] = nw.NewEndpoint(i, simtime.NewClock(0))
	}
	burst := func(phase int) {
		var wg sync.WaitGroup
		for _, ep := range eps {
			wg.Add(1)
			go func(ep *Endpoint) {
				defer wg.Done()
				for i := 0; i < perPhase; i++ {
					ep.Send(senders, Kind(1), 8, phase*perPhase+i)
				}
			}(ep)
		}
		wg.Wait()
	}
	ib := &nw.inboxes[senders]

	burst(0) // nobody receives: the window fills, the rest spills
	if window, spill := ib.depth(); window != inboxWindow || spill != senders*perPhase-inboxWindow {
		t.Fatalf("held inbox: window %d + spill %d, want %d + %d",
			window, spill, inboxWindow, senders*perPhase-inboxWindow)
	}

	order := &linkOrder{t: t, ep: dst, next: make(map[int]int)}
	sent := make(chan struct{})
	go func() { burst(1); close(sent) }() // sends race the drain
	for taken := 0; taken < 2*senders*perPhase; taken++ {
		order.take(<-dst.Inbox())
	}
	<-sent
	if window, spill := ib.depth(); window != 0 || spill != 0 {
		t.Fatalf("drained inbox still holds window %d + spill %d", window, spill)
	}

	burst(2) // the spill is empty again: deliveries reach the window directly until it is full
	if window, spill := ib.depth(); spill == 0 || window != inboxWindow {
		t.Fatalf("refilled inbox: window %d + spill %d", window, spill)
	}
	for taken := 0; taken < senders*perPhase; taken++ {
		order.take(<-dst.Inbox())
	}
	for from, n := range order.next {
		if n != 3*perPhase {
			t.Errorf("node %d: %d messages arrived, want %d", from, n, 3*perPhase)
		}
	}
	if got, want := nw.handled[senders].Load(), nw.delivered[senders].Load(); got != want {
		t.Errorf("handled %d of %d delivered", got, want)
	}
}

// TestInboxBacklogSurvivesConsumerRestart: a consumer stops (a crashed
// node's service loop) with more than a window queued and more arriving
// while nobody receives; the next consumer — a fresh endpoint, as a
// reincarnation has — drains all of it, in order.
func TestInboxBacklogSurvivesConsumerRestart(t *testing.T) {
	const before, during = 2 * inboxWindow, 3 * inboxWindow
	nw := NewNetwork(2, simtime.DefaultCostModel())
	a := nw.NewEndpoint(0, simtime.NewClock(0))
	b := nw.NewEndpoint(1, simtime.NewClock(0))
	for i := 0; i < before; i++ {
		a.Send(1, Kind(1), 8, i)
	}
	first := &linkOrder{t: t, ep: b, next: make(map[int]int)}
	const taken = 10
	for i := 0; i < taken; i++ {
		first.take(<-b.Inbox())
	}
	for i := 0; i < during; i++ { // the consumer is gone
		a.Send(1, Kind(1), 8, before+i)
	}
	if window, spill := nw.inboxes[1].depth(); window+spill != before+during-taken {
		t.Fatalf("backlog is window %d + spill %d, want %d in all", window, spill, before+during-taken)
	}

	reborn := nw.NewEndpoint(1, simtime.NewClock(0))
	next := &linkOrder{t: t, ep: reborn, next: map[int]int{0: taken}}
	for i := taken; i < before+during; i++ {
		next.take(<-reborn.Inbox())
	}
	select {
	case m := <-reborn.Inbox():
		t.Fatalf("inbox holds an extra message %v", m.Payload)
	default:
	}
	if window, spill := nw.inboxes[1].depth(); window+spill != 0 {
		t.Fatalf("drained backlog leaves window %d + spill %d", window, spill)
	}
}

// The overflow diagnostic reports where the queue sits.
func TestInboxOverflowPanicReportsWindowAndSpill(t *testing.T) {
	nw := NewNetwork(2, simtime.DefaultCostModel())
	a := nw.NewEndpoint(0, simtime.NewClock(0))
	defer func() {
		msg, _ := recover().(string)
		for _, want := range []string{"16384 messages queued", "window 128", "spill 16256"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q missing %q", msg, want)
			}
		}
	}()
	for i := 0; i <= DefaultInboxCap; i++ {
		a.Send(1, Kind(8), 8, nil)
	}
}

// A network costs its windows, not a worst-case queue per node.
func TestNewNetworkAllocatesWindowsOnly(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// The least of a few trials: TotalAlloc is process-wide, and a
	// collection starting mid-measurement adds a few KB of its own.
	least := ^uint64(0)
	for trial := 0; trial < 5; trial++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		nw := NewNetwork(8, simtime.DefaultCostModel())
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(nw)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	if least >= 256<<10 {
		t.Fatalf("NewNetwork(8) allocated %d bytes, want < 256 KB", least)
	}
	t.Logf("NewNetwork(8) allocates %d bytes", least)
}
