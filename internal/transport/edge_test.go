package transport

import (
	"testing"
	"time"

	"sdsm/internal/simtime"
)

// TestFenceEmptyInbox exercises FenceArrivalsBefore on a node that has
// never received a message: with zero deliveries the inbox is drained,
// and in a cluster nobody marks running no clock bounds the fence — an
// empty inbox must never turn the fence into a hang.
func TestFenceEmptyInbox(t *testing.T) {
	nw := NewNetwork(3, simtime.DefaultCostModel())
	a := nw.NewEndpoint(0, simtime.NewClock(0))
	b := nw.NewEndpoint(1, simtime.NewClock(0))
	c := nw.NewEndpoint(2, simtime.NewClock(0))

	fence := func(cutoff simtime.Time) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			a.FenceArrivalsBefore(cutoff)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("FenceArrivalsBefore(%v) hung on an empty inbox", cutoff)
		}
	}

	// Cutoff at the epoch: no peer can have sent anything arriving at or
	// before it, so the fence returns with all clocks still at zero.
	fence(0)

	// A future cutoff with peers beyond it.
	cutoff := simtime.Time(1_000_000)
	b.Clock().Advance(simtime.Duration(cutoff) * 2)
	c.Clock().Advance(simtime.Duration(cutoff) * 2)
	fence(cutoff)

	// The counters a drained empty inbox leaves behind: nothing
	// delivered, nothing handled.
	if d, h := nw.delivered[a.ID()].Load(), nw.handled[a.ID()].Load(); d != 0 || h != 0 {
		t.Fatalf("empty-inbox fence saw delivered=%d handled=%d", d, h)
	}
}
