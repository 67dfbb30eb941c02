package transport

import (
	"math"
	"testing"
	"time"

	"sdsm/internal/simtime"
)

// The fence parks instead of polling, so each input of the bound must
// wake it. One test per input: a fence blocked on exactly that input is
// released by changing it (a lost wake-up hangs the test), and is not
// released by a change that leaves the bound at or below the cutoff.
// Only running nodes bound anything, so the rigs mark their nodes
// running, as core's runner does, unless a test is about nodes nobody
// runs.

const fenceCutoff = simtime.Time(10 * time.Millisecond)

// fenceRig is a network whose node 0 fences at fenceCutoff. Every other
// node's clock starts past the cutoff (its predicate holds) unless the
// test lowers it.
type fenceRig struct {
	t   *testing.T
	nw  *Network
	eps []*Endpoint
}

func newFenceRig(t *testing.T, n int, lagging ...int) *fenceRig {
	t.Helper()
	r := &fenceRig{t: t, nw: NewNetwork(n, simtime.DefaultCostModel())}
	for i := 0; i < n; i++ {
		start := 2 * fenceCutoff
		for _, l := range lagging {
			if l == i {
				start = 0
			}
		}
		r.eps = append(r.eps, r.nw.NewEndpoint(i, simtime.NewClock(start)))
	}
	return r
}

// run marks nodes as running a program (Network.SetRunning).
func (r *fenceRig) run(ids ...int) {
	for _, id := range ids {
		r.nw.SetRunning(id, true)
	}
}

func (r *fenceRig) transit() simtime.Time { return simtime.Time(r.nw.Model().NetLatency) }

// fence starts node 0's fence and returns the channel closed when it
// comes back.
func (r *fenceRig) fence() <-chan struct{} {
	done := make(chan struct{})
	go func() {
		r.eps[0].FenceArrivalsBefore(fenceCutoff)
		close(done)
	}()
	return done
}

// blocked asserts the fence has not come back. The wait also gives the
// fence time to leave its yield phase and park.
func (r *fenceRig) blocked(done <-chan struct{}, when string) {
	r.t.Helper()
	select {
	case <-done:
		r.t.Fatalf("fence passed %s", when)
	case <-time.After(10 * time.Millisecond):
	}
}

func (r *fenceRig) released(done <-chan struct{}, by string) {
	r.t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		r.t.Fatalf("fence not woken by %s", by)
	}
}

func TestFenceWokenByPeerClock(t *testing.T) {
	r := newFenceRig(t, 3, 1)
	r.run(0, 1, 2)
	done := r.fence()
	r.blocked(done, "with a peer's clock at zero")
	// Exactly cutoff-transit is not past it: a send leaving now would
	// still arrive at the cutoff.
	r.eps[1].Clock().AdvanceTo(fenceCutoff - r.transit())
	r.blocked(done, "with a peer's clock at the threshold, not past it")
	r.eps[1].Clock().Advance(1)
	r.released(done, "the peer's clock passing cutoff - transit")
}

// A running peer that waits unanswered at the decider passes once the
// published decided bound D puts its answer past the cutoff:
// D + MsgHandling + transit > cutoff. The peer's clock never moves and
// nothing else changes, so the wake can only come from PublishDecided.
// While D falls short, each read of the bound asks the decider for a
// fresh D through its horizon wake.
func TestFenceWokenByDecidedBound(t *testing.T) {
	r := newFenceRig(t, 3, 1)
	r.run(0, 1, 2)
	decider := r.eps[2]
	awaiting := func(node int) bool { return node == 1 }
	threshold := fenceCutoff - simtime.Time(r.nw.Model().MsgHandling) - r.transit()
	done := r.fence()
	r.blocked(done, "with a running peer's clock at zero")
	decider.PublishDecided(threshold-r.transit(), awaiting)
	r.blocked(done, "with the peer awaiting below the decided threshold")
	select {
	case <-decider.HorizonWake():
	default:
	}
	decider.PublishDecided(threshold, awaiting)
	r.blocked(done, "with the decided bound at the threshold, not past it")
	select {
	case <-decider.HorizonWake():
	case <-time.After(5 * time.Second):
		t.Fatal("a fence held by a waiting peer with D short did not poke the decider")
	}
	decider.PublishDecided(threshold+1, awaiting)
	r.released(done, "PublishDecided raising the bound past the threshold")
}

// A running peer with a low clock, not waiting at the decider, holds a
// running fencer until its clock passes cutoff - transit.
func TestFenceHeldByRunningPeerClock(t *testing.T) {
	r := newFenceRig(t, 3, 1)
	r.run(0, 1, 2)
	done := r.fence()
	r.blocked(done, "with a running peer's clock at zero")
	r.eps[1].Clock().AdvanceTo(fenceCutoff - r.transit())
	r.blocked(done, "with the running peer's clock at the threshold")
	r.eps[1].Clock().Advance(1)
	r.released(done, "the running peer's clock passing cutoff - transit")
}

// A peer whose program has returned never holds a running fencer, however
// low its clock: it sends nothing more. What it sent before it finished is
// still waited for by the drain phase.
func TestFenceSkipsFinishedPeer(t *testing.T) {
	r := newFenceRig(t, 3, 1)
	r.run(0, 2)
	r.released(r.fence(), "nothing: a finished peer at clock zero held the fence")

	r.run(1)
	done := r.fence()
	r.blocked(done, "with the lagging peer running")
	r.nw.SetRunning(1, false)
	r.released(done, "SetRunning marking the peer finished")

	r.run(1)
	done = r.fence()
	r.blocked(done, "with the lagging peer running again")
	r.eps[1].Send(0, Kind(1), 8, nil)
	r.nw.SetRunning(1, false)
	r.blocked(done, "with the finished peer's last message unhandled")
	<-r.eps[0].Inbox()
	r.eps[0].MarkHandled()
	r.released(done, "MarkHandled after the peer finished")
}

func TestFenceWokenByCrashMark(t *testing.T) {
	r := newFenceRig(t, 3, 1)
	r.run(0, 1, 2)
	done := r.fence()
	r.blocked(done, "with a live peer's clock at zero")
	r.eps[1].MarkCrashed(0)
	r.released(done, "the peer's crash mark")
}

func TestFenceWokenByReincarnation(t *testing.T) {
	r := newFenceRig(t, 3, 1)
	r.run(0, 1, 2)
	done := r.fence()
	r.blocked(done, "watching the first incarnation's clock")
	// The recovered incarnation attaches with a clock of its own; the old
	// one never moves again.
	r.nw.NewEndpoint(1, simtime.NewClock(2*fenceCutoff))
	r.released(done, "the peer's clock being replaced")
}

func TestFenceWokenByMarkHandled(t *testing.T) {
	r := newFenceRig(t, 2)
	const burst = 3
	for i := 0; i < burst; i++ {
		r.eps[1].Send(0, Kind(1), 8, i)
	}
	done := r.fence()
	r.blocked(done, "with the inbox unhandled")
	for i := 0; i < burst; i++ {
		if i == burst-1 {
			r.blocked(done, "one message short of drained")
		}
		<-r.eps[0].Inbox()
		r.eps[0].MarkHandled()
	}
	r.released(done, "MarkHandled draining the inbox")
}

// A fencer in a cluster nobody marks running (bare hlrc clusters, the
// benchmark's probes) is bounded by no clock, however low: it returns
// once its inbox has drained, and not before.
func TestFenceBareClusterWaitsForDrainOnly(t *testing.T) {
	r := newFenceRig(t, 3, 1, 2)
	r.released(r.fence(), "nothing: an idle peer's clock held a bare fencer")
	r.eps[1].Send(0, Kind(1), 8, nil)
	done := r.fence()
	r.blocked(done, "with a message unhandled")
	<-r.eps[0].Inbox()
	r.eps[0].MarkHandled()
	r.released(done, "MarkHandled draining the inbox")
}

// The bound is below every arrival while the inbox is not drained, even
// when every running node is quiet and so bounds nothing.
func TestHorizonUndrainedWhenAllQuiet(t *testing.T) {
	r := newFenceRig(t, 2)
	r.run(0, 1)
	all := func(int) bool { return true }
	r.eps[1].Send(0, Kind(1), 8, nil)
	if h, low := r.eps[0].Horizon(all); h != noHorizon || low != -1 {
		t.Fatalf("undrained inbox: Horizon = %v, %d; want noHorizon, -1", h, low)
	}
	<-r.eps[0].Inbox()
	r.eps[0].MarkHandled()
	if h, low := r.eps[0].Horizon(all); h != math.MaxInt64 || low != -1 {
		t.Fatalf("drained inbox, all quiet: Horizon = %v, %d; want MaxInt64, -1", h, low)
	}
}
