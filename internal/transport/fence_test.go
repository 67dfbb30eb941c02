package transport

import (
	"testing"
	"time"

	"sdsm/internal/simtime"
)

// The fence parks instead of polling, so each input of its predicates
// must wake it. One test per input: a fence blocked on exactly that
// input is released by changing it (a lost wake-up hangs the test), and
// is not released by a change that leaves the predicate false.

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

func (r *fenceRig) transit() simtime.Time { return simtime.Time(r.nw.Model().NetLatency) }

// fence starts node 0's fence and returns the channel closed when it
// comes back.
func (r *fenceRig) fence(gatedByMe func(peer int, tag int64) bool) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		r.eps[0].FenceArrivalsBefore(fenceCutoff, gatedByMe)
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
	done := r.fence(nil)
	r.blocked(done, "with a peer's clock at zero")
	// Exactly cutoff-transit is not past it: a send leaving now would
	// still arrive at the cutoff.
	r.eps[1].Clock().AdvanceTo(fenceCutoff - r.transit())
	r.blocked(done, "with a peer's clock at the threshold, not past it")
	r.eps[1].Clock().Advance(1)
	r.released(done, "the peer's clock passing cutoff - transit")
}

func TestFenceWokenByHolderClock(t *testing.T) {
	r := newFenceRig(t, 3, 1, 2)
	r.eps[2].PublishLockHeld(7)
	r.eps[1].BeginSyncWait(0, LockTag(7))
	done := r.fence(nil)
	r.blocked(done, "with the parked peer's lock holder at clock zero")
	r.eps[2].Clock().AdvanceTo(fenceCutoff - 3*r.transit())
	r.blocked(done, "with the holder's clock at the threshold, not past it")
	// Past cutoff - 3*transit bounds the parked peer; the holder's own
	// turn in the fence then needs it past cutoff - transit.
	r.eps[2].Clock().AdvanceTo(fenceCutoff)
	r.released(done, "the holder's clock passing cutoff - 3*transit")
}

func TestFenceWokenByEndSyncWait(t *testing.T) {
	r := newFenceRig(t, 3)
	r.eps[1].BeginSyncWait(0, LockTag(7)) // early stamp, no published holder
	done := r.fence(nil)
	r.blocked(done, "with a peer parked early on an unheld lock")
	r.eps[1].EndSyncWait() // its clock is past the cutoff
	r.released(done, "EndSyncWait")
}

func TestFenceWokenByReparkWithLaterStamp(t *testing.T) {
	r := newFenceRig(t, 3)
	r.eps[1].BeginSyncWait(0, LockTag(7))
	done := r.fence(nil)
	r.blocked(done, "with a peer parked early on an unheld lock")
	r.eps[1].BeginSyncWait(fenceCutoff-2*r.transit(), LockTag(7))
	r.blocked(done, "with the re-park stamped exactly 2*transit before the cutoff")
	r.eps[1].BeginSyncWait(fenceCutoff-2*r.transit()+1, LockTag(7))
	r.released(done, "a re-park stamped within 2*transit of the cutoff")
}

// A holder whose clock lags hands the lock to one whose clock is past
// the bound: the fence must drop its watch on the old holder's clock at
// ClearLockHeld and take the new holder at PublishLockHeld.
func TestFenceWokenByHolderHandoff(t *testing.T) {
	r := newFenceRig(t, 4, 2)
	r.eps[2].PublishLockHeld(7)
	r.eps[1].BeginSyncWait(0, LockTag(7))
	done := r.fence(nil)
	r.blocked(done, "with the lock held by a node at clock zero")
	r.eps[2].ClearLockHeld(7)
	r.blocked(done, "with the lock held by nobody")
	r.eps[3].PublishLockHeld(7)
	r.blocked(done, "before the old holder's own clock is past the cutoff")
	r.eps[2].Clock().AdvanceTo(fenceCutoff)
	r.released(done, "ClearLockHeld and PublishLockHeld by a holder past the bound")
}

func TestFenceWokenByCrashMark(t *testing.T) {
	r := newFenceRig(t, 3, 1)
	done := r.fence(nil)
	r.blocked(done, "with a live peer's clock at zero")
	r.eps[1].MarkCrashed(0)
	r.released(done, "the peer's crash mark")
}

func TestFenceWokenByReincarnation(t *testing.T) {
	r := newFenceRig(t, 3, 1)
	done := r.fence(nil)
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
	done := r.fence(nil)
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
