package transport

import (
	"fmt"
	"sync/atomic"

	"sdsm/internal/simtime"
)

// Membership is the cluster's membership (online recovery, DESIGN.md
// §2.9 and §2.13): events go in (Network.MarkCrashed, Bury, Rejoin,
// Adopt), decisions come out (Crashed, Serving, Stale, View, Cut). It
// holds atomics and close-once channels only; the network doubles as the
// membership service that owns it, the simulator shortcut for an
// external one.
//
// failedAt[i] holds the virtual time + 1 of node i's first fail-stop and
// is never cleared: the ground truth of node death, which the protocol
// may act on only after the victim's lease has expired, and the key of
// the permanent home migration. down[i] is closed when it is set.
// epoch is the cluster epoch, bumped by every burial and every rejoin.
// buried[i] is the epoch of node i's latest burial (0 = never); it
// survives rejoin, so the buried incarnation's traffic stays fenceable.
// heal[i] is the virtual time at which the partition that got node i
// buried heals, and anyBuried is set by the first burial.
// view[i] is node i's last-adopted epoch, stamped on its messages.
type Membership struct {
	failedAt  []atomic.Int64
	down      []chan struct{}
	epoch     atomic.Int64
	buried    []atomic.Int64
	heal      []atomic.Int64
	anyBuried atomic.Bool
	view      []atomic.Int64
}

func newMembership(n int) *Membership {
	ms := &Membership{
		failedAt: make([]atomic.Int64, n),
		down:     make([]chan struct{}, n),
		buried:   make([]atomic.Int64, n),
		heal:     make([]atomic.Int64, n),
		view:     make([]atomic.Int64, n),
	}
	ms.epoch.Store(1)
	for i := range ms.view {
		ms.view[i].Store(1)
		ms.down[i] = make(chan struct{})
	}
	return ms
}

// crash records node id's fail-stop at virtual time at; only the first
// one counts.
func (ms *Membership) crash(id int, at simtime.Time) {
	if ms.failedAt[id].CompareAndSwap(0, int64(at)+1) {
		close(ms.down[id])
	}
}

// Crashed reports whether node id has ever fail-stopped (even if its
// recovered incarnation has since rejoined) and, if so, the virtual time
// of its first fail-stop. It never reverts, so routing keyed off it is
// stable.
func (ms *Membership) Crashed(id int) (simtime.Time, bool) {
	v := ms.failedAt[id].Load()
	if v == 0 {
		return 0, false
	}
	return simtime.Time(v - 1), true
}

// Serving returns the node serving node h's home pages: h while it has
// never crashed, else the next node id (mod N) that has never crashed.
// Every node computes the same answer.
func (ms *Membership) Serving(h int) int {
	n := len(ms.failedAt)
	for i := 0; i < n; i++ {
		if c := (h + i) % n; ms.failedAt[c].Load() == 0 {
			return c
		}
	}
	panic(fmt.Sprintf("transport: every node has crashed, none serves node %d's homes", h))
}

// Bury declares node id dead: it bumps the epoch and records the new one,
// which it returns, as id's burial epoch, beside heal, the virtual time
// at which id's partition heals (see Cut). id's own view is left behind
// on purpose: a node buried while merely partitioned keeps stamping it,
// so everything it sends afterwards is stale.
func (ms *Membership) Bury(id int, heal simtime.Time) int64 {
	ms.heal[id].Store(int64(heal))
	e := ms.epoch.Add(1)
	ms.buried[id].Store(e)
	ms.anyBuried.Store(true)
	return e
}

// Cut reports whether the link from→to is severed at virtual time at:
// either end is buried and at lies in [its fail-stop time, its heal).
// The window is a pure function of virtual time, so cut decisions replay
// identically whichever goroutine asks.
func (ms *Membership) Cut(from, to int, at simtime.Time) bool {
	return ms.partitioned(from, at) || ms.partitioned(to, at)
}

// partitioned reports whether node id is cut off at virtual time at.
func (ms *Membership) partitioned(id int, at simtime.Time) bool {
	if ms.buried[id].Load() == 0 {
		return false
	}
	tc, ok := ms.Crashed(id)
	return ok && at >= tc && at < simtime.Time(ms.heal[id].Load())
}

// Rejoin bumps the epoch and admits node id at the new one, which it
// returns: its view jumps past its burial epoch, so its recovered
// incarnation's messages are fresh, while the burial epoch keeps fencing
// whatever the buried incarnation still has in flight.
func (ms *Membership) Rejoin(id int) int64 {
	e := ms.epoch.Add(1)
	ms.view[id].Store(e)
	return e
}

// Adopt raises node id's view to at least epoch (monotone), as when a
// membership message carries a newer one, and reports whether this call
// advanced it.
func (ms *Membership) Adopt(id int, epoch int64) bool {
	view := &ms.view[id]
	for {
		v := view.Load()
		if v >= epoch {
			return false
		}
		if view.CompareAndSwap(v, epoch) {
			return true
		}
	}
}

// View returns node id's epoch view, the epoch stamped on its messages.
func (ms *Membership) View(id int) int64 { return ms.view[id].Load() }

// Stale reports whether a message node from stamped with epoch was sent
// by an incarnation the cluster has since buried, and returns from's
// burial epoch (0 if it was never buried, when nothing is stale).
func (ms *Membership) Stale(from int, epoch int64) (buried int64, stale bool) {
	b := ms.buried[from].Load()
	return b, epoch < b
}
