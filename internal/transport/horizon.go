package transport

import (
	"math"
	"runtime"

	"sdsm/internal/simtime"
)

// The bound: a virtual arrival time below which a node has handled every
// message it will ever be sent. It has two readers. The node that decides
// some of its traffic in virtual arrival order (the lock and barrier
// manager, internal/hlrc) holds each such message until the bound passes
// it, and CCL's release flush waits for the bound to pass its cutoff
// (FenceArrivalsBefore). Every message leaves its sender's application
// goroutine stamped with that node's clock and arrives at least one
// NetLatency later (a self-addressed copy arrives when it departs), so a
// node whose application is running bounds the arrival of anything it
// has yet to send by its clock plus that latency. The bound is read from
// the clocks and the delivery counters above the fabric seam, so it holds
// alike for every backend. DESIGN.md §4 gives the argument in full.

// noHorizon is the bound while this node's inbox still holds a message it
// has not taken: nothing can be decided until it is taken.
const noHorizon = simtime.Time(math.MinInt64)

// SetRunning records whether node id's application is running a
// program. Only running nodes bound anything: an idle node sends nothing,
// and one whose program has returned never sends again. The slot
// outlives incarnations: a recovered node keeps running under the clock
// its new endpoint registered.
func (nw *Network) SetRunning(id int, running bool) {
	nw.running[id].Store(running)
	nw.poke(0, len(nw.wake))
}

// Horizon returns a virtual arrival time below which this node has
// already taken from its inbox every message that any node not named by
// quiet will ever send it, and low, the running node whose clock sets it
// (-1 when none does). quiet names the nodes the caller leaves out,
// because it knows they send it nothing it must wait for (each reader's
// reasons: DESIGN.md §4).
//
// The clocks are read before the delivery counters: a copy that arrives
// below the horizon departed below its sender's clock as read, so the
// sender had already put it on the wire, and a drained inbox (every
// delivered copy handled) has yielded it. While the inbox is not drained
// the horizon is noHorizon, below every arrival.
func (e *Endpoint) Horizon(quiet func(node int) bool) (h simtime.Time, low int) {
	nw := e.nw
	h, low = simtime.Time(math.MaxInt64), -1
	for i := 0; i < nw.n; i++ {
		if !nw.running[i].Load() || quiet(i) {
			continue
		}
		c := nw.clocks[i].Load()
		if c == nil {
			continue
		}
		b := c.Now()
		if i != e.id {
			b += simtime.Time(nw.model.NetLatency)
		}
		if b < h {
			h, low = b, i
		}
	}
	if nw.handled[e.id].Load() < nw.delivered[e.id].Load() {
		return noHorizon, -1
	}
	return h, low
}

// FenceArrivalsBefore blocks, in real time only, until Horizon passes
// cutoff: every message arriving at this node at or before cutoff has
// been handled here. CCL's release flush composes its record set from
// the arrivals up to cutoff, the manager-side stamp of the grant or
// release that opened the interval (see internal/hlrc), so the fence
// makes that set a function of virtual time.
//
// Its quiet set is the fencer itself, the crashed nodes (the epoch layer
// fences their later traffic), and the nodes waiting unanswered at the
// decider whose published decided bound D puts the answer past the
// cutoff: D + MsgHandling + NetLatency > cutoff. D is read before the
// awaiting flag (see PublishDecided). A fence held by a waiting node
// whose D falls short asks the decider to publish a fresh one.
//
// The fence yields fenceYields times, then parks: a fence that stayed
// runnable would keep its processor out of the scheduler's idle path, and
// on the TCP backend that path is where socket readiness is noticed.
func (e *Endpoint) FenceArrivalsBefore(cutoff simtime.Time) {
	nw := e.nw
	answered := cutoff - simtime.Time(nw.model.MsgHandling+nw.model.NetLatency)
	quiet := func(i int) bool {
		if _, down := nw.members.Crashed(i); down || i == e.id {
			return true
		}
		d := simtime.Time(nw.decided.Load())
		return nw.awaiting[i].Load() && d > answered
	}
	var cw clockWatch
	w := nw.n + e.id
	for tries := 0; ; tries++ {
		h, low := e.Horizon(quiet)
		if h > cutoff {
			break
		}
		if low >= 0 && nw.awaiting[low].Load() {
			nw.poke(0, nw.n) // have the decider publish a fresh D
		}
		if tries < fenceYields {
			runtime.Gosched()
			continue
		}
		e.watch(&cw, w, low, cutoff)
		<-nw.wake[w]
	}
	cw.stop(nw.wake[w])
}

// fenceYields is how many times a waiting fence yields the processor and
// reads the bound again before it parks. Most waits are for a goroutine
// that is runnable right now (this node's own service loop, a peer about
// to advance its clock); yielding to it is cheaper than a park and a
// wake-up.
const fenceYields = 4

// PublishDecided publishes the deciding node's progress to the arrival
// fence: every message with an arrival below decided is decided, and
// quiet names the nodes whose requests wait there unanswered. The flags
// are stored before the bound, and a fence reads the bound first, so a
// fence that reads a node as waiting knows its answer is decided at or
// above the bound it read. Fences are poked only on a change. Service
// goroutine only.
func (e *Endpoint) PublishDecided(decided simtime.Time, quiet func(node int) bool) {
	nw := e.nw
	changed := false
	for i := range nw.awaiting {
		if q := quiet(i); nw.awaiting[i].Load() != q {
			nw.awaiting[i].Store(q)
			changed = true
		}
	}
	if int64(decided) > nw.decided.Load() {
		nw.decided.Store(int64(decided))
		changed = true
	}
	if changed {
		nw.poke(nw.n, 2*nw.n)
	}
}

// HorizonWake returns the channel that is poked when this node's horizon
// may have risen: a watched clock passed (WatchHorizon), a node started or
// stopped running, a reincarnation replaced a clock, or a fence asks for
// a fresh decided bound.
func (e *Endpoint) HorizonWake() <-chan struct{} { return e.nw.wake[e.id] }

// WatchHorizon arranges one poke of HorizonWake once node low's clock no
// longer holds the horizon at or below key, replacing the previous watch.
// low is what Horizon returned. Service goroutine only.
func (e *Endpoint) WatchHorizon(low int, key simtime.Time) {
	e.watch(&e.watched, e.id, low, key)
}

// clockWatch is a waiter's armed simtime.Clock.NotifyPast: the clock
// watched and the time it must pass. Only the waiter's goroutine touches
// it.
type clockWatch struct {
	c    *simtime.Clock
	past simtime.Time
}

func (cw *clockWatch) stop(wake chan struct{}) {
	if cw.c != nil {
		cw.c.StopNotify(wake)
		cw.c = nil
	}
}

// watch is the one clock watch of both readers of the bound, armed after
// a read found the bound at or below key. It arranges a poke of waiter w's wake channel
// once node low's clock no longer holds the bound there, replacing the
// waiter's previous watch cw; a clock that passed since the read is
// poked for at once. An undrained inbox (low < 0) needs no watch:
// MarkHandled pokes. The fence then parks on the channel; the service
// loop selects on it (HorizonWake).
//
// Writers of what the bound reads store first and poke second, and the
// channel holds one poke, so a change between the read and the park is
// never lost; a stale poke costs one more read.
func (e *Endpoint) watch(cw *clockWatch, w, low int, key simtime.Time) {
	if low < 0 {
		return
	}
	nw := e.nw
	c := nw.clocks[low].Load()
	past := key
	if low != e.id {
		past -= simtime.Time(nw.model.NetLatency)
	}
	if c == cw.c && past == cw.past && c.Now() <= past {
		return // armed already, and not fired
	}
	wake := nw.wake[w]
	cw.stop(wake)
	cw.c, cw.past = c, past
	if !c.NotifyPast(past, wake) {
		nw.poke(w, w+1) // passed since the bound was read
	}
}

// poke wakes waiters lo to hi-1: wake[id] is node id's service loop,
// wake[n+id] its application inside FenceArrivalsBefore. The send never
// blocks: a full channel already holds a poke.
func (nw *Network) poke(lo, hi int) {
	for _, ch := range nw.wake[lo:hi] {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}
