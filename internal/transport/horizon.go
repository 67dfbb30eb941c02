package transport

import (
	"math"

	"sdsm/internal/simtime"
)

// The key horizon: a node that decides some of its traffic in virtual
// arrival order (the lock and barrier manager, internal/hlrc) holds each
// such message until no node can still send it one that arrives earlier.
// Every such copy leaves its sender's application goroutine stamped with
// that node's clock and arrives at least one NetLatency later (a
// self-addressed copy arrives when it departs), so a node whose
// application is running bounds the arrival of anything it has yet to
// send by its clock plus that latency. The bound is read from the clocks
// and the delivery counters above the fabric seam, so it holds alike for
// every backend.

// noHorizon is the horizon while this node's inbox still holds a message
// it has not taken: nothing can be decided until it is taken.
const noHorizon = simtime.Time(math.MinInt64)

// SetRunning records whether node id's application is running a
// program. Only running nodes bound the horizon, and a running node's
// arrival fence skips the others: an idle node sends nothing, and one
// whose program has returned never sends again. The slot
// outlives incarnations: a recovered node keeps running under the clock
// its new endpoint registered.
func (nw *Network) SetRunning(id int, running bool) {
	nw.running[id].Store(running)
	nw.wakeHorizons()
	nw.wakeFencers()
}

// Horizon returns a virtual arrival time below which this node has
// already taken from its inbox every message that any node not named by
// quiet will ever send it, and low, the running node whose clock sets it
// (-1 when none does and the horizon is unbounded). quiet names the nodes
// the caller knows send it nothing until it answers them.
//
// The clocks are read before the delivery counters: a copy that arrives
// below the horizon departed below its sender's clock as read, so the
// sender had already put it on the wire, and a drained inbox (every
// delivered copy handled) has yielded it. While the inbox is not drained
// the horizon is below every arrival.
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
	if low >= 0 && nw.handled[e.id].Load() < nw.delivered[e.id].Load() {
		return noHorizon, -1
	}
	return h, low
}

// PublishDecided publishes the deciding node's progress to the arrival
// fence: every message with an arrival below decided is decided, and
// quiet names the nodes whose requests wait there unanswered. The flags
// are stored before the bound, and a fence reads the bound first, so a
// fence that reads a node as waiting knows its answer is decided at or
// above the bound it read. A fence is woken only by a change. Service
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
		nw.wakeFencers()
	}
}

// HorizonWake returns the channel that is poked when this node's horizon
// may have risen: a watched clock passed (WatchHorizon), a node started or
// stopped running, or a reincarnation replaced a clock.
func (e *Endpoint) HorizonWake() <-chan struct{} { return e.nw.horizonWake[e.id] }

// WatchHorizon arranges one poke of HorizonWake once node low's clock no
// longer holds the horizon at or below key, replacing the previous watch.
// low is what Horizon returned. Service goroutine only.
func (e *Endpoint) WatchHorizon(low int, key simtime.Time) {
	c := e.nw.clocks[low].Load()
	past := key
	if low != e.id {
		past -= simtime.Time(e.nw.model.NetLatency)
	}
	if c == e.watched && past == e.watchedPast && c.Now() <= past {
		return // armed already, and not fired
	}
	wake := e.nw.horizonWake[e.id]
	if e.watched != nil {
		e.watched.StopNotify(wake)
	}
	e.watched, e.watchedPast = c, past
	if !c.NotifyPast(past, wake) {
		e.nw.pokeHorizon(e.id) // passed since Horizon read it
	}
}

// wakeHorizons pokes every node's horizon wake.
func (nw *Network) wakeHorizons() {
	for id := range nw.horizonWake {
		nw.pokeHorizon(id)
	}
}

// pokeHorizon pokes node id's horizon wake. The send never blocks: a full
// channel already holds the poke.
func (nw *Network) pokeHorizon(id int) {
	select {
	case nw.horizonWake[id] <- struct{}{}:
	default:
	}
}
