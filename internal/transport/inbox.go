package transport

import (
	"sync"
	"sync/atomic"
)

// inboxWindow is the capacity of the channel a service loop receives
// from. The deepest inbox measured on the benchmark's workloads is 96
// messages (see DefaultInboxCap), so the window holds every queue those
// runs build and the spill behind it stays empty; a deeper backlog costs
// memory only while it exists.
const inboxWindow = 128

// inbox is one node's receive queue: a channel window the service loop
// receives from, over an unbounded FIFO spill that takes what the window
// cannot. While the spill is empty a delivery is one non-blocking channel
// send. Once a message has spilled, every later one queues behind it, and
// the spill's head moves into the window as the consumer makes room
// (Endpoint.MarkHandled) and on the next delivery — so the inbox as a
// whole is FIFO for any one link, whose copies are injected one at a time.
type inbox struct {
	win chan Message

	// spilled is spill.len(), readable without mu. put stores it before
	// it finds the window full, and a consumer that makes room reads it
	// afterwards (MarkHandled follows the receive), so a consumer never
	// parks on an empty window while the spill holds a message.
	spilled atomic.Int64
	mu      sync.Mutex // guards spill and every move from it into win
	spill   msgRing
}

// put queues m behind everything already queued. It queues nothing and
// reports false when the inbox already holds DefaultInboxCap messages.
func (ib *inbox) put(m Message) bool {
	if ib.spilled.Load() == 0 {
		select {
		case ib.win <- m:
			return true
		default:
		}
	}
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if len(ib.win)+ib.spill.len() >= DefaultInboxCap {
		return false
	}
	ib.spill.push(m)
	ib.spilled.Store(int64(ib.spill.len()))
	ib.topUpLocked()
	return true
}

// topUp moves spilled messages into whatever room the window has.
func (ib *inbox) topUp() {
	if ib.spilled.Load() == 0 {
		return
	}
	ib.mu.Lock()
	ib.topUpLocked()
	ib.mu.Unlock()
}

func (ib *inbox) topUpLocked() {
	for ib.spill.len() > 0 {
		select {
		case ib.win <- ib.spill.front():
			ib.spill.pop()
		default:
			ib.spilled.Store(int64(ib.spill.len()))
			return
		}
	}
	ib.spilled.Store(0)
}

// depth returns how many messages wait in the window and in the spill.
func (ib *inbox) depth() (window, spill int) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	return len(ib.win), ib.spill.len()
}

// msgRing is a FIFO of messages in a ring that doubles when full and
// gives its storage back when it empties.
type msgRing struct {
	buf  []Message // len is zero or a power of two
	head int
	n    int
}

const msgRingMin = 16

func (r *msgRing) len() int { return r.n }

func (r *msgRing) push(m Message) {
	if r.n == len(r.buf) {
		grown := make([]Message, max(msgRingMin, 2*len(r.buf)))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = m
	r.n++
}

// front returns the oldest message; the ring must not be empty.
func (r *msgRing) front() Message { return r.buf[r.head] }

// pop drops the oldest message; the ring must not be empty.
func (r *msgRing) pop() {
	r.buf[r.head] = Message{} // let go of the payload
	r.head = (r.head + 1) & (len(r.buf) - 1)
	if r.n--; r.n == 0 {
		r.buf, r.head = nil, 0
	}
}
