package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Replies travel back by key, not by channel. A call arms one of its
// node's reply slots, the request carries the slot's key (its index and
// the generation the call opened), and whoever answers hands the reply to
// the slot the key names: directly for in-process and self-addressed
// requests, through Fabric.Reply and the requester's reader over a real
// wire. A reply enters only by a compare-and-swap from (generation,
// awaiting) to (generation, delivered), so exactly one reply per call
// lands; a doubled, late or re-sent reply — a fault-plan duplicate, a
// batch re-sent after a broken write, the answer to a call abandoned by
// WaitRedirect — finds its generation closed and is dropped without
// blocking the replier.

// Slot phases, packed with the generation into replySlot.state as
// gen<<2 | phase.
const (
	slotIdle      = 0 // free, or given back by its wait
	slotAwaiting  = 1 // armed: the first reply of this generation enters
	slotDelivered = 2 // a reply of this generation is in ch, or entering it
)

// replySlot is one reusable reply rendezvous. Its channel and its Pending
// are allocated once, when the table grows; a call arms the slot with the
// next generation and its wait gives the slot back.
type replySlot struct {
	state atomic.Uint64
	ch    chan Message // capacity 1: one reply per generation enters it
	idx   uint32
	p     Pending
}

// replyTable is one node's reply slots. It belongs to the Network, so a
// node's generations stay monotone across its incarnations: a reply to a
// buried incarnation's call can never reach a newer one.
type replyTable struct {
	mu    sync.Mutex
	free  []*replySlot                 // idle slots, reused last-in first-out
	slots atomic.Pointer[[]*replySlot] // by index; replaced, never mutated, on growth
}

// replyKey names one generation of one slot. Generations start at 1, so a
// request's key is never zero, and zero means "no reply wanted".
func replyKey(idx, gen uint32) uint64 { return uint64(gen)<<32 | uint64(idx) }

// arm takes an idle slot, growing the table when none is left, and opens
// the slot's next generation.
func (t *replyTable) arm() (*replySlot, uint32) {
	t.mu.Lock()
	if len(t.free) == 0 {
		t.grow()
	}
	s := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	t.mu.Unlock()
	gen := uint32(s.state.Load()>>2) + 1
	if gen == 0 {
		gen = 1 // wrapped; generation 0 would read as "no reply wanted"
	}
	s.state.Store(uint64(gen)<<2 | slotAwaiting)
	return s, gen
}

// grow doubles the table (8 slots at first). Callers hold t.mu.
func (t *replyTable) grow() {
	var old []*replySlot
	if p := t.slots.Load(); p != nil {
		old = *p
	}
	chunk := make([]replySlot, max(8, len(old)))
	slots := append(make([]*replySlot, 0, len(old)+len(chunk)), old...)
	for i := range chunk {
		s := &chunk[i]
		s.idx = uint32(len(slots))
		s.ch = make(chan Message, 1)
		slots = append(slots, s)
	}
	for i := len(chunk) - 1; i >= 0; i-- {
		t.free = append(t.free, &chunk[i])
	}
	t.slots.Store(&slots)
}

// deliver hands r to the slot generation key names. It drops r and
// reports false when that generation has already taken a reply or been
// given back, or when the key names no slot. It never blocks.
func (t *replyTable) deliver(key uint64, r Message) bool {
	slots := t.slots.Load()
	idx, gen := uint32(key), uint64(key>>32)
	if slots == nil || int(idx) >= len(*slots) {
		return false
	}
	s := (*slots)[idx]
	if !s.state.CompareAndSwap(gen<<2|slotAwaiting, gen<<2|slotDelivered) {
		return false
	}
	s.ch <- r // empty: this generation's one reply
	return true
}

// DeliverReply ends a reply's flight: r is handed to the call of node
// r.To that key names. A reply whose call has already been answered or
// abandoned is dropped (the result is false). Fabrics call it on the
// requester's side of the wire; it never blocks.
func (nw *Network) DeliverReply(key uint64, r Message) bool {
	if r.To < 0 || r.To >= nw.n {
		return false
	}
	return nw.replies[r.To].deliver(key, r)
}

// key is the reply key the call's request copies carry.
func (p *Pending) key() uint64 { return replyKey(p.slot.idx, p.gen) }

// checkLive panics on a handle whose wait has already returned and whose
// slot is still idle (see Pending).
func (p *Pending) checkLive() {
	if p.slot.state.Load()&3 == slotIdle {
		panic(fmt.Sprintf("transport: wait on released reply slot %d generation %d", p.slot.idx, p.gen))
	}
}

// release gives the slot back once its reply has been taken or its call
// cancelled. The handle is dead from here on.
func (p *Pending) release() {
	s, gen := p.slot, p.gen
	t := &p.ep.nw.replies[p.ep.id]
	s.p = Pending{slot: s, gen: gen} // let go of the payload and endpoint
	s.state.Store(uint64(gen)<<2 | slotIdle)
	t.mu.Lock()
	t.free = append(t.free, s)
	t.mu.Unlock()
}

// cancel closes an abandoned call's generation so no reply can enter it,
// draining the one that already won the race, and gives the slot back.
func (p *Pending) cancel() {
	g := uint64(p.gen) << 2
	if !p.slot.state.CompareAndSwap(g|slotAwaiting, g|slotIdle) {
		<-p.slot.ch // delivered, or about to be: deliver's send never blocks
	}
	p.release()
}
