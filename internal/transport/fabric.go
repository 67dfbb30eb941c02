package transport

import (
	"fmt"

	"sdsm/internal/simtime"
)

// Fabric is the physical backplane under the Network: the seam where a
// message copy moves from the sending node to the destination node's
// inbox, and a reply back to its requester. Everything above the seam —
// virtual-time stamping, wire accounting, the fault plan's per-copy
// fates, ARQ retransmission state, the arrival fence's delivered/handled
// counters, reply slots — is backend-independent and stays in
// Network/Endpoint; a Fabric only transports already-stamped copies. Two
// implementations exist: the default in-process fabric (direct delivery,
// byte-deterministic) and the real-socket TCP backend in
// internal/transport/tcp.
//
// Contract: Deliver is called after the Network has done wire accounting
// and incremented the destination's delivered counter, so the arrival
// fence holds until the copy is physically injected and handled no matter
// how long the fabric keeps it in flight. A fabric ends every copy's
// flight by calling Network.Inject (self-addressed copies never reach the
// fabric). A request copy (WantsReply) carries its requester's reply key
// among its WireExtras, which an out-of-process fabric ships with the
// copy and restores with SetWireExtras. Reply carries a handler's reply
// to the requester and ends its flight with Network.DeliverReply under
// that key; no fabric keeps per-request state, and a fabric starts no
// goroutine per message.
type Fabric interface {
	// Deliver transports one stamped non-self message copy to m.To's
	// inbox, handing the copies of one link to Inject one at a time and
	// in the order it was given them. It must not block on the
	// destination's service loop: an inbox takes whatever is injected, up
	// to the DefaultInboxCap diagnostic.
	Deliver(m Message)
	// Reply transports the reply r to a non-self request to its
	// requester r.To and hands it to Network.DeliverReply(key, r) there.
	// It must not block on the requester: a reply whose call is over is
	// dropped by DeliverReply, not waited for.
	Reply(key uint64, r Message)
	// Close tears the fabric down after the run: connections, queues and
	// helper goroutines. The Network is drained and stopped by then.
	Close() error
}

// procFabric is the default in-process fabric: delivery is a direct
// Inject into the destination inbox, and a reply a direct hand-over to
// the requester's slot, on the sender's goroutine, which is what makes
// same-seed runs byte-deterministic.
type procFabric struct{ nw *Network }

func (f procFabric) Deliver(m Message)           { f.nw.Inject(m) }
func (f procFabric) Reply(key uint64, r Message) { f.nw.DeliverReply(key, r) }
func (f procFabric) Close() error                { return nil }

// SetFabric installs a wire backend. Call it once, right after
// NewNetwork and before any traffic flows. The default is the in-process
// fabric.
func (nw *Network) SetFabric(f Fabric) {
	if f == nil {
		panic("transport: nil fabric")
	}
	nw.fabric = f
}

// CloseFabric shuts the installed fabric down. Call it after the last
// service loop has stopped; it is a no-op for the in-process fabric.
func (nw *Network) CloseFabric() error { return nw.fabric.Close() }

// Inject ends a message copy's flight: it is queued in the destination
// inbox, behind every copy injected there before it. Only fabrics call
// this (the Network's own send paths go through deliver, which does the
// wire accounting first); calls for one link must not overlap, which the
// link's send lock and the TCP backend's one reader per connection give.
// It never blocks. A queue DefaultInboxCap deep means a service loop is
// stuck (or the run leaks messages); growing it further would hide that,
// so Inject fails loudly instead.
func (nw *Network) Inject(m Message) {
	ib := &nw.inboxes[m.To]
	if !ib.put(m) {
		window, spill := ib.depth()
		panic(fmt.Sprintf(
			"transport: inbox overflow at node %d (%d messages queued: window %d + spill %d) delivering kind %d from node %d",
			m.To, window+spill, window, spill, m.Kind, m.From))
	}
}

// WireExtras returns the unexported per-copy state an out-of-process
// fabric must serialize alongside the exported fields: the fault-injected
// extra wire latency, the "reply to this copy is lost" mark the fault
// plan stamped at send time, and the requester's reply key (0 on one-way
// copies and on replies). (Fabric support; protocol code never needs
// these.)
func (m Message) WireExtras() (extraDelay simtime.Duration, dropReply bool, replyKey uint64) {
	return m.extraDelay, m.dropReply, m.replyKey
}

// SetWireExtras restores the state carried by WireExtras on the
// receiving side of an out-of-process fabric.
func (m *Message) SetWireExtras(extraDelay simtime.Duration, dropReply bool, replyKey uint64) {
	m.extraDelay = extraDelay
	m.dropReply = dropReply
	m.replyKey = replyKey
}
