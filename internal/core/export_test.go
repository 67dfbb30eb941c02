package core

import "sdsm/internal/transport"

// tapFabric is the in-process fabric with every copy and every reply
// shown to tap first.
type tapFabric struct {
	nw  *transport.Network
	tap func(transport.Message)
}

func (f tapFabric) Deliver(m transport.Message)           { f.tap(m); f.nw.Inject(m) }
func (f tapFabric) Reply(key uint64, r transport.Message) { f.tap(r); f.nw.DeliverReply(key, r) }
func (f tapFabric) Close() error                          { return nil }

// RunTapped is Run on the sim backend with tap called, on the sender's
// goroutine, for every message copy and every reply that leaves a node:
// what a wire fabric would carry.
func RunTapped(cfg Config, prog Program, tap func(transport.Message)) (*Report, error) {
	c, err := buildCluster(cfg, 0)
	if err != nil {
		return nil, err
	}
	c.nw.SetFabric(tapFabric{nw: c.nw, tap: tap})
	return c.run(prog, unplanned)
}
