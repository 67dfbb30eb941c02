package transport_test

import (
	"testing"

	"sdsm/internal/fault"
	"sdsm/internal/hlrc"
	"sdsm/internal/simtime"
	"sdsm/internal/transport"
	"sdsm/internal/transport/tcp"
	"sdsm/internal/vclock"
)

// backends are the two fabrics a Network runs over. A test that takes
// them runs once on each: the in-process fabric and loopback TCP, whose
// payloads cross the wire in the protocol's own encoding (so these tests
// use the protocol's LockReq and LockGrant).
var backends = []struct {
	name    string
	install func(tb testing.TB, nw *transport.Network)
}{
	{"sim", func(testing.TB, *transport.Network) {}},
	{"tcp", func(tb testing.TB, nw *transport.Network) {
		fab, err := tcp.New(nw, tcp.Options{Payloads: hlrc.WirePayloads()})
		if err != nil {
			tb.Fatal(err)
		}
		nw.SetFabric(fab)
		tb.Cleanup(func() { fab.Close() })
	}},
}

// numbered is a request whose lock number identifies the call.
func numbered(i int) *hlrc.LockReq { return &hlrc.LockReq{Lock: int32(i)} }

func callNumbered(ep *transport.Endpoint, to, i int) *transport.Pending {
	req := numbered(i)
	return ep.CallAsync(to, transport.Kind(9), req.WireSize(), req)
}

func numberOf(m transport.Message) int { return int(m.Payload.(*hlrc.LockReq).Lock) }

// echoRequests services ep's inbox like a protocol loop: suppress wire
// duplicates, then answer every (possibly retransmitted) request with
// its own payload.
func echoRequests(ep *transport.Endpoint, quit <-chan struct{}) {
	for {
		select {
		case m := <-ep.Inbox():
			if !ep.WireDup(m) {
				ep.ReplyAt(ep.ArrivalOf(m), m, m.Kind, m.Size, m.Payload)
			}
			ep.MarkHandled()
		case <-quit:
			return
		}
	}
}

// TestDuplicateReplyAfterRedirect locks down the reply-isolation
// contract the lease-based failover relies on, on both backends: a reply
// that arrives after its call is over — a doubled reply to a call
// already answered, or the crashed home's recovered incarnation
// answering late from its drained inbox a call abandoned via
// WaitRedirect — is dropped at the requester's reply slot. It must never
// surface as the answer to a later call, nor block the replier.
func TestDuplicateReplyAfterRedirect(t *testing.T) {
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			nw := transport.NewNetwork(3, simtime.DefaultCostModel())
			nw.SetFaultPlan(fault.Plan{Seed: 11, DupProb: 0.3})
			be.install(t, nw)
			caller := nw.NewEndpoint(0, simtime.NewClock(0))
			home := nw.NewEndpoint(1, simtime.NewClock(0))
			adopter := nw.NewEndpoint(2, simtime.NewClock(0))

			quit := make(chan struct{})
			defer close(quit)
			go echoRequests(adopter, quit)

			// A doubled reply to a live call: the service answers the same
			// request again after the caller already consumed the first copy
			// (at-least-once delivery after an uncertain crash does exactly
			// this). The call's generation is closed by then.
			p := callNumbered(caller, 1, 41)
			req := <-home.Inbox()
			if home.WireDup(req) {
				t.Fatal("first copy of the request flagged as a duplicate")
			}
			at := home.ArrivalOf(req)
			home.ReplyAt(at, req, req.Kind, req.Size, req.Payload)
			if m := p.Wait(caller.Clock()); numberOf(m) != 41 {
				t.Fatalf("first call answered %d", numberOf(m))
			}
			home.ReplyAt(at, req, req.Kind, req.Size, req.Payload) // the late duplicate

			// The home crashes with a request in flight; the caller fails over
			// and redirects to the adopter.
			stale := callNumbered(caller, 1, 100)
			home.MarkCrashed(home.Clock().Now())
			if _, ok := stale.WaitRedirect(caller.Clock()); ok {
				t.Fatal("call to the crashed home did not fail over")
			}
			if m, ok := callNumbered(caller, 2, 200).WaitRedirect(caller.Clock()); !ok || numberOf(m) != 200 {
				t.Fatalf("redirected call answered %+v, ok=%v", m, ok)
			}

			// The home's recovered incarnation drains its inbox,
			// WireDup-suppressing retransmitted copies and answering
			// everything — including the abandoned request: the late reply.
			go echoRequests(home, quit)

			// Every later call to the recovered home must get its own fresh
			// answer; under DupProb the wire may also double those replies,
			// and each Wait must still see its own payload, never the stale
			// 100. (WaitRedirect would fail over: a node that has ever
			// crashed stays marked.)
			for i := 0; i < 50; i++ {
				if m := callNumbered(caller, 1, 300+i).Wait(caller.Clock()); numberOf(m) != 300+i {
					t.Fatalf("call %d answered %d (stale or crossed reply)", i, numberOf(m))
				}
			}
		})
	}
}

// grantServer starts node 1 of a two-node network on the given backend,
// answering every request with one preallocated lock grant, and returns
// node 0.
func grantServer(tb testing.TB, install func(testing.TB, *transport.Network)) *transport.Endpoint {
	nw := transport.NewNetwork(2, simtime.DefaultCostModel())
	install(tb, nw)
	client := nw.NewEndpoint(0, simtime.NewClock(0))
	server := nw.NewEndpoint(1, simtime.NewClock(0))
	grant := &hlrc.LockGrant{VT: vclock.New(4)}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			case m := <-server.Inbox():
				server.Arrive(m)
				server.Reply(m, hlrc.KindLockGrant, grant.WireSize(), grant)
				server.MarkHandled()
			}
		}
	}()
	// Registered after install's cleanup, so it runs first: the server
	// stops before the fabric closes.
	tb.Cleanup(func() { close(quit); <-done })
	return client
}

// TestCallAllocations pins what a warm request/reply round trip costs
// the heap, counted across every goroutine it touches: a Call, and a
// CallAsync waited on with WaitRedirect (how every page miss and diff
// ack waits).
func TestCallAllocations(t *testing.T) {
	want := map[string]struct {
		allocs float64
		what   string
	}{
		"sim": {0, "nothing: the reply slot, its channel and the inbox window are reused"},
		"tcp": {4, "the two payload decodes: the LockReq and its VT, the LockGrant and its VT"},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			client := grantServer(t, be.install)
			req := &hlrc.LockReq{Lock: 1, VT: vclock.New(4)}
			calls := []struct {
				name string
				call func()
			}{
				{"Call", func() { client.Call(1, hlrc.KindLockReq, req.WireSize(), req) }},
				{"WaitRedirect", func() {
					if _, ok := client.CallAsync(1, hlrc.KindLockReq, req.WireSize(), req).WaitRedirect(client.Clock()); !ok {
						t.Fatal("WaitRedirect failed over from a live peer")
					}
				}},
			}
			w := want[be.name]
			for _, c := range calls {
				for i := 0; i < 100; i++ {
					c.call() // grow the slot table, link buffers and connections
				}
				if got := testing.AllocsPerRun(500, c.call); got > w.allocs {
					t.Errorf("%s round trip on %s: %v allocs, want <= %v (%s)", c.name, be.name, got, w.allocs, w.what)
				}
			}
		})
	}
}

// BenchmarkCall times one LockReq/LockGrant round trip per backend.
func BenchmarkCall(b *testing.B) {
	for _, be := range backends {
		b.Run(be.name, func(b *testing.B) {
			client := grantServer(b, be.install)
			req := &hlrc.LockReq{Lock: 1, VT: vclock.New(4)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				client.Call(1, hlrc.KindLockReq, req.WireSize(), req)
			}
		})
	}
}
