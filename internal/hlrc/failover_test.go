package hlrc

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"sdsm/internal/memory"
	"sdsm/internal/simtime"
	"sdsm/internal/transport"
)

const (
	failLease   = simtime.Duration(5_000_000)
	failPageLen = 64
)

// failoverRig is a three-node cluster in which only node 0 runs the
// protocol: it is a real Node with leases (and ManagerNode, so its lock
// operations are calls to itself). Nodes 1 and 2 are bare endpoints the
// test answers by hand. The one shared page is homed at node 1, whose
// successor is node 2.
type failoverRig struct {
	t    *testing.T
	nw   *transport.Network
	nd   *Node
	peer [3]*transport.Endpoint
}

func newFailoverRig(t *testing.T) *failoverRig {
	t.Helper()
	model := simtime.DefaultCostModel()
	nw := transport.NewNetwork(3, model)
	nd := NewNode(Config{
		ID: 0, N: 3, PageSize: failPageLen, NumPages: 1,
		Homes: []int{1}, Model: model, LeaseDuration: failLease,
	}, nw, simtime.NewClock(0), nil, nil)
	nd.StartService()
	t.Cleanup(nd.StopService)
	r := &failoverRig{t: t, nw: nw, nd: nd}
	for i := 1; i < 3; i++ {
		r.peer[i] = nw.NewEndpoint(i, simtime.NewClock(0))
	}
	return r
}

// start runs op on node 0's application goroutine; the channel yields the
// value it panicked with, or nil once it returns.
func (r *failoverRig) start(op func()) <-chan any {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		op()
	}()
	return done
}

// next takes the next message off peer's inbox, which must be a request
// of the given kind from node 0.
func (r *failoverRig) next(peer int, kind transport.Kind) transport.Message {
	r.t.Helper()
	ep := r.peer[peer]
	select {
	case m := <-ep.Inbox():
		ep.MarkHandled()
		if m.Kind != kind || m.From != 0 || !m.WantsReply() {
			r.t.Fatalf("node %d got kind %d from %d, want request kind %d from 0", peer, m.Kind, m.From, kind)
		}
		return m
	case <-time.After(10 * time.Second):
		r.t.Fatalf("node %d: no kind %d request arrived", peer, kind)
	}
	return transport.Message{}
}

// answer replies to m from peer.
func (r *failoverRig) answer(peer int, m transport.Message, kind transport.Kind, payload interface{ WireSize() int }) {
	ep := r.peer[peer]
	ep.ReplyAt(ep.ArrivalOf(m), m, kind, payload.WireSize(), payload)
}

// servePage answers a page request from peer with a page whose first
// word is v.
func (r *failoverRig) servePage(peer int, m transport.Message, v int64) {
	data := make([]byte, failPageLen)
	binary.LittleEndian.PutUint64(data, uint64(v))
	r.answer(peer, m, KindPageReply, &PageReply{Data: data})
}

// finish waits for node 0's op and returns its panic value.
func (r *failoverRig) finish(done <-chan any) any {
	r.t.Helper()
	select {
	case v := <-done:
		return v
	case <-time.After(10 * time.Second):
		r.t.Fatal("node 0's op did not finish")
	}
	return nil
}

// TestHomeFailoverOutcomes drives every outcome of a request to a home,
// for a page miss and for a release's diff batch: the home crashes with
// the reply outstanding (wait out its lease, resend to its successor),
// the home answers RedirectHome (resend to the named node, no lease
// wait), and the home answers Fenced (the op unwinds with ErrFenced).
func TestHomeFailoverOutcomes(t *testing.T) {
	type outcome int
	const (
		crash outcome = iota
		redirect
		fenced
	)
	outcomes := []struct {
		name string
		o    outcome
	}{{"crash", crash}, {"redirect", redirect}, {"fenced", fenced}}

	// strike answers (or, for a crash, abandons) the request m that node
	// 1 holds, and returns the crash's virtual time (0 for the others).
	strike := func(r *failoverRig, m transport.Message, o outcome) simtime.Time {
		switch o {
		case crash:
			at := m.SentAt + 1_000
			r.nw.MarkCrashed(1, at)
			return at
		case redirect:
			r.answer(1, m, KindRedirectHome, &RedirectHome{Page: 0, Home: 2})
		case fenced:
			r.answer(1, m, KindFenced, &Fenced{Node: 0, MsgEpoch: 1, Buried: 2, Epoch: 2})
		}
		return 0
	}
	// check verifies the counters and the clock of a failed-over op.
	check := func(r *failoverRig, o outcome, crashAt simtime.Time) {
		r.t.Helper()
		st := r.nd.Stats()
		if got := st.RedirectedCalls.Load(); got != 1 {
			r.t.Errorf("RedirectedCalls = %d, want 1", got)
		}
		wantWaits := int64(0)
		if o == crash {
			wantWaits = 1
			if now, floor := r.nd.Clock().Now(), crashAt+simtime.Time(failLease); now < floor {
				r.t.Errorf("clock %d after a crash failover, want >= crash %d + lease = %d", now, crashAt, floor)
			}
		}
		if got := st.LeaseWaitsServed.Load(); got != wantWaits {
			r.t.Errorf("LeaseWaitsServed = %d, want %d", got, wantWaits)
		}
	}

	for _, oc := range outcomes {
		t.Run("miss/"+oc.name, func(t *testing.T) {
			r := newFailoverRig(t)
			var got int64
			done := r.start(func() {
				r.nd.mu.Lock()
				r.nd.pt.Invalidate(0) // every page starts valid and zero
				r.nd.mu.Unlock()
				got = r.nd.ReadI64(0)
			})
			crashAt := strike(r, r.next(1, KindPageReq), oc.o)
			if oc.o == fenced {
				if v := r.finish(done); v == nil || !errors.Is(v.(error), ErrFenced) {
					t.Fatalf("fenced miss ended with %v, want ErrFenced", v)
				}
				return
			}
			m := r.next(2, KindPageReq)
			if req := m.Payload.(*PageReq); req.Page != 0 {
				t.Fatalf("node 2 asked for page %d, want 0", req.Page)
			}
			r.servePage(2, m, 42)
			if v := r.finish(done); v != nil {
				t.Fatalf("miss panicked: %v", v)
			}
			if got != 42 {
				t.Errorf("read %d, want node 2's 42", got)
			}
			check(r, oc.o, crashAt)
		})
		t.Run("release/"+oc.name, func(t *testing.T) {
			r := newFailoverRig(t)
			done := r.start(func() {
				r.nd.AcquireLock(0)
				r.nd.WriteI64(0, 99)
				r.nd.ReleaseLock(0)
			})
			crashAt := strike(r, r.next(1, KindDiffUpdate), oc.o)
			if oc.o == fenced {
				if v := r.finish(done); v == nil || !errors.Is(v.(error), ErrFenced) {
					t.Fatalf("fenced release ended with %v, want ErrFenced", v)
				}
				return
			}
			m := r.next(2, KindDiffUpdate)
			du := m.Payload.(*DiffUpdate)
			page := make([]byte, failPageLen)
			for _, d := range du.Diffs {
				if d.Page != memory.PageID(0) {
					t.Fatalf("node 2 got a diff for page %d, want 0", d.Page)
				}
				d.Apply(page)
			}
			if w := int64(binary.LittleEndian.Uint64(page)); len(du.Diffs) != 1 || w != 99 {
				t.Fatalf("node 2 got %d diffs writing %d, want 1 writing 99", len(du.Diffs), w)
			}
			r.answer(2, m, KindDiffAck, DiffAck{})
			if v := r.finish(done); v != nil {
				t.Fatalf("release panicked: %v", v)
			}
			check(r, oc.o, crashAt)
		})
	}
}
