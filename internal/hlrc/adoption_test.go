package hlrc

import (
	"bytes"
	"testing"

	"sdsm/internal/memory"
	"sdsm/internal/obsv"
	"sdsm/internal/simtime"
	"sdsm/internal/transport"
	"sdsm/internal/vclock"
)

// A custody rebuild runs on the service goroutine and waits for the
// writers' log reads there. That wait must leave the application's tracer
// alone: no event on the application track, and no read of the trace
// context the application goroutine sets per op. The order is forced, not
// hoped for: the application is inside a traced op when the rebuild
// starts, and ends the op once the peer is answering and before anything
// orders it against the rebuild's wait — so under -race a read of the
// context from the rebuild is reported, and without -race the stray
// application-track event is.
func TestCustodyRebuildLeavesAppTracerAlone(t *testing.T) {
	model := simtime.DefaultCostModel()
	nw := transport.NewNetwork(2, model)
	col := obsv.NewCollector(2)
	// Node 1's log read tells the application goroutine that the
	// rebuild's log read is being answered.
	replied := make(chan struct{})
	logDiffs := []func(*RecDiffsReq) *RecDiffsReply{nil, func(*RecDiffsReq) *RecDiffsReply {
		close(replied)
		return &RecDiffsReply{}
	}}
	nodes := make([]*Node, 2)
	for i := range nodes {
		nodes[i] = NewNode(Config{
			ID: i, N: 2, PageSize: accPageSize, NumPages: 2,
			Homes: []int{0, 1}, Model: model, Tracer: col.Tracer(i),
			LogDiffs: logDiffs[i],
		}, nw, simtime.NewClock(0), nil, nil)
	}
	for _, nd := range nodes {
		nd.StartService()
	}
	defer stopAll(nodes)

	nd, trc := nodes[0], col.Tracer(0)
	trc.SetTrace(obsv.TraceCtx{TraceID: 7, SpanID: 9, Tag: obsv.TagKVWrite}) // the op begins
	rebuilt := make(chan struct{})
	go func() { // node 0's service goroutine, serving a page request for an adopted page
		defer close(rebuilt)
		need := vclock.New(2)
		need[1] = 1 // node 1's first interval: one log read over the wire
		nd.rebuildCustody(1, need, 0)
	}()
	<-replied
	trc.SetTrace(obsv.TraceCtx{}) // the op ends
	<-rebuilt

	for _, ev := range trc.Events() {
		if ev.Tid == obsv.TidApp {
			t.Errorf("custody rebuild recorded %v on the application track (trace %+v)", ev.Kind, ev.Trace)
		}
	}
}

// TestShortVTServesAlike: a versioned fetch whose VT names fewer writers
// than the cluster has reads each entry it lacks as 0, the vector-clock
// convention, at an owner and at an adopter alike. The owner's rolled-back
// copy (serveAt) and the adopter's custody rebuild (rebuildCustody) of the
// arrival-order test's intervals are the same bytes: the zero page with
// the intervals the VT, padded with zeros, admits applied.
func TestShortVTServesAlike(t *testing.T) {
	owner := orderHome([]int{evClose, 1, 2, 3, 4})
	model := simtime.DefaultCostModel()
	nw := transport.NewNetwork(4, model)
	noLog := func(*RecDiffsReq) *RecDiffsReply { return &RecDiffsReply{} }
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i] = NewNode(Config{
			ID: i, N: 4, PageSize: orderPageSize, NumPages: 2,
			Homes: []int{0, 0}, Model: model, LogDiffs: noLog,
		}, nw, simtime.NewClock(0), nil, nil)
		nodes[i].StartService()
	}
	defer stopAll(nodes)
	adopter := nodes[1] // its custody record holds every interval; the logs none
	adopter.mu.Lock()
	for k, iv := range orderIntervals {
		for _, d := range orderDiffs[k] {
			if d != nil {
				adopter.home.record(*d, iv.writer, iv.seq, iv.vt.Sum())
			}
		}
	}
	adopter.mu.Unlock()

	for _, short := range []vclock.VC{nil, {}, {1}, {0, 1}, {1, 1}, {1, 1, 1}, {1, 1, 2}} {
		padded := vclock.New(4)
		copy(padded, short)
		for p := memory.PageID(0); p < 2; p++ {
			want, _ := orderCanonical(t, p, padded)
			fromOwner := owner.serveAt(p, short)
			fromAdopter, _ := adopter.rebuildCustody(p, short, 0)
			if !bytes.Equal(fromOwner, want) || !bytes.Equal(fromAdopter, want) {
				t.Errorf("page %d at VT %v: owner serves %x, adopter %x, want %x (VT %v)",
					p, short, fromOwner, fromAdopter, want, padded)
			}
		}
	}
}
