package hlrc

import (
	"testing"

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
		nd.RebuildCustody(1, need, 0)
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
