package obsv

import (
	"bytes"
	"encoding/json"
	"testing"
)

// Trace IDs must be a pure function of (seed, node, seq): that is the
// whole same-seed-byte-identical story. Equal inputs give equal IDs,
// nearby inputs give distinct IDs, and 0 (the untraced sentinel) is
// never minted.
func TestTraceIDDeterminism(t *testing.T) {
	if NewTraceID(7, 3, 41) != NewTraceID(7, 3, 41) {
		t.Fatal("same inputs minted different trace ids")
	}
	seen := map[uint64]bool{}
	for node := 0; node < 8; node++ {
		for seq := int64(0); seq < 256; seq++ {
			id := NewTraceID(1, node, seq)
			if id == 0 {
				t.Fatalf("NewTraceID(1, %d, %d) = 0", node, seq)
			}
			if seen[id] {
				t.Fatalf("collision at node %d seq %d", node, seq)
			}
			seen[id] = true
		}
	}
	if NewTraceID(1, 0, 0) == NewTraceID(2, 0, 0) {
		t.Fatal("different seeds minted the same id")
	}
	if RootSpanID(NewTraceID(1, 0, 0)) == 0 || ChildSpanID(5, 3) == 0 {
		t.Fatal("span ids must never be the 0 sentinel")
	}
	if ChildSpanID(5, 3) != ChildSpanID(5, 3) || ChildSpanID(5, 3) == ChildSpanID(5, 4) {
		t.Fatal("child span ids must be deterministic per (parent, kind)")
	}
}

func TestTraceIDFormatParse(t *testing.T) {
	id := NewTraceID(42, 1, 9)
	s := FormatTraceID(id)
	if len(s) != 16 {
		t.Fatalf("formatted id %q is not 16 hex digits", s)
	}
	back, err := ParseTraceID(s)
	if err != nil || back != id {
		t.Fatalf("round trip %q -> %x, %v; want %x", s, back, err, id)
	}
	if _, err := ParseTraceID("0"); err == nil {
		t.Fatal("parse must reject the 0 sentinel")
	}
	if _, err := ParseTraceID("not-hex"); err == nil {
		t.Fatal("parse must reject junk")
	}
}

// SetTrace installs a context stamped into app-side events and spans;
// RecvDetached (the recovery wait) deliberately stays untraced; a nil
// tracer accepts everything silently.
func TestTracerTraceStamping(t *testing.T) {
	var nilT *Tracer
	nilT.SetTrace(TraceCtx{TraceID: 1})
	if nilT.Trace().Valid() {
		t.Fatal("nil tracer returned a live trace")
	}

	c := NewCollector(1)
	trc := c.Tracer(0)
	tc := TraceCtx{TraceID: 0xabc, SpanID: 0xdef, Tag: TagKVWrite}
	trc.SetTrace(tc)
	trc.Seg(EvCompute, CatCompute, 0, 10, 0, 0)
	trc.Span(EvLockAcquire, 10, 20, 1, 0)
	trc.Recv(20, 30, 1, 25, 7, 64)
	trc.RecvDetached(30, 40, 1, 35, 7, 64)
	trc.SetTrace(TraceCtx{})
	trc.Seg(EvCompute, CatCompute, 40, 50, 0, 0)

	evs := trc.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events", len(evs))
	}
	for i, want := range []TraceCtx{tc, tc, tc, {}, {}} {
		if evs[i].Trace != want {
			t.Fatalf("event %d (%v) trace = %+v, want %+v", i, evs[i].Kind, evs[i].Trace, want)
		}
	}
}

// The per-message piggyback — reading the current context and deriving
// the receiver-side child context — is on the steady-state release path
// and must not allocate.
func TestTraceCtxPiggybackZeroAlloc(t *testing.T) {
	c := NewCollector(1)
	trc := c.Tracer(0)
	trc.SetTrace(TraceCtx{TraceID: 0xfeed, SpanID: 0xbeef, Tag: TagKVWrite})
	var sink TraceCtx
	allocs := testing.AllocsPerRun(500, func() {
		tc := trc.Trace() // sender: stamp outbound message
		if tc.Valid() {   // receiver: open the child span
			tc.SpanID = ChildSpanID(tc.SpanID, 7)
		}
		sink = tc
	})
	if allocs != 0 {
		t.Fatalf("trace piggyback allocated %.1f times per op, want 0", allocs)
	}
	if !sink.Valid() {
		t.Fatal("piggyback lost the context")
	}
}

// tracedCollector models one traced op: the root on node 0, two phase
// spans, a traced receive, and the remote service span it pairs with.
func tracedCollector() (*Collector, TraceCtx) {
	tc := TraceCtx{TraceID: NewTraceID(3, 0, 1), Tag: TagKVRead}
	tc.SpanID = RootSpanID(tc.TraceID)
	child := tc
	child.SpanID = ChildSpanID(tc.SpanID, 7)

	c := NewCollector(2)
	n0 := c.Tracer(0)
	n0.SetTrace(tc)
	n0.Span(EvLockAcquire, 0, 1000, 1, 0)
	n0.Span(EvPageFetch, 1000, 3000, 3, 0)
	n0.Recv(1000, 3000, 1, 2500, 7, 4096)
	n0.Span(EvOp, 0, 3000, 9, 1)
	n0.SetTrace(TraceCtx{})
	n0.Seg(EvCompute, CatCompute, 3000, 3500, 0, 0) // untraced tail
	c.Tracer(1).SvcSpan(child, EvPageServe, CatCoherence, 2400, 2500, 0, 1000, 3, 4096)
	return c, tc
}

func TestTraceBreakdowns(t *testing.T) {
	c, tc := tracedCollector()
	bds := c.TraceBreakdowns()
	if len(bds) != 1 {
		t.Fatalf("got %d breakdowns, want 1", len(bds))
	}
	b := bds[0]
	if b.Trace.TraceID != tc.TraceID || b.Trace.Tag != TagKVRead {
		t.Fatalf("trace identity = %+v", b.Trace)
	}
	if b.Node != 0 || b.Start != 0 || b.End != 3000 || b.Total() != 3000 {
		t.Fatalf("root bounds = node %d [%d %d]", b.Node, b.Start, b.End)
	}
	if b.Phase[EvLockAcquire] != 1000 || b.Phase[EvPageFetch] != 2000 {
		t.Fatalf("phase attribution = %v", b.Phase)
	}
	if b.SvcTime != 100 {
		t.Fatalf("svc time = %d, want 100", b.SvcTime)
	}
	if b.NodesHit != 2 || b.Spans != 5 {
		t.Fatalf("nodes hit %d spans %d, want 2/5", b.NodesHit, b.Spans)
	}
	if k, d := b.Dominant(); k != EvPageFetch || d != 2000 {
		t.Fatalf("dominant = %v %d", k, d)
	}
}

func TestTraceEventsOrderAndScope(t *testing.T) {
	c, tc := tracedCollector()
	evs := c.TraceEvents(tc.TraceID)
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5 (untraced tail must be excluded)", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Event.T0 < evs[i-1].Event.T0 {
			t.Fatal("trace events not sorted by start time")
		}
	}
	if got := c.TraceEvents(0); got != nil {
		t.Fatal("sentinel trace id must resolve to nothing")
	}
	if got := c.TraceEvents(tc.TraceID + 1); got != nil {
		t.Fatal("unknown trace id must resolve to nothing")
	}
}

// Traced events must export flow-event pairs ("s" on the sender, "f"
// with bp:e on the receiver) sharing an id, plus trace/span args on the
// spans themselves — the arrows Perfetto draws between processes.
func TestChromeTraceFlowEvents(t *testing.T) {
	c, tc := tracedCollector()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, c); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			ID   string         `json:"id"`
			BP   string         `json:"bp"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	starts, finishes := map[string]int{}, map[string]int{}
	traced := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "s":
			if ev.ID == "" {
				t.Fatalf("flow start without id: %+v", ev)
			}
			starts[ev.ID] = ev.Pid
		case "f":
			if ev.BP != "e" {
				t.Fatalf("flow finish without bp:e: %+v", ev)
			}
			finishes[ev.ID] = ev.Pid
		case "X", "i":
			if ev.Args["trace"] == FormatTraceID(tc.TraceID) {
				traced++
			}
		}
	}
	// Two traced receives: the app-side Recv on node 0 and the service
	// span on node 1 — two flow pairs, arrows in both directions.
	if len(starts) != 2 || len(finishes) != 2 {
		t.Fatalf("flow pairs = %d starts / %d finishes, want 2/2", len(starts), len(finishes))
	}
	for id, fromPid := range starts {
		toPid, ok := finishes[id]
		if !ok {
			t.Fatalf("flow %s has a start but no finish", id)
		}
		if fromPid == toPid {
			t.Fatalf("flow %s does not cross processes (%d -> %d)", id, fromPid, toPid)
		}
	}
	if traced != 5 {
		t.Fatalf("%d exported spans carry the trace arg, want 5", traced)
	}
}

// The node/kind export filter must drop everything outside the slice,
// including flow halves whose peer process is filtered out.
func TestChromeTraceFilter(t *testing.T) {
	c, _ := tracedCollector()
	var buf bytes.Buffer
	f := NoChromeFilter()
	f.Node = 1
	if err := WriteChromeTraceFiltered(&buf, c, f); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Pid != 1 {
			t.Fatalf("node filter leaked pid %d (ph %s)", ev.Pid, ev.Ph)
		}
		if ev.Ph == "s" || ev.Ph == "f" {
			t.Fatalf("flow half survived though its peer process is filtered: %+v", ev)
		}
	}

	buf.Reset()
	f = NoChromeFilter()
	f.Kind = EvPageServe
	if err := WriteChromeTraceFiltered(&buf, c, f); err != nil {
		t.Fatal(err)
	}
	var kd struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &kd); err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, ev := range kd.TraceEvents {
		if ev.Ph == "X" {
			spans++
			if ev.Name != EvPageServe.String() {
				t.Fatalf("kind filter leaked %q", ev.Name)
			}
		}
	}
	if spans != 1 {
		t.Fatalf("kind filter kept %d spans, want 1", spans)
	}
}

// Untraced collectors (every pre-tracing golden) must export exactly as
// before: zero-value contexts add no args and no flow events. The byte
// lock is TestChromeTraceGolden; this pins the reason it still holds.
func TestUntracedExportHasNoFlowEvents(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenCollector()); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"ph":"s"`)) ||
		bytes.Contains(buf.Bytes(), []byte(`"ph":"f"`)) ||
		bytes.Contains(buf.Bytes(), []byte(`"trace"`)) {
		t.Fatal("untraced export emitted trace artifacts")
	}
}
