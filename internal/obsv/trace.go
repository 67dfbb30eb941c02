package obsv

import (
	"fmt"
	"sort"
	"strconv"

	"sdsm/internal/simtime"
)

// TraceCtx is the compact causal trace context piggybacked on every
// protocol message, alongside the vector times the protocol already
// carries. The zero value means "untraced" and costs nothing: it is a
// 17-byte value struct copied by value into messages and events, never
// heap-allocated, so the steady-state release path stays 0 allocs/op
// with tracing enabled.
//
// TraceID identifies one application-level operation (e.g. one KV
// read/write) across every node it touches; SpanID identifies the
// sender-side span a message originated from (the parent of whatever
// span the receiver opens); Tag is an application-defined origin-op tag
// (the KV workload uses TagKVRead/TagKVWrite).
type TraceCtx struct {
	TraceID uint64
	SpanID  uint64
	Tag     uint8
}

// Valid reports whether the context carries a live trace.
func (tc TraceCtx) Valid() bool { return tc.TraceID != 0 }

// Origin-op tags. 0 is reserved for "untagged".
const (
	TagKVRead  uint8 = 1
	TagKVWrite uint8 = 2
)

// TagName returns a stable display name for an origin-op tag.
func TagName(tag uint8) string {
	switch tag {
	case TagKVRead:
		return "kv-read"
	case TagKVWrite:
		return "kv-write"
	default:
		return "tag-" + strconv.Itoa(int(tag))
	}
}

// mix64 is the splitmix64 finalizer: a fast invertible mixer whose
// output is a pure function of its input — exactly what the
// same-seed-byte-identical invariant needs (no wall clock, no
// randomness anywhere in ID derivation).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewTraceID derives the trace identifier for the seq'th traced
// operation started by node on a run seeded with seed. It is a pure
// function of (seed, node, seq), so repeated same-seed runs — on any
// wire backend — mint identical IDs, and distinct (node, seq) pairs get
// distinct IDs with overwhelming probability. Never returns 0 (the
// untraced sentinel).
func NewTraceID(seed int64, node int, seq int64) uint64 {
	h := mix64(uint64(seed) + 0x9e3779b97f4a7c15)
	h = mix64(h ^ uint64(node+1))
	h = mix64(h ^ uint64(seq+1))
	if h == 0 {
		h = 1
	}
	return h
}

// RootSpanID derives the root span id of a trace.
func RootSpanID(traceID uint64) uint64 {
	s := mix64(traceID)
	if s == 0 {
		s = 1
	}
	return s
}

// ChildSpanID derives a deterministic span id for a child span opened
// under parent by handling a message of the given kind.
func ChildSpanID(parent uint64, kind uint8) uint64 {
	s := mix64(parent ^ (uint64(kind)+1)<<1)
	if s == 0 {
		s = 1
	}
	return s
}

// FormatTraceID renders a trace id the way every surface prints it: 16
// lowercase hex digits (the form the slowest-ops table prints and
// `sdsminspect -mode trace -trace-id` parses).
func FormatTraceID(id uint64) string {
	return fmt.Sprintf("%016x", id)
}

// ParseTraceID parses the hex form produced by FormatTraceID (with or
// without leading zeros).
func ParseTraceID(s string) (uint64, error) {
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obsv: bad trace id %q: %v", s, err)
	}
	if id == 0 {
		return 0, fmt.Errorf("obsv: trace id 0 is the untraced sentinel")
	}
	return id, nil
}

// SetTrace installs the current trace context stamped into every
// app-side event and outbound message until the next SetTrace. It must
// only be called from the node's application goroutine (the same
// ownership rule the endpoint's send path follows), which is what keeps
// it race-free without a lock.
func (t *Tracer) SetTrace(tc TraceCtx) {
	if t == nil {
		return
	}
	t.cur = tc
}

// Trace returns the current trace context (zero when the tracer is nil
// or no trace is active). App-goroutine-only, like SetTrace.
func (t *Tracer) Trace() TraceCtx {
	if t == nil {
		return TraceCtx{}
	}
	return t.cur
}

// phaseKinds are the op-phase spans the per-trace breakdown attributes
// durations to. They are the decorative whole-phase spans plus the
// app segs that sit outside them, chosen to be mutually non-overlapping
// at the phase level so the per-trace table sums sensibly:
// lock-acquire covers its entry flush and grant wait, page-fetch covers
// fault handling and the page reply wait, flush-wait is the release
// path's residual flush stall.
var phaseKinds = [...]EventKind{
	EvCompute, EvLockAcquire, EvBarrierWait, EvPageFetch,
	EvTwinCreate, EvDiffMake, EvFlushWait, EvLeaseWait,
}

// PhaseKinds returns the op-phase kinds TraceBreakdowns attributes to,
// in display order, for external renderers.
func PhaseKinds() []EventKind {
	out := make([]EventKind, len(phaseKinds))
	copy(out, phaseKinds[:])
	return out
}

// TraceBreakdown attributes one trace's virtual time to op phases
// across every node it touched.
type TraceBreakdown struct {
	Trace      TraceCtx     // TraceID + origin tag
	Node       int          // origin node (root span's node)
	Start, End simtime.Time // root span bounds on the origin clock
	Phase      map[EventKind]simtime.Duration
	SvcTime    simtime.Duration // remote service-span time (overlaps local waits; not a phase)
	Spans      int              // events stamped with this trace
	NodesHit   int              // distinct nodes with at least one such event
}

// Total is the root span's duration.
func (b TraceBreakdown) Total() simtime.Duration { return simtime.Duration(b.End - b.Start) }

// Dominant returns the phase with the largest attributed duration.
func (b TraceBreakdown) Dominant() (EventKind, simtime.Duration) {
	best, bestD := EvCompute, simtime.Duration(-1)
	for _, k := range phaseKinds {
		if d := b.Phase[k]; d > bestD {
			best, bestD = k, d
		}
	}
	return best, bestD
}

// TraceBreakdowns groups every trace-stamped event by trace ID and
// attributes each trace's time to op phases: the per-trace extension of
// the critical-path walker ("which phase of *this* op dominated").
// Traces are returned ordered by (origin start time, trace ID) so the
// output is deterministic.
func (c *Collector) TraceBreakdowns() []TraceBreakdown {
	if c == nil {
		return nil
	}
	byID := map[uint64]*TraceBreakdown{}
	nodesHit := map[uint64]map[int]bool{}
	for node := 0; node < c.Nodes(); node++ {
		for _, ev := range c.Tracer(node).Events() {
			id := ev.Trace.TraceID
			if id == 0 {
				continue
			}
			b := byID[id]
			if b == nil {
				b = &TraceBreakdown{
					Trace: TraceCtx{TraceID: id, Tag: ev.Trace.Tag},
					Node:  -1,
					Phase: map[EventKind]simtime.Duration{},
				}
				byID[id] = b
				nodesHit[id] = map[int]bool{}
			}
			b.Spans++
			nodesHit[id][node] = true
			if ev.Trace.Tag != 0 && b.Trace.Tag == 0 {
				b.Trace.Tag = ev.Trace.Tag
			}
			if ev.Kind == EvOp {
				b.Node, b.Start, b.End = node, ev.T0, ev.T1
			}
			if ev.Flags&FlagSvc != 0 {
				b.SvcTime += simtime.Duration(ev.T1 - ev.T0)
				continue
			}
			for _, k := range phaseKinds {
				if ev.Kind == k {
					b.Phase[k] += simtime.Duration(ev.T1 - ev.T0)
					break
				}
			}
		}
	}
	out := make([]TraceBreakdown, 0, len(byID))
	for id, b := range byID {
		b.NodesHit = len(nodesHit[id])
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Trace.TraceID < b.Trace.TraceID
	})
	return out
}

// TraceEvents returns every event stamped with the given trace ID,
// annotated with its node, in canonical per-node order (nodes
// ascending). This is the span-tree source `sdsminspect -mode trace`
// renders.
func (c *Collector) TraceEvents(traceID uint64) []NodeEvent {
	if c == nil || traceID == 0 {
		return nil
	}
	var out []NodeEvent
	for node := 0; node < c.Nodes(); node++ {
		for _, ev := range c.Tracer(node).Events() {
			if ev.Trace.TraceID == traceID {
				out = append(out, NodeEvent{Node: node, Event: ev})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i].Event, &out[j].Event
		if a.T0 != b.T0 {
			return a.T0 < b.T0
		}
		if a.T1 != b.T1 {
			return a.T1 > b.T1
		}
		// The op root precedes spans sharing its exact bounds.
		if (a.Kind == EvOp) != (b.Kind == EvOp) {
			return a.Kind == EvOp
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// NodeEvent is an event paired with the node that recorded it.
type NodeEvent struct {
	Node  int
	Event Event
}
