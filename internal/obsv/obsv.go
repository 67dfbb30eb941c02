// Package obsv is the simulator's observability layer: a per-node,
// allocation-light event tracer plus a shared metrics registry (counters
// and histograms) that every layer of the SDSM accounts into.
//
// Each node owns one Tracer and records typed events stamped with the
// node's virtual clock: page faults, twin creation, diff make/apply,
// home updates, lock and barrier traffic, log flushes, ARQ retries and
// recovery replay. A Collector aggregates the per-node tracers and can
// export them as a Chrome trace-event JSON file (chrome.go), merge the
// histograms (metrics.go), or walk the Lamport send/receive edges
// backward to attribute the end-to-end virtual runtime to compute,
// coherence, logging, faults and retries (critpath.go).
//
// Two properties are load-bearing:
//
//   - Disabled tracing is free. A nil *Tracer is the off switch; every
//     method has a nil-receiver fast path, so instrumented code calls
//     nd.trc.Seg(...) unconditionally and pays nothing when tracing is
//     off (no allocation, no branch beyond the nil check).
//
//   - Enabled tracing is deterministic. Events are only recorded from
//     code paths whose timing is a pure function of the seed (the app
//     goroutine's own clock, or handler paths whose stamps are derived
//     from deterministic arrival times). Export sorts each node's
//     buffer into a canonical order, so the same seed yields a
//     byte-identical trace file even though service-side events are
//     appended in racy goroutine order.
package obsv

import (
	"sync"

	"sdsm/internal/simtime"
)

// EventKind identifies what happened.
type EventKind uint8

// Event kinds. Segments (FlagSeg) tile the application goroutine's
// timeline and are the input to the critical-path walker; service spans
// (FlagSvc) live on the service track and carry the Lamport edge of the
// request that produced the reply; the rest are decorative context for
// the Chrome trace.
const (
	EvCompute        EventKind = iota // app seg: modeled computation
	EvPageFault                       // app seg: access-fault handling cost
	EvPageFetch                       // decorative: whole remote-page fetch
	EvTwinCreate                      // app seg: twin copy before first write
	EvDiffMake                        // app seg: word-compare against twins
	EvDiffApply                       // service instant: one diff applied at home
	EvHomeUpdate                      // service span: DiffUpdate processed at home
	EvPageServe                       // service span: PageReq served at home
	EvLockAcquire                     // decorative: whole acquire (flush+stall)
	EvLockRelease                     // decorative: whole release
	EvLockGrant                       // service span: lock granted by manager
	EvBarrierWait                     // decorative: whole barrier (flush+stall)
	EvBarrierRelease                  // service span: barrier round released
	EvLogFlush                        // app seg: synchronous log flush
	EvFlushWait                       // app seg: residual wait for overlapped flush
	EvCheckpoint                      // app seg: checkpoint written
	EvArqRetry                        // app seg: retransmission timeout stall
	EvRecv                            // app seg: wait for a message/reply
	EvRecvDetached                    // app seg: detached (recovery) wait
	EvReplayOp                        // app seg: recovery log read / replay charge
	EvPrefetch                        // decorative: recovery page-prefetch round
	EvDiffFetch                       // decorative: recovery logged-diff fetch round
	EvTailFetch                       // decorative: recovery sender-log grant/release fetch
	EvHomeRebuild                     // decorative: torn-tail home-update reconstruction
	EvCatchUp                         // decorative: detach-time home-page catch-up
	EvObit                            // service instant: obituary processed (node declared dead)
	EvAdoptServe                      // service span: custody copy rebuilt and served by adopter
	EvLeaseWait                       // app seg: stall until a dead peer's lease expired
	EvOp                              // decorative: one traced serving op, root of its span tree
	numEventKinds
)

var eventNames = [numEventKinds]string{
	"compute", "page-fault", "page-fetch", "twin-create", "diff-make",
	"diff-apply", "home-update", "page-serve", "lock-acquire",
	"lock-release", "lock-grant", "barrier-wait", "barrier-release",
	"log-flush", "flush-wait", "checkpoint", "arq-retry", "recv",
	"recv-detached", "replay-op", "prefetch", "diff-fetch", "tail-fetch",
	"home-rebuild", "catch-up", "obituary", "adopt-serve", "lease-wait",
	"op",
}

// EventKindByName resolves a display name back to its kind (for the
// CLI -kind filter). The second result is false for unknown names.
func EventKindByName(name string) (EventKind, bool) {
	for k, n := range eventNames {
		if n == name {
			return EventKind(k), true
		}
	}
	return 0, false
}

// argNames labels Arg1/Arg2 per kind in the Chrome export ("" = omit).
var argNames = [numEventKinds][2]string{
	EvCompute:        {"flops", ""},
	EvPageFault:      {"page", ""},
	EvPageFetch:      {"page", "bytes"},
	EvTwinCreate:     {"page", "bytes"},
	EvDiffMake:       {"bytes_compared", "diffs"},
	EvDiffApply:      {"page", "bytes"},
	EvHomeUpdate:     {"diffs", "bytes"},
	EvPageServe:      {"page", "bytes"},
	EvLockAcquire:    {"lock", "op"},
	EvLockRelease:    {"lock", "op"},
	EvLockGrant:      {"lock", ""},
	EvBarrierWait:    {"barrier", "op"},
	EvBarrierRelease: {"barrier", "waiters"},
	EvLogFlush:       {"bytes", ""},
	EvFlushWait:      {"bytes", ""},
	EvCheckpoint:     {"bytes", ""},
	EvArqRetry:       {"kind", "attempt"},
	EvRecv:           {"kind", "bytes"},
	EvRecvDetached:   {"kind", "bytes"},
	EvReplayOp:       {"op", "bytes"},
	EvPrefetch:       {"count", ""},
	EvDiffFetch:      {"count", "bytes"},
	EvTailFetch:      {"idx", ""},
	EvHomeRebuild:    {"fetches", "bytes"},
	EvCatchUp:        {"fetches", "bytes"},
	EvObit:           {"node", "at"},
	EvAdoptServe:     {"page", "bytes"},
	EvLeaseWait:      {"node", ""},
	EvOp:             {"key", "seq"},
}

// String returns the event kind's stable display name.
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return "event-?"
}

// Cat is the overhead category an event's duration is attributed to by
// the critical-path report.
type Cat uint8

// Overhead categories, mirroring the paper's §4 breakdown.
const (
	CatOther     Cat = iota // unattributed gaps
	CatCompute              // modeled application computation
	CatCoherence            // faults' page traffic, diffs, sync stalls, wire time
	CatLogging              // log flushes, flush residuals, checkpoints
	CatFault                // access-fault handling cost
	CatRetry                // ARQ retransmission stalls (injected faults)
	CatRecovery             // replay, prefetch and detached waits
	NumCats
)

var catNames = [NumCats]string{
	"other", "compute", "coherence", "logging", "fault", "retry", "recovery",
}

// String returns the category's stable display name.
func (c Cat) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return "cat-?"
}

// Thread ids inside a node's trace process.
const (
	TidApp     = 0 // application goroutine (its segs tile the node's clock)
	TidService = 1 // protocol service goroutine (handler spans)
	TidDisk    = 2 // overlapped disk writes
)

// Event flags.
const (
	// FlagSeg marks an application-timeline segment: the segs of one node
	// are non-overlapping and tile the node's virtual clock, which is what
	// makes the critical-path walk sound.
	FlagSeg uint8 = 1 << iota
	// FlagSvc marks a service-side span whose T1 is a reply stamp; the
	// walker jumps into these through receive edges.
	FlagSvc
)

// Event is one typed trace record. T0/T1 bound the event on the node's
// virtual clock; From/SentAt carry the Lamport edge of the message that
// produced the event (From < 0 when there is none); Trace is the causal
// request context the event belongs to (zero when untraced).
type Event struct {
	T0     simtime.Time
	T1     simtime.Time
	SentAt simtime.Time
	Arg1   int64
	Arg2   int64
	Trace  TraceCtx
	From   int32
	Kind   EventKind
	Cat    Cat
	Tid    uint8
	Flags  uint8
}

// Tracer records one node's events and histogram observations. The nil
// tracer is valid and discards everything at zero cost.
type Tracer struct {
	mu     sync.Mutex
	node   int
	events []Event
	hists  [numHists]Hist
	// cur is the trace context of the in-flight application op,
	// stamped into every app-side event and read by the endpoint's send
	// path. It is owned by the node's application goroutine (see
	// SetTrace), so it needs no lock.
	cur TraceCtx
}

func (t *Tracer) append(ev Event) {
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Seg records an application-timeline attribution segment [t0, t1),
// stamped with the current trace context.
func (t *Tracer) Seg(kind EventKind, cat Cat, t0, t1 simtime.Time, a1, a2 int64) {
	if t == nil || t1 <= t0 {
		return
	}
	t.append(Event{T0: t0, T1: t1, Arg1: a1, Arg2: a2, Trace: t.cur, From: -1, Kind: kind, Cat: cat, Tid: TidApp, Flags: FlagSeg})
}

// Recv records the app goroutine waiting on a message: the segment ends
// when the wait returns and carries the sender edge for the walker.
func (t *Tracer) Recv(t0, t1 simtime.Time, from int, sentAt simtime.Time, msgKind uint8, bytes int) {
	if t == nil || t1 <= t0 {
		return
	}
	t.append(Event{T0: t0, T1: t1, SentAt: sentAt, Arg1: int64(msgKind), Arg2: int64(bytes), Trace: t.cur, From: int32(from), Kind: EvRecv, Cat: CatCoherence, Tid: TidApp, Flags: FlagSeg})
}

// RecvDetached is Recv for recovery's detached waits; it is attributed
// to recovery and carries no walkable edge.
func (t *Tracer) RecvDetached(t0, t1 simtime.Time, from int, sentAt simtime.Time, msgKind uint8, bytes int) {
	if t == nil || t1 <= t0 {
		return
	}
	t.append(Event{T0: t0, T1: t1, SentAt: sentAt, Arg1: int64(msgKind), Arg2: int64(bytes), From: int32(from), Kind: EvRecvDetached, Cat: CatRecovery, Tid: TidApp, Flags: FlagSeg})
}

// Span records a decorative app-track span (context only; the walker
// ignores it because the segs inside it already tile the same window).
func (t *Tracer) Span(kind EventKind, t0, t1 simtime.Time, a1, a2 int64) {
	if t == nil || t1 <= t0 {
		return
	}
	t.append(Event{T0: t0, T1: t1, Arg1: a1, Arg2: a2, Trace: t.cur, From: -1, Kind: kind, Tid: TidApp})
}

// DiskSpan records an overlapped disk write on the disk track.
func (t *Tracer) DiskSpan(kind EventKind, t0, t1 simtime.Time, a1, a2 int64) {
	if t == nil || t1 <= t0 {
		return
	}
	t.append(Event{T0: t0, T1: t1, Arg1: a1, Arg2: a2, Trace: t.cur, From: -1, Kind: kind, Cat: CatLogging, Tid: TidDisk})
}

// SvcSpan records a service-side handler span ending at a reply stamp,
// carrying the Lamport edge of the request that produced it. tc is the
// trace context piggybacked on the request being served, which is what
// joins the manager's grant span or the home's update span to the
// requesting op's cross-node span tree; work no request carries a context
// for passes the zero one. (Service handlers run off the app goroutine, so
// they must not read the tracer's current context.)
func (t *Tracer) SvcSpan(tc TraceCtx, kind EventKind, cat Cat, t0, t1 simtime.Time, from int, sentAt simtime.Time, a1, a2 int64) {
	if t == nil || t1 <= t0 {
		return
	}
	t.append(Event{T0: t0, T1: t1, SentAt: sentAt, Arg1: a1, Arg2: a2, Trace: tc, From: int32(from), Kind: kind, Cat: cat, Tid: TidService, Flags: FlagSvc})
}

// SvcInstant records a zero-duration service-track marker under trace
// context tc (see SvcSpan).
func (t *Tracer) SvcInstant(tc TraceCtx, kind EventKind, at simtime.Time, a1, a2 int64) {
	if t == nil {
		return
	}
	t.append(Event{T0: at, T1: at, Arg1: a1, Arg2: a2, Trace: tc, From: -1, Kind: kind, Cat: CatCoherence, Tid: TidService})
}

// Observe adds one value to the tracer's histogram id.
func (t *Tracer) Observe(id HistID, v int64) {
	if t == nil {
		return
	}
	t.hists[id].Observe(v)
}

// Hist exposes the tracer's histogram id so other layers (e.g. stable
// storage) can feed it directly; nil when the tracer is disabled.
func (t *Tracer) Hist(id HistID) *Hist {
	if t == nil {
		return nil
	}
	return &t.hists[id]
}

// Node returns the node id this tracer records for.
func (t *Tracer) Node() int {
	if t == nil {
		return -1
	}
	return t.node
}

// EventCount returns the number of recorded events.
func (t *Tracer) EventCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the recorded events in canonical order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	evs := make([]Event, len(t.events))
	copy(evs, t.events)
	t.mu.Unlock()
	sortCanonical(evs)
	return evs
}

// Collector owns the per-node tracers of one run.
type Collector struct {
	tracers []*Tracer
}

// NewCollector returns a collector with one tracer per node.
func NewCollector(nodes int) *Collector {
	c := &Collector{tracers: make([]*Tracer, nodes)}
	for i := range c.tracers {
		c.tracers[i] = &Tracer{node: i}
	}
	return c
}

// Tracer returns node i's tracer; nil when the collector is nil or i is
// out of range, so wiring code can pass it through unconditionally.
func (c *Collector) Tracer(i int) *Tracer {
	if c == nil || i < 0 || i >= len(c.tracers) {
		return nil
	}
	return c.tracers[i]
}

// Nodes returns the cluster size the collector was built for.
func (c *Collector) Nodes() int {
	if c == nil {
		return 0
	}
	return len(c.tracers)
}

// EventCount returns the total number of events across all nodes.
func (c *Collector) EventCount() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, t := range c.tracers {
		n += t.EventCount()
	}
	return n
}

// MergedHist merges histogram id across all nodes.
func (c *Collector) MergedHist(id HistID) HistSnapshot {
	var s HistSnapshot
	if c == nil {
		return s
	}
	for _, t := range c.tracers {
		s.Merge(t.hists[id].Snapshot())
	}
	return s
}
