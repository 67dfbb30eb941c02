package hlrc

import (
	"sdsm/internal/memory"
	"sdsm/internal/simtime"
)

// UpdateEvent is the record of one incoming asynchronous update applied at
// a home node: "interval number, page id of a home copy, and the writer
// process id" (paper §3.3). It carries no page content — that is the
// essence of CCL's log-size reduction.
type UpdateEvent struct {
	Page   memory.PageID
	Writer int32
	Seq    int32
}

// LogHooks is the interface between the coherence engine and a logging
// protocol. The engine reports every loggable event; the protocol decides
// what to keep and returns, from the two flush points, the bytes the
// flush wrote so the engine can charge disk time with the protocol's
// overlap policy.
//
// All hook methods are called with the engine's mutex held except
// AtSyncEntry and AtRelease, which are called from the application
// goroutine at well-defined protocol points. A hook must not keep the
// events, diffs or notices slices after the call returns: the engine
// reuses the first two, and the notices belong to a received message.
type LogHooks interface {
	// OnAcquireNotices reports the write-invalidation notices received
	// with a lock grant or barrier release during sync op `op`.
	OnAcquireNotices(op int32, notices []Notice)
	// OnPageFetched reports a page copy fetched from its home on a miss.
	OnPageFetched(op int32, page memory.PageID, data []byte)
	// OnIncomingDiffs reports diffs applied to home copies, together with
	// the corresponding update-event records and the virtual arrival time
	// of the DiffUpdate message that carried them.
	OnIncomingDiffs(op int32, arrival simtime.Time, events []UpdateEvent, diffs []memory.Diff)
	// AtSyncEntry is called at the start of every synchronization
	// operation before any communication; ML flushes its volatile log
	// here. Returns the bytes flushed (0 when nothing was written); the
	// engine charges full disk time on the critical path.
	AtSyncEntry(op int32) int
	// AtRelease is called at a release or barrier arrival once the
	// interval's diffs are made and before any of them leaves for its
	// home; CCL flushes here. The flush comes first because a home must
	// not apply a diff its writer has not logged: torn-tail recovery
	// re-fetches lost home updates from the writers' logs.
	// vtSum is the sum of the closing interval's vector time, logged with
	// the interval's own diffs so recovery can apply re-fetched diffs from
	// different writers in a linear extension of their causal order.
	// cutoff is the manager-side stamp of the grant or release that opened
	// the closing interval: a protocol with DeterministicFlush composes
	// this flush only from handler-staged records that arrived by then
	// (the engine has fenced them: FenceArrivalsBefore), deferring later
	// ones to the next flush.
	// Returns the bytes flushed (0 when nothing was written); the engine
	// overlaps the disk time with the diff/ack round trip that follows.
	AtRelease(op int32, seq int32, vtSum int64, cutoff simtime.Time, created []memory.Diff) int
	// DeterministicFlush reports whether AtRelease filters staged records
	// by the arrival cutoff. The engine then fences message arrivals up to
	// the cutoff before composing, which makes flush sizes — and through
	// disk time, the whole virtual timeline — independent of goroutine
	// scheduling.
	DeterministicFlush() bool
}

// NopHooks is the no-logging protocol: the unmodified home-based SDSM
// whose execution time is the paper's baseline.
type NopHooks struct{}

// OnAcquireNotices implements LogHooks.
func (NopHooks) OnAcquireNotices(int32, []Notice) {}

// OnPageFetched implements LogHooks.
func (NopHooks) OnPageFetched(int32, memory.PageID, []byte) {}

// OnIncomingDiffs implements LogHooks.
func (NopHooks) OnIncomingDiffs(int32, simtime.Time, []UpdateEvent, []memory.Diff) {}

// AtSyncEntry implements LogHooks.
func (NopHooks) AtSyncEntry(int32) int { return 0 }

// AtRelease implements LogHooks.
func (NopHooks) AtRelease(int32, int32, int64, simtime.Time, []memory.Diff) int { return 0 }

// DeterministicFlush implements LogHooks: nothing is flushed, so nothing
// needs fencing.
func (NopHooks) DeterministicFlush() bool { return false }
