package obsv

import "sync/atomic"

// Counters is the shared per-node counter registry — the one source of
// truth for protocol bookkeeping. All fields are atomics so any
// goroutine of the node may bump them.
type Counters struct {
	// Coherence protocol counters.
	Faults        atomic.Int64 // access faults taken
	PageFetches   atomic.Int64 // pages fetched from homes
	TwinsCreated  atomic.Int64 // twins created on first write
	DiffsCreated  atomic.Int64 // diffs produced at releases
	DiffBytesSent atomic.Int64 // diff bytes shipped to homes
	DiffsApplied  atomic.Int64 // diffs applied at this home
	LockAcquires  atomic.Int64 // lock acquires completed
	Barriers      atomic.Int64 // barriers completed
	Intervals     atomic.Int64 // intervals (vector-time ticks)
	EarlyCloses   atomic.Int64 // early interval closes at acquires

	// Logging-layer counters.
	LogAppends atomic.Int64 // records staged into the protocol's log

	// Online-recovery counters (lease-based liveness and home adoption).
	HomeAdoptions    atomic.Int64 // dead homes whose pages this node took into custody
	AdoptedDiffs     atomic.Int64 // diffs applied to custody copies (backfill + direct)
	LockRevocations  atomic.Int64 // locks this manager reclaimed from a dead holder
	RedirectedCalls  atomic.Int64 // requests re-resolved against an adopter (or back home)
	LeaseWaitsServed atomic.Int64 // operations stalled until a dead peer's lease expired

	// Membership-epoch counters (partition-safe fencing and rejoin).
	EpochBumps   atomic.Int64 // epoch adoptions that advanced this node's view
	FencedMsgs   atomic.Int64 // stale-epoch messages this node fenced
	RejoinPhases atomic.Int64 // catch-up phases run while re-admitting this node
	RejoinServed atomic.Int64 // operations this node completed after rejoining
}

// Snapshot returns a plain-value copy of the counters.
func (c *Counters) Snapshot() CountersSnapshot {
	return CountersSnapshot{
		Faults:        c.Faults.Load(),
		PageFetches:   c.PageFetches.Load(),
		TwinsCreated:  c.TwinsCreated.Load(),
		DiffsCreated:  c.DiffsCreated.Load(),
		DiffBytesSent: c.DiffBytesSent.Load(),
		DiffsApplied:  c.DiffsApplied.Load(),
		LockAcquires:  c.LockAcquires.Load(),
		Barriers:      c.Barriers.Load(),
		Intervals:     c.Intervals.Load(),
		EarlyCloses:   c.EarlyCloses.Load(),
		LogAppends:    c.LogAppends.Load(),

		HomeAdoptions:    c.HomeAdoptions.Load(),
		AdoptedDiffs:     c.AdoptedDiffs.Load(),
		LockRevocations:  c.LockRevocations.Load(),
		RedirectedCalls:  c.RedirectedCalls.Load(),
		LeaseWaitsServed: c.LeaseWaitsServed.Load(),

		EpochBumps:   c.EpochBumps.Load(),
		FencedMsgs:   c.FencedMsgs.Load(),
		RejoinPhases: c.RejoinPhases.Load(),
		RejoinServed: c.RejoinServed.Load(),
	}
}

// CountersSnapshot is the plain-value form of Counters, suitable for
// summing, printing and JSON export.
type CountersSnapshot struct {
	Faults        int64 `json:"faults"`
	PageFetches   int64 `json:"page_fetches"`
	TwinsCreated  int64 `json:"twins_created"`
	DiffsCreated  int64 `json:"diffs_created"`
	DiffBytesSent int64 `json:"diff_bytes_sent"`
	DiffsApplied  int64 `json:"diffs_applied"`
	LockAcquires  int64 `json:"lock_acquires"`
	Barriers      int64 `json:"barriers"`
	Intervals     int64 `json:"intervals"`
	EarlyCloses   int64 `json:"early_closes"`
	LogAppends    int64 `json:"log_appends"`

	HomeAdoptions    int64 `json:"home_adoptions,omitempty"`
	AdoptedDiffs     int64 `json:"adopted_diffs,omitempty"`
	LockRevocations  int64 `json:"lock_revocations,omitempty"`
	RedirectedCalls  int64 `json:"redirected_calls,omitempty"`
	LeaseWaitsServed int64 `json:"lease_waits_served,omitempty"`

	EpochBumps   int64 `json:"epoch_bumps,omitempty"`
	FencedMsgs   int64 `json:"fenced_msgs,omitempty"`
	RejoinPhases int64 `json:"rejoin_phases,omitempty"`
	RejoinServed int64 `json:"rejoin_served,omitempty"`
}

// Each calls fn for every counter in a fixed, stable order with its
// snake_case export name (the JSON tag). Telemetry surfaces iterate
// through this so the set of exposed counter families can never drift
// from the registry.
func (s CountersSnapshot) Each(fn func(name string, v int64)) {
	fn("faults", s.Faults)
	fn("page_fetches", s.PageFetches)
	fn("twins_created", s.TwinsCreated)
	fn("diffs_created", s.DiffsCreated)
	fn("diff_bytes_sent", s.DiffBytesSent)
	fn("diffs_applied", s.DiffsApplied)
	fn("lock_acquires", s.LockAcquires)
	fn("barriers", s.Barriers)
	fn("intervals", s.Intervals)
	fn("early_closes", s.EarlyCloses)
	fn("log_appends", s.LogAppends)
	fn("home_adoptions", s.HomeAdoptions)
	fn("adopted_diffs", s.AdoptedDiffs)
	fn("lock_revocations", s.LockRevocations)
	fn("redirected_calls", s.RedirectedCalls)
	fn("lease_waits_served", s.LeaseWaitsServed)
	fn("epoch_bumps", s.EpochBumps)
	fn("fenced_msgs", s.FencedMsgs)
	fn("rejoin_phases", s.RejoinPhases)
	fn("rejoin_served", s.RejoinServed)
}

// Add accumulates o into s.
func (s *CountersSnapshot) Add(o CountersSnapshot) {
	s.Faults += o.Faults
	s.PageFetches += o.PageFetches
	s.TwinsCreated += o.TwinsCreated
	s.DiffsCreated += o.DiffsCreated
	s.DiffBytesSent += o.DiffBytesSent
	s.DiffsApplied += o.DiffsApplied
	s.LockAcquires += o.LockAcquires
	s.Barriers += o.Barriers
	s.Intervals += o.Intervals
	s.EarlyCloses += o.EarlyCloses
	s.LogAppends += o.LogAppends
	s.HomeAdoptions += o.HomeAdoptions
	s.AdoptedDiffs += o.AdoptedDiffs
	s.LockRevocations += o.LockRevocations
	s.RedirectedCalls += o.RedirectedCalls
	s.LeaseWaitsServed += o.LeaseWaitsServed
	s.EpochBumps += o.EpochBumps
	s.FencedMsgs += o.FencedMsgs
	s.RejoinPhases += o.RejoinPhases
	s.RejoinServed += o.RejoinServed
}
