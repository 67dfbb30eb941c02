package hlrc

import "sdsm/internal/obsv"

// Stats is the node's protocol counter set. It is an alias of the shared
// obsv registry type so the HLRC engine and the logging layer account
// into one source of truth.
type Stats = obsv.Counters

// Snapshot is the plain-value copy of Stats, suitable for summing and
// printing after a run.
type Snapshot = obsv.CountersSnapshot
