// Package core assembles the recoverable home-based SDSM: it builds the
// simulated cluster (transport, stable storage, HLRC nodes, logging
// hooks, recovery service), runs programs on it, injects crashes, drives
// recovery, and assembles the run reports the benchmarks print.
package core

import (
	"fmt"

	"sdsm/internal/fault"
	"sdsm/internal/obsv"
	"sdsm/internal/simtime"
	"sdsm/internal/wal"
)

// Config describes one run of the recoverable SDSM.
type Config struct {
	// Nodes is the cluster size (the paper uses 8).
	Nodes int
	// PageSize is the coherence unit in bytes (default 4096).
	PageSize int
	// NumPages sizes the shared address space.
	NumPages int
	// Protocol selects the logging protocol (None, ML, CCL).
	Protocol wal.Protocol
	// Model is the platform cost model; zero value means the calibrated
	// default.
	Model *simtime.CostModel
	// Homes optionally assigns a home node per page; nil means
	// block-distributed (contiguous ranges of pages per node, which
	// matches how the evaluation applications partition their data).
	Homes []int
	// HomeUndo maintains the volatile home-side undo history needed by
	// CCL-recovery's versioned fetches (RunWithCrash and RunWithChurn turn
	// it on when their plan needs it). A home page keeps history only from
	// its first remote serve on (every page, from the start, under a
	// lease), so a page no other node fetches costs nothing; off, the
	// run measures the protocol's failure-free overhead alone.
	HomeUndo bool
	// SkipInitialCheckpoint suppresses the op-0 checkpoint (failure-free
	// logging measurements, where the paper takes no checkpoints).
	SkipInitialCheckpoint bool
	// CheckpointEveryBarriers > 0 takes a periodic checkpoint after every
	// k-th barrier at lock-free points: the first checkpoint stores the
	// full image, later ones account only pages modified since (the
	// paper's §3.2 policy). The creation cost is charged to the node's
	// clock. Crash recovery still replays from the initial checkpoint
	// (see internal/checkpoint.RestoreInitial).
	CheckpointEveryBarriers int
	// NoFlushOverlap disables CCL's latency-tolerance technique: the
	// release flush is charged fully on the critical path instead of
	// overlapping the diff/ack round trip. Ablation only.
	NoFlushOverlap bool
	// Transport selects the wire backend under the simulated network:
	// TransportSim (the default, also the empty string) delivers copies by
	// direct channel send and is byte-deterministic for a given seed;
	// TransportTCP moves every non-self copy over a loopback TCP socket
	// (internal/transport/tcp), each payload in the binary encoding whose
	// length is the size the cost model charges — virtual-time costs and
	// the protocol are identical, but goroutine interleavings differ, so
	// only the final memory image and the log audits are comparable
	// across backends.
	Transport Transport
	// Faults is the deterministic fault-injection plan: seeded message
	// loss, duplication and delay on the transport, and torn log writes on
	// crash. The zero value injects nothing. The same seed always yields
	// the same fault schedule, execution and report.
	Faults fault.Plan
	// Trace, when non-nil, collects per-node coherence events and latency
	// histograms (see internal/obsv). It must be built with
	// obsv.NewCollector(Nodes). Nil disables tracing at zero cost.
	Trace *obsv.Collector
}

// Transport names a wire backend (see Config.Transport).
type Transport string

const (
	// TransportSim is the deterministic in-process backend.
	TransportSim Transport = "sim"
	// TransportTCP is the real-socket loopback backend.
	TransportTCP Transport = "tcp"
)

// ParseTransport maps a CLI flag value to a Transport.
func ParseTransport(s string) (Transport, error) {
	switch Transport(s) {
	case "", TransportSim:
		return TransportSim, nil
	case TransportTCP:
		return TransportTCP, nil
	}
	return "", fmt.Errorf("core: unknown transport %q (want sim or tcp)", s)
}

// withDefaults validates the config and fills defaults.
func (c Config) withDefaults() (Config, error) {
	if c.Nodes <= 0 {
		return c, fmt.Errorf("core: Nodes must be positive, got %d", c.Nodes)
	}
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.PageSize <= 0 || c.PageSize%8 != 0 {
		return c, fmt.Errorf("core: PageSize must be a positive multiple of 8, got %d", c.PageSize)
	}
	if c.NumPages <= 0 {
		return c, fmt.Errorf("core: NumPages must be positive, got %d", c.NumPages)
	}
	if c.Model == nil {
		m := simtime.DefaultCostModel()
		c.Model = &m
	}
	if c.Homes == nil {
		c.Homes = BlockHomes(c.NumPages, c.Nodes)
	}
	if len(c.Homes) != c.NumPages {
		return c, fmt.Errorf("core: Homes has %d entries for %d pages", len(c.Homes), c.NumPages)
	}
	for p, h := range c.Homes {
		if h < 0 || h >= c.Nodes {
			return c, fmt.Errorf("core: page %d homed at invalid node %d", p, h)
		}
	}
	switch c.Transport {
	case "", TransportSim:
		c.Transport = TransportSim
	case TransportTCP:
	default:
		return c, fmt.Errorf("core: unknown transport %q", c.Transport)
	}
	if err := c.Faults.Validate(); err != nil {
		// Catching it here turns what the transport would panic on into a
		// config error.
		return c, fmt.Errorf("core: %w", err)
	}
	if c.Trace != nil && c.Trace.Nodes() != c.Nodes {
		return c, fmt.Errorf("core: Trace collector sized for %d nodes, cluster has %d", c.Trace.Nodes(), c.Nodes)
	}
	return c, nil
}

// BlockHomes distributes pages over nodes in contiguous blocks, the
// assignment the evaluation applications use (each node is home to the
// partition it mostly writes, like first-touch placement in HLRC
// systems).
func BlockHomes(numPages, nodes int) []int {
	homes := make([]int, numPages)
	per := (numPages + nodes - 1) / nodes
	for p := range homes {
		h := p / per
		if h >= nodes {
			h = nodes - 1
		}
		homes[p] = h
	}
	return homes
}

// RoundRobinHomes distributes pages over nodes round-robin (an
// alternative placement exercised by the ablation benchmarks).
func RoundRobinHomes(numPages, nodes int) []int {
	homes := make([]int, numPages)
	for p := range homes {
		homes[p] = p % nodes
	}
	return homes
}
