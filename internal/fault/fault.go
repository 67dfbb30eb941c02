// Package fault defines the deterministic fault-injection plan shared by
// the transport and stable layers.
//
// Every fault decision is a pure function of (plan seed, event
// coordinates): a keyed hash of the link endpoints, the per-link sequence
// number, and a stream tag decides whether a particular message copy is
// dropped, duplicated or delayed, and which suffix of a log flush is torn
// by a crash. Because the coordinates are assigned deterministically by
// the sending goroutine (never by arrival order), the same seed always
// produces the same fault schedule regardless of goroutine interleaving —
// the whole simulation stays replayable.
//
// Partition windows are not part of the plan. The protocol layer installs
// each one at runtime (transport.Network.InstallPartition) once it knows
// the onset clock, and whether a window cuts a link is a pure function of
// virtual time (PartitionWindow.Cuts), so partitions replay identically
// too.
package fault

import (
	"fmt"
	"time"

	"sdsm/internal/simtime"
)

// Retry and delay bounds, the same for every plan.
const (
	// DefaultRetryTimeout is the base retransmission timeout, doubled per
	// attempt. It is a little above the simulated LAN round trip, so a
	// retry costs a visible but realistic stall.
	DefaultRetryTimeout = 4 * time.Millisecond

	// DefaultMaxAttempts bounds send attempts per request before the
	// peer is declared unreachable. At the drop rates this simulator
	// targets (≤ a few percent) the chance of exhausting it is
	// negligible; a partitioned or dead peer hits it quickly.
	DefaultMaxAttempts = 25

	// maxBackoffShift caps the exponential backoff at base << 6.
	maxBackoffShift = 6

	// maxDelay bounds the extra latency of a delay fault; the actual
	// delay is uniform in (0, maxDelay].
	maxDelay = 2 * time.Millisecond
)

// Plan is a seeded fault-injection schedule. The zero value injects
// nothing and is the default for every run.
type Plan struct {
	Seed int64 // seed for the fault schedule (0 is a valid seed)

	DropProb  float64 // per-copy probability a message copy is lost
	DupProb   float64 // per-copy probability a delivered copy is duplicated
	DelayProb float64 // per-copy probability a delivered copy is delayed

	// TornWriteOnCrash tears the tail of the victim's final log flush
	// when a crash is injected, forcing recovery to validate the log and
	// re-fetch the lost suffix from live nodes.
	TornWriteOnCrash bool
}

// PartitionWindow isolates link-groups of the cluster for one
// virtual-time window [Start, Start+Duration). Nodes listed in different
// groups cannot exchange messages during the window; nodes not listed in
// any group form one implicit group of their own (they stay connected to
// each other but are cut from every explicit group).
type PartitionWindow struct {
	Start    simtime.Time
	Duration simtime.Duration
	Groups   [][]int
}

// End returns the first instant after the window has healed.
func (w PartitionWindow) End() simtime.Time { return w.Start + simtime.Time(w.Duration) }

// groupOf returns the index of the explicit group containing the node,
// or -1 when the node is unlisted (the implicit group).
func (w PartitionWindow) groupOf(node int) int {
	for gi, g := range w.Groups {
		for _, n := range g {
			if n == node {
				return gi
			}
		}
	}
	return -1
}

// Cuts reports whether the window severs the link between the two nodes
// at the given instant.
func (w PartitionWindow) Cuts(from, to int, at simtime.Time) bool {
	if at < w.Start || at >= w.End() {
		return false
	}
	return w.groupOf(from) != w.groupOf(to)
}

// CrashPoint selects where, relative to a synchronization operation, an
// injected fail-stop fires. The zero value is the paper's quiescent
// scenario; the other points kill the victim in states the original
// evaluation never exercises and exist for the online-recovery path.
type CrashPoint int

const (
	// PointSyncExit (the default) crashes at a release or barrier after
	// the interval's diffs are flushed and acknowledged — the paper's
	// Fig. 1(b) quiescent scenario.
	PointSyncExit CrashPoint = iota
	// PointHoldingLock crashes at a release *before* the interval is
	// closed: the victim dies holding the lock, its final interval's
	// diffs never reach the homes and never reach its own log. The lock
	// manager may reclaim the lock only after the victim's lease
	// expires; the lost interval reappears when the victim's recovery
	// replays it.
	PointHoldingLock
	// PointDirtyHome is PointHoldingLock with the additional requirement
	// that the victim is home for at least one page dirtied in the open
	// interval, so the crash loses provisional self-writes to a home
	// copy that surviving nodes may adopt.
	PointDirtyHome
)

// String names the crash point.
func (c CrashPoint) String() string {
	switch c {
	case PointSyncExit:
		return "sync-exit"
	case PointHoldingLock:
		return "holding-lock"
	case PointDirtyHome:
		return "dirty-home"
	default:
		return fmt.Sprintf("CrashPoint(%d)", int(c))
	}
}

// Valid reports whether c is a known crash point.
func (c CrashPoint) Valid() bool {
	return c >= PointSyncExit && c <= PointDirtyHome
}

// Streams separate the hash domains of the different fault decisions so
// that, e.g., the drop and duplicate rolls for the same copy are
// independent.
const (
	streamDrop uint64 = 1 + iota
	streamDup
	streamDelay
	streamReplyDrop
	streamReplyDelay
	streamTear
)

// Enabled reports whether the plan injects any fault at all.
func (p Plan) Enabled() bool {
	return p.DropProb > 0 || p.DupProb > 0 || p.DelayProb > 0 || p.TornWriteOnCrash
}

// Validate rejects probabilities outside [0, 1].
func (p Plan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"DropProb", p.DropProb}, {"DupProb", p.DupProb}, {"DelayProb", p.DelayProb}} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("fault: %s %v outside [0,1]", pr.name, pr.v)
		}
	}
	return nil
}

// RTO returns the retransmission timeout for the given attempt (1-based):
// exponential backoff from DefaultRetryTimeout, capped.
func RTO(attempt int) simtime.Duration {
	shift := attempt - 1
	if shift < 0 {
		shift = 0
	}
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	return DefaultRetryTimeout << shift
}

// splitmix64 is the finalizer of the SplitMix64 generator; it is a strong
// 64-bit mixer, so feeding it the running combination of the key parts
// yields an independent-looking stream per coordinate tuple.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash mixes the seed with the given coordinates.
func (p Plan) hash(parts ...uint64) uint64 {
	h := splitmix64(uint64(p.Seed) ^ 0x5dee_c0de_5dee_c0de)
	for _, part := range parts {
		h = splitmix64(h ^ part)
	}
	return h
}

// uniform returns a deterministic sample in [0, 1) for the coordinates.
func (p Plan) uniform(parts ...uint64) float64 {
	return float64(p.hash(parts...)>>11) / (1 << 53)
}

func (p Plan) roll(prob float64, stream uint64, from, to int, seq int64) bool {
	if prob <= 0 {
		return false
	}
	return p.uniform(stream, uint64(from), uint64(to), uint64(seq)) < prob
}

// DropCopy decides whether the request (or one-way) copy with the given
// per-link sequence number is lost.
func (p Plan) DropCopy(from, to int, seq int64) bool {
	return p.roll(p.DropProb, streamDrop, from, to, seq)
}

// DuplicateCopy decides whether a delivered copy is duplicated on the
// wire (the duplicate arrives with the same sequence number).
func (p Plan) DuplicateCopy(from, to int, seq int64) bool {
	return p.roll(p.DupProb, streamDup, from, to, seq)
}

// DelayCopy returns the extra latency of a delivered copy (zero when no
// delay fault fires).
func (p Plan) DelayCopy(from, to int, seq int64) simtime.Duration {
	if !p.roll(p.DelayProb, streamDelay, from, to, seq) {
		return 0
	}
	u := p.uniform(streamDelay, uint64(from), uint64(to), uint64(seq), 1)
	d := simtime.Duration(u * float64(maxDelay))
	if d <= 0 {
		d = 1
	}
	return d
}

// DropReply decides whether the reply to the request copy with the given
// sequence number is lost on the way back.
func (p Plan) DropReply(from, to int, seq int64) bool {
	return p.roll(p.DropProb, streamReplyDrop, from, to, seq)
}

// DelayReply returns the extra latency of a reply copy.
func (p Plan) DelayReply(from, to int, seq int64) simtime.Duration {
	if !p.roll(p.DelayProb, streamReplyDelay, from, to, seq) {
		return 0
	}
	u := p.uniform(streamReplyDelay, uint64(from), uint64(to), uint64(seq), 1)
	d := simtime.Duration(u * float64(maxDelay))
	if d <= 0 {
		d = 1
	}
	return d
}

// TearRoll returns a deterministic value used to choose how much of the
// victim's final flush a torn write destroys.
func (p Plan) TearRoll(victim int, incarnation int) uint64 {
	return p.hash(streamTear, uint64(victim), uint64(incarnation))
}
