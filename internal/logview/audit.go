package logview

import (
	"errors"
	"fmt"
	"math"

	"sdsm/internal/stable"
	"sdsm/internal/wal"
)

// The post-run consistency auditor. The fault tests run it against
// every depot a run leaves behind: the stable log is the recovery
// protocol's only truth after a crash, so a log that fails these checks
// is a fault-tolerance bug even when the run's memory image came out
// right.
//
// Invariants checked, per node:
//
//  1. Integrity — every record in the valid prefix carries a correct
//     checksum and decodes cleanly by its kind byte.
//  2. Torn tails appear only when the fault plan can explain them
//     (AllowTorn).
//  3. The Op tags of the sync-driven records (notices, diffs, pages —
//     flushed in program order; recovery's interval walk relies on it)
//     are nondecreasing in log order. Update-event records are exempt:
//     they are tagged with the op at which the updates arrived but ride
//     the first release flush whose cutoff covers their virtual arrival,
//     so under cross-node clock skew (lock-phase workloads) an early-op
//     event can legally flush after a later-op one. What must hold for
//     them instead is per-writer seq order: a writer's intervals arrive
//     in order (its flushes are serialized by their acks), so in log
//     order each writer's event seqs never regress. Recovery fetches
//     events by key, so this is the only order it depends on.
//  4. Own-diff records (writer == -1) close intervals in order: their
//     seq is nondecreasing and their vector-time sum strictly increases
//     whenever seq does — the causal-ordering invariant CCL's
//     logged-diff selection depends on.
//  5. The dissected byte totals reconcile with the store's own flush
//     accounting (exactly when untorn, from below when torn).
//
// ML's incoming-diff records (writer >= 0) are exempt from check 4:
// retried messages may be logged out of writer order, and recovery
// handles that by keyed lookup, not ordering.

// Typed audit errors. Callers branch with errors.Is; wal.ErrUnknownKind
// and wal.ErrCorruptPayload pass through from dissection.
var (
	// ErrTornLog marks a torn log tail the audit options do not allow.
	ErrTornLog = errors.New("logview: torn log tail")
	// ErrChecksum marks a record whose stamped checksum does not match
	// its contents inside the supposedly-valid prefix.
	ErrChecksum = errors.New("logview: record checksum mismatch")
	// ErrOpRegression marks a record whose sync-op tag went backwards.
	ErrOpRegression = errors.New("logview: op sequence regression")
	// ErrVTRegression marks own-diff records whose interval seq or
	// vector-time sum violates causal order.
	ErrVTRegression = errors.New("logview: own-diff interval regression")
	// ErrReconcile marks dissected byte totals that disagree with the
	// store's flush accounting.
	ErrReconcile = errors.New("logview: byte accounting mismatch")
)

// AuditOptions selects which departures from the clean-run invariants
// the auditor tolerates.
type AuditOptions struct {
	// AllowTorn accepts torn log tails. Set it exactly when the fault
	// plan includes torn writes (FaultPlan.TornWriteOnCrash); a torn
	// tail on any other run is corruption.
	AllowTorn bool
}

// AuditReport summarizes what a successful audit covered.
type AuditReport struct {
	Nodes    int   // stores audited
	Records  int64 // records dissected and checked
	TornRecs int64 // torn-tail records (only when AllowTorn)
	OwnDiffs int64 // own-diff records whose interval order was checked
}

// Audit checks every store in the depot against the logging
// invariants. It returns a coverage summary on success and a typed
// error naming the node and record index on the first violation.
func Audit(d *stable.Depot, opts AuditOptions) (*AuditReport, error) {
	rep := &AuditReport{Nodes: d.Nodes()}
	for node := 0; node < d.Nodes(); node++ {
		if err := auditStore(node, d.Store(node), opts, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func auditStore(node int, s *stable.Store, opts AuditOptions, rep *AuditReport) error {
	prefix, dropped := s.ValidPrefix()
	if dropped > 0 && !opts.AllowTorn {
		return fmt.Errorf("%w: node %d dropped %d records with no torn-write fault planned",
			ErrTornLog, node, dropped)
	}
	var (
		lastOp  int32 = math.MinInt32 // sync-driven records
		lastSeq int32 = -1
		lastVT  int64 = -1
		bytes   int64
	)
	lastWriterSeq := make(map[int32]int32) // update events, per writer
	var dis wal.Dissector
	for i, r := range prefix {
		if !r.Verify() {
			return fmt.Errorf("%w: node %d record %d", ErrChecksum, node, i)
		}
		d, err := dis.Dissect(r)
		if err != nil {
			return fmt.Errorf("logview: node %d record %d: %w", node, i, err)
		}
		if d.Kind == wal.RecEvents {
			for _, ev := range d.Events {
				if last, seen := lastWriterSeq[ev.Writer]; seen && ev.Seq < last {
					return fmt.Errorf("%w: node %d record %d: writer %d event seq %d after seq %d",
						ErrOpRegression, node, i, ev.Writer, ev.Seq, last)
				}
				lastWriterSeq[ev.Writer] = ev.Seq
			}
		} else {
			if d.Op < lastOp {
				return fmt.Errorf("%w: node %d record %d: op %d after op %d",
					ErrOpRegression, node, i, d.Op, lastOp)
			}
			lastOp = d.Op
		}
		// Own diffs: one batch record per closed interval, under a
		// (seq, vtsum) ordering obligation.
		if d.DiffBatch != nil && d.DiffBatch.Writer == -1 {
			ownSeq, ownVT := d.DiffBatch.Seq, d.DiffBatch.VTSum
			switch {
			case ownSeq < lastSeq:
				return fmt.Errorf("%w: node %d record %d: seq %d after seq %d",
					ErrVTRegression, node, i, ownSeq, lastSeq)
			case ownSeq == lastSeq && ownVT != lastVT:
				return fmt.Errorf("%w: node %d record %d: seq %d re-logged with vtsum %d != %d",
					ErrVTRegression, node, i, ownSeq, ownVT, lastVT)
			case ownSeq > lastSeq && ownVT <= lastVT:
				return fmt.Errorf("%w: node %d record %d: seq %d advanced but vtsum %d <= %d",
					ErrVTRegression, node, i, ownSeq, ownVT, lastVT)
			}
			lastSeq, lastVT = ownSeq, ownVT
			rep.OwnDiffs++
		}
		bytes += int64(d.Wire)
		rep.Records++
	}
	stats := s.Stats()
	if dropped == 0 {
		if bytes != stats.LoggedBytes {
			return fmt.Errorf("%w: node %d dissected %d bytes, store charged %d",
				ErrReconcile, node, bytes, stats.LoggedBytes)
		}
		return nil
	}
	rep.TornRecs += int64(dropped)
	for _, r := range s.Records()[len(prefix):] {
		bytes += int64(r.WireSize())
	}
	if bytes > stats.LoggedBytes {
		return fmt.Errorf("%w: node %d dissected %d bytes exceed store charge %d on a torn log",
			ErrReconcile, node, bytes, stats.LoggedBytes)
	}
	return nil
}
