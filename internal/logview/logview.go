// Package logview dissects and audits the stable logs a run leaves
// behind. It is the read side of the logging protocols: internal/wal
// writes records, internal/recovery replays them, and logview decodes
// them for the introspection tools (cmd/sdsminspect) and for the post-run
// consistency auditor the fault tests run.
//
// logview deliberately does not import internal/core, so core's fault
// tests can audit depots with it.
package logview

import (
	"fmt"

	"sdsm/internal/stable"
	"sdsm/internal/wal"
)

// KindVolume is the count and byte accounting of one record kind.
type KindVolume struct {
	Kind    string
	Records int64
	Bytes   int64
}

// NodeVolume is one node's log accounting, per kind. Torn records (the
// invalid tail a mid-flush crash leaves) are counted separately and not
// dissected: their payloads are untrustworthy.
type NodeVolume struct {
	Node      int
	Records   int64
	Bytes     int64
	TornRecs  int64
	TornBytes int64
	Kinds     []KindVolume
}

// Volume is a whole depot's log accounting: totals, per kind, and per
// node. It reproduces the paper's log-volume comparison (total log size
// per application, ML vs CCL) with the per-kind split the paper's
// discussion implies (ML logs incoming diffs and fetched pages; CCL
// logs write notices, own diffs and update-event records).
type Volume struct {
	Records   int64
	Bytes     int64
	TornRecs  int64
	TornBytes int64
	Kinds     []KindVolume
	PerNode   []NodeVolume
}

// kindTally accumulates per-kind counters indexed by kind byte.
type kindTally [wal.RecDiffBatch + 1]KindVolume

func (t *kindTally) add(k stable.RecordKind, bytes int) {
	t[k].Records++
	t[k].Bytes += int64(bytes)
}

// slice returns the tally in wal.Kinds order.
func (t *kindTally) slice() []KindVolume {
	out := make([]KindVolume, len(wal.Kinds))
	for i, k := range wal.Kinds {
		out[i] = t[k]
		out[i].Kind = wal.KindName(k)
	}
	return out
}

// DissectStore decodes node's log and returns its volume accounting.
// Every record in the valid prefix must dissect cleanly; a record that
// does not is a corrupted log and yields a typed error (errors.Is
// wal.ErrCorruptPayload or wal.ErrUnknownKind). Records past the valid
// prefix — the torn tail — are tallied by size only.
func DissectStore(node int, s *stable.Store) (NodeVolume, error) {
	nv := NodeVolume{Node: node}
	prefix, dropped := s.ValidPrefix()
	var kinds kindTally
	var dis wal.Dissector
	for i, r := range prefix {
		d, err := dis.Dissect(r)
		if err != nil {
			return nv, fmt.Errorf("logview: node %d record %d: %w", node, i, err)
		}
		nv.Records++
		nv.Bytes += int64(d.Wire)
		kinds.add(r.Kind, d.Wire)
	}
	nv.Kinds = kinds.slice()
	if dropped > 0 {
		full := s.Records()
		for _, r := range full[len(prefix):] {
			nv.TornRecs++
			nv.TornBytes += int64(r.WireSize())
		}
	}
	return nv, nil
}

// DissectDepot decodes every node's log and returns the aggregated
// volume accounting.
func DissectDepot(d *stable.Depot) (*Volume, error) {
	v := &Volume{Kinds: new(kindTally).slice()}
	for node := 0; node < d.Nodes(); node++ {
		nv, err := DissectStore(node, d.Store(node))
		if err != nil {
			return nil, err
		}
		v.Records += nv.Records
		v.Bytes += nv.Bytes
		v.TornRecs += nv.TornRecs
		v.TornBytes += nv.TornBytes
		for i, kv := range nv.Kinds {
			v.Kinds[i].Records += kv.Records
			v.Kinds[i].Bytes += kv.Bytes
		}
		v.PerNode = append(v.PerNode, nv)
	}
	return v, nil
}

// KindBytes returns the byte total of the named kind, or 0.
func (v *Volume) KindBytes(kind string) int64 {
	for _, kv := range v.Kinds {
		if kv.Kind == kind {
			return kv.Bytes
		}
	}
	return 0
}

// Reconcile cross-checks the dissected byte totals against the depot's
// own flush accounting (stable.Depot.TotalLoggedBytes). For an intact
// log the two must agree exactly: every flushed record is still present
// and its wire size is what Flush charged. A torn log keeps the flush
// charge for records the tear destroyed, so the dissected total
// (including the torn tail still on disk) may only fall short, never
// exceed.
func (v *Volume) Reconcile(d *stable.Depot) error {
	logged := d.TotalLoggedBytes()
	acc := v.Bytes + v.TornBytes
	if v.TornRecs == 0 {
		if acc != logged {
			return fmt.Errorf("%w: dissected %d bytes, depot charged %d",
				ErrReconcile, acc, logged)
		}
		return nil
	}
	if acc > logged {
		return fmt.Errorf("%w: dissected %d bytes exceed depot charge %d on a torn log",
			ErrReconcile, acc, logged)
	}
	return nil
}
