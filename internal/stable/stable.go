// Package stable simulates the per-node local disk that the logging
// protocols and the checkpointer write to.
//
// The paper's testbed dedicates part of each workstation's local disk to
// logged data. Here each node owns a Store whose contents survive the
// node's crash (a Depot keyed by node id outlives node incarnations).
// Timing is not performed here: every operation returns the number of
// bytes moved, and the caller charges its virtual clock with
// CostModel.DiskTime according to the protocol's overlap policy (ML pays
// on the critical path; CCL overlaps the flush with the release's
// diff/ack round trip).
package stable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"sdsm/internal/obsv"
)

// RecordKind tags the protocol meaning of a log record. Values are
// defined by the logging layer.
type RecordKind uint8

// Record is one logged unit: a diff, a write-notice set, an
// incoming-update event record, a fetched page, a lock grant, or an
// interval mark, in serialized form.
type Record struct {
	Kind RecordKind
	Op   int32  // synchronization-operation index the record belongs to
	Data []byte // serialized payload
	// Sum is the CRC32 of (Kind, Op, Data), stamped by Flush. A crash in
	// the middle of a flush leaves the torn record's checksum mismatched,
	// which is how ValidPrefix finds the end of the intact log.
	Sum uint32
}

// HeaderSize is the accounted per-record on-disk header size: kind (1),
// op (4), length (4), crc (4).
const HeaderSize = 13

// WireSize is the accounted on-disk size of the record.
func (r Record) WireSize() int { return HeaderSize + len(r.Data) }

// Verify reports whether the record's stamped checksum matches its
// contents. Records that never went through Flush (Sum zero) fail unless
// their contents happen to sum to zero, which is what readers want: an
// unstamped record is as untrustworthy as a torn one.
func (r Record) Verify() bool { return r.Sum == checksum(r.Kind, r.Op, r.Data) }

// checksum computes the integrity sum Flush stamps into each record:
// the IEEE CRC32 of (kind, op, data). The header bytes run through the
// table by hand — passing a stack array to crc32.Update (or a crc32.New
// digest) heap-allocates it, one allocation per record on the release
// flush path.
func checksum(kind RecordKind, op int32, data []byte) uint32 {
	var hdr [5]byte
	hdr[0] = byte(kind)
	binary.LittleEndian.PutUint32(hdr[1:], uint32(op))
	s := ^uint32(0)
	for _, b := range hdr {
		s = crc32.IEEETable[byte(s)^b] ^ (s >> 8)
	}
	return crc32.Update(^s, crc32.IEEETable, data)
}

// Checkpoint is one saved process state. Pages is the shared-space image
// as per-page frames: nil for a page that is all zeros, and a page whose
// bytes equal the previous checkpoint's shares that checkpoint's frame,
// so frames are immutable once stored. Bytes holds the *accounted* size
// (the first checkpoint accounts the full image, later ones only the
// pages modified since the previous checkpoint, as in the paper).
type Checkpoint struct {
	Op    int32    // sync-op index at which the checkpoint was taken
	Pages [][]byte // sparse shared-space image, one frame per page
	Meta  []byte   // serialized protocol state (vector time, etc.)
	Bytes int      // accounted on-disk size
}

// segmentSize is the capacity of a log segment. The log image grows a
// segment at a time, so a log costs what it holds plus at most one
// segment's unused tail — 64 KiB is sixteen of ML's page records, or a
// few dozen of CCL's release flushes.
const segmentSize = 64 << 10

// putFrame appends one record's frame to b, which must have room for it.
func putFrame(b []byte, r *Record, sum uint32) []byte {
	var hdr [HeaderSize]byte
	hdr[0] = byte(r.Kind)
	binary.LittleEndian.PutUint32(hdr[1:], uint32(r.Op))
	binary.LittleEndian.PutUint32(hdr[5:], uint32(len(r.Data)))
	binary.LittleEndian.PutUint32(hdr[9:], sum)
	b = append(b, hdr[:]...)
	return append(b, r.Data...)
}

// parseFrame decodes the frame at the front of b — the log image from
// some record boundary on — into a Record whose Data aliases b, and
// returns the frame's length.
func parseFrame(b []byte) (Record, int) {
	r := Record{
		Kind: RecordKind(b[0]),
		Op:   int32(binary.LittleEndian.Uint32(b[1:])),
		Sum:  binary.LittleEndian.Uint32(b[9:]),
	}
	end := HeaderSize + int(binary.LittleEndian.Uint32(b[5:]))
	r.Data = b[HeaderSize:end:end]
	return r, end
}

// Store is one node's stable storage: the log plus the checkpoint area.
type Store struct {
	mu sync.Mutex
	// segs is the on-disk log image: the records' frames — header, then
	// payload — back to back, in append order, cut into segments. A frame
	// lies inside one segment, and a byte once written is never copied or
	// moved: a flush fills the tail segment's free space or starts a new
	// segment (see room). The Record.Data slices handed to readers alias
	// the segments, so they stay intact under every later flush; only a
	// record that TruncateFromOp dropped can be overwritten, by what is
	// appended in its place.
	segs        [][]byte
	n           int // records in the log
	lastFlush   int // records the most recent non-empty flush wrote
	logBytes    int64
	flushes     int64
	reads       int64
	readBytes   int64
	checkpoints []Checkpoint
	flushHist   *obsv.Hist // per-flush byte sizes; nil when metrics are off
}

// ObserveFlushes registers h to receive the byte size of every
// subsequent log flush (the obsv registry's flush-size histogram). A nil
// h disables the observation.
func (s *Store) ObserveFlushes(h *obsv.Hist) {
	s.mu.Lock()
	s.flushHist = h
	s.mu.Unlock()
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// room returns the tail segment, with at least need bytes free; when the
// current tail has less, a new segment becomes the tail. rest is what the
// flush in progress has yet to write, need included: a new segment is
// made to hold all of it when that is more than a standard segment, so a
// bulk flush costs one allocation of its exact size.
func (s *Store) room(need, rest int) *[]byte {
	if k := len(s.segs); k > 0 && cap(s.segs[k-1])-len(s.segs[k-1]) >= need {
		return &s.segs[k-1]
	}
	s.segs = append(s.segs, make([]byte, 0, max(segmentSize, rest)))
	return &s.segs[len(s.segs)-1]
}

// each calls fn with every record of the log, in append order, and with
// where its frame lies: segs[seg][off:off+size]. It stops when fn
// returns false.
func (s *Store) each(fn func(r Record, seg, off, size int) bool) {
	for si, seg := range s.segs {
		for off := 0; off < len(seg); {
			r, size := parseFrame(seg[off:])
			if !fn(r, si, off, size) {
				return
			}
			off += size
		}
	}
}

// cutAt drops everything from segs[seg][off:] on: later segments go, and
// so does this one when nothing of it is left.
func (s *Store) cutAt(seg, off int) {
	keep := seg
	if off > 0 {
		s.segs[seg] = s.segs[seg][:off]
		keep++
	}
	clear(s.segs[keep:])
	s.segs = s.segs[:keep]
}

// Flush appends records to the log as one flush operation and returns
// the number of bytes written. A flush with no records still counts (it
// still costs a disk access in the ML protocol).
//
// Callers regain ownership of the record payload slices when Flush
// returns: the flush copies every payload into the log image, so pooled
// encode buffers can be recycled immediately.
func (s *Store) Flush(recs []Record) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Size the flush first: room needs it, to give a bulk flush one
	// segment.
	total := 0
	for i := range recs {
		total += recs[i].WireSize()
	}
	rest := total
	for i := range recs {
		r := &recs[i]
		need := r.WireSize()
		seg := s.room(need, rest)
		*seg = putFrame(*seg, r, checksum(r.Kind, r.Op, r.Data))
		rest -= need
	}
	if len(recs) > 0 {
		s.n += len(recs)
		s.lastFlush = len(recs)
	}
	s.logBytes += int64(total)
	s.flushes++
	s.flushHist.Observe(int64(total))
	return total
}

// TearTail simulates a torn write: the final (non-empty) flush was in
// flight when the node crashed, so only a prefix of its records reached
// the disk intact. r deterministically picks how many survive; the first
// lost record stays in place with a corrupted payload (a torn sector)
// and the rest vanish. At least one record of the final flush is
// destroyed. Returns the number of records destroyed; a store that never
// flushed a record is left untouched.
func (s *Store) TearTail(r uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastFlush == 0 || s.n < s.lastFlush {
		return 0
	}
	keep := int(r % uint64(s.lastFlush)) // 0..lastFlush-1 intact records
	victim := s.n - s.lastFlush + keep
	var rec Record
	var seg, off, size int
	idx := 0
	s.each(func(r Record, si, o, sz int) bool {
		rec, seg, off, size = r, si, o, sz
		idx++
		return idx <= victim
	})
	// The torn record is rewritten as a corrupted copy in a segment of its
	// own — readers may still hold the intact bytes — with its payload
	// damaged, or the checksum itself when there is no payload to damage.
	torn := make([]byte, size)
	copy(torn, s.segs[seg][off:])
	if n := len(rec.Data); n > 0 {
		torn[size-n+n/2] ^= 0xff
	} else {
		binary.LittleEndian.PutUint32(torn[9:], rec.Sum^0xdeadbeef)
	}
	s.cutAt(seg, off)
	s.segs = append(s.segs, torn)
	destroyed := s.lastFlush - keep
	s.n = victim + 1
	s.lastFlush = keep + 1
	return destroyed
}

// TruncateFromOp discards every log record belonging to synchronization
// op >= op, returning the number of records dropped. The rejoin protocol
// calls it when re-admitting a node that was wrongly declared dead while
// partitioned: the stale incarnation kept logging ops the cluster never
// acknowledged (their diffs were cut or fenced on the wire), and those
// records must not survive into the replayed incarnation — the re-executed
// ops run against the healed cluster's state and may produce different
// diffs under the same (writer, seq) keys, which would corrupt the
// offline image assembly. Per-node op indices are monotone, so the
// discarded records form a suffix of the log. Like a real WAL
// truncation, the on-disk image and the byte accounting rewind with the
// records (the auditor cross-checks dissected bytes against the store's
// charges); the flush count stays — those operations happened.
func (s *Store) TruncateFromOp(op int32) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Find the longest suffix of records with Op >= op: it holds keep
	// records before it and starts at segs[seg][off].
	keep, seg, off := s.n, 0, 0
	idx := 0
	s.each(func(r Record, si, o, _ int) bool {
		switch {
		case r.Op < op:
			keep = s.n
		case keep == s.n:
			keep, seg, off = idx, si, o
		}
		idx++
		return true
	})
	if keep == s.n {
		return 0
	}
	cut := int64(-off)
	for _, b := range s.segs[seg:] {
		cut += int64(len(b))
	}
	s.cutAt(seg, off)
	dropped := s.n - keep
	s.n = keep
	s.logBytes -= cut
	s.lastFlush = min(s.lastFlush, keep)
	return dropped
}

// recordsLocked returns the log's records in append order.
func (s *Store) recordsLocked() []Record {
	out := make([]Record, 0, s.n)
	s.each(func(r Record, _, _, _ int) bool {
		out = append(out, r)
		return true
	})
	return out
}

// ValidPrefix returns the longest log prefix whose records all pass their
// integrity check, plus the number of trailing records discarded (the
// torn tail). Recovery readers use this instead of Records whenever torn
// writes are possible.
func (s *Store) ValidPrefix() ([]Record, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	all := s.recordsLocked()
	valid := len(all)
	for i, r := range all {
		if !r.Verify() {
			valid = i
			break
		}
	}
	return all[:valid:valid], len(all) - valid
}

// Records returns the full log in append order. The returned slice must
// be treated as read-only; recovery readers account their read costs
// explicitly via NoteRead.
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recordsLocked()
}

// NoteRead accounts one read operation of n bytes against the store's
// statistics and returns n (for chaining into a DiskTime charge).
func (s *Store) NoteRead(n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reads++
	s.readBytes += int64(n)
	return n
}

// PutCheckpoint stores a checkpoint.
func (s *Store) PutCheckpoint(cp Checkpoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checkpoints = append(s.checkpoints, cp)
}

// LatestCheckpoint returns the most recent checkpoint and true, or false
// if none exists.
func (s *Store) LatestCheckpoint() (Checkpoint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.checkpoints) == 0 {
		return Checkpoint{}, false
	}
	return s.checkpoints[len(s.checkpoints)-1], true
}

// FirstCheckpoint returns the oldest checkpoint and true, or false if
// none exists. Recovery replays the whole log from here (resuming an
// SPMD closure mid-run would require a process-image checkpoint; see
// DESIGN.md).
func (s *Store) FirstCheckpoint() (Checkpoint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.checkpoints) == 0 {
		return Checkpoint{}, false
	}
	return s.checkpoints[0], true
}

// CheckpointBytes sums the accounted on-disk sizes of all checkpoints.
func (s *Store) CheckpointBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, cp := range s.checkpoints {
		n += int64(cp.Bytes)
	}
	return n
}

// Stats is a snapshot of the store's accounting counters.
type Stats struct {
	Flushes     int64 // number of flush operations
	LoggedBytes int64 // total bytes written to the log
	Records     int   // records currently in the log
	Reads       int64 // number of read operations (recovery)
	ReadBytes   int64 // bytes read (recovery)
	Checkpoints int   // checkpoints stored
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Flushes:     s.flushes,
		LoggedBytes: s.logBytes,
		Records:     s.n,
		Reads:       s.reads,
		ReadBytes:   s.readBytes,
		Checkpoints: len(s.checkpoints),
	}
}

// MeanFlushBytes returns the mean number of bytes per flush, or 0 when no
// flush has happened. This is the paper's "mean log size" column.
func (s *Store) MeanFlushBytes() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.flushes == 0 {
		return 0
	}
	return float64(s.logBytes) / float64(s.flushes)
}

// Reset clears the log, checkpoints and counters. Used between benchmark
// configurations, never by the protocols (stable storage survives crashes
// by definition).
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.segs = nil
	s.n = 0
	s.lastFlush = 0
	s.logBytes = 0
	s.flushes = 0
	s.reads = 0
	s.readBytes = 0
	s.checkpoints = nil
}

// Depot holds the stable stores of all nodes in a run. It outlives node
// incarnations: when a node crashes and recovers, its new incarnation
// reattaches to the same Store.
type Depot struct {
	stores []*Store
}

// NewDepot creates a depot for n nodes with empty stores.
func NewDepot(n int) *Depot {
	if n <= 0 {
		panic(fmt.Sprintf("stable: invalid depot size %d", n))
	}
	d := &Depot{stores: make([]*Store, n)}
	for i := range d.stores {
		d.stores[i] = NewStore()
	}
	return d
}

// Store returns node id's store.
func (d *Depot) Store(id int) *Store { return d.stores[id] }

// Nodes returns the number of nodes.
func (d *Depot) Nodes() int { return len(d.stores) }

// TotalLoggedBytes sums logged bytes across all nodes — the paper's
// "total log size" column.
func (d *Depot) TotalLoggedBytes() int64 {
	var n int64
	for _, s := range d.stores {
		n += s.Stats().LoggedBytes
	}
	return n
}

// TotalFlushes sums flush counts across all nodes — the paper's
// "# of flushes" column.
func (d *Depot) TotalFlushes() int64 {
	var n int64
	for _, s := range d.stores {
		n += s.Stats().Flushes
	}
	return n
}
