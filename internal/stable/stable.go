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
//
// A Store may be built with more than one log stream (Taurus-style
// parallel logging): records are routed to streams by the logging layer
// and each appended record is stamped with an LSN-vector — its per-stream
// append positions at the moment it hit the disk — whose sum is a unique
// global sequence number. Streams model independent disks: a group flush
// writes every stream's share in parallel, so its critical-path cost is
// the largest per-stream share, while total bytes and the flush count
// stay comparable with the single-stream configuration.
package stable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
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
	// Sum is the CRC32 of (Kind, Op, Vec, Data), stamped by Flush. A
	// crash in the middle of a flush leaves the torn record's checksum
	// mismatched, which is how ValidPrefix finds the end of the intact
	// log.
	Sum uint32
	// Stream is the log stream the record was routed to. Always 0 on a
	// single-stream store.
	Stream int
	// Vec is the record's LSN-vector, stamped by Flush on multi-stream
	// stores: Vec[j] is the number of records stream j held when this
	// record was appended. The sum of its entries is therefore the
	// record's unique global append index, which is how readers rebuild
	// the cross-stream total order. Nil on single-stream stores, whose
	// record frames carry no vector.
	Vec []uint32
}

// HeaderSize is the accounted per-record on-disk header size: kind (1),
// op (4), length (4), crc (4). Multi-stream records additionally carry
// their LSN-vector (LSNVecSize) between the header and the payload.
const HeaderSize = 13

// WireSize is the accounted on-disk size of the record.
func (r Record) WireSize() int { return HeaderSize + LSNVecSize(r.Vec) + len(r.Data) }

// VecSum returns the sum of the record's LSN-vector entries — its unique
// global append index on a multi-stream store, 0 when the vector is nil.
func (r Record) VecSum() int {
	n := 0
	for _, v := range r.Vec {
		n += int(v)
	}
	return n
}

// Verify reports whether the record's stamped checksum matches its
// contents. Records that never went through Flush (Sum zero) fail unless
// their contents happen to sum to zero, which is what readers want: an
// unstamped record is as untrustworthy as a torn one.
func (r Record) Verify() bool { return r.Sum == checksum(r.Kind, r.Op, r.Vec, r.Data) }

// LSNVecSize is the accounted on-disk size of an LSN-vector: one count
// byte plus a uvarint per entry. A nil vector (single-stream store)
// occupies no bytes at all, so the single-stream format is unchanged.
func LSNVecSize(vec []uint32) int {
	if vec == nil {
		return 0
	}
	n := 1
	for _, v := range vec {
		n++
		for v >= 0x80 {
			n++
			v >>= 7
		}
	}
	return n
}

// AppendLSNVec appends the wire encoding of vec to dst: a count byte
// followed by one uvarint per entry. Appends nothing for a nil vector.
func AppendLSNVec(dst []byte, vec []uint32) []byte {
	if vec == nil {
		return dst
	}
	dst = append(dst, byte(len(vec)))
	for _, v := range vec {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return dst
}

// DecodeLSNVec decodes an LSN-vector encoded by AppendLSNVec from the
// front of b, returning the vector and the number of bytes consumed.
func DecodeLSNVec(b []byte) ([]uint32, int, error) {
	if len(b) == 0 {
		return nil, 0, fmt.Errorf("stable: truncated LSN-vector (no count byte)")
	}
	n := int(b[0])
	off := 1
	vec := make([]uint32, n)
	for i := 0; i < n; i++ {
		v, w := binary.Uvarint(b[off:])
		if w <= 0 {
			return nil, 0, fmt.Errorf("stable: truncated LSN-vector entry %d/%d", i, n)
		}
		if v > 1<<32-1 {
			return nil, 0, fmt.Errorf("stable: LSN-vector entry %d overflows uint32 (%d)", i, v)
		}
		vec[i] = uint32(v)
		off += w
	}
	return vec, off, nil
}

// checksum computes the integrity sum Flush stamps into each record:
// the IEEE CRC32 of (kind, op, lsn-vector, data). The header bytes and
// the vector run through the table by hand — passing a stack array to
// crc32.Update (or a crc32.New digest) heap-allocates it, one allocation
// per record on the release flush path.
func checksum(kind RecordKind, op int32, vec []uint32, data []byte) uint32 {
	var hdr [5]byte
	hdr[0] = byte(kind)
	binary.LittleEndian.PutUint32(hdr[1:], uint32(op))
	s := ^uint32(0)
	for _, b := range hdr {
		s = crc32.IEEETable[byte(s)^b] ^ (s >> 8)
	}
	if vec != nil {
		s = crc32.IEEETable[byte(s)^byte(len(vec))] ^ (s >> 8)
		for _, v := range vec {
			u := uint64(v)
			for u >= 0x80 {
				s = crc32.IEEETable[byte(s)^byte(u|0x80)] ^ (s >> 8)
				u >>= 7
			}
			s = crc32.IEEETable[byte(s)^byte(u)] ^ (s >> 8)
		}
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

// segmentSize is the capacity of a log segment. A stream's image grows a
// segment at a time, so a log costs what it holds plus at most one
// segment's unused tail — 64 KiB is sixteen of ML's page records, or a
// few dozen of CCL's release flushes.
const segmentSize = 64 << 10

// stream is one log stream's disk state: its on-disk image and its share
// of the accounting.
type stream struct {
	// segs is the stream's on-disk image: the records' frames — header,
	// LSN-vector (multi-stream stores only), payload — back to back, in
	// append order, cut into segments. A frame lies inside one segment,
	// and a byte once written is never copied or moved: a flush fills the
	// tail segment's free space or starts a new segment (see room). The
	// Record.Data slices handed to readers alias the segments, so they
	// stay intact under every later flush; only a record that
	// TruncateFromOp dropped can be overwritten, by what is appended in
	// its place.
	segs      [][]byte
	n         int // records on the stream
	lastFlush int // records this stream received in the most recent group flush that touched it
	bytes     int64
	writes    int64
}

// room returns the tail segment, with at least need bytes free; when the
// current tail has less, a new segment becomes the tail. rest is what the
// flush in progress has yet to write to this stream, need included: a new
// segment is made to hold all of it when that is more than a standard
// segment, so a bulk flush costs one allocation of its exact size.
func (str *stream) room(need, rest int) *[]byte {
	if k := len(str.segs); k > 0 && cap(str.segs[k-1])-len(str.segs[k-1]) >= need {
		return &str.segs[k-1]
	}
	str.segs = append(str.segs, make([]byte, 0, max(segmentSize, rest)))
	return &str.segs[len(str.segs)-1]
}

// each calls fn with every record of the stream, in append order, and
// with where its frame lies: segs[seg][off:off+size]. It stops when fn
// returns false.
func (str *stream) each(id int, multi bool, fn func(r Record, seg, off, size int) bool) {
	for si, seg := range str.segs {
		for off := 0; off < len(seg); {
			r, size := parseFrame(seg[off:], id, multi)
			if !fn(r, si, off, size) {
				return
			}
			off += size
		}
	}
}

// cutAt drops everything from segs[seg][off:] on: later segments go, and
// so does this one when nothing of it is left.
func (str *stream) cutAt(seg, off int) {
	keep := seg
	if off > 0 {
		str.segs[seg] = str.segs[seg][:off]
		keep++
	}
	clear(str.segs[keep:])
	str.segs = str.segs[:keep]
}

// putFrame appends one record's frame to b, which must have room for it.
func putFrame(b []byte, r *Record, vec []uint32, sum uint32) []byte {
	var hdr [HeaderSize]byte
	hdr[0] = byte(r.Kind)
	binary.LittleEndian.PutUint32(hdr[1:], uint32(r.Op))
	binary.LittleEndian.PutUint32(hdr[5:], uint32(len(r.Data)))
	binary.LittleEndian.PutUint32(hdr[9:], sum)
	b = append(b, hdr[:]...)
	b = AppendLSNVec(b, vec)
	return append(b, r.Data...)
}

// parseFrame decodes the frame at the front of b — one stream's image
// from some record boundary on — into a Record whose Data aliases b, and
// returns the frame's length. Only this package writes frames, so one
// that does not parse is a bug here, not bad input.
func parseFrame(b []byte, stream int, multi bool) (Record, int) {
	r := Record{
		Kind:   RecordKind(b[0]),
		Op:     int32(binary.LittleEndian.Uint32(b[1:])),
		Sum:    binary.LittleEndian.Uint32(b[9:]),
		Stream: stream,
	}
	n := int(binary.LittleEndian.Uint32(b[5:]))
	off := HeaderSize
	if multi {
		vec, w, err := DecodeLSNVec(b[off:])
		if err != nil {
			panic(fmt.Sprintf("stable: stream %d image: %v", stream, err))
		}
		r.Vec, off = vec, off+w
	}
	r.Data = b[off : off+n : off+n]
	return r, off + n
}

// Store is one node's stable storage: one or more parallel log streams
// plus the checkpoint area.
type Store struct {
	mu          sync.Mutex
	streams     []stream
	logBytes    int64
	flushes     int64
	reads       int64
	readBytes   int64
	checkpoints []Checkpoint
	flushHist   *obsv.Hist // per-flush byte sizes; nil when metrics are off
	// Flush scratch, reused so the steady state stays allocation-free:
	// share is each stream's bytes of the group being flushed; lsn (nil on
	// a single-stream store) is the LSN-vector of the next record — every
	// stream's record count.
	share []int
	lsn   []uint32
}

// ObserveFlushes registers h to receive the byte size of every
// subsequent log flush (the obsv registry's flush-size histogram). A nil
// h disables the observation.
func (s *Store) ObserveFlushes(h *obsv.Hist) {
	s.mu.Lock()
	s.flushHist = h
	s.mu.Unlock()
}

// NewStore returns an empty single-stream store.
func NewStore() *Store { return NewStoreStreams(1) }

// NewStoreStreams returns an empty store with n parallel log streams.
func NewStoreStreams(n int) *Store {
	if n <= 0 {
		panic(fmt.Sprintf("stable: invalid stream count %d", n))
	}
	s := &Store{streams: make([]stream, n), share: make([]int, n)}
	if n > 1 {
		s.lsn = make([]uint32, n)
	}
	return s
}

// Streams returns the number of parallel log streams.
func (s *Store) Streams() int { return len(s.streams) }

// Flush appends records to the log as one flush operation and returns
// the number of bytes written. A flush with no records still counts (it
// still costs a disk access in the ML protocol). See FlushGroup for the
// multi-stream critical-path accounting; Flush is its total-bytes
// shorthand.
func (s *Store) Flush(recs []Record) int {
	n, _ := s.FlushGroup(recs)
	return n
}

// FlushGroup appends records to the log as one group flush: each record
// goes to the stream its Stream field names, every touched stream's
// share is written in parallel (streams model independent disks), and
// the whole group counts as ONE flush. Returns the total bytes written
// and the critical-path bytes — the largest single stream's share, which
// is what the caller charges its virtual clock with. On a single-stream
// store the two are equal and no LSN-vector is stamped.
//
// Callers regain ownership of the record payload slices when FlushGroup
// returns: the flush copies every payload into the owning stream's image,
// so pooled encode buffers can be recycled immediately.
func (s *Store) FlushGroup(recs []Record) (total, crit int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	multi := len(s.streams) > 1
	// Size each stream's share first: the accounting needs it, and so does
	// room, to give a bulk share one segment.
	share := s.share
	clear(share)
	s.nextLSN()
	for i := range recs {
		st := recs[i].Stream
		if st < 0 || st >= len(s.streams) {
			panic(fmt.Sprintf("stable: record routed to stream %d of %d", st, len(s.streams)))
		}
		share[st] += HeaderSize + LSNVecSize(s.lsn) + len(recs[i].Data)
		if multi {
			s.lsn[st]++
		}
	}
	for i := range s.streams {
		str := &s.streams[i]
		got := len(recs)
		if multi {
			got = int(s.lsn[i]) - str.n
		}
		if got > 0 || !multi {
			// Single-stream keeps the historical behavior: even an empty
			// flush is one write op. Multi-stream only touches streams
			// that received records.
			str.writes++
		}
		if got > 0 {
			str.lastFlush = got
		}
		str.bytes += int64(share[i])
		total += share[i]
		crit = max(crit, share[i])
	}
	s.nextLSN()
	for i := range recs {
		r := &recs[i]
		str := &s.streams[r.Stream]
		need := HeaderSize + LSNVecSize(s.lsn) + len(r.Data)
		seg := str.room(need, share[r.Stream])
		*seg = putFrame(*seg, r, s.lsn, checksum(r.Kind, r.Op, s.lsn, r.Data))
		share[r.Stream] -= need
		str.n++
		if multi {
			s.lsn[r.Stream]++
		}
	}
	s.logBytes += int64(total)
	s.flushes++
	s.flushHist.Observe(int64(total))
	return total, crit
}

// nextLSN loads s.lsn with the LSN-vector the next appended record gets:
// lsn[j] is the number of records stream j holds. A single-stream store
// stamps no vector and s.lsn stays nil.
func (s *Store) nextLSN() {
	for j := range s.lsn {
		s.lsn[j] = uint32(s.streams[j].n)
	}
}

// TearTail simulates a torn write: the final (non-empty) flush was in
// flight when the node crashed, so only a prefix of its records reached
// the disk intact. r deterministically picks how many survive; the first
// lost record stays in place with a corrupted payload (a torn sector)
// and the rest vanish. At least one record of the final flush is
// destroyed. On a multi-stream store every stream that received records
// in its final flush is torn independently, each with its own roll
// derived from r (stream 0 uses r itself, so the single-stream behavior
// is unchanged bit for bit). Returns the total number of records
// destroyed; a store that never flushed a record is left untouched.
func (s *Store) TearTail(r uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	destroyed := 0
	for i := range s.streams {
		roll := r
		if i > 0 {
			roll = mixRoll(r, i)
		}
		destroyed += s.streams[i].tearTail(i, len(s.streams) > 1, roll)
	}
	return destroyed
}

// mixRoll derives stream i's independent tear roll from the plan's roll
// (splitmix64 finalizer over r xor the stream index).
func mixRoll(r uint64, i int) uint64 {
	z := r ^ (uint64(i) * 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (str *stream) tearTail(id int, multi bool, r uint64) int {
	if str.lastFlush == 0 || str.n < str.lastFlush {
		return 0
	}
	keep := int(r % uint64(str.lastFlush)) // 0..lastFlush-1 intact records
	victim := str.n - str.lastFlush + keep
	var rec Record
	var seg, off, size int
	idx := 0
	str.each(id, multi, func(r Record, si, o, sz int) bool {
		rec, seg, off, size = r, si, o, sz
		idx++
		return idx <= victim
	})
	// The torn record is rewritten as a corrupted copy in a segment of its
	// own — readers may still hold the intact bytes — with its payload
	// damaged, or the checksum itself when there is no payload to damage.
	torn := make([]byte, size)
	copy(torn, str.segs[seg][off:])
	if n := len(rec.Data); n > 0 {
		torn[size-n+n/2] ^= 0xff
	} else {
		binary.LittleEndian.PutUint32(torn[9:], rec.Sum^0xdeadbeef)
	}
	str.cutAt(seg, off)
	str.segs = append(str.segs, torn)
	destroyed := str.lastFlush - keep
	str.n = victim + 1
	str.lastFlush = keep + 1
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
// discarded records form a suffix of each stream; LSN-vector sums stay
// contiguous for records appended afterwards because every dropped
// record's sum was larger than every kept one's. Like a real WAL
// truncation, the on-disk image and the byte accounting rewind with the
// records (the auditor cross-checks dissected bytes against the store's
// charges); the flush and write counts stay — those operations happened.
func (s *Store) TruncateFromOp(op int32) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	for i := range s.streams {
		str := &s.streams[i]
		// Find the longest suffix of records with Op >= op: it holds keep
		// records before it and starts at segs[seg][off].
		keep, seg, off := str.n, 0, 0
		idx := 0
		str.each(i, len(s.streams) > 1, func(r Record, si, o, _ int) bool {
			switch {
			case r.Op < op:
				keep = str.n
			case keep == str.n:
				keep, seg, off = idx, si, o
			}
			idx++
			return true
		})
		if keep == str.n {
			continue
		}
		cut := int64(-off)
		for _, b := range str.segs[seg:] {
			cut += int64(len(b))
		}
		str.cutAt(seg, off)
		dropped += str.n - keep
		str.n = keep
		str.bytes -= cut
		s.logBytes -= cut
		if str.lastFlush > keep {
			str.lastFlush = keep
		}
	}
	return dropped
}

// mergedLocked returns all streams' records merged into the global
// append order (ascending LSN-vector sum). On a single-stream store
// this is simply the log.
func (s *Store) mergedLocked() []Record {
	multi := len(s.streams) > 1
	total := 0
	for i := range s.streams {
		total += s.streams[i].n
	}
	out := make([]Record, 0, total)
	for i := range s.streams {
		s.streams[i].each(i, multi, func(r Record, _, _, _ int) bool {
			out = append(out, r)
			return true
		})
	}
	if multi {
		sort.Slice(out, func(a, b int) bool { return out[a].VecSum() < out[b].VecSum() })
	}
	return out
}

// ValidPrefix returns the longest global-order log prefix whose records
// all pass their integrity check, plus the number of trailing records
// discarded (the torn tail). On a multi-stream store the global order is
// the merged LSN-vector order, and the prefix additionally requires the
// append indices to be contiguous: a record destroyed inside any stream
// leaves a hole in the global sequence, and everything ordered after the
// hole is discarded exactly as a single stream discards everything after
// its first torn record. Recovery readers use this instead of Records
// whenever torn writes are possible.
func (s *Store) ValidPrefix() ([]Record, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	all := s.mergedLocked()
	multi := len(s.streams) > 1
	valid := len(all)
	for i, r := range all {
		if !r.Verify() || (multi && r.VecSum() != i) {
			valid = i
			break
		}
	}
	return all[:valid:valid], len(all) - valid
}

// Records returns the full log in global append order. The returned
// slice must be treated as read-only; recovery readers account their
// read costs explicitly via NoteRead.
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mergedLocked()
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
	Flushes      int64 // number of (group) flush operations
	StreamWrites int64 // per-stream write ops summed over streams (== Flushes when single-stream)
	LoggedBytes  int64 // total bytes written to the log
	Records      int   // records currently in the log
	Reads        int64 // number of read operations (recovery)
	ReadBytes    int64 // bytes read (recovery)
	Checkpoints  int   // checkpoints stored
}

// StreamStats is one stream's share of the store's accounting.
type StreamStats struct {
	Records int   // records currently on the stream
	Bytes   int64 // bytes written to the stream
	Writes  int64 // write ops issued to the stream
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := 0
	var writes int64
	for i := range s.streams {
		recs += s.streams[i].n
		writes += s.streams[i].writes
	}
	return Stats{
		Flushes:      s.flushes,
		StreamWrites: writes,
		LoggedBytes:  s.logBytes,
		Records:      recs,
		Reads:        s.reads,
		ReadBytes:    s.readBytes,
		Checkpoints:  len(s.checkpoints),
	}
}

// StreamStats returns every stream's share of the accounting, indexed by
// stream id.
func (s *Store) StreamStats() []StreamStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StreamStats, len(s.streams))
	for i := range s.streams {
		out[i] = StreamStats{
			Records: s.streams[i].n,
			Bytes:   s.streams[i].bytes,
			Writes:  s.streams[i].writes,
		}
	}
	return out
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

// Reset clears the log, checkpoints and counters (the stream count is
// kept). Used between benchmark configurations, never by the protocols
// (stable storage survives crashes by definition).
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.streams {
		s.streams[i] = stream{}
	}
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

// NewDepot creates a depot for n nodes with empty single-stream stores.
func NewDepot(n int) *Depot { return NewDepotStreams(n, 1) }

// NewDepotStreams creates a depot for n nodes whose stores each carry
// the given number of parallel log streams.
func NewDepotStreams(n, streams int) *Depot {
	if n <= 0 {
		panic(fmt.Sprintf("stable: invalid depot size %d", n))
	}
	d := &Depot{stores: make([]*Store, n)}
	for i := range d.stores {
		d.stores[i] = NewStoreStreams(streams)
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
