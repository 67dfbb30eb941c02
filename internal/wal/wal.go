// Package wal implements the two logging protocols the paper compares:
//
//   - ML, traditional message logging (§3.1): every incoming coherence
//     message — fetched pages, incoming diffs, write-invalidation notices
//     — is kept in volatile memory and flushed to the local disk at the
//     next synchronization point, on the critical path.
//
//   - CCL, coherence-centric logging (§3.2, the paper's contribution):
//     only data indispensable for recovery is logged — the diffs this
//     process itself created, the write-invalidation notices it received
//     at its acquires, and content-free records of the asynchronous
//     updates applied to its home pages. The flush happens at the
//     release, overlapped with the diff/ack round trip.
//
// Both implement hlrc.LogHooks, and this package is the one reader of
// what they log: the Dissector and ReadLoggedDiffs parse every record
// payload that any other package reads.
package wal

import (
	"encoding/binary"
	"fmt"
	"sync"

	"sdsm/internal/arena"
	"sdsm/internal/hlrc"
	"sdsm/internal/memory"
	"sdsm/internal/obsv"
	"sdsm/internal/simtime"
	"sdsm/internal/stable"
)

// Protocol selects a logging protocol.
type Protocol int

// The protocols under evaluation.
const (
	// ProtocolNone is the unmodified home-based SDSM (the baseline row
	// "None" of Table 2). A failure forces re-execution from the start.
	ProtocolNone Protocol = iota
	// ProtocolML is traditional message logging.
	ProtocolML
	// ProtocolCCL is the paper's coherence-centric logging.
	ProtocolCCL
)

// String names the protocol as in the paper's tables.
func (p Protocol) String() string {
	switch p {
	case ProtocolNone:
		return "None"
	case ProtocolML:
		return "ML"
	case ProtocolCCL:
		return "CCL"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Log record kinds stored in stable.Record.Kind.
const (
	// RecNotices holds write-invalidation notices received at one
	// acquire (lock grant or barrier release). Payload: EncodeNotices.
	RecNotices stable.RecordKind = iota + 1
	// 2 is reserved: the kinds below keep their values, so record bytes and CRCs hold.
	_
	// RecEvents holds content-free incoming-update event records
	// (page, writer, interval) triples — CCL only.
	RecEvents
	// RecPage holds a page copy fetched from its home — ML only.
	RecPage
	// RecDiffBatch holds every diff of one (writer, interval) group in a
	// single record: all diffs a release created (own diffs, writer -1;
	// CCL, and hardened ML) or all diffs one DiffUpdate message delivered
	// (ML, writer = the remote writer). One record per group shares the
	// per-record header and the (writer, seq, vtSum) prefix among the
	// group's diffs. Payload: EncodeDiffBatchRecord.
	RecDiffBatch
)

// New returns the LogHooks implementation for protocol p writing to
// store. ProtocolNone returns hlrc.NopHooks. ctrs (optional) receives a
// LogAppends bump for every record staged into the protocol's log.
func New(p Protocol, store *stable.Store, ctrs *obsv.Counters) hlrc.LogHooks {
	return newHooks(p, store, ctrs, false)
}

// NewHardened returns the protocol's hooks with the additions torn-tail
// recovery needs. CCL is unchanged (it already logs its own diffs at every
// release). ML additionally logs the diffs it creates at each release
// (writer -1, like CCL's own-diff records), so that a peer whose torn disk
// log lost the tail of its incoming-diff records can re-fetch the updates
// to its home pages from the writers' logs.
func NewHardened(p Protocol, store *stable.Store, ctrs *obsv.Counters) hlrc.LogHooks {
	return newHooks(p, store, ctrs, true)
}

func newHooks(p Protocol, store *stable.Store, ctrs *obsv.Counters, hardened bool) hlrc.LogHooks {
	switch p {
	case ProtocolNone:
		return hlrc.NopHooks{}
	case ProtocolML:
		return &MLHooks{store: store, ctrs: ctrs, logOwnDiffs: hardened}
	case ProtocolCCL:
		return &CCLHooks{store: store, ctrs: ctrs}
	default:
		panic(fmt.Sprintf("wal: unknown protocol %d", int(p)))
	}
}

// countAppends bumps the shared LogAppends counter, tolerating a nil
// counter set (runs that do not collect metrics).
func countAppends(ctrs *obsv.Counters, n int) {
	if ctrs != nil && n > 0 {
		ctrs.LogAppends.Add(int64(n))
	}
}

// --- record payload encodings ------------------------------------------

// splitDiffRecord splits a RecDiffBatch payload, without decoding or
// copying any diff, into the (writer, seq, vtSum) prefix its diffs share,
// their claimed count n and their encodings back to back. A reader after
// one page steps through diffs with memory.PeekDiff and decodes only what
// it wants; n comes off the disk, so loop on it only while diffs has
// bytes left to consume.
func splitDiffRecord(buf []byte) (writer, seq int32, vtSum int64, n int, diffs []byte, err error) {
	if len(buf) < 20 {
		return 0, 0, 0, 0, nil, fmt.Errorf("wal: short diff-batch record")
	}
	writer = int32(binary.LittleEndian.Uint32(buf))
	seq = int32(binary.LittleEndian.Uint32(buf[4:]))
	vtSum = int64(binary.LittleEndian.Uint64(buf[8:]))
	n = int(binary.LittleEndian.Uint32(buf[16:]))
	return writer, seq, vtSum, n, buf[20:], nil
}

// EncodeEventsRecord appends a RecEvents payload packing the
// update-event triples to buf (caller-supplied, like Diff.Encode).
func EncodeEventsRecord(buf []byte, events []hlrc.UpdateEvent) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(events)))
	for _, e := range events {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Page))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Writer))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Seq))
	}
	return buf
}

// EventsRecordSize is the encoded size of a RecEvents payload.
func EventsRecordSize(events []hlrc.UpdateEvent) int { return 4 + 12*len(events) }

// decodeEvents unpacks a RecEvents payload, the event list cut from evs
// (a nil slab makes it); an empty list is non-nil either way.
func decodeEvents(buf []byte, evs *arena.Slab[hlrc.UpdateEvent]) ([]hlrc.UpdateEvent, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("wal: short events record")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if len(buf) != 12*n {
		return nil, fmt.Errorf("wal: events record wants %d bytes, has %d", 12*n, len(buf))
	}
	events := []hlrc.UpdateEvent{}
	if n > 0 {
		events = evs.Cut(n)
	}
	for i := range events {
		events[i] = hlrc.UpdateEvent{
			Page:   memory.PageID(binary.LittleEndian.Uint32(buf)),
			Writer: int32(binary.LittleEndian.Uint32(buf[4:])),
			Seq:    int32(binary.LittleEndian.Uint32(buf[8:])),
		}
		buf = buf[12:]
	}
	return events, nil
}

// EncodePageRecord appends a RecPage payload packing (page, contents) to
// buf (caller-supplied, like Diff.Encode).
func EncodePageRecord(buf []byte, page memory.PageID, data []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(page))
	return append(buf, data...)
}

// PageRecordSize is the encoded size of a RecPage payload.
func PageRecordSize(data []byte) int { return 4 + len(data) }

// decodePageRecord unpacks a RecPage payload.
func decodePageRecord(buf []byte) (memory.PageID, []byte, error) {
	if len(buf) < 4 {
		return 0, nil, fmt.Errorf("wal: short page record")
	}
	return memory.PageID(binary.LittleEndian.Uint32(buf)), buf[4:], nil
}

// EncodeDiffBatchRecord appends a RecDiffBatch payload to buf: one
// (writer, seq, vtSum) prefix shared by every diff of the group, a diff
// count, then the diffs back to back. All diffs of a batch close the
// same writer interval, which is what lets the prefix be shared. For
// own-diff records (writer -1) vtSum carries the sum of the closing
// interval's vector time; recovery sorts re-fetched diffs from different
// writers by it to apply them in a linear extension of their causal
// order. Incoming-diff records (ML) replay in log order and store zero.
func EncodeDiffBatchRecord(buf []byte, writer, seq int32, vtSum int64, diffs []memory.Diff) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(writer))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(seq))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(vtSum))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(diffs)))
	for _, d := range diffs {
		buf = d.Encode(buf)
	}
	return buf
}

// DiffBatchRecordSize is the encoded size of a RecDiffBatch payload.
func DiffBatchRecordSize(diffs []memory.Diff) int {
	n := 20
	for _, d := range diffs {
		n += d.WireSize()
	}
	return n
}

// DecodeDiffBatchRecord unpacks a RecDiffBatch payload. Like
// memory.DecodeDiff it sizes preallocations from the remaining buffer,
// never from the claimed count alone, so corrupt counts produce errors
// instead of huge allocations. Per-run page-bounds validation is the
// caller's (memory.Diff.Validate — the wire format does not know the
// page size). Outside wal, only the benchmark's codec probes call it.
func DecodeDiffBatchRecord(buf []byte) (writer, seq int32, vtSum int64, diffs []memory.Diff, err error) {
	return decodeDiffBatch(buf, nil, nil)
}

// decodeDiffBatch is DecodeDiffBatchRecord with the diff list cut from
// list and each body from bodies (nil makes them); an empty list is
// non-nil either way.
func decodeDiffBatch(buf []byte, list *arena.Slab[memory.Diff], bodies *memory.Bodies) (writer, seq int32, vtSum int64, diffs []memory.Diff, err error) {
	writer, seq, vtSum, n, buf, err := splitDiffRecord(buf)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if n > len(buf)/8 { // each diff is at least 8 bytes on the wire
		return writer, seq, vtSum, nil, fmt.Errorf("wal: batch of %d diffs overruns its %d bytes", n, len(buf))
	}
	diffs = []memory.Diff{}
	if n > 0 {
		diffs = list.Cut(n)
	}
	for i := range diffs {
		d, rest, derr := memory.DecodeDiffFrom(buf, bodies)
		if derr != nil {
			return writer, seq, vtSum, nil, fmt.Errorf("wal: diff %d of batch: %w", i, derr)
		}
		buf = rest
		diffs[i] = d
	}
	if len(buf) != 0 {
		return writer, seq, vtSum, nil, fmt.Errorf("wal: %d trailing bytes in diff-batch record", len(buf))
	}
	return writer, seq, vtSum, diffs, nil
}

// --- logged-diff reads ---------------------------------------------------

// ReadLoggedDiffs scans a writer's log for its own diffs of one page in
// the interval range (FromSeq, ToSeq]. DiskBytes accounts the log bytes
// read on the writer's disk; the recovering node charges that time.
// A record outside the window is passed over on its prefix alone, and
// inside the window only the wanted page's diffs are copied out.
func ReadLoggedDiffs(store *stable.Store, req *hlrc.RecDiffsReq) *hlrc.RecDiffsReply {
	resp := &hlrc.RecDiffsReply{}
	for _, rec := range store.Records() {
		if rec.Kind != RecDiffBatch {
			continue
		}
		writer, seq, vtSum, n, enc, err := splitDiffRecord(rec.Data)
		if err != nil {
			panic(fmt.Sprintf("wal: corrupt diff record: %v", err))
		}
		// Only diffs this node created itself (CCL log), in the window.
		if writer != -1 || seq <= req.FromSeq || seq > req.ToSeq {
			continue
		}
		found := len(resp.Diffs)
		for i := 0; i < n; i++ {
			page, size, err := memory.PeekDiff(enc)
			if err != nil {
				panic(fmt.Sprintf("wal: corrupt diff record: diff %d: %v", i, err))
			}
			if page == req.Page {
				d, _, _ := memory.DecodeDiff(enc[:size]) // PeekDiff accepted these bytes
				resp.Seqs = append(resp.Seqs, seq)
				resp.VTSums = append(resp.VTSums, vtSum)
				resp.Diffs = append(resp.Diffs, d)
			}
			enc = enc[size:]
		}
		if len(enc) != 0 {
			panic(fmt.Sprintf("wal: corrupt diff record: %d trailing bytes", len(enc)))
		}
		if len(resp.Diffs) > found {
			// The whole record is read off the writer's disk even when only
			// one of a batch's diffs is wanted.
			resp.DiskBytes += rec.WireSize()
		}
	}
	store.NoteRead(resp.DiskBytes)
	return resp
}

// LoggedDiffs reads writer's own logged diffs of one page for the
// interval range (fromSeq, toSeq], as custody-record entries. The churn
// runner uses it to assemble the authoritative content of migrated pages
// offline (hlrc.RebuildAdoptedImage), and the churn sweep's custody check
// to compare custody records with the writers' logs.
func LoggedDiffs(store *stable.Store, writer int32, page memory.PageID, fromSeq, toSeq int32) []hlrc.AdoptedDiff {
	resp := ReadLoggedDiffs(store, &hlrc.RecDiffsReq{Page: page, FromSeq: fromSeq, ToSeq: toSeq})
	out := make([]hlrc.AdoptedDiff, 0, len(resp.Seqs))
	for i := range resp.Seqs {
		out = append(out, hlrc.AdoptedDiff{Writer: writer, Seq: resp.Seqs[i], VTSum: resp.VTSums[i], Diff: resp.Diffs[i]})
	}
	return out
}

// --- CCL ------------------------------------------------------------------

// ownRec marks a staged record produced on the node's own application
// goroutine (acquire notices): it belongs to the very next release flush
// regardless of the arrival cutoff.
const ownRec = simtime.Time(-1)

// The staging buffer's and record list's first capacities: a few dozen
// notice or event records, so a node that stages at all skips the
// smallest growth steps.
const (
	minStageBuf  = 1 << 10
	minStageRecs = 64
)

// stagedRec is one record waiting for a release flush: its kind and op,
// where its payload ends in CCLHooks.buf (it starts where the record
// staged before it ends), and the virtual arrival of the message that
// produced it (ownRec for records the application goroutine itself
// staged).
type stagedRec struct {
	kind    stable.RecordKind
	op      int32
	end     int
	arrival simtime.Time
}

// due reports whether the record rides a release flush with this arrival
// cutoff.
func (s stagedRec) due(cutoff simtime.Time) bool {
	return s.arrival == ownRec || s.arrival <= cutoff
}

// CCLHooks implements coherence-centric logging. Staged state accumulates
// between releases; AtRelease turns it into one flush overlapped with the
// coherence traffic. Handler-staged records carry their message's virtual
// arrival, and each flush takes exactly those that arrived by the release
// cutoff — so the flush composition (and its disk time) is a function of
// virtual time, not of which goroutine ran first.
type CCLHooks struct {
	mu    sync.Mutex
	store *stable.Store
	ctrs  *obsv.Counters
	// buf holds the staged records' payloads back to back in staging
	// order, and staged describes them; mu guards both. The logger owns
	// buf: a flush cuts its records from it, and AtRelease then moves what
	// is still staged to the front. So buf grows only to its high-water
	// mark, and a record staged after the node's last release, which
	// never flushes, costs no allocation of its own.
	buf    []byte
	staged []stagedRec
	// flushScratch is the reusable record slice AtRelease composes each
	// flush into; only the application goroutine touches it (AtRelease is
	// never concurrent with itself). Staged records alias buf; the
	// own-diff record is an arena buffer, returned to the arena once the
	// flush has copied it to disk.
	flushScratch []stable.Record
}

// grow returns s with room for n more elements. A slice that must move
// at least doubles, to no fewer than least elements. A flush in progress
// may still read buf's old array: moving only copies out of it, and
// staging writes only past the records a flush reads.
func grow[E any](s []E, n, least int) []E {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]E, 0, max(2*cap(s), len(s)+n, least)), s...)
}

// OnAcquireNotices stages the received write-invalidation notices for the
// next release flush.
func (h *CCLHooks) OnAcquireNotices(op int32, notices []hlrc.Notice) {
	if len(notices) == 0 {
		return
	}
	h.mu.Lock()
	h.buf = hlrc.EncodeNotices(notices, grow(h.buf, hlrc.NoticesWireSize(notices), minStageBuf))
	h.staged = append(grow(h.staged, 1, minStageRecs), stagedRec{kind: RecNotices, op: op, end: len(h.buf), arrival: ownRec})
	h.mu.Unlock()
	countAppends(h.ctrs, 1)
}

// OnPageFetched logs nothing: "CCL does not keep a received copy of a
// shared memory page ... because such an up-to-date copy can be
// reconstructed during recovery" (paper §3.2).
func (h *CCLHooks) OnPageFetched(int32, memory.PageID, []byte) {}

// OnIncomingDiffs stages only the content-free event records; the diff
// contents are discarded with the message (the writer logged them).
func (h *CCLHooks) OnIncomingDiffs(op int32, arrival simtime.Time, events []hlrc.UpdateEvent, _ []memory.Diff) {
	if len(events) == 0 {
		return
	}
	h.mu.Lock()
	h.buf = EncodeEventsRecord(grow(h.buf, EventsRecordSize(events), minStageBuf), events)
	h.staged = append(grow(h.staged, 1, minStageRecs), stagedRec{kind: RecEvents, op: op, end: len(h.buf), arrival: arrival})
	h.mu.Unlock()
	countAppends(h.ctrs, 1)
}

// AtSyncEntry flushes nothing: CCL's only flush point is the release.
func (h *CCLHooks) AtSyncEntry(int32) int { return 0 }

// AtRelease flushes the staged records that arrived by the cutoff plus
// this interval's own diffs as one RecDiffBatch record. Later-staged
// records stay for the next flush: their messages raced past the previous
// synchronization point, so no deterministic rule could put them in this
// one. Returns the flush's byte count, which the engine charges the
// virtual clock with.
func (h *CCLHooks) AtRelease(op int32, seq int32, vtSum int64, cutoff simtime.Time, created []memory.Diff) int {
	recs := h.flushScratch[:0]
	h.mu.Lock()
	// Records the service stages while this flush runs land past
	// considered, and wait for the next release.
	considered, start := len(h.staged), 0
	for _, s := range h.staged {
		if s.due(cutoff) {
			recs = append(recs, stable.Record{Kind: s.kind, Op: s.op, Data: h.buf[start:s.end]})
		}
		start = s.end
	}
	h.mu.Unlock()
	taken := len(recs)
	if len(created) > 0 {
		// writer -1: the log owner.
		recs = appendDiffRecord(recs, op, -1, seq, vtSum, created)
		countAppends(h.ctrs, 1)
	}
	if len(recs) == 0 {
		return 0
	}
	// Flush copies every payload, so no record outlives this call.
	n := h.store.Flush(recs)
	if len(created) > 0 {
		arena.Put(recs[taken].Data)
	}
	clear(recs)
	h.flushScratch = recs[:0]
	if taken > 0 {
		h.mu.Lock()
		h.compact(considered, cutoff)
		h.mu.Unlock()
	}
	return n
}

// compact drops the first n staged records that were due at cutoff, which
// AtRelease has flushed, and moves the payloads of the rest (records kept
// past the cutoff, and records staged during the flush) to the front of
// buf in staging order. Each payload moves toward the front, so copy is
// safe. Callers hold mu.
func (h *CCLHooks) compact(n int, cutoff simtime.Time) {
	kept, start, end := h.staged[:0], 0, 0
	for i, s := range h.staged {
		from := start
		start = s.end
		if i < n && s.due(cutoff) {
			continue
		}
		end += copy(h.buf[end:], h.buf[from:s.end])
		s.end = end
		kept = append(kept, s)
	}
	h.staged, h.buf = kept, h.buf[:end]
}

// DeterministicFlush implements LogHooks: the engine must fence arrivals
// up to the cutoff before AtRelease composes the flush.
func (h *CCLHooks) DeterministicFlush() bool { return true }

// appendDiffRecord appends one (writer, seq) diff group to recs as a
// single RecDiffBatch record. The payload is drawn from the arena; the
// caller returns it once flushed.
func appendDiffRecord(recs []stable.Record, op, writer, seq int32, vtSum int64, diffs []memory.Diff) []stable.Record {
	return append(recs, stable.Record{
		Kind: RecDiffBatch, Op: op,
		Data: EncodeDiffBatchRecord(arena.Get(DiffBatchRecordSize(diffs))[:0], writer, seq, vtSum, diffs),
	})
}

// releaseScratch returns the flushed records' payload buffers to the
// arena. Safe exactly because stable.Store.Flush copies every payload
// into the disk image before returning.
func releaseScratch(recs []stable.Record) {
	for i := range recs {
		arena.Put(recs[i].Data)
		recs[i].Data = nil
	}
}

// --- ML ---------------------------------------------------------------------

// MLHooks implements traditional message logging: every incoming
// coherence message is kept verbatim in volatile memory and flushed at
// the next synchronization point.
type MLHooks struct {
	mu       sync.Mutex
	store    *stable.Store
	ctrs     *obsv.Counters
	volatile []stable.Record
	// logOwnDiffs (hardened mode) additionally logs the diffs this node
	// creates, flushed at the release, so live nodes can serve a torn-tail
	// recovery's home-update re-fetches. Plain ML (the paper's protocol)
	// keeps only incoming messages.
	logOwnDiffs bool
	// releaseScratch backs the hardened-mode own-diff flush; only the
	// application goroutine touches it.
	releaseScratchRecs []stable.Record
}

// OnAcquireNotices logs the grant/release message's notice content.
func (h *MLHooks) OnAcquireNotices(op int32, notices []hlrc.Notice) {
	if len(notices) == 0 {
		return
	}
	data := hlrc.EncodeNotices(notices, arena.Get(hlrc.NoticesWireSize(notices))[:0])
	h.mu.Lock()
	h.volatile = append(h.volatile, stable.Record{Kind: RecNotices, Op: op, Data: data})
	h.mu.Unlock()
	countAppends(h.ctrs, 1)
}

// OnPageFetched logs the full content of the fetched page — the dominant
// share of ML's log volume.
func (h *MLHooks) OnPageFetched(op int32, page memory.PageID, data []byte) {
	rec := EncodePageRecord(arena.Get(PageRecordSize(data))[:0], page, data)
	h.mu.Lock()
	h.volatile = append(h.volatile, stable.Record{Kind: RecPage, Op: op, Data: rec})
	h.mu.Unlock()
	countAppends(h.ctrs, 1)
}

// OnIncomingDiffs logs the received DiffUpdate contents: the message is
// one writer interval, so its diffs become one RecDiffBatch record.
func (h *MLHooks) OnIncomingDiffs(op int32, _ simtime.Time, events []hlrc.UpdateEvent, diffs []memory.Diff) {
	if len(diffs) == 0 {
		return
	}
	h.mu.Lock()
	h.volatile = appendDiffRecord(h.volatile, op, events[0].Writer, events[0].Seq, 0, diffs)
	h.mu.Unlock()
	countAppends(h.ctrs, 1)
}

// AtSyncEntry flushes the volatile log on the critical path.
func (h *MLHooks) AtSyncEntry(int32) int {
	h.mu.Lock()
	recs := h.volatile
	h.volatile = nil
	h.mu.Unlock()
	if len(recs) == 0 {
		return 0
	}
	n := h.store.Flush(recs)
	releaseScratch(recs)
	h.mu.Lock()
	if h.volatile == nil {
		h.volatile = recs[:0] // recycle the slice backing too
	}
	h.mu.Unlock()
	return n
}

// AtRelease flushes nothing extra under plain ML (it already flushed at
// the entry of this synchronization operation). Hardened ML flushes the
// interval's own diffs here, before they are sent to the homes.
func (h *MLHooks) AtRelease(op int32, seq int32, vtSum int64, _ simtime.Time, created []memory.Diff) int {
	if !h.logOwnDiffs || len(created) == 0 {
		return 0
	}
	// writer -1: the log owner.
	recs := appendDiffRecord(h.releaseScratchRecs[:0], op, -1, seq, vtSum, created)
	countAppends(h.ctrs, 1)
	n := h.store.Flush(recs)
	releaseScratch(recs)
	h.releaseScratchRecs = recs[:0]
	return n
}

// DeterministicFlush implements LogHooks: ML flushes everything staged at
// every synchronization entry, so there is no composition to pin down —
// and its recovery replay depends on flush-at-entry record availability,
// which an arrival filter would change.
func (h *MLHooks) DeterministicFlush() bool { return false }
