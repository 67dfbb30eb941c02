// Package memory implements the paged shared address space of the
// simulated SDSM: page storage, twin creation, word-granularity diffs and
// the per-node page table.
//
// Real SDSM systems use virtual-memory protection hardware to detect
// accesses; the Go runtime owns signals and page tables, so this package
// instead exposes an explicit state machine per page (see PageTable) that
// the access layer consults on every read and write. The protocol-visible
// behaviour (which pages fault, which twins and diffs exist) is identical
// to the mprotect-based original.
package memory

import (
	"encoding/binary"
	"fmt"
	"math"
)

// WordSize is the diff granularity in bytes. TreadMarks diffs at 4-byte
// word granularity; we keep that so false sharing behaves the same way.
const WordSize = 4

// PageID names one shared page.
type PageID int32

// Diff is a summary of the modifications made to one page during one
// interval, computed by comparing the page against its twin.
//
// A diff is held as its own wire encoding: body is the run table exactly
// as Encode lays it out — per run a little-endian u32 byte offset
// (WordSize-aligned when MakeDiff produced it), a u32 length and that many
// bytes of new contents — cut once, with cap == len, from its maker's
// Bodies (or made alone). It never aliases a page or a decode buffer and
// is never written after construction, so copies of the Diff value share
// it and it stays valid however long it is kept (custody, in-flight
// messages), keeping the block or chunk it was cut from reachable. Runs
// are read through Runs; the zero Diff is the empty diff of page 0.
type Diff struct {
	Page PageID
	runs int32  // number of runs in body
	body []byte // the run table: (off u32, len u32, data)*
}

// runHeader is the per-run overhead in the run table: offset and length.
const runHeader = 8

// span is one modified byte range found by MakeDiff's scan.
type span struct{ start, end int32 }

// MakeDiff compares cur against twin and returns the diff, scanning at
// word granularity and coalescing adjacent modified words into runs.
// The two slices must have equal length. The diff owns a copy of the
// modified bytes, made on its own (PageTable.MakeDiff cuts it from the
// table's Bodies); a clean page allocates nothing.
func MakeDiff(page PageID, twin, cur []byte) Diff {
	var stack [64]span // scratch for the usual few runs, on the stack
	d, _ := makeDiff(page, twin, cur, stack[:0], nil)
	return d
}

// makeDiff is MakeDiff with spans as the scan's scratch, returned emptied
// for reuse, and the body cut from bodies (nil: made).
//
// The scan compares 8 bytes (two words) per load where it can: the skip
// loop strides over clean regions until a 64-bit chunk differs, and the
// run-coalescing fast path extends a run by whole chunks while both of a
// chunk's words keep differing. Word-granularity boundaries are resolved
// with single-word comparisons, so the produced runs are byte-identical
// to a pure word-by-word scan.
func makeDiff(page PageID, twin, cur []byte, spans []span, bodies *Bodies) (Diff, []span) {
	if len(twin) != len(cur) {
		panic(fmt.Sprintf("memory: twin/page size mismatch: %d vs %d", len(twin), len(cur)))
	}
	n := len(cur)
	// Single-pass state machine over two-word chunks: each chunk is
	// loaded once, XORed, and its two words classified. runStart tracks
	// the open run (-1: none); a clean word closes it. The body is then
	// cut at its exact final size.
	runStart := -1
	i := 0
	for ; i+8 <= n; i += 8 {
		x := binary.LittleEndian.Uint64(twin[i:]) ^ binary.LittleEndian.Uint64(cur[i:])
		if x == 0 {
			if runStart >= 0 {
				spans = append(spans, span{int32(runStart), int32(i)})
				runStart = -1
			}
			continue
		}
		lo, hi := uint32(x) != 0, uint32(x>>32) != 0
		switch {
		case lo && hi: // whole chunk modified: the run coalesces across it
			if runStart < 0 {
				runStart = i
			}
		case lo: // run ends mid-chunk
			if runStart < 0 {
				runStart = i
			}
			spans = append(spans, span{int32(runStart), int32(i + 4)})
			runStart = -1
		default: // clean low word, run (re)starts at the high word
			if runStart >= 0 {
				spans = append(spans, span{int32(runStart), int32(i)})
			}
			runStart = i + 4
		}
	}
	// Tail shorter than a chunk: word-wise (possibly a final partial word).
	for ; i < n; i += WordSize {
		if wordEqual(twin, cur, i) {
			if runStart >= 0 {
				spans = append(spans, span{int32(runStart), int32(i)})
				runStart = -1
			}
		} else if runStart < 0 {
			runStart = i
		}
	}
	if runStart >= 0 {
		spans = append(spans, span{int32(runStart), int32(n)})
	}
	d := Diff{Page: page}
	if len(spans) > 0 {
		size := runHeader * len(spans)
		for _, s := range spans {
			size += int(s.end - s.start)
		}
		d.runs = int32(len(spans))
		d.body = bodies.Cut(size)[:0] // cap == size: the appends stay in it
		for _, s := range spans {
			d.body = binary.LittleEndian.AppendUint32(d.body, uint32(s.start))
			d.body = binary.LittleEndian.AppendUint32(d.body, uint32(s.end-s.start))
			d.body = append(d.body, cur[s.start:s.end]...)
		}
	}
	return d, spans[:0]
}

func wordEqual(a, b []byte, off int) bool {
	if off+WordSize <= len(a) {
		return binary.LittleEndian.Uint32(a[off:]) == binary.LittleEndian.Uint32(b[off:])
	}
	for i := off; i < len(a); i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Empty reports whether the diff carries no modifications.
func (d Diff) Empty() bool { return d.runs == 0 }

// NumRuns is the number of contiguous modified spans the diff carries.
func (d Diff) NumRuns() int { return int(d.runs) }

// RunIter is a cursor over a diff's runs, in table order:
//
//	for r := d.Runs(); r.Valid(); r.Next() {
//		copy(dst[r.Off():], r.Data())
//	}
//
// Data is a window into the diff's body: read it, never write it. Every
// constructor leaves the body well formed, so the cursor does not re-check
// it.
type RunIter struct{ rest []byte }

// Runs returns a cursor on the first run.
func (d Diff) Runs() RunIter { return RunIter{d.body} }

// Valid reports whether the cursor is on a run (false past the last).
func (it RunIter) Valid() bool { return len(it.rest) > 0 }

// Off is the current run's byte offset within the page.
func (it RunIter) Off() int { return int(binary.LittleEndian.Uint32(it.rest)) }

// Data is the current run's new contents.
func (it RunIter) Data() []byte { return it.rest[runHeader:it.end()] }

// Next moves to the following run.
func (it *RunIter) Next() { it.rest = it.rest[it.end():] }

// end is the length of the current run's table entry, header included.
func (it RunIter) end() int { return runHeader + int(binary.LittleEndian.Uint32(it.rest[4:])) }

// Apply writes the diff's runs into dst, which must be a full page buffer.
func (d Diff) Apply(dst []byte) {
	for r := d.Runs(); r.Valid(); r.Next() {
		off, data := r.Off(), r.Data()
		copy(dst[off:off+len(data)], data)
	}
}

// DataBytes is the number of payload bytes carried by the diff.
func (d Diff) DataBytes() int { return len(d.body) - runHeader*int(d.runs) }

// WireSize is the serialized size of the diff: page id, run count, and
// the run table (per run an offset, length and the payload). This is what
// message-size and log-size accounting use.
func (d Diff) WireSize() int { return 8 + len(d.body) }

// Encode appends a portable encoding of the diff to buf: page id, run
// count, then the body as it stands. When buf lacks capacity it is grown
// once, to the exact total size (WireSize plus the existing contents), so
// encoding into a fresh or pooled buffer costs at most one allocation.
func (d Diff) Encode(buf []byte) []byte {
	if need := d.WireSize(); cap(buf)-len(buf) < need {
		grown := make([]byte, len(buf), len(buf)+need)
		copy(grown, buf)
		buf = grown
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.Page))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.runs))
	return append(buf, d.body...)
}

// PeekDiff checks the encoded diff at the head of buf without copying
// anything: it returns the diff's page and its encoded length, so a
// reader scanning a log or a batch for one page can step over the diffs
// it does not want (buf[size:]) and DecodeDiff only the ones it does.
// Run offsets must be non-negative and runs must not overflow an int32
// address space; whether they fit the destination page is the caller's
// check (Validate), since the wire format does not carry the page size.
// The walk follows the run headers, not the claimed run count, so a
// corrupt count is an error after at most len(buf) bytes.
func PeekDiff(buf []byte) (page PageID, size int, err error) {
	if len(buf) < 8 {
		return 0, 0, fmt.Errorf("memory: short diff header")
	}
	page = PageID(binary.LittleEndian.Uint32(buf))
	n := binary.LittleEndian.Uint32(buf[4:])
	size = 8
	for i := uint32(0); i < n; i++ {
		rest := buf[size:]
		if len(rest) < runHeader {
			return page, 0, fmt.Errorf("memory: short run header (run %d)", i)
		}
		off := int32(binary.LittleEndian.Uint32(rest))
		ln := int64(binary.LittleEndian.Uint32(rest[4:]))
		if off < 0 {
			return page, 0, fmt.Errorf("memory: negative run offset %d (run %d)", off, i)
		}
		if int64(off)+ln > math.MaxInt32 {
			return page, 0, fmt.Errorf("memory: run %d spans [%d, %d+%d), beyond any page", i, off, off, ln)
		}
		if int64(len(rest)-runHeader) < ln {
			return page, 0, fmt.Errorf("memory: truncated run payload (run %d)", i)
		}
		size += runHeader + int(ln)
	}
	return page, size, nil
}

// DecodeDiff decodes a diff produced by Encode, returning the diff and the
// remaining bytes: PeekDiff's bounds-checking walk, then one copy of the
// run table, so the decoded diff does not alias buf.
func DecodeDiff(buf []byte) (Diff, []byte, error) { return DecodeDiffFrom(buf, nil) }

// DecodeDiffFrom is DecodeDiff with the run table's copy cut from bodies
// (a nil Bodies makes it).
func DecodeDiffFrom(buf []byte, bodies *Bodies) (Diff, []byte, error) {
	page, size, err := PeekDiff(buf)
	if err != nil {
		return Diff{Page: page}, buf, err
	}
	d := Diff{Page: page}
	if size > 8 {
		d.runs = int32(binary.LittleEndian.Uint32(buf[4:]))
		d.body = bodies.Cut(size - 8)
		copy(d.body, buf[8:size])
	}
	return d, buf[size:], nil
}

// Validate checks that every run lies inside a page of pageSize bytes and
// covers whole words (MakeDiff never emits anything else). Decoded diffs
// must pass it before being applied: Apply trusts the run offsets, and a
// corrupt or hostile encoding could otherwise write outside the
// destination page buffer or widen the word-granular undo entry taken
// from it.
func (d Diff) Validate(pageSize int) error {
	i := 0
	for r := d.Runs(); r.Valid(); r.Next() {
		off, end := r.Off(), r.Off()+len(r.Data())
		if off < 0 || end > pageSize {
			return fmt.Errorf("memory: page %d run %d spans [%d, %d), outside the %d-byte page",
				d.Page, i, off, end, pageSize)
		}
		if off%WordSize != 0 || len(r.Data())%WordSize != 0 {
			return fmt.Errorf("memory: page %d run %d spans [%d, %d), not whole %d-byte words",
				d.Page, i, off, end, WordSize)
		}
		i++
	}
	return nil
}
