// Package hlrc implements the home-based lazy release consistency
// protocol (Zhou, Iftode & Li, OSDI'96) that the paper layers its logging
// and recovery protocols on.
//
// Every shared page has a home node that collects updates (diffs) from
// all writers at the end of each writer interval. Remote copies are
// invalidated at acquire time according to write-invalidation notices
// piggybacked on lock grants and barrier releases, and are brought
// up to date on demand with a single round trip to the home.
package hlrc

import (
	"encoding/binary"
	"fmt"

	"sdsm/internal/arena"
	"sdsm/internal/memory"
	"sdsm/internal/vclock"
)

// Notice is one write-invalidation notice: process Proc wrote Pages
// during its interval Seq.
type Notice struct {
	Proc  int32
	Seq   int32
	Pages []memory.PageID
}

// WireSize is the serialized size of the notice.
func (n Notice) WireSize() int { return 12 + 4*len(n.Pages) }

// Encode appends a portable encoding of the notice to buf.
func (n Notice) Encode(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n.Proc))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n.Seq))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(n.Pages)))
	for _, p := range n.Pages {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
	}
	return buf
}

// DecodeNotice decodes one notice, returning it and the remaining bytes.
// Its page list is cut from pages (a nil slab makes it); an empty one is
// non-nil, as in every decoder of this file.
func DecodeNotice(buf []byte, pages *arena.Slab[memory.PageID]) (Notice, []byte, error) {
	var n Notice
	if len(buf) < 12 {
		return n, buf, fmt.Errorf("hlrc: short notice header")
	}
	n.Proc = int32(binary.LittleEndian.Uint32(buf))
	n.Seq = int32(binary.LittleEndian.Uint32(buf[4:]))
	cnt := int(binary.LittleEndian.Uint32(buf[8:]))
	buf = buf[12:]
	if len(buf)/4 < cnt {
		return n, buf, fmt.Errorf("hlrc: truncated notice page list")
	}
	n.Pages = []memory.PageID{}
	if cnt > 0 {
		n.Pages = pages.Cut(cnt)
	}
	for i := range n.Pages {
		n.Pages[i] = memory.PageID(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
	}
	return n, buf, nil
}

// EncodeNotices encodes a slice of notices with a count prefix.
func EncodeNotices(ns []Notice, buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ns)))
	for _, n := range ns {
		buf = n.Encode(buf)
	}
	return buf
}

// DecodeNotices decodes a slice produced by EncodeNotices, cutting the
// list from ns and each page list from pages (nil slabs make them). A
// count the buffer cannot hold (12 bytes per notice at least) fails
// before anything is sized by it.
func DecodeNotices(buf []byte, ns *arena.Slab[Notice], pages *arena.Slab[memory.PageID]) ([]Notice, []byte, error) {
	if len(buf) < 4 {
		return nil, buf, fmt.Errorf("hlrc: short notice list")
	}
	cnt := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if len(buf)/12 < cnt {
		return nil, buf, fmt.Errorf("hlrc: notice list of %d overruns its %d bytes", cnt, len(buf))
	}
	out := []Notice{}
	if cnt > 0 {
		out = ns.Cut(cnt)
	}
	for i := range out {
		n, rest, err := DecodeNotice(buf, pages)
		if err != nil {
			return nil, rest, err
		}
		out[i] = n
		buf = rest
	}
	return out, buf, nil
}

// NoticesWireSize sums the wire sizes of a notice list (plus count).
func NoticesWireSize(ns []Notice) int {
	n := 4
	for _, x := range ns {
		n += x.WireSize()
	}
	return n
}

// minIntervals is the first capacity of a process's interval list.
const minIntervals = 64

// NoticeStore accumulates the write notices a node (or a manager) knows,
// indexed by process and interval. Interval sequence numbers of each
// process are contiguous (the protocol only extends knowledge from a
// vector the peer declared), which the store enforces. Like its owner's
// other state, a store is not safe for concurrent use.
type NoticeStore struct {
	n      int
	byProc [][][]memory.PageID // byProc[p][seq-1] = pages of p's interval seq
	deltas arena.Slab[Notice]  // Delta's results and the manager's round cuts, which are sent
}

// NewNoticeStore returns an empty store for n processes.
func NewNoticeStore(n int) *NoticeStore {
	return &NoticeStore{n: n, byProc: make([][][]memory.PageID, n)}
}

// Know returns the store's knowledge horizon: per process, the highest
// interval stored.
func (s *NoticeStore) Know() vclock.VC {
	v := vclock.New(s.n)
	for p := range s.byProc {
		v[p] = int32(len(s.byProc[p]))
	}
	return v
}

// Add records one notice. Duplicates are ignored; a gap (seq beyond the
// next expected interval) panics, as it indicates a protocol bug.
func (s *NoticeStore) Add(n Notice) {
	p := int(n.Proc)
	if p < 0 || p >= s.n {
		panic(fmt.Sprintf("hlrc: notice for unknown proc %d", n.Proc))
	}
	have := int32(len(s.byProc[p]))
	switch {
	case n.Seq <= have:
		return // duplicate
	case n.Seq == have+1:
		ivs := s.byProc[p]
		if len(ivs) == cap(ivs) {
			// Double, from minIntervals: append alone would start a list
			// at one interval, and grows long ones by less than double.
			grown := make([][]memory.PageID, len(ivs), max(minIntervals, 2*cap(ivs)))
			copy(grown, ivs)
			ivs = grown
		}
		s.byProc[p] = append(ivs, n.Pages)
	default:
		panic(fmt.Sprintf("hlrc: notice gap for proc %d: have %d, got seq %d", p, have, n.Seq))
	}
}

// AddAll records each notice in ns. The slice must be sorted by (Proc,
// Seq) within each process, which Delta guarantees.
func (s *NoticeStore) AddAll(ns []Notice) {
	for _, n := range ns {
		s.Add(n)
	}
}

// Pages returns the page list of one interval, or nil if unknown.
func (s *NoticeStore) Pages(proc int, seq int32) []memory.PageID {
	if proc < 0 || proc >= s.n {
		return nil
	}
	if seq < 1 || int(seq) > len(s.byProc[proc]) {
		return nil
	}
	return s.byProc[proc][seq-1]
}

// Delta returns every stored notice not covered by since, ordered by
// process and ascending interval, cut from the store's slab at its exact
// size (nil when nothing is missing).
func (s *NoticeStore) Delta(since vclock.VC) []Notice {
	n := s.deltaLen(since)
	if n == 0 {
		return nil
	}
	return s.appendDelta(s.deltas.Cut(n)[:0], since)
}

// deltaFrom is the number of process p's intervals since covers.
func deltaFrom(since vclock.VC, p int) int {
	if p < len(since) {
		return max(int(since[p]), 0)
	}
	return 0
}

// deltaLen is len(Delta(since)).
func (s *NoticeStore) deltaLen(since vclock.VC) int {
	n := 0
	for p, ivs := range s.byProc {
		n += max(len(ivs)-deltaFrom(since, p), 0)
	}
	return n
}

// appendDelta appends Delta(since)'s notices to out.
func (s *NoticeStore) appendDelta(out []Notice, since vclock.VC) []Notice {
	for p, ivs := range s.byProc {
		for i := deltaFrom(since, p); i < len(ivs); i++ {
			out = append(out, Notice{Proc: int32(p), Seq: int32(i + 1), Pages: ivs[i]})
		}
	}
	return out
}
