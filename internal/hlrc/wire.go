package hlrc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"

	"sdsm/internal/arena"
	"sdsm/internal/memory"
	"sdsm/internal/simtime"
	"sdsm/internal/vclock"
)

// The wire codec. Every payload type has one encoding, stated once: as
// its case of wire.walk, a list of the fields in wire order. The same
// walk sizes the message (WireSize, what the cost model charges), appends
// it (AppendWire, what a real socket carries) or decodes it (DecodeWire),
// so len(m.AppendWire(nil)) == m.WireSize() for every value by
// construction and modelled bytes are payload bytes. The layouts are
// composed from vclock.VC.Encode, EncodeNotices and memory.Diff.Encode. No
// layout carries a field the walk does not name: a trailing optional
// field is present iff bytes remain, DiffUpdate's optional VTSum is
// flagged in the sign bit of Writer, and a diff list runs to the end of
// the body.
//
// Encodings are canonical — one byte string per value, decoders reject
// the rest (a zero optional field spelled out, nonzero reserved bytes) —
// so decode∘encode is the identity and a fuzzer can check it.
//
// Decoders treat the body as hostile: every failure is a *WireError,
// never a panic, decoded values own their bytes (nothing aliases the
// connection buffer the body was read into), and no allocation exceeds a
// small multiple of the body's length. A tcp reader decodes through
// state of its own, the decodeSlabs its values are cut from; a decode
// with none makes each value.

// Payload type tags, carried in the frame header beside the message kind.
// A tag names the Go type of the payload, which a kind does not (both
// sender-log request kinds carry a RecSyncReq, and a reply's kind is the
// responder's choice). 0 is "no payload".
const (
	tagLockReq uint8 = iota + 1
	tagLockGrant
	tagLockRelease
	tagBarrierCheckin
	tagBarrierRelease
	tagDiffUpdate
	tagDiffAck
	tagPageReq
	tagPageReply
	tagRecDiffsReq
	tagRecDiffsReply
	tagRecSyncReq
	tagRecGrantReply
	tagRecBarrierReply
	tagObituary
	tagRedirectHome
	tagFenced
)

// Causes a WireError wraps, besides the errors of the vclock, notice and
// diff decoders.
var (
	ErrWireTruncated = errors.New("body ends inside the field")
	ErrWireTrailing  = errors.New("bytes left after the last field")
	ErrWireValue     = errors.New("value outside the canonical encoding")
)

// WireError reports a payload body that is not the encoding of any value
// of its type.
type WireError struct {
	Payload string // the payload type, e.g. "LockGrant"
	Field   string // the field being decoded
	Err     error
}

func (e *WireError) Error() string {
	return fmt.Sprintf("hlrc: decoding %s.%s: %v", e.Payload, e.Field, e.Err)
}

func (e *WireError) Unwrap() error { return e.Err }

// wireOp is what a walk does with each field.
type wireOp uint8

const (
	wireSizing    wireOp = iota // add the field's length to n
	wireAppending               // append the field to b
	wireDecoding                // read the field from b into the value
)

// wire is one walk over a payload's fields. A decode treats b as hostile:
// the first failure sticks, later fields read as zero, and the value is
// discarded.
type wire struct {
	op  wireOp
	n   int          // sizing: the bytes walked so far
	b   []byte       // appending: the encoding so far; decoding: the body left
	err *WireError   // decoding: the first failure
	s   *decodeSlabs // decoding: where the value's parts are cut from
}

// decodeSlabs is the decode state of one tcp reader: a slab per kind of
// value it decodes (DESIGN.md §2.8). The reader writes each value once,
// before handing its message off, and never again. A block holds values
// of one type, so a kept value pins only blocks of its own kind: the
// notice store keeps page lists, the node keeps a grant's and a barrier
// release's clock, custody keeps diffs, whose bodies are bytes (one
// above 256 bytes pins its whole 32 KiB chunk, memory.Bodies). No slab
// of a kind that points at a page has a kept value: nothing keeps a
// decoded PageReply, and its page is made on its own (rest). The
// payloads of the recovery and membership kinds, rare on the wire, are
// made on their own. A nil slab makes every value, so noSlabs is the
// state of a decode that has none.
type decodeSlabs struct {
	lockReqs *arena.Slab[LockReq]
	grants   *arena.Slab[LockGrant]
	releases *arena.Slab[LockRelease]
	checkins *arena.Slab[BarrierCheckin]
	barriers *arena.Slab[BarrierRelease]
	updates  *arena.Slab[DiffUpdate]
	pageReqs *arena.Slab[PageReq]
	replies  *arena.Slab[PageReply]
	notices  *arena.Slab[Notice]
	pages    *arena.Slab[memory.PageID]
	diffs    *arena.Slab[memory.Diff]
	clocks   *arena.Slab[int32]
	bodies   *memory.Bodies
}

var noSlabs decodeSlabs

// slabsOf returns the decode state in a reader's slot, made at its first
// frame, or noSlabs for a decode with no slot.
func slabsOf(state *any) *decodeSlabs {
	if state == nil {
		return &noSlabs
	}
	if *state == nil {
		*state = &decodeSlabs{
			lockReqs: new(arena.Slab[LockReq]),
			grants:   new(arena.Slab[LockGrant]),
			releases: new(arena.Slab[LockRelease]),
			checkins: new(arena.Slab[BarrierCheckin]),
			barriers: new(arena.Slab[BarrierRelease]),
			updates:  new(arena.Slab[DiffUpdate]),
			pageReqs: new(arena.Slab[PageReq]),
			replies:  new(arena.Slab[PageReply]),
			notices:  new(arena.Slab[Notice]),
			pages:    new(arena.Slab[memory.PageID]),
			diffs:    new(arena.Slab[memory.Diff]),
			clocks:   new(arena.Slab[int32]),
			bodies:   new(memory.Bodies),
		}
	}
	return (*state).(*decodeSlabs)
}

// fresh returns a zero value of the exemplar's type: cut from its slab,
// or made on its own for a kind that has none.
func (s *decodeSlabs) fresh(ex any) any {
	switch ex.(type) {
	case *LockReq:
		return s.lockReqs.New()
	case *LockGrant:
		return s.grants.New()
	case *LockRelease:
		return s.releases.New()
	case *BarrierCheckin:
		return s.checkins.New()
	case *BarrierRelease:
		return s.barriers.New()
	case *DiffUpdate:
		return s.updates.New()
	case *PageReq:
		return s.pageReqs.New()
	case *PageReply:
		return s.replies.New()
	case DiffAck:
		return DiffAck{}
	}
	return reflect.New(reflect.TypeOf(ex).Elem()).Interface()
}

func wireSize(p any) int {
	w := wire{op: wireSizing}
	w.walk(p)
	return w.n
}

func appendWire(dst []byte, p any) []byte {
	w := wire{op: wireAppending, b: dst}
	w.walk(p)
	return w.b
}

// decodeWire decodes the whole body b into a fresh value of the
// exemplar's type, cut from the reader's slabs in state (nil: none).
func decodeWire(b []byte, state *any, ex any) (any, error) {
	s := slabsOf(state)
	p := s.fresh(ex)
	w := wire{op: wireDecoding, b: b, s: s}
	w.walk(p)
	if w.err == nil && len(w.b) != 0 {
		w.fail("end", ErrWireTrailing)
	}
	if w.err != nil {
		w.err.Payload = reflect.Indirect(reflect.ValueOf(p)).Type().Name()
		return nil, w.err
	}
	return p, nil
}

// walk states every payload's layout: its fields, in wire order. It is a
// type switch called directly, not a method each type implements behind
// an interface or a generic driver: that call would move w to the heap,
// and wireSize runs on every simulated send.
func (w *wire) walk(p any) {
	switch m := p.(type) {
	// --- lock and barrier messages ---
	case *LockReq:
		u32(w, "Lock", &m.Lock)
		w.vc("VT", &m.VT)
	case *LockGrant:
		w.vc("VT", &m.VT)
		w.notices(&m.Notices)
		w.lease(&m.LeaseUntil)
	case *LockRelease:
		u32(w, "Lock", &m.Lock)
		w.vc("VT", &m.VT)
		w.notices(&m.Notices)
	case *BarrierCheckin:
		u32(w, "Barrier", &m.Barrier)
		w.vc("VT", &m.VT)
		w.notices(&m.Notices)
	case *BarrierRelease:
		w.vc("VT", &m.VT)
		w.notices(&m.Notices)
		w.lease(&m.LeaseUntil)

	// --- coherence traffic ---
	case *DiffUpdate:
		sum := w.writer(&m.Writer, m.VTSum != 0)
		u32(w, "Seq", &m.Seq)
		if sum {
			nonzero(w, "VTSum", &m.VTSum)
		}
		w.diffsToEnd(&m.Diffs)
	case DiffAck:
		// The ack carries nothing but is charged as a minimal message.
		w.zero("reserved", 8)
	case *PageReq:
		w.page8(&m.Page)
		if w.tail(m.VT != nil) {
			w.vc("VT", &m.VT)
		}
	case *PageReply:
		w.rest(&m.Data)

	// --- recovery service ---
	case *RecDiffsReq:
		u32(w, "Page", &m.Page)
		u32(w, "FromSeq", &m.FromSeq)
		u32(w, "ToSeq", &m.ToSeq)
		w.zero("reserved", 4)
	case *RecDiffsReply:
		// Seqs, VTSums and Diffs are parallel: a count, then the keys of
		// every entry, then the diffs.
		n := len(m.Seqs)
		if len(m.VTSums) != n || len(m.Diffs) != n {
			panic(fmt.Sprintf("hlrc: RecDiffsReply with %d seqs, %d vt sums, %d diffs",
				n, len(m.VTSums), len(m.Diffs)))
		}
		u32(w, "count", &n)
		i64(w, "DiskBytes", &m.DiskBytes)
		// Each entry needs its 12 key bytes and at least a diff header.
		if w.allocates("count", n, 12+8) {
			m.Seqs, m.VTSums, m.Diffs = make([]int32, n), make([]int64, n), make([]memory.Diff, n)
		}
		for i := range m.Seqs {
			u32(w, "Seqs", &m.Seqs[i])
			i64(w, "VTSums", &m.VTSums[i])
		}
		for i := range m.Diffs {
			w.diff(&m.Diffs[i])
		}
	case *RecSyncReq:
		u32(w, "Node", &m.Node)
		u32(w, "Idx", &m.Idx)
	case *RecGrantReply:
		if w.present(m.Grant != nil) {
			if m.Grant == nil { // decoding
				m.Grant = new(LockGrant)
			}
			w.walk(m.Grant)
		}
	case *RecBarrierReply:
		if w.present(m.Rel != nil) {
			if m.Rel == nil { // decoding
				m.Rel = new(BarrierRelease)
			}
			w.walk(m.Rel)
		}

	// --- membership ---
	case *Obituary:
		u32(w, "Node", &m.Node)
		i64(w, "At", &m.At)
		i64(w, "Epoch", &m.Epoch)
	case *RedirectHome:
		w.page8(&m.Page)
		u32(w, "Home", &m.Home)
	case *Fenced:
		u32(w, "Node", &m.Node)
		i64(w, "MsgEpoch", &m.MsgEpoch)
		i64(w, "Buried", &m.Buried)
		i64(w, "Epoch", &m.Epoch)
	default:
		panic("hlrc: no wire layout for " + reflect.TypeOf(p).String())
	}
}

// --- field primitives: each sizes, appends or decodes one field ---

func (w *wire) fail(field string, err error) {
	if w.err == nil {
		w.err = &WireError{Field: field, Err: err}
	}
}

// take consumes the next n bytes of the body, or returns nil after a
// failure.
func (w *wire) take(field string, n int) []byte {
	if w.err != nil {
		return nil
	}
	if len(w.b) < n {
		w.fail(field, ErrWireTruncated)
		return nil
	}
	out := w.b[:n]
	w.b = w.b[n:]
	return out
}

// u32 walks a four-byte little-endian integer.
func u32[T ~int32 | ~uint32 | ~int](w *wire, field string, v *T) {
	switch w.op {
	case wireSizing:
		w.n += 4
	case wireAppending:
		w.b = binary.LittleEndian.AppendUint32(w.b, uint32(*v))
	default:
		if b := w.take(field, 4); b != nil {
			*v = T(binary.LittleEndian.Uint32(b))
		}
	}
}

// i64 walks an eight-byte little-endian integer.
func i64[T ~int64 | ~int](w *wire, field string, v *T) {
	switch w.op {
	case wireSizing:
		w.n += 8
	case wireAppending:
		w.b = binary.LittleEndian.AppendUint64(w.b, uint64(*v))
	default:
		if b := w.take(field, 8); b != nil {
			*v = T(binary.LittleEndian.Uint64(b))
		}
	}
}

// nonzero walks an optional i64 whose presence the layout has already
// stated, so a zero spelled out is not canonical.
func nonzero[T ~int64](w *wire, field string, v *T) {
	i64(w, field, v)
	if w.op == wireDecoding && w.err == nil && *v == 0 {
		w.fail(field, ErrWireValue)
	}
}

// zero walks n reserved bytes, which must be zero.
func (w *wire) zero(field string, n int) {
	switch w.op {
	case wireSizing:
		w.n += n
	case wireAppending:
		for i := 0; i < n; i++ {
			w.b = append(w.b, 0)
		}
	default:
		for _, x := range w.take(field, n) {
			if x != 0 {
				w.fail(field, ErrWireValue)
				return
			}
		}
	}
}

// page8 walks a page id in the 8 bytes the page-addressed messages are
// charged for: the id and four reserved zero bytes.
func (w *wire) page8(p *memory.PageID) {
	u32(w, "Page", p)
	w.zero("Page", 4)
}

// decoded stores what its package's decoder read of a field that
// carries its own length, or the decoder's failure.
func decoded[T any](w *wire, field string, v *T, got T, rest []byte, err error) {
	if err != nil {
		w.fail(field, err)
		return
	}
	*v, w.b = got, rest
}

func (w *wire) vc(field string, v *vclock.VC) {
	switch w.op {
	case wireSizing:
		w.n += v.WireSize()
	case wireAppending:
		w.b = v.Encode(w.b)
	default:
		if w.err == nil {
			got, rest, err := vclock.DecodeVC(w.b, w.s.clocks)
			decoded(w, field, v, got, rest, err)
		}
	}
}

func (w *wire) notices(ns *[]Notice) {
	switch w.op {
	case wireSizing:
		w.n += NoticesWireSize(*ns)
	case wireAppending:
		w.b = EncodeNotices(*ns, w.b)
	default:
		if w.err == nil {
			got, rest, err := DecodeNotices(w.b, w.s.notices, w.s.pages)
			decoded(w, "Notices", ns, got, rest, err)
		}
	}
}

func (w *wire) diff(d *memory.Diff) {
	switch w.op {
	case wireSizing:
		w.n += d.WireSize()
	case wireAppending:
		w.b = d.Encode(w.b)
	default:
		if w.err == nil {
			got, rest, err := memory.DecodeDiffFrom(w.b, w.s.bodies)
			decoded(w, "Diffs", d, got, rest, err)
		}
	}
}

// diffsToEnd walks a diff list that runs to the end of the body (a diff
// is at least its 8-byte header, so the list is bounded by the body).
// Decoding counts the diffs first (PeekDiff allocates nothing) and cuts
// the list at its exact size.
func (w *wire) diffsToEnd(ds *[]memory.Diff) {
	if w.op != wireDecoding {
		for i := range *ds {
			w.diff(&(*ds)[i])
		}
		return
	}
	if w.err != nil {
		return
	}
	n := 0
	for rest := w.b; len(rest) > 0; n++ {
		_, size, err := memory.PeekDiff(rest)
		if err != nil {
			w.fail("Diffs", err)
			return
		}
		rest = rest[size:]
	}
	out := w.s.diffs.Cut(n)
	for i := range out {
		w.diff(&out[i])
	}
	*ds = out
}

// rest walks a byte string that runs to the end of the body; decoded, it
// is a copy at its exact size (nil when nothing is left).
func (w *wire) rest(data *[]byte) {
	switch w.op {
	case wireSizing:
		w.n += len(*data)
	case wireAppending:
		w.b = append(w.b, *data...)
	default:
		if w.err != nil || len(w.b) == 0 {
			return
		}
		*data = make([]byte, len(w.b))
		copy(*data, w.b)
		w.b = nil
	}
}

// tail reports whether a trailing optional field is there: when encoding,
// has; when decoding, whether bytes remain.
func (w *wire) tail(has bool) bool {
	if w.op == wireDecoding {
		return w.err == nil && len(w.b) > 0
	}
	return has
}

// lease walks the optional trailing LeaseUntil of a grant or barrier
// release: absent when zero, else eight nonzero bytes.
func (w *wire) lease(t *simtime.Time) {
	if w.tail(*t != 0) {
		nonzero(w, "LeaseUntil", t)
	}
}

// vtSumBit flags a DiffUpdate that carries VTSum. It is the sign bit of
// the Writer word: node ids are non-negative, so the bit is spare and the
// optional field costs exactly its 8 bytes.
const vtSumBit = 1 << 31

// writer walks DiffUpdate's Writer word, whose sign bit says whether
// VTSum follows, and reports the bit.
func (w *wire) writer(id *int32, flag bool) bool {
	if w.op == wireDecoding {
		var word uint32
		u32(w, "Writer", &word)
		*id = int32(word &^ vtSumBit)
		return word&vtSumBit != 0
	}
	if *id < 0 {
		panic(fmt.Sprintf("hlrc: DiffUpdate from negative writer %d", *id))
	}
	word := uint32(*id)
	if flag {
		word |= vtSumBit
	}
	u32(w, "Writer", &word)
	return flag
}

// present walks the u32 (0 or 1) that says whether a sender-log reply
// carries its grant or release, and reports it.
func (w *wire) present(has bool) bool {
	var v uint32
	if has {
		v = 1
	}
	u32(w, "present", &v)
	if v > 1 {
		w.fail("present", ErrWireValue)
	}
	return v == 1
}

// allocates reports whether a decode should allocate the n entries a count
// announced, each at least min bytes long. A count the rest of the body
// cannot hold fails here, before anything is sized by it.
func (w *wire) allocates(field string, n, min int) bool {
	if w.op != wireDecoding || w.err != nil {
		return false
	}
	if n > len(w.b)/min {
		w.fail(field, ErrWireTruncated)
		return false
	}
	return n > 0
}

// --- per type: WireTag, WireSize (the accounted message size),
// AppendWire and DecodeWire, the last three a walk of its layout ---

func (*LockReq) WireTag() uint8                              { return tagLockReq }
func (m *LockReq) WireSize() int                             { return wireSize(m) }
func (m *LockReq) AppendWire(dst []byte) []byte              { return appendWire(dst, m) }
func (m *LockReq) DecodeWire(b []byte, st *any) (any, error) { return decodeWire(b, st, m) }

func (*LockGrant) WireTag() uint8                              { return tagLockGrant }
func (m *LockGrant) WireSize() int                             { return wireSize(m) }
func (m *LockGrant) AppendWire(dst []byte) []byte              { return appendWire(dst, m) }
func (m *LockGrant) DecodeWire(b []byte, st *any) (any, error) { return decodeWire(b, st, m) }

func (*LockRelease) WireTag() uint8                              { return tagLockRelease }
func (m *LockRelease) WireSize() int                             { return wireSize(m) }
func (m *LockRelease) AppendWire(dst []byte) []byte              { return appendWire(dst, m) }
func (m *LockRelease) DecodeWire(b []byte, st *any) (any, error) { return decodeWire(b, st, m) }

func (*BarrierCheckin) WireTag() uint8                              { return tagBarrierCheckin }
func (m *BarrierCheckin) WireSize() int                             { return wireSize(m) }
func (m *BarrierCheckin) AppendWire(dst []byte) []byte              { return appendWire(dst, m) }
func (m *BarrierCheckin) DecodeWire(b []byte, st *any) (any, error) { return decodeWire(b, st, m) }

func (*BarrierRelease) WireTag() uint8                              { return tagBarrierRelease }
func (m *BarrierRelease) WireSize() int                             { return wireSize(m) }
func (m *BarrierRelease) AppendWire(dst []byte) []byte              { return appendWire(dst, m) }
func (m *BarrierRelease) DecodeWire(b []byte, st *any) (any, error) { return decodeWire(b, st, m) }

func (*DiffUpdate) WireTag() uint8                              { return tagDiffUpdate }
func (m *DiffUpdate) WireSize() int                             { return wireSize(m) }
func (m *DiffUpdate) AppendWire(dst []byte) []byte              { return appendWire(dst, m) }
func (m *DiffUpdate) DecodeWire(b []byte, st *any) (any, error) { return decodeWire(b, st, m) }

func (DiffAck) WireTag() uint8                              { return tagDiffAck }
func (m DiffAck) WireSize() int                             { return wireSize(m) }
func (m DiffAck) AppendWire(dst []byte) []byte              { return appendWire(dst, m) }
func (m DiffAck) DecodeWire(b []byte, st *any) (any, error) { return decodeWire(b, st, m) }

func (*PageReq) WireTag() uint8                              { return tagPageReq }
func (m *PageReq) WireSize() int                             { return wireSize(m) }
func (m *PageReq) AppendWire(dst []byte) []byte              { return appendWire(dst, m) }
func (m *PageReq) DecodeWire(b []byte, st *any) (any, error) { return decodeWire(b, st, m) }

func (*PageReply) WireTag() uint8                              { return tagPageReply }
func (m *PageReply) WireSize() int                             { return wireSize(m) }
func (m *PageReply) AppendWire(dst []byte) []byte              { return appendWire(dst, m) }
func (m *PageReply) DecodeWire(b []byte, st *any) (any, error) { return decodeWire(b, st, m) }

func (*RecDiffsReq) WireTag() uint8                              { return tagRecDiffsReq }
func (m RecDiffsReq) WireSize() int                              { return wireSize(&m) }
func (m *RecDiffsReq) AppendWire(dst []byte) []byte              { return appendWire(dst, m) }
func (m *RecDiffsReq) DecodeWire(b []byte, st *any) (any, error) { return decodeWire(b, st, m) }

func (*RecDiffsReply) WireTag() uint8                              { return tagRecDiffsReply }
func (m *RecDiffsReply) WireSize() int                             { return wireSize(m) }
func (m *RecDiffsReply) AppendWire(dst []byte) []byte              { return appendWire(dst, m) }
func (m *RecDiffsReply) DecodeWire(b []byte, st *any) (any, error) { return decodeWire(b, st, m) }

func (*RecSyncReq) WireTag() uint8                              { return tagRecSyncReq }
func (m RecSyncReq) WireSize() int                              { return wireSize(&m) }
func (m *RecSyncReq) AppendWire(dst []byte) []byte              { return appendWire(dst, m) }
func (m *RecSyncReq) DecodeWire(b []byte, st *any) (any, error) { return decodeWire(b, st, m) }

func (*RecGrantReply) WireTag() uint8                              { return tagRecGrantReply }
func (m *RecGrantReply) WireSize() int                             { return wireSize(m) }
func (m *RecGrantReply) AppendWire(dst []byte) []byte              { return appendWire(dst, m) }
func (m *RecGrantReply) DecodeWire(b []byte, st *any) (any, error) { return decodeWire(b, st, m) }

func (*RecBarrierReply) WireTag() uint8                              { return tagRecBarrierReply }
func (m *RecBarrierReply) WireSize() int                             { return wireSize(m) }
func (m *RecBarrierReply) AppendWire(dst []byte) []byte              { return appendWire(dst, m) }
func (m *RecBarrierReply) DecodeWire(b []byte, st *any) (any, error) { return decodeWire(b, st, m) }

func (*Obituary) WireTag() uint8                              { return tagObituary }
func (m Obituary) WireSize() int                              { return wireSize(&m) }
func (m *Obituary) AppendWire(dst []byte) []byte              { return appendWire(dst, m) }
func (m *Obituary) DecodeWire(b []byte, st *any) (any, error) { return decodeWire(b, st, m) }

func (*RedirectHome) WireTag() uint8                              { return tagRedirectHome }
func (m RedirectHome) WireSize() int                              { return wireSize(&m) }
func (m *RedirectHome) AppendWire(dst []byte) []byte              { return appendWire(dst, m) }
func (m *RedirectHome) DecodeWire(b []byte, st *any) (any, error) { return decodeWire(b, st, m) }

func (*Fenced) WireTag() uint8                              { return tagFenced }
func (m Fenced) WireSize() int                              { return wireSize(&m) }
func (m *Fenced) AppendWire(dst []byte) []byte              { return appendWire(dst, m) }
func (m *Fenced) DecodeWire(b []byte, st *any) (any, error) { return decodeWire(b, st, m) }
