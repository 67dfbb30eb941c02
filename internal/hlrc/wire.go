package hlrc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sdsm/internal/memory"
	"sdsm/internal/simtime"
	"sdsm/internal/vclock"
)

// The wire codec. Every payload type has one encoding, realised by three
// methods that must agree: WireSize (what the cost model charges),
// AppendWire (what a real socket carries) and DecodeWire. The layouts are
// composed from vclock.VC.Encode, EncodeNotices and memory.Diff.Encode
// and are exact: len(m.AppendWire(nil)) == m.WireSize() for every value,
// so modelled bytes are payload bytes. No layout carries a field the size
// formula has no room for: a trailing optional field is present iff bytes
// remain, DiffUpdate's optional VTSum is flagged in the sign bit of
// Writer, and a diff list runs to the end of the body. DESIGN.md §2.10
// tabulates the layouts.
//
// Encodings are canonical — one byte string per value, decoders reject
// the rest (a zero optional field spelled out, nonzero reserved bytes) —
// so decode∘encode is the identity and a fuzzer can check it.
//
// Decoders treat the body as hostile: every failure is a *WireError,
// never a panic, decoded values own their bytes (nothing aliases the
// connection buffer the body was read into), and no allocation exceeds a
// small multiple of the body's length.

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
	tagRecPageReq
	tagRecPageReply
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

// wireDec is a cursor over one payload body. The first failure sticks:
// later reads return zero values, and result reports it.
type wireDec struct {
	payload string
	b       []byte
	err     error
}

func (d *wireDec) fail(field string, err error) {
	if d.err == nil {
		d.err = &WireError{Payload: d.payload, Field: field, Err: err}
	}
}

// take returns the next n bytes, or nil after a failure.
func (d *wireDec) take(field string, n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.fail(field, ErrWireTruncated)
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *wireDec) u32(field string) uint32 {
	if b := d.take(field, 4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *wireDec) i32(field string) int32 { return int32(d.u32(field)) }

func (d *wireDec) i64(field string) int64 {
	if b := d.take(field, 8); b != nil {
		return int64(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// zero consumes n reserved bytes, which must be zero.
func (d *wireDec) zero(field string, n int) {
	for _, x := range d.take(field, n) {
		if x != 0 {
			d.fail(field, ErrWireValue)
			return
		}
	}
}

func (d *wireDec) vc(field string) vclock.VC {
	if d.err != nil {
		return nil
	}
	v, rest, err := vclock.DecodeVC(d.b)
	if err != nil {
		d.fail(field, err)
		return nil
	}
	d.b = rest
	return v
}

func (d *wireDec) notices(field string) []Notice {
	if d.err != nil {
		return nil
	}
	ns, rest, err := DecodeNotices(d.b)
	if err != nil {
		d.fail(field, err)
		return nil
	}
	d.b = rest
	return ns
}

func (d *wireDec) diff(field string) memory.Diff {
	if d.err != nil {
		return memory.Diff{}
	}
	df, rest, err := memory.DecodeDiff(d.b)
	if err != nil {
		d.fail(field, err)
		return memory.Diff{}
	}
	d.b = rest
	return df
}

// diffsToEnd decodes diffs until the body is used up (a diff is at least
// its 8-byte header, so the list is bounded by the body).
func (d *wireDec) diffsToEnd(field string) []memory.Diff {
	var out []memory.Diff
	for d.err == nil && len(d.b) > 0 {
		out = append(out, d.diff(field))
	}
	if d.err != nil {
		return nil
	}
	return out
}

// lease decodes the optional trailing LeaseUntil of a grant or barrier
// release: absent when the body ends here, else eight nonzero bytes.
func (d *wireDec) lease(field string) simtime.Time {
	if d.err != nil || len(d.b) == 0 {
		return 0
	}
	t := simtime.Time(d.i64(field))
	if d.err == nil && t == 0 {
		d.fail(field, ErrWireValue)
	}
	return t
}

// restCopy returns a copy of the rest of the body at its exact size (nil
// when nothing is left).
func (d *wireDec) restCopy() []byte {
	if d.err != nil || len(d.b) == 0 {
		return nil
	}
	out := make([]byte, len(d.b))
	copy(out, d.b)
	d.b = nil
	return out
}

// result ends a decode: m if every field decoded and the body is used
// up, else the failure (ErrWireTrailing when only bytes remain).
func (d *wireDec) result(m any) (any, error) {
	if d.err == nil && len(d.b) != 0 {
		d.fail("end", ErrWireTrailing)
	}
	if d.err != nil {
		return nil, d.err
	}
	return m, nil
}

func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendI64(dst []byte, v int64) []byte  { return binary.LittleEndian.AppendUint64(dst, uint64(v)) }

// appendPage8 encodes a page id in the 8 bytes the page-addressed
// requests are charged for: the id and four reserved zero bytes.
func appendPage8(dst []byte, p memory.PageID) []byte {
	return appendU32(appendU32(dst, uint32(p)), 0)
}

func (d *wireDec) page8(field string) memory.PageID {
	p := memory.PageID(d.u32(field))
	d.zero(field, 4)
	return p
}

// appendKnowledge encodes the (VT, Notices) pair every synchronization
// message carries.
func appendKnowledge(dst []byte, vt vclock.VC, ns []Notice) []byte {
	return EncodeNotices(ns, vt.Encode(dst))
}

// appendLease encodes the optional trailing LeaseUntil.
func appendLease(dst []byte, t simtime.Time) []byte {
	if t == 0 {
		return dst
	}
	return appendI64(dst, int64(t))
}

// --- lock and barrier messages ---

func (*LockReq) WireTag() uint8 { return tagLockReq }

// AppendWire: Lock u32 | VT.
func (m *LockReq) AppendWire(dst []byte) []byte {
	return m.VT.Encode(appendU32(dst, uint32(m.Lock)))
}

func (*LockReq) DecodeWire(b []byte) (any, error) {
	d := wireDec{payload: "LockReq", b: b}
	m := &LockReq{Lock: d.i32("Lock"), VT: d.vc("VT")}
	return d.result(m)
}

func (*LockGrant) WireTag() uint8 { return tagLockGrant }

// AppendWire: VT | Notices | [LeaseUntil i64, iff nonzero].
func (m *LockGrant) AppendWire(dst []byte) []byte {
	return appendLease(appendKnowledge(dst, m.VT, m.Notices), m.LeaseUntil)
}

func (*LockGrant) DecodeWire(b []byte) (any, error) {
	d := wireDec{payload: "LockGrant", b: b}
	m := decodeLockGrant(&d)
	return d.result(m)
}

func decodeLockGrant(d *wireDec) *LockGrant {
	return &LockGrant{VT: d.vc("VT"), Notices: d.notices("Notices"), LeaseUntil: d.lease("LeaseUntil")}
}

func (*LockRelease) WireTag() uint8 { return tagLockRelease }

// AppendWire: Lock u32 | VT | Notices.
func (m *LockRelease) AppendWire(dst []byte) []byte {
	return appendKnowledge(appendU32(dst, uint32(m.Lock)), m.VT, m.Notices)
}

func (*LockRelease) DecodeWire(b []byte) (any, error) {
	d := wireDec{payload: "LockRelease", b: b}
	m := &LockRelease{Lock: d.i32("Lock"), VT: d.vc("VT"), Notices: d.notices("Notices")}
	return d.result(m)
}

func (*BarrierCheckin) WireTag() uint8 { return tagBarrierCheckin }

// AppendWire: Barrier u32 | VT | Notices.
func (m *BarrierCheckin) AppendWire(dst []byte) []byte {
	return appendKnowledge(appendU32(dst, uint32(m.Barrier)), m.VT, m.Notices)
}

func (*BarrierCheckin) DecodeWire(b []byte) (any, error) {
	d := wireDec{payload: "BarrierCheckin", b: b}
	m := &BarrierCheckin{Barrier: d.i32("Barrier"), VT: d.vc("VT"), Notices: d.notices("Notices")}
	return d.result(m)
}

func (*BarrierRelease) WireTag() uint8 { return tagBarrierRelease }

// AppendWire: VT | Notices | [LeaseUntil i64, iff nonzero].
func (m *BarrierRelease) AppendWire(dst []byte) []byte {
	return appendLease(appendKnowledge(dst, m.VT, m.Notices), m.LeaseUntil)
}

func (*BarrierRelease) DecodeWire(b []byte) (any, error) {
	d := wireDec{payload: "BarrierRelease", b: b}
	m := decodeBarrierRelease(&d)
	return d.result(m)
}

func decodeBarrierRelease(d *wireDec) *BarrierRelease {
	return &BarrierRelease{VT: d.vc("VT"), Notices: d.notices("Notices"), LeaseUntil: d.lease("LeaseUntil")}
}

// --- coherence traffic ---

// vtSumBit flags a DiffUpdate that carries VTSum. It is the sign bit of
// the Writer word: node ids are non-negative, so the bit is spare and the
// optional field costs exactly the 8 bytes WireSize charges for it.
const vtSumBit = 1 << 31

func (*DiffUpdate) WireTag() uint8 { return tagDiffUpdate }

// AppendWire: Writer u32 (bit 31: VTSum follows) | Seq u32 |
// [VTSum i64, iff nonzero] | Diffs to the end of the body.
func (m *DiffUpdate) AppendWire(dst []byte) []byte {
	if m.Writer < 0 {
		panic(fmt.Sprintf("hlrc: DiffUpdate from negative writer %d", m.Writer))
	}
	w := uint32(m.Writer)
	if m.VTSum != 0 {
		w |= vtSumBit
	}
	dst = appendU32(appendU32(dst, w), uint32(m.Seq))
	if m.VTSum != 0 {
		dst = appendI64(dst, m.VTSum)
	}
	for _, df := range m.Diffs {
		dst = df.Encode(dst)
	}
	return dst
}

func (*DiffUpdate) DecodeWire(b []byte) (any, error) {
	d := wireDec{payload: "DiffUpdate", b: b}
	w := d.u32("Writer")
	m := &DiffUpdate{Writer: int32(w &^ vtSumBit), Seq: d.i32("Seq")}
	if w&vtSumBit != 0 {
		if m.VTSum = d.i64("VTSum"); m.VTSum == 0 {
			d.fail("VTSum", ErrWireValue)
		}
	}
	m.Diffs = d.diffsToEnd("Diffs")
	return d.result(m)
}

func (DiffAck) WireTag() uint8 { return tagDiffAck }

// AppendWire: eight zero bytes (the ack carries nothing but is charged
// as a minimal protocol message).
func (DiffAck) AppendWire(dst []byte) []byte { return appendI64(dst, 0) }

func (DiffAck) DecodeWire(b []byte) (any, error) {
	d := wireDec{payload: "DiffAck", b: b}
	d.zero("reserved", 8)
	return d.result(DiffAck{})
}

func (*PageReq) WireTag() uint8 { return tagPageReq }

// AppendWire: Page u32 | 0 u32 | [VT, iff non-nil].
func (m *PageReq) AppendWire(dst []byte) []byte {
	dst = appendPage8(dst, m.Page)
	if m.VT != nil {
		dst = m.VT.Encode(dst)
	}
	return dst
}

func (*PageReq) DecodeWire(b []byte) (any, error) {
	d := wireDec{payload: "PageReq", b: b}
	m := &PageReq{Page: d.page8("Page")}
	if len(d.b) > 0 {
		m.VT = d.vc("VT")
	}
	return d.result(m)
}

func (*PageReply) WireTag() uint8 { return tagPageReply }

// AppendWire: Ver | Data to the end of the body. Ver goes first because
// it carries its own length and Data does not.
func (m *PageReply) AppendWire(dst []byte) []byte {
	return append(m.Ver.Encode(dst), m.Data...)
}

func (*PageReply) DecodeWire(b []byte) (any, error) {
	d := wireDec{payload: "PageReply", b: b}
	m := &PageReply{Ver: d.vc("Ver")}
	m.Data = d.restCopy()
	return d.result(m)
}

// --- recovery service ---

func (*RecPageReq) WireTag() uint8 { return tagRecPageReq }

// AppendWire: Page u32 | 0 u32 | Need.
func (m *RecPageReq) AppendWire(dst []byte) []byte {
	return m.Need.Encode(appendPage8(dst, m.Page))
}

func (*RecPageReq) DecodeWire(b []byte) (any, error) {
	d := wireDec{payload: "RecPageReq", b: b}
	m := &RecPageReq{Page: d.page8("Page"), Need: d.vc("Need")}
	return d.result(m)
}

func (*RecPageReply) WireTag() uint8 { return tagRecPageReply }

// AppendWire: Ver | Data to the end of the body.
func (m *RecPageReply) AppendWire(dst []byte) []byte {
	return append(m.Ver.Encode(dst), m.Data...)
}

func (*RecPageReply) DecodeWire(b []byte) (any, error) {
	d := wireDec{payload: "RecPageReply", b: b}
	m := &RecPageReply{Ver: d.vc("Ver")}
	m.Data = d.restCopy()
	return d.result(m)
}

func (*RecDiffsReq) WireTag() uint8 { return tagRecDiffsReq }

// AppendWire: Page u32 | FromSeq u32 | ToSeq u32 | 0 u32.
func (m *RecDiffsReq) AppendWire(dst []byte) []byte {
	dst = appendU32(appendU32(dst, uint32(m.Page)), uint32(m.FromSeq))
	return appendU32(appendU32(dst, uint32(m.ToSeq)), 0)
}

func (*RecDiffsReq) DecodeWire(b []byte) (any, error) {
	d := wireDec{payload: "RecDiffsReq", b: b}
	m := &RecDiffsReq{Page: memory.PageID(d.u32("Page")), FromSeq: d.i32("FromSeq"), ToSeq: d.i32("ToSeq")}
	d.zero("reserved", 4)
	return d.result(m)
}

func (*RecDiffsReply) WireTag() uint8 { return tagRecDiffsReply }

// AppendWire: n u32 | DiskBytes i64 | n × (Seq u32, VTSum i64) | n diffs.
// Seqs, VTSums and Diffs are parallel.
func (m *RecDiffsReply) AppendWire(dst []byte) []byte {
	n := len(m.Seqs)
	if len(m.VTSums) != n || len(m.Diffs) != n {
		panic(fmt.Sprintf("hlrc: RecDiffsReply with %d seqs, %d vt sums, %d diffs",
			n, len(m.VTSums), len(m.Diffs)))
	}
	dst = appendI64(appendU32(dst, uint32(n)), int64(m.DiskBytes))
	for i, s := range m.Seqs {
		dst = appendI64(appendU32(dst, uint32(s)), m.VTSums[i])
	}
	for _, df := range m.Diffs {
		dst = df.Encode(dst)
	}
	return dst
}

func (*RecDiffsReply) DecodeWire(b []byte) (any, error) {
	d := wireDec{payload: "RecDiffsReply", b: b}
	n := int(d.u32("count"))
	m := &RecDiffsReply{DiskBytes: int(d.i64("DiskBytes"))}
	// Each entry needs its 12 key bytes and at least a diff header, so a
	// count the body cannot hold fails before anything is sized by it.
	if d.err == nil && n > len(d.b)/(12+8) {
		d.fail("count", ErrWireTruncated)
	}
	if d.err != nil || n == 0 {
		return d.result(m)
	}
	m.Seqs = make([]int32, n)
	m.VTSums = make([]int64, n)
	for i := range m.Seqs {
		m.Seqs[i] = d.i32("Seqs")
		m.VTSums[i] = d.i64("VTSums")
	}
	m.Diffs = make([]memory.Diff, n)
	for i := range m.Diffs {
		m.Diffs[i] = d.diff("Diffs")
	}
	return d.result(m)
}

func (*RecSyncReq) WireTag() uint8 { return tagRecSyncReq }

// AppendWire: Node u32 | Idx u32.
func (m *RecSyncReq) AppendWire(dst []byte) []byte {
	return appendU32(appendU32(dst, uint32(m.Node)), uint32(m.Idx))
}

func (*RecSyncReq) DecodeWire(b []byte) (any, error) {
	d := wireDec{payload: "RecSyncReq", b: b}
	m := &RecSyncReq{Node: d.i32("Node"), Idx: d.i32("Idx")}
	return d.result(m)
}

// present decodes the u32 that says whether a sender-log reply carries
// its grant or release.
func (d *wireDec) present(field string) bool {
	v := d.u32(field)
	if v > 1 {
		d.fail(field, ErrWireValue)
	}
	return v == 1
}

func appendPresent(dst []byte, present bool) []byte {
	if present {
		return appendU32(dst, 1)
	}
	return appendU32(dst, 0)
}

func (*RecGrantReply) WireTag() uint8 { return tagRecGrantReply }

// AppendWire: present u32 (0 or 1) | [LockGrant].
func (m *RecGrantReply) AppendWire(dst []byte) []byte {
	dst = appendPresent(dst, m.Grant != nil)
	if m.Grant != nil {
		dst = m.Grant.AppendWire(dst)
	}
	return dst
}

func (*RecGrantReply) DecodeWire(b []byte) (any, error) {
	d := wireDec{payload: "RecGrantReply", b: b}
	m := &RecGrantReply{}
	if d.present("present") {
		m.Grant = decodeLockGrant(&d)
	}
	return d.result(m)
}

func (*RecBarrierReply) WireTag() uint8 { return tagRecBarrierReply }

// AppendWire: present u32 (0 or 1) | [BarrierRelease].
func (m *RecBarrierReply) AppendWire(dst []byte) []byte {
	dst = appendPresent(dst, m.Rel != nil)
	if m.Rel != nil {
		dst = m.Rel.AppendWire(dst)
	}
	return dst
}

func (*RecBarrierReply) DecodeWire(b []byte) (any, error) {
	d := wireDec{payload: "RecBarrierReply", b: b}
	m := &RecBarrierReply{}
	if d.present("present") {
		m.Rel = decodeBarrierRelease(&d)
	}
	return d.result(m)
}

// --- membership ---

func (*Obituary) WireTag() uint8 { return tagObituary }

// AppendWire: Node u32 | At i64 | Epoch i64.
func (m *Obituary) AppendWire(dst []byte) []byte {
	return appendI64(appendI64(appendU32(dst, uint32(m.Node)), int64(m.At)), m.Epoch)
}

func (*Obituary) DecodeWire(b []byte) (any, error) {
	d := wireDec{payload: "Obituary", b: b}
	m := &Obituary{Node: d.i32("Node"), At: simtime.Time(d.i64("At")), Epoch: d.i64("Epoch")}
	return d.result(m)
}

func (*RedirectHome) WireTag() uint8 { return tagRedirectHome }

// AppendWire: Page u32 | 0 u32 | Home u32.
func (m *RedirectHome) AppendWire(dst []byte) []byte {
	return appendU32(appendPage8(dst, m.Page), uint32(m.Home))
}

func (*RedirectHome) DecodeWire(b []byte) (any, error) {
	d := wireDec{payload: "RedirectHome", b: b}
	m := &RedirectHome{Page: d.page8("Page"), Home: d.i32("Home")}
	return d.result(m)
}

func (*Fenced) WireTag() uint8 { return tagFenced }

// AppendWire: Node u32 | MsgEpoch i64 | DeathEpoch i64 | Epoch i64.
func (m *Fenced) AppendWire(dst []byte) []byte {
	dst = appendI64(appendU32(dst, uint32(m.Node)), m.MsgEpoch)
	return appendI64(appendI64(dst, m.DeathEpoch), m.Epoch)
}

func (*Fenced) DecodeWire(b []byte) (any, error) {
	d := wireDec{payload: "Fenced", b: b}
	m := &Fenced{Node: d.i32("Node"), MsgEpoch: d.i64("MsgEpoch"), DeathEpoch: d.i64("DeathEpoch"), Epoch: d.i64("Epoch")}
	return d.result(m)
}
