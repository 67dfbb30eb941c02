// Package vclock implements the vector timestamps that order intervals in
// lazy release consistency.
//
// Each process's execution is divided into intervals delimited by
// synchronization operations (lock releases and barrier arrivals). A
// vector timestamp VC holds, per process, the index of the most recent
// interval of that process whose write notices the owner has seen. The
// coherence protocol and the recovery protocols both reason in terms of
// these vectors: "which write notices does the acquirer lack", "has this
// home copy advanced past the version the recovering process needs".
package vclock

import (
	"encoding/binary"
	"fmt"
	"strings"

	"sdsm/internal/arena"
)

// VC is a vector timestamp: VC[p] is the number of completed intervals of
// process p known to the owner. A fresh process starts at all-zeros.
type VC []int32

// New returns a zeroed vector for n processes.
func New(n int) VC { return make(VC, n) }

// Clone returns an independent copy of v.
func (v VC) Clone() VC {
	c := make(VC, len(v))
	copy(c, v)
	return c
}

// Merge sets v to the component-wise maximum of v and o.
func (v VC) Merge(o VC) {
	for i := range v {
		if i < len(o) && o[i] > v[i] {
			v[i] = o[i]
		}
	}
}

// Covers reports whether v >= o component-wise: every interval known to o
// is known to v.
func (v VC) Covers(o VC) bool {
	for i := range o {
		var vi int32
		if i < len(v) {
			vi = v[i]
		}
		if vi < o[i] {
			return false
		}
	}
	return true
}

// CoversInterval reports whether v already includes interval seq of
// process p.
func (v VC) CoversInterval(p int, seq int32) bool {
	return p >= 0 && p < len(v) && v[p] >= seq
}

// At returns component p, or 0 when v does not name p: a vector knows
// no interval of a process past its end.
func (v VC) At(p int) int32 {
	if p < 0 || p >= len(v) {
		return 0
	}
	return v[p]
}

// Equal reports whether the two vectors are identical.
func (v VC) Equal(o VC) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// Tick advances process p's own component and returns the new interval
// index (the index of the interval just completed).
func (v VC) Tick(p int) int32 {
	v[p]++
	return v[p]
}

// Sum returns the total of all components. A causally later interval's
// vector dominates an earlier one's pointwise and strictly exceeds it in
// at least the successor's own component, so the sum strictly increases
// along every causal chain: sorting intervals by Sum yields a linear
// extension of the happened-before partial order.
func (v VC) Sum() int64 {
	var s int64
	for _, x := range v {
		s += int64(x)
	}
	return s
}

// String renders the vector compactly, e.g. "<1 0 3>".
func (v VC) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", x)
	}
	b.WriteByte('>')
	return b.String()
}

// WireSize is the serialized size of the vector in bytes.
func (v VC) WireSize() int { return 2 + 4*len(v) }

// Encode appends a portable encoding of v to buf and returns the extended
// slice.
func (v VC) Encode(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(v)))
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
	}
	return buf
}

// DecodeVC decodes a vector produced by Encode, returning the vector and
// the remaining bytes. The vector is cut from slab (a nil slab makes
// it); an empty one is VC{}, not nil, since a nil vector encodes as no
// field at all where a layout makes it optional.
func DecodeVC(buf []byte, slab *arena.Slab[int32]) (VC, []byte, error) {
	if len(buf) < 2 {
		return nil, buf, fmt.Errorf("vclock: short buffer (%d bytes)", len(buf))
	}
	n := int(binary.LittleEndian.Uint16(buf))
	buf = buf[2:]
	if len(buf) < 4*n {
		return nil, buf, fmt.Errorf("vclock: truncated vector of %d entries", n)
	}
	if n == 0 {
		return VC{}, buf, nil
	}
	v := VC(slab.Cut(n))
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
	}
	return v, buf, nil
}

// COW holds a vector its owner changes in place and hands out without a
// copy. Share returns the current value and marks it shared: whoever
// received it may keep it, nobody writes it again, and the holder's next
// change (Tick, Merge, SetAt) copies it first, cutting the copy from the
// holder's slab. A vector is thus copied once per change that follows a
// send, not once per send. The zero COW holds nil. A COW is not safe for
// concurrent use: its owner serializes every call, and every call on the
// other holders that share its slab.
type COW struct {
	v      VC
	shared bool
	slab   *arena.Slab[int32] // where copies are cut from
}

// Own returns a holder that takes ownership of v and cuts its copies
// from slab. A holder must not be copied: the copies would share the
// slab without sharing its serialization.
func Own(v VC, slab *arena.Slab[int32]) COW { return COW{v: v, slab: slab} }

// Get returns the current value for reading. The caller must not write
// it, nor keep it past the holder's next change.
func (c *COW) Get() VC { return c.v }

// Share returns the current value for keeping. Nobody may write it.
func (c *COW) Share() VC {
	c.shared = true
	return c.v
}

// Set replaces the held value with v, which the holder takes ownership
// of.
func (c *COW) Set(v VC) { c.v, c.shared = v, false }

// own returns the value, first copying it if it was shared.
func (c *COW) own() VC {
	if c.shared {
		v := VC(c.slab.Cut(len(c.v)))
		copy(v, c.v)
		c.v, c.shared = v, false
	}
	return c.v
}

// Tick advances component p (VC.Tick).
func (c *COW) Tick(p int) int32 { return c.own().Tick(p) }

// SetAt sets component p to x.
func (c *COW) SetAt(p int, x int32) {
	if c.v[p] != x {
		c.own()[p] = x
	}
}

// Merge merges o into the value (VC.Merge). A merge that raises no
// component changes nothing, so it copies nothing either.
func (c *COW) Merge(o VC) {
	for i, x := range c.v {
		if i < len(o) && o[i] > x {
			c.own().Merge(o)
			return
		}
	}
}

// Interval identifies one interval of one process.
type Interval struct {
	Proc int32 // process id
	Seq  int32 // interval index, starting at 1 for the first completed interval
}

// String renders the interval id.
func (iv Interval) String() string { return fmt.Sprintf("p%d:%d", iv.Proc, iv.Seq) }
