package memory

import (
	"encoding/binary"
	"math/bits"
)

// Undo is a home's undo entry for one applied interval on one page: what
// turns the page back into its state before the interval. Its bytes are a
// word bitmap — bit w%8 of byte w/8 set when the interval wrote word w,
// BitmapLen(pageSize) bytes — followed by the prior contents of the marked
// words, packed in word order, cut back to back with other entries from
// the UndoLog that keeps it (or made on their own, from a nil log). An
// entry therefore never exceeds BitmapLen(pageSize) plus WordSize bytes
// per written word, however the writes are scattered. The zero Undo
// restores nothing.
type Undo struct{ b []byte }

// BitmapLen is the size in bytes of a word bitmap over a page of pageSize
// bytes: the layout of an Undo's head and of Restore's coverage bitmap.
func BitmapLen(pageSize int) int { return (pageSize/WordSize + 7) / 8 }

// chunkBytes is the span of page one 64-bit bitmap chunk covers.
const chunkBytes = 64 * WordSize

// stackBitmap bounds the bitmap the constructors build on the stack
// before the entry is cut (pages up to 16 KiB).
const stackBitmap = 512

// UndoOf returns the undo entry of diff d, to be taken before d is applied
// to base (a full page): every word d's runs touch, with base's contents.
// Its bytes are cut from log, or made on their own when log is nil.
func UndoOf(d Diff, base []byte, log *UndoLog) Undo {
	if d.runs == 0 {
		return Undo{}
	}
	var stack [stackBitmap]byte
	bm := scratchBitmap(&stack, BitmapLen(len(base)))
	for r := d.Runs(); r.Valid(); r.Next() {
		end := (r.Off() + len(r.Data()) + WordSize - 1) / WordSize
		for w := r.Off() / WordSize; w < end; w++ {
			bm[w>>3] |= 1 << (w & 7)
		}
	}
	return gather(bm, base, log)
}

// UndoFromTwin returns the undo entry of the interval that turned twin
// into cur: the words that differ, with twin's contents. The comparison is
// one XOR pass, eight bytes per load, building the bitmap directly: clean
// word pairs are skipped and the others classified without branches. The
// entry is cut from log (made on its own when log is nil) once the count
// of changed words is known, and not at all when the page is clean.
func UndoFromTwin(cur, twin []byte, log *UndoLog) Undo {
	if len(cur) != len(twin) {
		panic("memory: twin/page size mismatch")
	}
	var stack [stackBitmap]byte
	bm := scratchBitmap(&stack, BitmapLen(len(cur)))
	c := 0
	for ; (c+1)*chunkBytes <= len(cur); c++ {
		cb, tb := (*[chunkBytes]byte)(cur[c*chunkBytes:]), (*[chunkBytes]byte)(twin[c*chunkBytes:])
		var acc uint64
		for j := 0; j < chunkBytes/8; j++ {
			if x := binary.LittleEndian.Uint64(cb[8*j:]) ^ binary.LittleEndian.Uint64(tb[8*j:]); x != 0 {
				acc |= changedWords(x) << (2 * j)
			}
		}
		binary.LittleEndian.PutUint64(bm[8*c:], acc)
	}
	if tail := len(cur) - c*chunkBytes; tail > 0 { // a last, partial chunk
		var acc uint64
		for j := 0; j < tail/WordSize; j++ {
			off := c*chunkBytes + j*WordSize
			acc |= changedWords(uint64(binary.LittleEndian.Uint32(cur[off:])^binary.LittleEndian.Uint32(twin[off:]))) << j
		}
		storeChunk(bm, c, acc)
	}
	return gather(bm, twin, log)
}

// changedWords maps the XOR of two word pairs to two bits: bit 0 set when
// the low word differs, bit 1 when the high one does. Per 32-bit lane,
// (x&0x7fffffff)+0x7fffffff carries into bit 31 iff the lane's low 31 bits
// are not all zero, and OR x supplies bit 31 itself.
func changedWords(x uint64) uint64 {
	const low31 = 0x7fffffff_7fffffff
	h := (x&low31 + low31) | x
	return h>>31&1 | h>>62&2
}

// scratchBitmap returns a zeroed bitmap of n bytes, on the caller's stack
// when it fits.
func scratchBitmap(stack *[stackBitmap]byte, n int) []byte {
	if n <= stackBitmap {
		return stack[:n]
	}
	return make([]byte, n)
}

// gather builds the entry for bitmap bm: bm and the marked words of page,
// in exactly as many bytes cut from log, or the zero Undo when none is
// marked.
func gather(bm, page []byte, log *UndoLog) Undo {
	n := 0
	for c := 0; c*8 < len(bm); c++ {
		n += bits.OnesCount64(loadChunk(bm, c))
	}
	if n == 0 {
		return Undo{}
	}
	b := log.cut(len(bm) + n*WordSize)
	copy(b, bm)
	words := b[len(bm):]
	for c, k := 0, 0; k < n; c++ {
		m := loadChunk(bm, c)
		if m != 0 && oneRun(m) {
			w := c*64 + bits.TrailingZeros64(m)
			k += copy(words[k*WordSize:], page[w*WordSize:(w+bits.OnesCount64(m))*WordSize]) / WordSize
			continue
		}
		for ; m != 0; m &= m - 1 {
			w := c*64 + bits.TrailingZeros64(m)
			binary.LittleEndian.PutUint32(words[k*WordSize:], binary.LittleEndian.Uint32(page[w*WordSize:]))
			k++
		}
	}
	return Undo{b}
}

// oneRun reports whether the set bits of m are consecutive: adding its
// lowest set bit then carries through all of them.
func oneRun(m uint64) bool { return m&(m+m&-m) == 0 }

// Empty reports whether the entry restores nothing.
func (u Undo) Empty() bool { return len(u.b) == 0 }

// Size is the number of bytes the entry holds: bitmap plus pre-images.
func (u Undo) Size() int { return len(u.b) }

// Restore writes the entry's pre-images into dst, a full page, for the
// words not yet marked in done, and marks the entry's words in done (a
// BitmapLen(len(dst))-byte coverage bitmap). Applying a history's entries
// oldest first over one cleared done bitmap leaves every word at the
// pre-image of the oldest entry that covers it — what applying them newest
// first without a bitmap gives — while writing each word at most once.
// Within a 64-word chunk, words to write that form one run move with one
// copy; otherwise each moves with one 32-bit store.
func (u Undo) Restore(dst, done []byte) {
	if len(u.b) == 0 {
		return
	}
	bm, words := u.b[:len(done)], u.b[len(done):]
	n := len(words) / WordSize
	for c, k := 0, 0; k < n; c++ { // k: packed index of the chunk's first word
		m := loadChunk(bm, c)
		if m == 0 {
			continue
		}
		seen := loadChunk(done, c)
		if todo := m &^ seen; todo != 0 {
			storeChunk(done, c, seen|todo)
			if oneRun(todo) {
				s := bits.TrailingZeros64(todo)
				w, i := c*64+s, k+bits.OnesCount64(m&(1<<s-1))
				copy(dst[w*WordSize:(w+bits.OnesCount64(todo))*WordSize], words[i*WordSize:])
			} else {
				for i, t := k, m; t != 0; i, t = i+1, t&(t-1) { // i: packed index of t's lowest bit
					if todo&(t&-t) != 0 {
						w := c*64 + bits.TrailingZeros64(t)
						binary.LittleEndian.PutUint32(dst[w*WordSize:], binary.LittleEndian.Uint32(words[i*WordSize:]))
					}
				}
			}
		}
		k += bits.OnesCount64(m)
	}
}

// loadChunk reads bits [64c, 64c+64) of bitmap bm; bits past its end read
// as zero.
func loadChunk(bm []byte, c int) uint64 {
	if off := c * 8; off+8 <= len(bm) {
		return binary.LittleEndian.Uint64(bm[off:])
	}
	var x uint64
	for i, v := range bm[c*8:] {
		x |= uint64(v) << (8 * i)
	}
	return x
}

// storeChunk writes bits [64c, 64c+64) of bitmap bm, dropping those past
// its end.
func storeChunk(bm []byte, c int, x uint64) {
	if off := c * 8; off+8 <= len(bm) {
		binary.LittleEndian.PutUint64(bm[off:], x)
		return
	}
	for i := range bm[c*8:] {
		bm[c*8+i] = byte(x >> (8 * i))
	}
}
