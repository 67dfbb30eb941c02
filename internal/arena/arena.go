// Package arena holds the two allocation schemes of the hot coherence
// paths. Get and Put recycle byte buffers (twins and page copies, the
// own-diff log record of each release, and ML's log records) through
// size-classed sync.Pools, so steady-state releases reuse the same few
// buffers instead of allocating per page, per record, per flush. CCL's
// staged notice and event records live in its logger's own buffer
// instead (wal.CCLHooks). Slab cuts the protocol's sent
// payloads, which are written once and never recycled, from 512-byte
// blocks, one allocation per block instead of one per message.
//
// Buffers are handed out by power-of-two size class. Get returns a slice
// of exactly the requested length (callers that append reslice to [:0];
// the capacity is the class size, so an encode sized by WireSize never
// grows). Put returns a buffer to its class; buffers whose capacity is
// not a class size — grown by append, or allocated elsewhere — are
// silently dropped, so Put is always safe.
//
// Contents are NOT zeroed between uses. Callers must fully overwrite the
// requested length (twin creation copies the whole page; encoders append
// from [:0]) and must not read past what they wrote.
package arena

import (
	"math/bits"
	"sync"
)

const (
	// minShift puts the smallest class at 64 bytes: below that the pool
	// bookkeeping costs more than the allocation it saves.
	minShift = 6
	// maxShift caps pooled buffers at 1 MiB; larger requests fall through
	// to plain make and Put drops them.
	maxShift   = 20
	numClasses = maxShift - minShift + 1
)

var classes [numClasses]sync.Pool

// classOf returns the index of the smallest class holding n bytes, or -1
// when n exceeds the largest class.
func classOf(n int) int {
	if n <= 1<<minShift {
		return 0
	}
	c := bits.Len(uint(n-1)) - minShift
	if c >= numClasses {
		return -1
	}
	return c
}

// Get returns a buffer with len == n. Its capacity is the class size
// (≥ n), so appending up to the class size never reallocates. The
// contents are arbitrary.
func Get(n int) []byte {
	if n < 0 {
		panic("arena: negative size")
	}
	c := classOf(n)
	if c < 0 {
		return make([]byte, n)
	}
	if v := classes[c].Get(); v != nil {
		w := v.(*buffer)
		b := w.b
		w.b = nil
		wrapperPool.Put(w)
		return b[:n]
	}
	return make([]byte, n, 1<<(minShift+c))
}

// buffer wraps the pooled slice so Put stores a pointer (avoiding the
// per-Put allocation that storing a slice header in an interface costs).
type buffer struct{ b []byte }

var wrapperPool = sync.Pool{New: func() any { return new(buffer) }}

// Put returns b's backing array to its size class. Buffers whose
// capacity is not an exact class size are dropped. Callers must not use
// b (or anything aliasing it) afterwards.
func Put(b []byte) {
	c := cap(b)
	if c == 0 || c&(c-1) != 0 {
		return // not a power of two: grown or foreign, drop it
	}
	cls := classOf(c)
	if cls < 0 || 1<<(minShift+cls) != c {
		return
	}
	w := wrapperPool.Get().(*buffer)
	w.b = b[:c]
	classes[cls].Put(w)
}
