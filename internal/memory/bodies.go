package memory

import "sdsm/internal/arena"

// bigChunk is the size of the byte chunks an UndoLog cuts its entries
// from and a Bodies its page-sized diff bodies: Go's largest small size
// class. A larger chunk is a large object, which the runtime gives pages
// of its own, and grows the resident set more; arena.Slab's 512-byte
// blocks hold less than one entry or body of a 4 KB page.
const bigChunk = 32 << 10

// ownAbove is the cut size above which a slice is made on its own, so a
// chunk leaves at most this much unused at its end.
const ownAbove = bigChunk / 4

// slabBodyMax is the largest body a Bodies cuts from its byte slab: half
// of arena.Slab's 512-byte block, above which the slab makes a cut on its
// own anyway. Small bodies stay on the slab because many cutters cut only
// a few kilobytes of them in their life (a tcp reader, the page table of
// a node that writes little), and from chunks each would take a whole
// 32 KiB chunk: with every body cut from chunks, kv_tcp's allocated bytes
// rose 3.9% and its peak RSS 5.1%, and kv_sim's allocated bytes 1.0%
// (DESIGN.md §2.8).
const slabBodyMax = 256

// chunks cuts byte slices back to back from chunks of bigChunk bytes.
// The zero value is ready to use.
type chunks struct{ free []byte }

// cut returns n fresh bytes with capacity n, so appending to them
// reallocates instead of reaching a neighbour: from the current chunk,
// from a new one when it is short, or on their own above ownAbove.
func (c *chunks) cut(n int) []byte {
	if n > ownAbove {
		return make([]byte, n)
	}
	if len(c.free) < n {
		c.free = make([]byte, bigChunk)
	}
	b := c.free[:n:n]
	c.free = c.free[n:]
	return b
}

// Bodies cuts diff bodies, each once and with cap == len: a body of at
// most 256 bytes from a slab of 512-byte blocks, a larger one from 32 KiB
// chunks, and one above 8 KiB on its own. A body is never written after
// its maker fills it, so bodies cut from one block or chunk may be read
// by other goroutines while their owner cuts the next ones; but a body
// kept past its message keeps its whole block or chunk reachable
// (DESIGN.md §2.8 lists who keeps one). The zero Bodies is ready to use,
// and a nil *Bodies makes every body on its own. A Bodies is not safe for
// concurrent use: its owner serializes every call.
type Bodies struct {
	small arena.Slab[byte]
	large chunks
}

// Cut returns n fresh zero bytes whose capacity is n.
func (b *Bodies) Cut(n int) []byte {
	switch {
	case b == nil:
		return make([]byte, n)
	case n <= slabBodyMax:
		return b.small.Cut(n)
	}
	return b.large.cut(n)
}
