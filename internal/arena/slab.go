package arena

import "reflect"

// blockBytes bounds a slab block. The runtime gives a pointer-holding
// object above 512 bytes an 8-byte header, which pushes a 2 KiB block
// into the 2 304-byte size class; a block of at most 512 bytes has none.
const blockBytes = 512

// Slab hands out values and short slices of T cut from shared blocks of
// at most 512 bytes (one value, for a larger T), one allocation per
// block instead of one per value. Each value is handed out once and the
// slab never touches it again, so it suits payloads written once before
// they are sent and never after (DESIGN.md §2.8). Nothing clears a
// block, so a value kept past its message keeps its whole block
// reachable, and with it everything the block's other values point to: a slab of values that point to large buffers (PageReply's
// page bytes) must have no kept value. The zero Slab is ready to use,
// and a nil *Slab makes every value and cut on its own, so one decoder
// serves callers with a slab and callers without. A Slab is not safe
// for concurrent use: its owner serializes every call.
type Slab[T any] struct {
	block []T
	per   int // values per block, set at the first call
}

// perBlock returns how many values of T fill a block (at least one).
func (s *Slab[T]) perBlock() int {
	if s.per == 0 {
		s.per = max(1, blockBytes/max(1, int(reflect.TypeFor[T]().Size())))
	}
	return s.per
}

// New returns a pointer to a fresh zero T.
func (s *Slab[T]) New() *T { return &s.Cut(1)[0] }

// Cut returns a fresh zeroed slice of n values whose capacity is n, so
// appending to it reallocates instead of reaching a neighbour. A cut of
// more than half a block, or from a nil slab, is a plain make, and a cut
// of none is nil.
func (s *Slab[T]) Cut(n int) []T {
	switch {
	case n == 0:
		return nil
	case s == nil || n > s.perBlock()/2:
		return make([]T, n)
	case len(s.block) < n:
		s.block = make([]T, s.per)
	}
	c := s.block[:n:n]
	s.block = s.block[n:]
	return c
}
