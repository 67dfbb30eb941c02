package memory

import (
	"bytes"
	"fmt"
	"slices"

	"sdsm/internal/arena"
)

// State is the access state of one page in one node's page table. It
// stands in for the mprotect protection bits of a real SDSM.
type State uint8

const (
	// Invalid means the local copy is stale; any access must first fetch
	// the current copy from the page's home.
	Invalid State = iota
	// ReadOnly means the local copy is valid for reading; the first write
	// in an interval "faults" (creates a twin for non-home pages) and
	// upgrades the page to Writable.
	ReadOnly
	// Writable means the page has been written in the current interval.
	// Non-home pages in this state have a twin.
	Writable
)

// String names the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "invalid"
	case ReadOnly:
		return "read-only"
	case Writable:
		return "writable"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// PageTable holds one node's copies of every shared page together with the
// per-page access state, twins, and the current interval's dirty set.
//
// A page's frame is allocated on first touch, unless AllocFrames gave it
// one up front: a node that never reads or writes a page holds no memory
// for it, and a nil frame stands for the all-zero initial image. Page
// therefore writes to the table. The table itself takes no lock: its
// owner decides who may call what (hlrc's ownership rule, DESIGN.md §2.8).
type PageTable struct {
	pageSize int
	numPages int
	frames   [][]byte // nil until first touch or AllocFrames (the page is all zeros)
	state    []State
	twin     [][]byte // nil when no twin exists
	twins    int      // live twins, so EndInterval knows when it has dropped them all
	dirty    []bool   // written during the current interval
	dirtyIDs []PageID // the pages whose dirty bit is set; DirtyPages sorts it
	spans    []span   // MakeDiff's scan scratch
	bodies   Bodies   // MakeDiff's diff bodies
}

// NewPageTable returns a table of numPages pages of pageSize bytes each,
// all zero-filled and ReadOnly (the initial image is consistent
// everywhere).
func NewPageTable(numPages, pageSize int) *PageTable {
	if numPages <= 0 || pageSize <= 0 || pageSize%WordSize != 0 {
		panic(fmt.Sprintf("memory: bad page table geometry %dx%d", numPages, pageSize))
	}
	pt := &PageTable{
		pageSize: pageSize,
		numPages: numPages,
		frames:   make([][]byte, numPages),
		state:    make([]State, numPages),
		twin:     make([][]byte, numPages),
		dirty:    make([]bool, numPages),
	}
	for i := range pt.state {
		pt.state[i] = ReadOnly
	}
	return pt
}

// PageSize returns the page size in bytes.
func (pt *PageTable) PageSize() int { return pt.pageSize }

// NumPages returns the number of pages.
func (pt *PageTable) NumPages() int { return pt.numPages }

// Bytes returns the total size of the shared space in bytes.
func (pt *PageTable) Bytes() int { return pt.numPages * pt.pageSize }

// Page returns the frame of page id (len == pageSize), allocating it
// zero-filled on first touch.
func (pt *PageTable) Page(id PageID) []byte {
	f := pt.frames[id]
	if f == nil {
		f = make([]byte, pt.pageSize)
		pt.frames[id] = f
	}
	return f
}

// AllocFrames gives every page in ids a zeroed frame now, all cut from
// one slab (one allocation instead of one per page). Each frame is
// capacity-limited to its page, so nothing appended to it can reach a
// neighbour. The pages must have no frame yet.
func (pt *PageTable) AllocFrames(ids []PageID) {
	slab := make([]byte, len(ids)*pt.pageSize)
	for i, id := range ids {
		if pt.frames[id] != nil {
			panic(fmt.Sprintf("memory: page %d already has a frame", id))
		}
		pt.frames[id] = slab[i*pt.pageSize : (i+1)*pt.pageSize : (i+1)*pt.pageSize]
	}
}

// Frame returns the frame of page id as it stands, without allocating
// one: nil for a page never touched (all zeros). For callers that must
// not write the table: readers of a table whose owner has stopped, and a
// home's service applying diffs.
func (pt *PageTable) Frame(id PageID) []byte { return pt.frames[id] }

// State returns page id's access state.
func (pt *PageTable) State(id PageID) State { return pt.state[id] }

// SetState sets page id's access state.
func (pt *PageTable) SetState(id PageID, s State) { pt.state[id] = s }

// Invalidate marks the page invalid. Its data stays in place (it will be
// overwritten by the next fetch); any twin is kept — a dirty page must
// flush its diff before being invalidated, which the protocol layer does.
func (pt *PageTable) Invalidate(id PageID) { pt.state[id] = Invalid }

// HasTwin reports whether page id currently has a twin.
func (pt *PageTable) HasTwin(id PageID) bool { return pt.twin[id] != nil }

// MakeTwin snapshots the current contents of page id as its twin. It
// panics if a twin already exists (the protocol creates at most one twin
// per page per interval). Twin buffers come from the shared arena and
// return to it when the twin is dropped, so steady-state intervals
// recycle the same page-sized buffers.
func (pt *PageTable) MakeTwin(id PageID) {
	if pt.twin[id] != nil {
		panic(fmt.Sprintf("memory: page %d already has a twin", id))
	}
	t := arena.Get(pt.pageSize)
	copy(t, pt.Page(id))
	pt.twin[id] = t
	pt.twins++
}

// Twin returns the twin of page id, or nil. The slice is only valid
// until the twin is dropped (DropTwin, EndInterval, Restore); callers
// must not retain it across those calls.
func (pt *PageTable) Twin(id PageID) []byte { return pt.twin[id] }

// DropTwin discards page id's twin, returning its buffer to the arena.
func (pt *PageTable) DropTwin(id PageID) {
	if t := pt.twin[id]; t != nil {
		pt.twin[id] = nil
		pt.twins--
		arena.Put(t)
	}
}

// MarkDirty records that page id was written during the current interval.
func (pt *PageTable) MarkDirty(id PageID) {
	if pt.dirty[id] {
		return
	}
	pt.dirty[id] = true
	pt.dirtyIDs = append(pt.dirtyIDs, id)
}

// IsDirty reports whether page id was written during the current interval.
func (pt *PageTable) IsDirty(id PageID) bool { return pt.dirty[id] }

// DirtyPages returns the ids of all pages written during the current
// interval, in ascending order. The slice is the table's own: it is valid
// until the next MarkDirty, EndInterval or Restore, and callers must not
// modify it.
func (pt *PageTable) DirtyPages() []PageID {
	slices.Sort(pt.dirtyIDs)
	return pt.dirtyIDs
}

// EndInterval clears all dirty bits and drops all twins (returning their
// buffers to the arena); called once the interval's diffs have been
// produced. It walks the dirty list, which covers every twin the
// protocol creates; a twin on a page that is not dirty (made directly)
// costs one scan of the table.
func (pt *PageTable) EndInterval() {
	for _, id := range pt.dirtyIDs {
		pt.dirty[id] = false
		pt.DropTwin(id)
	}
	pt.dirtyIDs = pt.dirtyIDs[:0]
	for id := 0; pt.twins > 0; id++ {
		pt.DropTwin(PageID(id))
	}
}

// MakeDiff computes the diff of page id against its twin with the table's
// scratch and bodies (DESIGN.md §2.8), so its owner serializes calls.
func (pt *PageTable) MakeDiff(id PageID) Diff {
	t := pt.twin[id]
	if t == nil {
		panic(fmt.Sprintf("memory: MakeDiff(%d) without twin", id))
	}
	var d Diff
	d, pt.spans = makeDiff(id, t, pt.Page(id), pt.spans, &pt.bodies)
	return d
}

// Install makes data (a fetched home copy) the frame of page id and marks
// the page ReadOnly. The table takes ownership of data: the caller must
// not read or write it afterwards, and nothing else may alias it. The
// frame it replaces goes back to the arena, where the homes' page-reply
// builders draw their buffers — a fetch recycles the stale copy it
// overwrites instead of leaving it to the collector.
func (pt *PageTable) Install(id PageID, data []byte) {
	if len(data) != pt.pageSize {
		panic(fmt.Sprintf("memory: install of %d bytes into %d-byte page", len(data), pt.pageSize))
	}
	if old := pt.frames[id]; old != nil {
		arena.Put(old)
	}
	pt.frames[id] = data
	pt.state[id] = ReadOnly
}

// CopyPage returns a copy of page id in a buffer drawn from the arena
// (fully overwritten), for a reply whose receiver will Install it.
func (pt *PageTable) CopyPage(id PageID) []byte {
	buf := arena.Get(pt.pageSize)
	if f := pt.frames[id]; f != nil {
		copy(buf, f)
	} else {
		clear(buf)
	}
	return buf
}

// Snapshot returns a sparse image of the shared space — one frame per
// page, nil for a page that is all zeros (never touched, or written back
// to zero) — and the number of pages whose bytes differ from prev, the
// image of the previous snapshot (nil: none, every page counts). A page
// equal to its prev frame shares that frame by reference instead of being
// copied, so a run of snapshots holds each distinct page version once.
// Image frames are immutable: nothing may write through them.
func (pt *PageTable) Snapshot(prev [][]byte) (img [][]byte, changed int) {
	if prev == nil {
		changed = pt.numPages
	} else if len(prev) != pt.numPages {
		panic(fmt.Sprintf("memory: snapshot against a %d-page image of a %d-page space", len(prev), pt.numPages))
	}
	img = make([][]byte, pt.numPages)
	for i, f := range pt.frames {
		var old []byte
		if prev != nil {
			old = prev[i]
		}
		switch {
		case f == nil || allZero(f):
			if old != nil {
				changed++
			}
		case old != nil && bytes.Equal(old, f):
			img[i] = old
		default:
			img[i] = bytes.Clone(f)
			if prev != nil {
				changed++
			}
		}
	}
	return img, changed
}

// Restore overwrites the entire space from a Snapshot image and resets
// all per-page protocol state (ReadOnly, no twins, clean). The image's
// frames are copied, never adopted; a page absent from the image (nil) is
// all zeros again, its frame (if it has one) zeroed in place, so every
// frame slot keeps the buffer it held.
func (pt *PageTable) Restore(img [][]byte) {
	if len(img) != pt.numPages {
		panic(fmt.Sprintf("memory: restore of a %d-page image into a %d-page space", len(img), pt.numPages))
	}
	pt.EndInterval()
	for i, src := range img {
		if src == nil {
			clear(pt.frames[i])
		} else {
			if len(src) != pt.pageSize {
				panic(fmt.Sprintf("memory: restore of a %d-byte frame into a %d-byte page", len(src), pt.pageSize))
			}
			copy(pt.Page(PageID(i)), src)
		}
		pt.state[i] = ReadOnly
	}
}

// zeroBlock is what allZero compares against, a block at a time.
var zeroBlock [1024]byte

func allZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), len(zeroBlock))
		if !bytes.Equal(b[:n], zeroBlock[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// PageOf returns the page containing byte address addr and the offset
// within that page.
func (pt *PageTable) PageOf(addr int) (PageID, int) {
	return PageID(addr / pt.pageSize), addr % pt.pageSize
}
