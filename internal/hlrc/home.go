package hlrc

import (
	"fmt"
	"sort"

	"sdsm/internal/arena"
	"sdsm/internal/memory"
	"sdsm/internal/vclock"
)

// home is the home side of one node (DESIGN.md §4, *The home*): the
// version vectors of the pages statically homed here, their undo
// histories and served marks, the versioned serve's coverage bitmap, and
// the custody records of the pages it serves for a dead node. The frames
// stay in the node's page table, shared with the application goroutine:
// the home writes only the contents of owned frames and their twins.
// Its methods take no lock and touch no network, clock, tracer or hook;
// the node calls each one under nd.mu.
type home struct {
	id, n    int
	pageSize int
	pt       *memory.PageTable
	// ver[p] is the version vector of home page p (nil for non-home
	// pages): ver[p][w] = last interval of writer w applied to p. Only
	// freeze shares it, so a write copies it only after a checkpoint.
	ver []vclock.COW
	// undo is every armed page's undo history (HomeUndo only, nil
	// otherwise): entry (writer, seq) restored removes that interval's
	// update.
	undo *memory.UndoLog
	// served[p] is set once a reply has been built from home frame p
	// (HomeUndo only, nil otherwise): it arms p's undo history.
	served   []bool
	undoDone []byte // serveAt's word-coverage bitmap (HomeUndo only)
	adopted  map[memory.PageID]*adoptedPage
}

// adoptedPage is the custody record of one adopted page: every diff the
// adopter received directly for it, in arrival order, with the dedup
// version vector (ver[w] = newest interval of writer w in the record).
// Rebuilds and the post-run audit read the record; nothing is ever
// applied to the adopter's own page table.
type adoptedPage struct {
	applied []AdoptedDiff
	ver     vclock.VC
}

// newHome builds node cfg.ID's home over its page table. The version
// vectors are cut from one slab and copy themselves into vcs.
func newHome(cfg Config, pt *memory.PageTable, vcs *arena.Slab[int32]) home {
	h := home{
		id: cfg.ID, n: cfg.N, pageSize: cfg.PageSize, pt: pt,
		ver:     make([]vclock.COW, cfg.NumPages),
		adopted: make(map[memory.PageID]*adoptedPage),
	}
	homes := 0
	for _, o := range cfg.Homes {
		if o == cfg.ID {
			homes++
		}
	}
	slab := vclock.New(homes * cfg.N)
	for p, o := range cfg.Homes {
		if o == cfg.ID {
			h.ver[p] = vclock.Own(slab[:cfg.N:cfg.N], vcs)
			slab = slab[cfg.N:]
		}
	}
	if cfg.HomeUndo {
		h.undo = memory.NewUndoLog(cfg.NumPages)
		h.undoDone = make([]byte, memory.BitmapLen(cfg.PageSize))
		h.served = make([]bool, cfg.NumPages)
		// Under leases every page is armed from the start: a home page can
		// migrate mid-interval, and the close of a page no longer owned
		// diffs it against its HomeUndo twin, served or not.
		for p := range h.served {
			h.served[p] = cfg.LeaseDuration > 0
		}
	}
	return h
}

// armed reports whether home page p keeps undo history: HomeUndo is on
// and p has been served.
func (h *home) armed(p memory.PageID) bool {
	return h.served != nil && h.served[p]
}

// apply applies writer interval (writer, seq)'s diff d to its owned page,
// advancing the page's version vector and, once the page is armed,
// recording its undo entry. An interval already applied (a duplicated
// DiffUpdate, or a recovery re-fetch overlapping the live stream)
// changes nothing and reports false. An open twin gets the diff too, so
// it lacks only the home's own writes (DESIGN.md §2.8, *Twin
// absorption*). The frame must exist: the service never writes a slot.
func (h *home) apply(d memory.Diff, writer, seq int32) bool {
	v := h.ver[d.Page].Get()
	tracked := int(writer) >= 0 && int(writer) < len(v)
	if tracked && seq <= v[writer] {
		return false
	}
	page := h.pt.Frame(d.Page)
	if page == nil {
		panic(fmt.Sprintf("hlrc: node %d: home page %d has no frame", h.id, d.Page))
	}
	if h.armed(d.Page) {
		h.undo.Add(d.Page, writer, seq, memory.UndoOf(d, page, h.undo))
	}
	d.Apply(page)
	if twin := h.pt.Twin(d.Page); twin != nil {
		d.Apply(twin)
	}
	if tracked {
		h.ver[d.Page].SetAt(int(writer), seq)
	}
	return true
}

// record adds writer interval (writer, seq)'s diff d to the custody
// record of its adopted page, under the SortCanonical key vtSum, and
// reports false for an interval already recorded. The diff is validated
// first: a rebuild applies it, and Apply trusts run offsets.
func (h *home) record(d memory.Diff, writer, seq int32, vtSum int64) bool {
	if err := d.Validate(h.pageSize); err != nil {
		panic(fmt.Sprintf("hlrc: node %d rejected custody diff: %v", h.id, err))
	}
	ap := h.adopted[d.Page]
	if ap == nil {
		ap = &adoptedPage{ver: vclock.New(h.n)}
		h.adopted[d.Page] = ap
	}
	if int(writer) < len(ap.ver) && seq <= ap.ver[writer] {
		return false
	}
	ap.applied = append(ap.applied, AdoptedDiff{Writer: writer, Seq: seq, VTSum: vtSum, Diff: d})
	if int(writer) < len(ap.ver) {
		ap.ver[writer] = seq
	}
	return true
}

// serve returns a copy of home page p for a reply and arms p's undo
// history: a peer may now hold a copy a replay could need rolled back.
func (h *home) serve(p memory.PageID) []byte {
	data := h.pt.CopyPage(p)
	if h.served != nil {
		h.served[p] = true
	}
	return data
}

// serveAt is serve at version need (PageAtVersion): the copy rolled back
// through every writer interval beyond need applied since p was first
// served. A writer need does not name is at 0, as in RebuildCustody, so
// every interval of it is beyond need. Intervals applied before the
// first serve stay (DESIGN.md §2.8, *Armed at the first serve*). With
// HomeUndo off it is the current copy.
func (h *home) serveAt(p memory.PageID, need vclock.VC) []byte {
	data := h.serve(p)
	if h.served == nil {
		return data
	}
	// Strip the open interval's provisional self-writes, which have no
	// undo entry until it closes: the twin has absorbed every remote
	// update since it was taken, so it is the current copy without them.
	// An interval that opened before the first serve has no twin and
	// stays, like every interval before the first serve.
	if h.pt.IsDirty(p) && h.pt.HasTwin(p) {
		copy(data, h.pt.Twin(p))
	}
	if need.Covers(h.ver[p].Get()) {
		return data
	}
	// Roll back every update beyond need, oldest first: each word ends at
	// the pre-image of the oldest rolled-back entry that covers it, and is
	// written once.
	done := h.undoDone
	clear(done)
	for e := h.undo.Entries(p); e.Valid(); e.Next() {
		if e.Seq() > need.At(int(e.Writer())) {
			e.Undo().Restore(data, done)
		}
	}
	return data
}

// closeSelf closes the home's own interval seq on owned page p. Home
// writes need no diff to propagate (paper §2), but the version vector
// advances, and an armed page's twin, which has absorbed every remote
// update since it was taken, yields the undo entry that turns the page
// back into it: exactly the self-written words.
func (h *home) closeSelf(p memory.PageID, seq int32) {
	h.ver[p].SetAt(h.id, seq)
	if h.served != nil && h.pt.HasTwin(p) {
		h.undo.Add(p, int32(h.id), seq, memory.UndoFromTwin(h.pt.Page(p), h.pt.Twin(p), h.undo))
	}
}

// custody appends to entries every diff of p's custody record whose
// interval bound admits (bound(w): the newest interval of writer w).
func (h *home) custody(p memory.PageID, entries []AdoptedDiff, bound func(w int) int32) []AdoptedDiff {
	if ap := h.adopted[p]; ap != nil {
		for _, ad := range ap.applied {
			if ad.Seq <= bound(int(ad.Writer)) {
				entries = append(entries, ad)
			}
		}
	}
	return entries
}

// adoptedState copies out the custody records, sorted by page id.
func (h *home) adoptedState() []AdoptedPageState {
	out := make([]AdoptedPageState, 0, len(h.adopted))
	for p, ap := range h.adopted {
		out = append(out, AdoptedPageState{
			Page:    p,
			Ver:     ap.ver.Clone(),
			Applied: append([]AdoptedDiff(nil), ap.applied...),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Page < out[j].Page })
	return out
}

// version returns home page p's version vector, shared (nil for a page
// not homed here).
func (h *home) version(p memory.PageID) vclock.VC { return h.ver[p].Get() }

// setVer makes a copy of v home page p's version vector (checkpoint
// restore); a page not homed here keeps none.
func (h *home) setVer(p memory.PageID, v vclock.VC) {
	if h.ver[p].Get() != nil {
		h.ver[p].Set(v.Clone())
	}
}

// resetUndo drops every undo history (taken checkpoints bound the
// history the same way they bound the log).
func (h *home) resetUndo() {
	if h.undo != nil {
		h.undo.Reset()
	}
}

// freeze shares every home page's version vector, in page order, for a
// checkpoint: the next write to one copies it first.
func (h *home) freeze() (pages []memory.PageID, vers []vclock.VC) {
	for p := range h.ver {
		if h.ver[p].Get() != nil {
			pages = append(pages, memory.PageID(p))
			vers = append(vers, h.ver[p].Share())
		}
	}
	return pages, vers
}
