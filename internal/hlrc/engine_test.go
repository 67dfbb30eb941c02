package hlrc

import (
	"testing"

	"sdsm/internal/memory"
	"sdsm/internal/simtime"
	"sdsm/internal/transport"
	"sdsm/internal/vclock"
)

func soloNode(t *testing.T, homeUndo bool) *Node {
	t.Helper()
	model := simtime.DefaultCostModel()
	nw := transport.NewNetwork(2, model)
	return NewNode(Config{
		ID: 0, N: 2, PageSize: 64, NumPages: 4,
		Homes: []int{0, 0, 1, 1}, Model: model, HomeUndo: homeUndo,
	}, nw, simtime.NewClock(0), nil, nil)
}

func diffAt(page memory.PageID, off int, val byte) memory.Diff {
	twin := make([]byte, 64)
	cur := make([]byte, 64)
	cur[off] = val
	return memory.MakeDiff(page, twin, cur)
}

func TestApplyDiffAsHomeUpdatesVersion(t *testing.T) {
	nd := soloNode(t, false)
	nd.ApplyDiffAsHome(diffAt(0, 0, 7), 1, 3)
	if got := nd.HomeVersion(0); !got.Equal(vclock.VC{0, 3}) {
		t.Fatalf("ver = %v", got)
	}
	if nd.PageTable().Page(0)[0] != 7 {
		t.Fatal("diff not applied")
	}
	// Older interval does not regress the version.
	nd.ApplyDiffAsHome(diffAt(0, 4, 8), 1, 2)
	if got := nd.HomeVersion(0); !got.Equal(vclock.VC{0, 3}) {
		t.Fatalf("ver regressed: %v", got)
	}
	if nd.HomeVersion(2) != nil {
		t.Fatal("non-home page has a version vector")
	}
}

func TestPageAtVersionRollback(t *testing.T) {
	nd := soloNode(t, true)
	servePage(nd, 0)
	nd.ApplyDiffAsHome(diffAt(0, 0, 1), 1, 1)
	nd.ApplyDiffAsHome(diffAt(0, 8, 2), 1, 2)
	nd.ApplyDiffAsHome(diffAt(0, 16, 3), 1, 3)

	// Full version: everything present.
	data := nd.PageAtVersion(0, vclock.VC{0, 3})
	if data[0] != 1 || data[8] != 2 || data[16] != 3 {
		t.Fatalf("full version wrong: %v", data[:20])
	}
	// Mid version: interval 3 rolled back.
	data = nd.PageAtVersion(0, vclock.VC{0, 2})
	if data[0] != 1 || data[8] != 2 || data[16] != 0 {
		t.Fatalf("rollback to 2 wrong: %v", data[:20])
	}
	// Oldest version: everything rolled back.
	data = nd.PageAtVersion(0, vclock.VC{0, 0})
	if data[0] != 0 || data[8] != 0 || data[16] != 0 {
		t.Fatalf("rollback to 0 wrong: %v", data[:20])
	}
	// The live copy itself is untouched.
	if nd.PageTable().Page(0)[16] != 3 {
		t.Fatal("rollback mutated the live copy")
	}
}

func TestPageAtVersionWithoutUndo(t *testing.T) {
	nd := soloNode(t, false)
	nd.ApplyDiffAsHome(diffAt(0, 0, 9), 1, 5)
	// Without undo history the current copy is returned even when newer
	// than requested (documented fallback).
	if data := nd.PageAtVersion(0, vclock.VC{0, 1}); data[0] != 9 {
		t.Fatalf("fallback fetch: %v", data[0])
	}
}

func TestFreezeSnapshotsAtomically(t *testing.T) {
	nd := soloNode(t, false)
	nd.PageTable().Page(1)[3] = 77
	nd.SetVT(vclock.VC{2, 1})
	nd.SetOpIndex(9)
	nd.Notices().Add(Notice{Proc: 0, Seq: 1, Pages: []memory.PageID{2}})
	fs := nd.Freeze(nil)
	if fs.Op != 9 || !fs.VT.Equal(vclock.VC{2, 1}) {
		t.Fatalf("frozen meta: op=%d vt=%v", fs.Op, fs.VT)
	}
	if fs.Pages[0] != nil || fs.Pages[1][3] != 77 || fs.ChangedPages != nd.NumPages() {
		t.Fatalf("frozen pages wrong: %v, %d changed", fs.Pages, fs.ChangedPages)
	}
	if len(fs.Notices) != 1 || len(fs.VerPages) != 2 {
		t.Fatalf("frozen notices/vers: %d/%d", len(fs.Notices), len(fs.VerPages))
	}
	// The image is a copy: later writes to the page do not reach it.
	nd.PageTable().Page(1)[3] = 0
	if fs.Pages[1][3] != 77 {
		t.Fatal("freeze aliased live pages")
	}
}

func TestHoldsLocks(t *testing.T) {
	nd := soloNode(t, false)
	if nd.HoldsLocks() {
		t.Fatal("fresh node holds locks")
	}
	nd.SetGrantVT(3, vclock.VC{0, 0})
	if !nd.HoldsLocks() {
		t.Fatal("grant not tracked")
	}
}

func TestCloseIntervalLocal(t *testing.T) {
	nd := soloNode(t, false)
	// Nothing dirty: no interval.
	if seq := nd.CloseIntervalLocal(); seq != 0 {
		t.Fatalf("empty close ticked to %d", seq)
	}
	// Dirty one home page and one remote page.
	nd.PageTable().MarkDirty(0)
	nd.PageTable().MarkDirty(2)
	seq := nd.CloseIntervalLocal()
	if seq != 1 {
		t.Fatalf("seq = %d", seq)
	}
	if got := nd.VT(); got[0] != 1 {
		t.Fatalf("vt = %v", got)
	}
	if v := nd.HomeVersion(0); v[0] != 1 {
		t.Fatalf("home ver = %v", v)
	}
	if pages := nd.Notices().Pages(0, 1); len(pages) != 2 {
		t.Fatalf("own notice pages = %v", pages)
	}
	if nd.PageTable().IsDirty(0) {
		t.Fatal("dirty bit survived the close")
	}
}

func TestCrashOnManagerPanics(t *testing.T) {
	model := simtime.DefaultCostModel()
	nw := transport.NewNetwork(1, model)
	nd := NewNode(Config{
		ID: 0, N: 1, PageSize: 64, NumPages: 1, Homes: []int{0}, Model: model,
	}, nw, simtime.NewClock(0), nil, nil)
	nd.CrashOp = 0
	nd.StartService()
	defer nd.StopService()
	defer func() {
		if recover() == nil {
			t.Fatal("crashing a manager must panic loudly")
		}
	}()
	nd.Barrier(0)
}

// Versioned fetches through the twin-derived undo entries: an open
// interval's provisional self-writes never leak, remote updates that land
// inside it survive the stripping, and once the interval closes the
// self-writes roll back like any writer's — without taking those remote
// updates back with them, since the twin absorbed them.
func TestPageAtVersionAcrossSelfWrites(t *testing.T) {
	nd := soloNode(t, true)
	servePage(nd, 0)
	check := func(when string, need vclock.VC, want0, want8, want16 byte) {
		t.Helper()
		data := nd.PageAtVersion(0, need)
		if data[0] != want0 || data[8] != want8 || data[16] != want16 {
			t.Fatalf("%s, need %v: bytes 0/8/16 = %d/%d/%d, want %d/%d/%d",
				when, need, data[0], data[8], data[16], want0, want8, want16)
		}
	}
	nd.ApplyDiffAsHome(diffAt(0, 0, 1), 1, 1)
	nd.WriteAt(8, []byte{7}) // home write: twins the page, opens an interval
	nd.ApplyDiffAsHome(diffAt(0, 16, 3), 1, 2)
	check("mid-interval", vclock.VC{0, 2}, 1, 0, 3)
	check("mid-interval", vclock.VC{0, 1}, 1, 0, 0)
	check("mid-interval", vclock.VC{0, 0}, 0, 0, 0)

	nd.closeAndPropagate(0)
	if got := nd.HomeVersion(0); !got.Equal(vclock.VC{1, 2}) {
		t.Fatalf("ver after the close = %v", got)
	}
	check("closed", vclock.VC{1, 2}, 1, 7, 3)
	check("closed", vclock.VC{1, 1}, 1, 7, 0)
	check("closed", vclock.VC{0, 0}, 0, 0, 0)
	// The home's write reverts; (1, 2), which landed inside its interval,
	// stays.
	check("closed", vclock.VC{0, 2}, 1, 0, 3)

	// A second interval rewriting the same word: its entry restores 7, the
	// first one restores 0.
	nd.WriteAt(8, []byte{9})
	check("reopened", vclock.VC{1, 2}, 1, 7, 3)
	nd.closeAndPropagate(1)
	check("closed twice", vclock.VC{2, 2}, 1, 9, 3)
	check("closed twice", vclock.VC{1, 2}, 1, 7, 3)
}
