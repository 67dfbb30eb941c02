package checkpoint

import (
	"bytes"
	"runtime"
	"testing"

	"sdsm/internal/hlrc"
	"sdsm/internal/memory"
	"sdsm/internal/racedetect"
	"sdsm/internal/simtime"
	"sdsm/internal/stable"
	"sdsm/internal/transport"
	"sdsm/internal/vclock"
)

func newNode(t *testing.T) *hlrc.Node {
	t.Helper()
	model := simtime.DefaultCostModel()
	nw := transport.NewNetwork(2, model)
	homes := []int{0, 1, 0, 1}
	return hlrc.NewNode(hlrc.Config{
		ID: 0, N: 2, PageSize: 64, NumPages: 4, Homes: homes, Model: model,
	}, nw, simtime.NewClock(0), nil, nil)
}

func TestMetaRoundTrip(t *testing.T) {
	m := &Meta{
		Op:       7,
		VT:       vclock.VC{3, 1},
		Notices:  []hlrc.Notice{{Proc: 0, Seq: 1, Pages: []memory.PageID{2}}},
		VerPages: []memory.PageID{0, 2},
		Vers:     []vclock.VC{{1, 0}, {0, 1}},
	}
	got, err := DecodeMeta(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != 7 || !got.VT.Equal(m.VT) || len(got.Notices) != 1 ||
		len(got.VerPages) != 2 || !got.Vers[1].Equal(vclock.VC{0, 1}) {
		t.Fatalf("decoded %+v", got)
	}
}

func TestDecodeMetaErrors(t *testing.T) {
	if _, err := DecodeMeta(nil); err == nil {
		t.Fatal("empty meta must fail")
	}
	m := &Meta{Op: 1, VT: vclock.VC{1}, VerPages: []memory.PageID{0}, Vers: []vclock.VC{{1}}}
	buf := m.Encode()
	if _, err := DecodeMeta(buf[:len(buf)-2]); err == nil {
		t.Fatal("truncated meta must fail")
	}
}

func TestTakeRestoreRoundTrip(t *testing.T) {
	nd := newNode(t)
	store := stable.NewStore()

	// Initial checkpoint of the zero image.
	n0 := Take(nd, store)
	if n0 < 4*64 {
		t.Fatalf("first checkpoint accounted %d bytes, want full image", n0)
	}

	// Mutate state: dirty one home page directly, advance vt.
	nd.PageTable().Page(0)[5] = 99
	nd.SetVT(vclock.VC{2, 1})
	nd.SetOpIndex(6)
	nd.Notices().Add(hlrc.Notice{Proc: 0, Seq: 1, Pages: []memory.PageID{1}})
	nd.Notices().Add(hlrc.Notice{Proc: 0, Seq: 2, Pages: []memory.PageID{1}})
	nd.Notices().Add(hlrc.Notice{Proc: 1, Seq: 1, Pages: []memory.PageID{0}})
	nd.SetVer(0, vclock.VC{0, 1})

	// Incremental checkpoint: only page 0 changed.
	n1 := Take(nd, store)
	if n1 >= n0 {
		t.Fatalf("incremental checkpoint (%d) not smaller than full (%d)", n1, n0)
	}

	// Clobber everything, then restore.
	nd.PageTable().Page(0)[5] = 0
	nd.SetVT(vclock.VC{0, 0})
	nd.SetOpIndex(0)

	op, ok := Restore(nd, store)
	if !ok || op != 6 {
		t.Fatalf("restore: op=%d ok=%v", op, ok)
	}
	if nd.PageTable().Page(0)[5] != 99 {
		t.Fatal("restore lost page data")
	}
	if !nd.VT().Equal(vclock.VC{2, 1}) || nd.OpIndex() != 6 {
		t.Fatalf("restore state: vt=%v op=%d", nd.VT(), nd.OpIndex())
	}
	if v := nd.HomeVersion(0); !v.Equal(vclock.VC{0, 1}) {
		t.Fatalf("restored ver = %v", v)
	}
}

func TestRestoreWithoutCheckpoint(t *testing.T) {
	nd := newNode(t)
	if _, ok := Restore(nd, stable.NewStore()); ok {
		t.Fatal("restore from empty store must report false")
	}
}

func TestRestoreIntoFreshNode(t *testing.T) {
	// The recovery path: checkpoint one incarnation, restore into a new
	// node attached to the same id.
	nd := newNode(t)
	store := stable.NewStore()
	nd.PageTable().Page(2)[0] = 7
	nd.SetVT(vclock.VC{1, 0})
	nd.Notices().Add(hlrc.Notice{Proc: 0, Seq: 1, Pages: []memory.PageID{2}})
	Take(nd, store)

	fresh := newNode(t)
	op, ok := Restore(fresh, store)
	if !ok || op != 0 {
		t.Fatalf("restore: op=%d ok=%v", op, ok)
	}
	if fresh.PageTable().Page(2)[0] != 7 {
		t.Fatal("fresh restore lost data")
	}
	if fresh.Notices().Know()[0] != 1 {
		t.Fatal("fresh restore lost knowledge")
	}
}

// flat is the node's shared space as one contiguous copy — the form
// checkpoints used to store, kept here as the accounting reference.
func flat(nd *hlrc.Node) []byte {
	frames, _ := nd.PageTable().Snapshot(nil)
	ps := nd.PageTable().PageSize()
	img := make([]byte, len(frames)*ps)
	for i, f := range frames {
		copy(img[i*ps:], f)
	}
	return img
}

// The accounted size is the paper's rule computed on full images — the
// whole space first, then every page whose bytes differ from the previous
// checkpoint — however little the sparse image actually stores; frames two
// checkpoints share are never written through; and restoring the sparse
// image gives the bytes the full one held.
func TestSparseCheckpointsAccountAndRestoreLikeFullImages(t *testing.T) {
	nd := newNode(t) // 4 pages of 64 bytes
	store := stable.NewStore()
	var prev []byte
	var images [][]byte
	take := func(wantStored int) {
		t.Helper()
		got := Take(nd, store)
		cp, _ := store.LatestCheckpoint()
		img := flat(nd)
		want := len(cp.Meta)
		if prev == nil {
			want += len(img)
		} else {
			for off := 0; off < len(img); off += 64 {
				if !bytes.Equal(img[off:off+64], prev[off:off+64]) {
					want += 64
				}
			}
		}
		if got != want || cp.Bytes != want {
			t.Fatalf("checkpoint %d accounted %d bytes (stored %d), full-image rule says %d", len(images), got, cp.Bytes, want)
		}
		stored := 0
		for _, f := range cp.Pages {
			if f != nil {
				stored++
			}
		}
		if stored != wantStored {
			t.Fatalf("checkpoint %d holds %d frames, want %d", len(images), stored, wantStored)
		}
		prev = img
		images = append(images, img)
	}
	take(0) // the untouched space: nothing stored, everything accounted
	nd.PageTable().Page(0)[5] = 99
	nd.PageTable().Page(2)[1] = 3
	take(2)
	nd.PageTable().Page(2)[1] = 0  // re-zeroed
	nd.PageTable().Page(3)[0] = 0  // touched, still zero
	nd.PageTable().Page(1)[63] = 8 // first write
	take(2)
	take(2) // nothing changed: meta only

	latest, _ := store.LatestCheckpoint()
	if &latest.Pages[0][0] == &nd.PageTable().Page(0)[0] {
		t.Fatal("checkpoint adopted a live frame")
	}

	// Keep running: no stored image may move.
	for p := memory.PageID(0); p < 4; p++ {
		for i := range nd.PageTable().Page(p) {
			nd.PageTable().Page(p)[i] = 0xee
		}
	}
	fresh := newNode(t)
	if _, ok := Restore(fresh, store); !ok || !bytes.Equal(flat(fresh), images[3]) {
		t.Fatal("restoring the latest sparse image differs from the full image taken with it")
	}
	if _, ok := RestoreInitial(nd, store); !ok || !bytes.Equal(flat(nd), images[0]) {
		t.Fatal("restoring the initial image over a dirty node left bytes behind")
	}
	// Writing the restored nodes must not reach the store either.
	fresh.PageTable().Page(0)[5] = 1
	fresh.PageTable().Page(1)[63] = 1
	again := newNode(t)
	if Restore(again, store); !bytes.Equal(flat(again), images[3]) {
		t.Fatal("a write to a restored node went through to the stored image")
	}
}

// The op-0 checkpoint of a fresh node copies nothing: beyond the frame
// table (one slice header per page) it allocates less than a single page.
func TestTakeInitialOnFreshNodeCopiesNoPages(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const pages, pageSize = 1024, 4096
	model := simtime.DefaultCostModel()
	homes := make([]int, pages)
	for i := range homes {
		homes[i] = 1 // all homed at the peer: no version table to save either
	}
	fresh := func() *hlrc.Node {
		return hlrc.NewNode(hlrc.Config{
			ID: 0, N: 2, PageSize: pageSize, NumPages: pages, Homes: homes, Model: model,
		}, transport.NewNetwork(2, model), simtime.NewClock(0), nil, nil)
	}
	// The least of a few trials: TotalAlloc is process-wide, and a
	// collection starting mid-measurement adds a few KB of its own.
	least := ^uint64(0)
	for trial := 0; trial < 5; trial++ {
		nd, store := fresh(), stable.NewStore()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		accounted := Take(nd, store)
		runtime.ReadMemStats(&m1)
		if accounted < pages*pageSize {
			t.Fatalf("accounted %d bytes, want the full %d-byte image", accounted, pages*pageSize)
		}
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	frameTable := uint64(pages * 24) // one slice header per page
	if least >= frameTable+pageSize {
		t.Fatalf("the op-0 Take allocated %d bytes; the frame table is %d and the budget beyond it one page", least, frameTable)
	}
}
