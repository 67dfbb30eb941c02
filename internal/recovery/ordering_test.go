package recovery

import (
	"bytes"
	"testing"

	"sdsm/internal/hlrc"
	"sdsm/internal/memory"
	"sdsm/internal/simtime"
	"sdsm/internal/stable"
	"sdsm/internal/transport"
	"sdsm/internal/wal"
)

// adpDiff builds a one-page AdoptedDiff writing vals at off against a
// 128-byte page.
func adpDiff(writer, seq int32, vtSum int64, off int, vals ...byte) hlrc.AdoptedDiff {
	return hlrc.AdoptedDiff{Writer: writer, Seq: seq, VTSum: vtSum, Diff: mkDiff(0, off, vals...)}
}

// TestReplayOrderingLinearExtension drives hlrc.RebuildAdoptedImage —
// the same ascending (vtSum, writer, seq) order custody rebuilds and
// fetched-diff replay use — through causally ordered and causally
// concurrent interval mixes, in several arrival permutations each. The
// image must depend only on the causal order, never on arrival order.
func TestReplayOrderingLinearExtension(t *testing.T) {
	cases := []struct {
		name  string
		diffs []hlrc.AdoptedDiff // canonical order
		check map[int]byte       // expected bytes at offsets
	}{
		{
			// Lock-serialized chain: three writers overwrite the same
			// byte; each later interval covers the earlier one, so its
			// vector-time sum is strictly greater and it must win.
			name: "serialized overwrites",
			diffs: []hlrc.AdoptedDiff{
				adpDiff(0, 1, 1, 0, 10),
				adpDiff(1, 1, 3, 0, 20),
				adpDiff(2, 1, 7, 0, 30),
			},
			check: map[int]byte{0: 30},
		},
		{
			// Causally concurrent intervals (equal sums): a data-race-free
			// program makes their byte sets disjoint, so any tiebreak
			// yields the same image.
			name: "concurrent disjoint",
			diffs: []hlrc.AdoptedDiff{
				adpDiff(0, 2, 5, 0, 1, 2),
				adpDiff(1, 2, 5, 8, 3, 4),
				adpDiff(2, 2, 5, 16, 5, 6),
			},
			check: map[int]byte{0: 1, 1: 2, 8: 3, 9: 4, 16: 5, 17: 6},
		},
		{
			// A chain per writer plus one cross-writer overwrite: writer
			// 1's second interval saw writer 0's first (sum 4 > 2).
			name: "mixed chains",
			diffs: []hlrc.AdoptedDiff{
				adpDiff(0, 1, 2, 0, 11),
				adpDiff(0, 2, 3, 24, 12),
				adpDiff(1, 1, 1, 32, 13),
				adpDiff(1, 2, 4, 0, 14),
			},
			check: map[int]byte{0: 14, 24: 12, 32: 13},
		},
		{
			// Duplicate delivery: the same (writer, seq) interval arrives
			// from both the writer's log and the adopter's custody record;
			// the rebuild must deduplicate, not double-apply.
			name: "duplicate interval",
			diffs: []hlrc.AdoptedDiff{
				adpDiff(0, 1, 1, 0, 42),
				adpDiff(0, 1, 1, 0, 42),
				adpDiff(1, 1, 2, 0, 43),
			},
			check: map[int]byte{0: 43},
		},
	}
	perms := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref []byte
			for _, perm := range perms {
				in := make([]hlrc.AdoptedDiff, 0, len(tc.diffs))
				for _, i := range perm {
					if i < len(tc.diffs) {
						in = append(in, tc.diffs[i])
					}
				}
				img, err := hlrc.RebuildAdoptedImage(128, in)
				if err != nil {
					t.Fatal(err)
				}
				for off, want := range tc.check {
					if img[off] != want {
						t.Errorf("perm %v: byte %d = %d, want %d", perm, off, img[off], want)
					}
				}
				if ref == nil {
					ref = img
				} else if !bytes.Equal(ref, img) {
					t.Errorf("perm %v: image depends on arrival order", perm)
				}
			}
		})
	}
}

// TestFetchedDiffsApplyInCausalOrder drives the replayer's one logged-diff
// fetch end to end. Writers 1 and 2 wrote the same word of the victim's
// home page in lock-serialized intervals (writer 2's saw writer 1's, so
// its vector-time sum is larger), and the victim's log names the two
// update events in reverse causal order. The home copy must end with the
// later writer's value whatever the request order, and fetching the same
// events again must change nothing.
func TestFetchedDiffsApplyInCausalOrder(t *testing.T) {
	model := simtime.DefaultCostModel()
	nw := transport.NewNetwork(3, model)
	homes := []int{0, 1}
	for w, val := range map[int32]byte{1: 10, 2: 20} {
		store := stable.NewStore()
		store.Flush([]stable.Record{{Kind: wal.RecDiffBatch, Op: 1,
			Data: wal.EncodeDiffBatchRecord(nil, -1, 1, int64(2*w-1), []memory.Diff{mkDiff(0, 0, val)})}})
		nd := hlrc.NewNode(hlrc.Config{
			ID: int(w), N: 3, PageSize: 128, NumPages: 2, Homes: homes, Model: model,
			LogDiffs: storeLogDiffs(store),
		}, nw, simtime.NewClock(0), nil, nil)
		nd.StartService()
		defer nd.StopService()
	}
	events := wal.EncodeEventsRecord(nil, []hlrc.UpdateEvent{{Page: 0, Writer: 2, Seq: 1}, {Page: 0, Writer: 1, Seq: 1}})
	log := stable.NewStore()
	log.Flush([]stable.Record{{Kind: wal.RecEvents, Op: 0, Data: events}, {Kind: wal.RecEvents, Op: 1, Data: events}})
	victim := hlrc.NewNode(hlrc.Config{
		ID: 0, N: 3, PageSize: 128, NumPages: 2, Homes: homes, Model: model,
	}, nw, simtime.NewClock(0), nil, nil)
	r := NewReplayer(CCLRecovery, victim, log, 9, false)

	r.Acquire(victim, 0, 1)
	first := victim.PageTable().CopyPage(0)
	if first[0] != 20 {
		t.Fatalf("home word = %d after the fetch, want the later writer's 20", first[0])
	}
	if ver := victim.HomeVersion(0); ver[1] != 1 || ver[2] != 1 {
		t.Fatalf("home version = %v, want both writers' first intervals", ver)
	}
	r.Acquire(victim, 1, 2)
	if again := victim.PageTable().CopyPage(0); !bytes.Equal(again, first) {
		t.Fatalf("fetching the same events again changed the home copy: word %d", again[0])
	}
	if ph := r.phases; ph.Ops[PhaseDiffFetch] != 2 || ph.Bytes[PhaseDiffFetch] == 0 {
		t.Fatalf("diff-fetch phase ran %d times over %d bytes, want 2 runs reading the writers' logs",
			ph.Ops[PhaseDiffFetch], ph.Bytes[PhaseDiffFetch])
	}
}
