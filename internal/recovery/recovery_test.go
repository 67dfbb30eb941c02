package recovery

import (
	"strings"
	"testing"

	"sdsm/internal/hlrc"
	"sdsm/internal/memory"
	"sdsm/internal/simtime"
	"sdsm/internal/stable"
	"sdsm/internal/transport"
	"sdsm/internal/wal"
)

func mkDiff(page memory.PageID, off int, vals ...byte) memory.Diff {
	twin := make([]byte, 128)
	cur := make([]byte, 128)
	copy(cur[off:], vals)
	return memory.MakeDiff(page, twin, cur)
}

// pageAfter applies d to a zero page of the given size.
func pageAfter(d memory.Diff, size int) []byte {
	page := make([]byte, size)
	d.Apply(page)
	return page
}

func TestKindString(t *testing.T) {
	if ReExecution.String() != "Re-Execution" ||
		MLRecovery.String() != "ML-Recovery" ||
		CCLRecovery.String() != "CCL-Recovery" {
		t.Fatal("kind names")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind name")
	}
}

// victimNode builds the node a replayer is constructed for: node 1 of 2,
// managers at node 0, its clock at start.
func victimNode(senderLogs bool, start simtime.Time) *hlrc.Node {
	model := simtime.DefaultCostModel()
	return hlrc.NewNode(hlrc.Config{
		ID: 1, N: 2, PageSize: 128, NumPages: 2, Homes: []int{0, 1},
		Model: model, SenderLogs: senderLogs,
	}, transport.NewNetwork(2, model), simtime.NewClock(start), nil, nil)
}

func TestNewReplayerRejectsReExecution(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewReplayer(ReExecution, victimNode(false, 0), stable.NewStore(), 1, false)
}

// TestNewReplayerDerivesModes pins what the one constructor reads off the
// node and the store instead of being told: the replay-time base is the
// clock the incarnation was given, an intact log is trusted to its last
// record, and only the re-execute bit (which re-enables twins from op 0)
// is the caller's.
func TestNewReplayerDerivesModes(t *testing.T) {
	notices := hlrc.EncodeNotices([]hlrc.Notice{{Proc: 0, Seq: 1, Pages: []memory.PageID{1}}}, nil)
	for _, reexec := range []bool{false, true} {
		store := stable.NewStore()
		store.Flush([]stable.Record{
			{Kind: wal.RecNotices, Op: 1, Data: notices},
			{Kind: wal.RecNotices, Op: 2, Data: notices},
		})
		nd := victimNode(true, 5000)
		r := NewReplayer(CCLRecovery, nd, store, 9, reexec)
		if r.base != 5000 {
			t.Errorf("reexec=%v: base = %d, want the incarnation's clock start 5000", reexec, r.base)
		}
		if r.Torn() || len(r.byOp[1]) != 1 || len(r.byOp[2]) != 1 {
			t.Errorf("reexec=%v: torn = %v, byOp %d/%d records with an intact log; want every record replayed from disk",
				reexec, r.Torn(), len(r.byOp[1]), len(r.byOp[2]))
		}
		if want := map[bool]int32{false: -1, true: 0}[reexec]; nd.TwinsFromOp != want {
			t.Errorf("reexec=%v: TwinsFromOp = %d, want %d", r.reexec, nd.TwinsFromOp, want)
		}
	}
}

// TestTornLogWithoutSenderLogsPanics: a CRC-torn log on a node whose
// managers keep no sender logs cannot be recovered, and saying so is a
// safety check that must survive the sender-log availability being read
// from the node's config.
func TestTornLogWithoutSenderLogsPanics(t *testing.T) {
	notices := hlrc.EncodeNotices([]hlrc.Notice{{Proc: 0, Seq: 1, Pages: []memory.PageID{1}}}, nil)
	store := stable.NewStore()
	store.Flush([]stable.Record{{Kind: wal.RecNotices, Op: 1, Data: notices}})
	store.Flush([]stable.Record{{Kind: wal.RecNotices, Op: 2, Data: notices}, {Kind: wal.RecNotices, Op: 3, Data: notices}})
	store.TearTail(1)
	if _, dropped := store.ValidPrefix(); dropped == 0 {
		t.Fatal("TearTail tore nothing: the case is toothless")
	}
	nd := victimNode(false, 0)
	r := NewReplayer(CCLRecovery, nd, store, 9, false)
	if !r.Torn() {
		t.Fatal("replayer did not notice the torn tail")
	}
	if r.tailActive(r.tailFromOp - 1) {
		t.Fatal("an op below the torn tail must replay from disk")
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "sender-log recovery is not enabled") {
			t.Fatalf("panic %q, want the torn-tail-without-sender-logs diagnostic", msg)
		}
	}()
	r.Logged(nd, r.tailFromOp, hlrc.KindLockReq)
}

func TestReplayerIndexesByOp(t *testing.T) {
	store := stable.NewStore()
	store.Flush([]stable.Record{
		{Kind: wal.RecNotices, Op: 1, Data: hlrc.EncodeNotices([]hlrc.Notice{{Proc: 0, Seq: 1, Pages: []memory.PageID{1}}}, nil)},
		{Kind: wal.RecPage, Op: 2, Data: wal.EncodePageRecord(nil, 1, make([]byte, 128))},
		{Kind: wal.RecDiffBatch, Op: 2, Data: wal.EncodeDiffBatchRecord(nil, 1, 1, 0, []memory.Diff{mkDiff(0, 0, 1)})},
	})
	r := NewReplayer(MLRecovery, victimNode(false, 0), store, 5, false)
	if len(r.byOp[1]) != 1 || len(r.byOp[2]) != 1 {
		t.Fatalf("byOp index: %d/%d", len(r.byOp[1]), len(r.byOp[2]))
	}
	if lp := r.pagesByOp[2][1]; lp.data == nil || lp.size != stable.HeaderSize+wal.PageRecordSize(lp.data) {
		t.Fatalf("page index: %d bytes in a record of %d", len(lp.data), lp.size)
	}
	// CCL replayer keeps pages in byOp untouched (it never logs them).
	r2 := NewReplayer(CCLRecovery, victimNode(false, 0), store, 5, false)
	if len(r2.pagesByOp) != 0 {
		t.Fatal("CCL replayer indexed pages")
	}
}

// TestServiceVersionedFetch drives the recovery service directly: a live
// home with an advanced page must serve the rolled-back version.
func TestServiceVersionedFetch(t *testing.T) {
	model := simtime.DefaultCostModel()
	nw := transport.NewNetwork(2, model)
	homes := []int{0, 0}
	home := hlrc.NewNode(hlrc.Config{
		ID: 0, N: 2, PageSize: 128, NumPages: 2, Homes: homes,
		Model: model, HomeUndo: true,
	}, nw, simtime.NewClock(0), nil, nil)
	home.StartService()
	defer home.StopService()

	requester := nw.NewEndpoint(1, simtime.NewClock(0))
	// The requester's first miss on page 0 arms the home's undo history.
	miss := &hlrc.PageReq{Page: 0}
	requester.Call(0, hlrc.KindPageReq, miss.WireSize(), miss)

	// Apply two writer intervals to page 0.
	home.ApplyDiffAsHome(mkDiff(0, 0, 11), 1, 1)
	home.ApplyDiffAsHome(mkDiff(0, 4, 22), 1, 2)

	// Ask for the page at version <1:1> — the seq-2 update must be
	// rolled back.
	req := &hlrc.PageReq{Page: 0, VT: []int32{0, 1}}
	resp := requester.Call(0, hlrc.KindRecPageReq, req.WireSize(), req)
	pr := resp.Payload.(*hlrc.PageReply)
	if pr.Data[0] != 11 || pr.Data[4] != 0 {
		t.Fatalf("versioned fetch: data[0]=%d data[4]=%d, want 11, 0", pr.Data[0], pr.Data[4])
	}
	// Current version request returns everything.
	req = &hlrc.PageReq{Page: 0, VT: []int32{0, 2}}
	resp = requester.Call(0, hlrc.KindRecPageReq, req.WireSize(), req)
	pr = resp.Payload.(*hlrc.PageReply)
	if pr.Data[0] != 11 || pr.Data[4] != 22 {
		t.Fatalf("current fetch: %d, %d", pr.Data[0], pr.Data[4])
	}
	// A versioned fetch with no VT (a hostile or truncated body decodes to
	// one) names no writer, so every writer is at 0, as at an adopter: it
	// is served the copy of the first serve, both intervals rolled back.
	req = &hlrc.PageReq{Page: 0}
	resp = requester.Call(0, hlrc.KindRecPageReq, req.WireSize(), req)
	pr = resp.Payload.(*hlrc.PageReply)
	if resp.Kind != hlrc.KindRecPageReply || pr.Data[0] != 0 || pr.Data[4] != 0 {
		t.Fatalf("fetch with no VT: kind %d, %d, %d", resp.Kind, pr.Data[0], pr.Data[4])
	}
}

// storeLogDiffs binds hlrc.Config.LogDiffs to store, as the cluster does.
func storeLogDiffs(store *stable.Store) func(*hlrc.RecDiffsReq) *hlrc.RecDiffsReply {
	return func(req *hlrc.RecDiffsReq) *hlrc.RecDiffsReply { return wal.ReadLoggedDiffs(store, req) }
}

// TestServiceLoggedDiffs drives the RecDiffsReq path end to end.
func TestServiceLoggedDiffs(t *testing.T) {
	model := simtime.DefaultCostModel()
	nw := transport.NewNetwork(2, model)
	store := stable.NewStore()
	store.Flush([]stable.Record{
		{Kind: wal.RecDiffBatch, Op: 3, Data: wal.EncodeDiffBatchRecord(nil, -1, 4, 7, []memory.Diff{mkDiff(1, 0, 42)})},
	})
	nd := hlrc.NewNode(hlrc.Config{
		ID: 0, N: 2, PageSize: 128, NumPages: 2, Homes: []int{1, 1}, Model: model,
		LogDiffs: storeLogDiffs(store),
	}, nw, simtime.NewClock(0), nil, nil)
	nd.StartService()
	defer nd.StopService()

	requester := nw.NewEndpoint(1, simtime.NewClock(0))
	req := &hlrc.RecDiffsReq{Page: 1, FromSeq: 3, ToSeq: 4}
	resp := requester.Call(0, hlrc.KindRecDiffsReq, req.WireSize(), req)
	dr := resp.Payload.(*hlrc.RecDiffsReply)
	if len(dr.Diffs) != 1 || dr.Seqs[0] != 4 || pageAfter(dr.Diffs[0], 128)[0] != 42 {
		t.Fatalf("logged diffs reply: %+v", dr)
	}
}
