package core_test

import (
	"bytes"
	"testing"

	"sdsm/internal/apps"
	"sdsm/internal/apps/mg"
	"sdsm/internal/apps/shallow"
	"sdsm/internal/core"
	"sdsm/internal/hlrc"
	"sdsm/internal/recovery"
	"sdsm/internal/wal"
)

// unusedPageCfg runs unusedPageProg: page 0 is homed at node 0 and
// written by node 1, and the victim, node 2, homes page 2.
func unusedPageCfg() core.Config {
	return core.Config{
		Nodes: 4, PageSize: 512, NumPages: 4, Homes: []int{0, 1, 2, 3},
		Protocol: wal.ProtocolCCL,
	}
}

// unusedPageProg names page 0 to node 2 at three barriers in a row, each
// time at a new value, and node 2 reads it only after the third: the
// first notice stages a prefetch the replay never reaches, the next two
// find the page unused and invalidate it, and the read is an on-demand
// miss. Node 2 copies what it read to its home page, which the replay
// rebuilds, so a replay that read a stale copy leaves a wrong image. Node 3 reads another word of page 0
// after the first write, so the home keeps the page's history from then
// on and the staged copy holds 10, not the final 12. Node 2 runs
// unusedPageOps sync ops and crashes at the last.
func unusedPageProg(p *core.Proc) {
	b := 0
	barrier := func() { p.Barrier(b); b++ }
	barrier()
	for r := 0; r < 3; r++ {
		if p.ID() == 1 {
			p.WriteI64(0, int64(10+r))
		}
		barrier()
		if r == 0 && p.ID() == 3 {
			p.ReadI64(8)
		}
	}
	if p.ID() == 2 {
		p.WriteI64(2*p.PageSize(), p.ReadI64(0))
	}
	barrier()
	barrier()
}

const unusedPageOps = 6

// CCL-recovery prefetches at each replayed sync op only the noticed pages
// the replay has used, plus any on its first notice; the rest are
// invalidated and fetched if the replay touches them after all. The
// Figure 5 crash cells of MG and Shallow (ScaleSmall, 8 nodes, victim 7
// at 85%) stay under bounds that prefetching every noticed page exceeds
// (86 and 52 fetches), with their images exact. unusedPageProg drives the
// miss path, offline and online: a replay that revealed a copy it
// invalidated, or skipped the invalidation, reads 10 instead of 12, and
// one that prefetched every notice sends three fetches and takes no miss.
func TestCCLPrefetchFollowsUse(t *testing.T) {
	for _, tc := range []struct {
		w     *apps.Workload
		bound int64
	}{
		{mg.New(16, 2, 8, 4096), 60},
		{shallow.New(16, 16, 4, 8, 4096), 50},
	} {
		cfg := tc.w.BaseConfig(8)
		cfg.Protocol = wal.ProtocolCCL
		golden, err := core.Run(cfg, tc.w.Prog)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.RunWithCrash(cfg, tc.w.Prog, core.CrashPlan{
			Victim: 7, AtOp: golden.NodeOps[7] * 85 / 100, Recovery: recovery.CCLRecovery,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.w.Name, err)
		}
		if !bytes.Equal(rep.MemoryImage(), golden.MemoryImage()) {
			t.Errorf("%s: recovered image differs from the failure-free one", tc.w.Name)
		}
		if got := rep.KindMsgs(hlrc.KindRecPageReq); got > tc.bound {
			t.Errorf("%s: %d versioned page fetches, want at most %d", tc.w.Name, got, tc.bound)
		}
	}

	golden, err := core.Run(unusedPageCfg(), unusedPageProg)
	if err != nil {
		t.Fatal(err)
	}
	if got := golden.NodeOps[2]; got != unusedPageOps {
		t.Fatalf("node 2 ran %d sync ops, want %d", got, unusedPageOps)
	}
	offline, err := core.RunWithCrash(unusedPageCfg(), unusedPageProg, core.CrashPlan{
		Victim: 2, AtOp: unusedPageOps - 1, Recovery: recovery.CCLRecovery,
	})
	if err != nil {
		t.Fatal(err)
	}
	online, err := core.RunWithChurn(unusedPageCfg(), unusedPageProg, core.ChurnPlan{
		Victim: 2, AtOp: unusedPageOps - 1, Recovery: recovery.CCLRecovery,
		LeaseDuration: 3_000_000, RestartDelay: 20_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		rep  *core.Report
	}{{"offline", offline}, {"online", online}} {
		if !bytes.Equal(c.rep.MemoryImage(), golden.MemoryImage()) {
			t.Errorf("%s: recovered image differs from the failure-free one", c.name)
		}
		if got := c.rep.Recovery.Misses; got != 1 {
			t.Errorf("%s: %d on-demand fetches, want 1", c.name, got)
		}
		if got := c.rep.KindMsgs(hlrc.KindRecPageReq); got != 2 {
			t.Errorf("%s: %d versioned page fetches, want 2 (one prefetch, one miss)", c.name, got)
		}
	}
}
