package core

import (
	"bytes"
	"strings"
	"testing"

	"sdsm/internal/fault"
	"sdsm/internal/recovery"
	"sdsm/internal/simtime"
	"sdsm/internal/wal"
)

// churnProg is the online-recovery workload: a lock phase whose work
// never touches victim-homed pages (so the survivors keep executing
// through the victim's down window), a rejoin barrier, and then gated
// cross-region reads that exercise custody rebuilds at the adopter.
func churnProg(rounds int) Program {
	return func(p *Proc) {
		ps := p.PageSize()
		n := p.N()
		per := p.MemBytes() / ps / n // pages per node under block homes
		myBase := p.ID() * per * ps
		p.WriteI64(myBase, int64(p.ID()+1))
		p.Barrier(0)
		for r := 0; r < rounds; r++ {
			p.AcquireLock(1)
			p.WriteI64(8, p.ReadI64(8)+1) // shared counter on page 0 (home: node 0)
			p.ReleaseLock(1)
			// Second page of the region: keeps clear of the shared words
			// on page 0, which sits inside node 0's region.
			p.WriteI64(myBase+ps+8*(r%32), int64(r+1))
			p.Compute(2000)
		}
		p.Barrier(1) // the victim rejoins here; gates cross-region access
		sum := int64(0)
		for w := 0; w < n; w++ {
			sum += p.ReadI64(w * per * ps)
		}
		p.AcquireLock(2)
		p.WriteI64(16, p.ReadI64(16)+sum)
		p.ReleaseLock(2)
		p.Barrier(2)
	}
}

func churnCfg() Config {
	return Config{
		Nodes:    4,
		PageSize: 512,
		NumPages: 64,
		Protocol: wal.ProtocolCCL,
	}
}

func churnPlan(point fault.CrashPoint) ChurnPlan {
	return ChurnPlan{
		Victim:        1,
		AtOp:          6, // the victim's third lock release
		Point:         point,
		Recovery:      recovery.CCLRecovery,
		LeaseDuration: 3_000_000,  // 3 ms virtual
		RestartDelay:  20_000_000, // 20 ms virtual: survivors run far ahead
	}
}

func checkChurnImage(t *testing.T, rep *Report, nodes, rounds int) {
	t.Helper()
	mem := rep.MemoryImage()
	rd := func(addr int) int64 {
		v := int64(0)
		for i := 7; i >= 0; i-- {
			v = v<<8 | int64(mem[addr+i])
		}
		return v
	}
	// Little-endian read must match the Proc accessors.
	if got := rd(8); got != int64(nodes*rounds) {
		t.Errorf("lock counter = %d, want %d", got, nodes*rounds)
	}
	wantSum := int64(0)
	for w := 0; w < nodes; w++ {
		wantSum += int64(w + 1)
	}
	if got := rd(16); got != wantSum*int64(nodes) {
		t.Errorf("gated cross-read accumulator = %d, want %d", got, wantSum*int64(nodes))
	}
	// The victim's region — assembled from writer logs and the adopter's
	// custody record, not from the stale static-home page table.
	per := len(mem) / 512 / nodes
	base := 1 * per * 512
	if got := rd(base); got != 2 {
		t.Errorf("victim region word 0 = %d, want 2", got)
	}
	for r := 0; r < rounds && r < 32; r++ {
		want := int64(r + 1)
		if rounds > r+32 { // overwritten by a later lap of the modular index
			continue
		}
		if got := rd(base + 512 + 8*r); got != want {
			t.Errorf("victim round-write word %d = %d, want %d", r, got, want)
		}
	}
}

func TestRunWithChurnQuiescentCrash(t *testing.T) {
	const rounds = 8
	rep, err := RunWithChurn(churnCfg(), churnProg(rounds), churnPlan(fault.PointSyncExit))
	if err != nil {
		t.Fatal(err)
	}
	rec := rep.Recovery
	if rec == nil || !rec.Online {
		t.Fatal("missing online recovery report")
	}
	if rec.CrashTime <= 0 || rec.DeclareTime != rec.CrashTime+3_000_000 ||
		rec.RestartTime != rec.CrashTime+20_000_000 {
		t.Fatalf("bad crash/declare/restart times: %+v", rec)
	}
	if rec.ReplayTime <= 0 || rec.RejoinTime != rec.RestartTime+rec.ReplayTime {
		t.Fatalf("bad replay/rejoin times: %+v", rec)
	}
	if simtime.Time(rec.Phases.Sum()) != rec.ReplayTime {
		t.Fatalf("phases sum %d != replay time %d", rec.Phases.Sum(), rec.ReplayTime)
	}
	checkChurnImage(t, rep, 4, rounds)
}

func TestRunWithChurnDeterministic(t *testing.T) {
	const rounds = 8
	run := func() *Report {
		rep, err := RunWithChurn(churnCfg(), churnProg(rounds), churnPlan(fault.PointSyncExit))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !bytes.Equal(a.MemoryImage(), b.MemoryImage()) {
		t.Error("memory image differs across same-seed churn runs")
	}
	// The workload contends on lock 1. The manager decides grants in
	// virtual-arrival order, so grant order, and with it every virtual
	// timestamp, replays exactly under any scheduler.
	if a.ExecTime != b.ExecTime {
		t.Errorf("exec time differs across same-seed churn runs: %d vs %d", a.ExecTime, b.ExecTime)
	}
	if a.Recovery.ReplayTime != b.Recovery.ReplayTime || a.Recovery.RejoinTime != b.Recovery.RejoinTime {
		t.Errorf("catch-up differs across same-seed churn runs: %+v vs %+v", a.Recovery, b.Recovery)
	}
}

// TestRunWithChurnSurvivorsProgress asserts forward progress during the
// down window: the survivors' lock-phase work completes before the victim
// rejoins, so the run's critical path is the victim's catch-up, not a
// stop-the-world pause times the surviving node count.
func TestRunWithChurnSurvivorsProgress(t *testing.T) {
	const rounds = 8
	rep, err := RunWithChurn(churnCfg(), churnProg(rounds), churnPlan(fault.PointSyncExit))
	if err != nil {
		t.Fatal(err)
	}
	rec := rep.Recovery
	if rec.RejoinTime <= rec.DeclareTime {
		t.Fatalf("victim rejoined at %d before its lease even expired at %d", rec.RejoinTime, rec.DeclareTime)
	}
	if rep.ExecTime < rec.RejoinTime {
		t.Fatalf("run finished at %d before the victim rejoined at %d", rep.ExecTime, rec.RejoinTime)
	}
}

// churnSlotsProg guards per-node slots with one contended lock, so the
// victim's crashed critical section is safe to re-execute live: survivors
// who obtain the revoked lock write different bytes than the re-executed
// interval (the §2.9 re-execution safety discipline).
func churnSlotsProg(rounds int) Program {
	return func(p *Proc) {
		ps := p.PageSize()
		n := p.N()
		per := p.MemBytes() / ps / n
		myBase := p.ID() * per * ps
		p.WriteI64(myBase, int64(p.ID()+1))
		p.Barrier(0)
		slot := 24 + 8*p.ID()
		for r := 0; r < rounds; r++ {
			p.AcquireLock(3)
			p.WriteI64(slot, p.ReadI64(slot)+1)
			p.ReleaseLock(3)
			p.WriteI64(myBase+ps+8*(r%32), int64(r+1)) // dirties the victim's own home
			p.Compute(2000)
		}
		p.Barrier(1)
		sum := int64(0)
		for w := 0; w < n; w++ {
			sum += p.ReadI64(w * per * ps)
		}
		p.WriteI64(myBase+2*ps, sum)
		p.Barrier(2)
	}
}

// TestRunWithChurnNonQuiescentCrash kills the victim at the entry of a
// lock release — interval unflushed, lock held, home pages dirty. The
// manager must revoke the victim's lock at lease expiry, the successor
// must adopt its homes, and the recovered incarnation must re-execute the
// crashed interval live.
func TestRunWithChurnNonQuiescentCrash(t *testing.T) {
	const rounds = 8
	for _, point := range []fault.CrashPoint{fault.PointHoldingLock, fault.PointDirtyHome} {
		t.Run(point.String(), func(t *testing.T) {
			rep, err := RunWithChurn(churnCfg(), churnSlotsProg(rounds), churnPlan(point))
			if err != nil {
				t.Fatal(err)
			}
			mem := rep.MemoryImage()
			rd := func(addr int) int64 {
				v := int64(0)
				for i := 7; i >= 0; i-- {
					v = v<<8 | int64(mem[addr+i])
				}
				return v
			}
			for id := 0; id < 4; id++ {
				if got := rd(24 + 8*id); got != rounds {
					t.Errorf("slot %d = %d, want %d", id, got, rounds)
				}
			}
			per := len(mem) / 512 / 4
			base := 1 * per * 512
			if got := rd(base); got != 2 {
				t.Errorf("victim region word 0 = %d, want 2", got)
			}
			if got := rd(base + 2*512); got != 10 {
				t.Errorf("victim gated-read sum = %d, want 10", got)
			}
			for r := 0; r < rounds; r++ {
				if got := rd(base + 512 + 8*r); got != int64(r+1) {
					t.Errorf("victim round-write word %d = %d, want %d", r, got, r+1)
				}
			}
			var revoked, adoptions int64
			for _, s := range rep.Stats {
				revoked += s.LockRevocations
				adoptions += s.HomeAdoptions
			}
			if revoked < 1 {
				t.Error("manager revoked no lock from the dead holder")
			}
			if adoptions < 1 {
				t.Error("no survivor adopted the victim's homes")
			}
		})
	}
}

func TestChurnPlanValidation(t *testing.T) {
	base := churnPlan(fault.PointSyncExit)
	cases := []struct {
		name string
		cfg  Config
		plan func(ChurnPlan) ChurnPlan
		want string
	}{
		{"ml recovery", churnCfg(), func(p ChurnPlan) ChurnPlan { p.Recovery = recovery.MLRecovery; return p }, "CCL-recovery"},
		{"ml protocol", func() Config { c := churnCfg(); c.Protocol = wal.ProtocolML; return c }(), func(p ChurnPlan) ChurnPlan { return p }, "CCL logging protocol"},
		{"bad point", churnCfg(), func(p ChurnPlan) ChurnPlan { p.Point = fault.CrashPoint(99); return p }, "invalid crash point"},
		{"zero lease", churnCfg(), func(p ChurnPlan) ChurnPlan { p.LeaseDuration = 0; return p }, "positive LeaseDuration"},
		{"negative restart", churnCfg(), func(p ChurnPlan) ChurnPlan { p.RestartDelay = -1; return p }, "RestartDelay"},
		{"negative op", churnCfg(), func(p ChurnPlan) ChurnPlan { p.AtOp = -1; return p }, "negative"},
		{"victim range", churnCfg(), func(p ChurnPlan) ChurnPlan { p.Victim = 9; return p }, "invalid victim"},
		{"manager victim", churnCfg(), func(p ChurnPlan) ChurnPlan { p.Victim = 0; return p }, "manager"},
		{"victim is home to no page", func() Config {
			c := churnCfg()
			c.Homes = make([]int, c.NumPages)
			for p := range c.Homes {
				c.Homes[p] = (p % (c.Nodes - 1)) * 2 % c.Nodes // never node 1
			}
			for p := range c.Homes {
				if c.Homes[p] == 1 {
					c.Homes[p] = 0
				}
			}
			return c
		}(), func(p ChurnPlan) ChurnPlan { p.Point = fault.PointDirtyHome; return p }, "home to no page"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunWithChurn(tc.cfg, churnProg(2), tc.plan(base))
			if err == nil {
				t.Fatal("expected a validation error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
