package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"sdsm/internal/fault"
	"sdsm/internal/recovery"
	"sdsm/internal/simtime"
	"sdsm/internal/wal"
)

// stencilProg is a deterministic barrier-style test workload: each node
// owns a block of 64 float64 cells (one 512-byte page each at the test
// page size) and repeatedly averages with the neighbouring blocks'
// boundary cells, like a 1-D Jacobi iteration.
func stencilProg(iters int) Program {
	return func(p *Proc) {
		const cells = 64
		n := p.N()
		mine := p.ID() * cells
		// Double-buffered 1-D Jacobi: read from cur, write to nxt, swap
		// at each barrier (data-race free, as release consistency
		// requires).
		bufA, bufB := 0, n*cells*8
		for i := 0; i < cells; i++ {
			p.SetF64(bufA, mine+i, float64(p.ID()+1))
			p.SetF64(bufB, mine+i, float64(p.ID()+1))
		}
		p.Barrier(0)
		b := 1
		cur, nxt := bufA, bufB
		for it := 0; it < iters; it++ {
			left, right := 0.0, 0.0
			if p.ID() > 0 {
				left = p.F64(cur, mine-1)
			}
			if p.ID() < n-1 {
				right = p.F64(cur, mine+cells)
			}
			lv := p.F64(cur, mine)
			rv := p.F64(cur, mine+cells-1)
			p.SetF64(nxt, mine, (lv+left)/2+1)
			p.SetF64(nxt, mine+cells-1, (rv+right)/2+1)
			p.Compute(1000)
			p.Barrier(b)
			b++
			cur, nxt = nxt, cur
		}
	}
}

// lockProg exercises locks: shared counters incremented under a lock,
// with barrier phases in between.
func lockProg(rounds int) Program {
	return func(p *Proc) {
		b := 0
		for r := 0; r < rounds; r++ {
			p.AcquireLock(1)
			p.WriteI64(0, p.ReadI64(0)+1)
			p.ReleaseLock(1)
			p.AcquireLock(2)
			p.WriteI64(4096, p.ReadI64(4096)+2)
			p.ReleaseLock(2)
			p.Barrier(b)
			b++
		}
	}
}

func testCfg(proto wal.Protocol) Config {
	return Config{
		Nodes:    4,
		PageSize: 512,
		NumPages: 64,
		Protocol: proto,
	}
}

func TestRunFailureFreeAllProtocols(t *testing.T) {
	var images [][]byte
	var times []int64
	for _, proto := range []wal.Protocol{wal.ProtocolNone, wal.ProtocolML, wal.ProtocolCCL} {
		rep, err := Run(testCfg(proto), stencilProg(6))
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		images = append(images, rep.MemoryImage())
		times = append(times, int64(rep.ExecTime))
		if rep.ExecTime <= 0 {
			t.Fatalf("%v: non-positive exec time", proto)
		}
	}
	if !bytes.Equal(images[0], images[1]) || !bytes.Equal(images[0], images[2]) {
		t.Fatal("final memory differs across logging protocols")
	}
	// Logging must cost time over the baseline.
	none, ml, ccl := times[0], times[1], times[2]
	if ccl < none || ml < none {
		t.Fatalf("logging faster than baseline: none=%d ml=%d ccl=%d", none, ml, ccl)
	}
}

// sharingProg is a transpose-like workload: every iteration each node
// scatters small writes across its own pages and then reads one word from
// every remote page, so ML logs full fetched pages while CCL logs small
// diffs — the regime of the paper's Table 2.
func sharingProg(iters, pagesPerNode int) Program {
	return func(p *Proc) {
		ps := p.PageSize()
		myBase := p.ID() * pagesPerNode * ps
		p.Barrier(0)
		b := 1
		for it := 0; it < iters; it++ {
			for g := 0; g < pagesPerNode; g++ {
				// One word per owned page: tiny diffs.
				p.WriteI64(myBase+g*ps, int64(it+1))
			}
			p.Compute(50_000)
			p.Barrier(b)
			b++
			sum := int64(0)
			for node := 0; node < p.N(); node++ {
				if node == p.ID() {
					continue
				}
				for g := 0; g < pagesPerNode; g++ {
					sum += p.ReadI64(node*pagesPerNode*ps + g*ps)
				}
			}
			if sum != int64(it+1)*int64((p.N()-1)*pagesPerNode) {
				panic("stale remote reads")
			}
			p.Compute(50_000)
			p.Barrier(b)
			b++
		}
	}
}

func TestOverheadOrderingInPaperRegime(t *testing.T) {
	cfg := Config{Nodes: 4, PageSize: 4096, NumPages: 64, Protocol: wal.ProtocolNone}
	prog := sharingProg(6, 8)
	var times [3]int64
	for i, proto := range []wal.Protocol{wal.ProtocolNone, wal.ProtocolML, wal.ProtocolCCL} {
		cfg.Protocol = proto
		rep, err := Run(cfg, prog)
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		times[i] = int64(rep.ExecTime)
	}
	none, ml, ccl := times[0], times[1], times[2]
	if !(none <= ccl && ccl < ml) {
		t.Fatalf("overhead ordering broken: none=%d ccl=%d ml=%d", none, ccl, ml)
	}
}

func TestLogSizesCCLBelowML(t *testing.T) {
	repML, err := Run(testCfg(wal.ProtocolML), stencilProg(8))
	if err != nil {
		t.Fatal(err)
	}
	repCCL, err := Run(testCfg(wal.ProtocolCCL), stencilProg(8))
	if err != nil {
		t.Fatal(err)
	}
	if repCCL.TotalLogBytes == 0 || repML.TotalLogBytes == 0 {
		t.Fatal("no log bytes recorded")
	}
	if repCCL.TotalLogBytes >= repML.TotalLogBytes {
		t.Fatalf("CCL log (%d) not smaller than ML log (%d)", repCCL.TotalLogBytes, repML.TotalLogBytes)
	}
	if repML.MeanFlushBytes <= repCCL.MeanFlushBytes {
		t.Fatalf("ML mean flush (%f) not larger than CCL (%f)", repML.MeanFlushBytes, repCCL.MeanFlushBytes)
	}
	rep0, err := Run(testCfg(wal.ProtocolNone), stencilProg(8))
	if err != nil {
		t.Fatal(err)
	}
	if rep0.TotalLogBytes != 0 || rep0.TotalFlushes != 0 {
		t.Fatal("baseline logged data")
	}
}

func TestRunWithCrashCCLBarrierApp(t *testing.T) {
	prog := stencilProg(8)
	golden, err := Run(testCfg(wal.ProtocolCCL), prog)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunWithCrash(testCfg(wal.ProtocolCCL), prog, CrashPlan{
		Victim: 2, AtOp: 5, Recovery: recovery.CCLRecovery,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovery == nil || rep.Recovery.CrashOp < 5 {
		t.Fatalf("recovery report: %+v", rep.Recovery)
	}
	if rep.Recovery.ReplayTime <= 0 {
		t.Fatal("no replay time recorded")
	}
	if !bytes.Equal(golden.MemoryImage(), rep.MemoryImage()) {
		t.Fatal("post-recovery memory differs from failure-free run")
	}
}

func TestRunWithCrashMLBarrierApp(t *testing.T) {
	prog := stencilProg(8)
	golden, err := Run(testCfg(wal.ProtocolML), prog)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunWithCrash(testCfg(wal.ProtocolML), prog, CrashPlan{
		Victim: 1, AtOp: 5, Recovery: recovery.MLRecovery,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden.MemoryImage(), rep.MemoryImage()) {
		t.Fatal("post-recovery memory differs from failure-free run")
	}
}

func TestRunWithCrashLockApp(t *testing.T) {
	prog := lockProg(6)
	for _, tc := range []struct {
		proto wal.Protocol
		kind  recovery.Kind
	}{
		{wal.ProtocolCCL, recovery.CCLRecovery},
		{wal.ProtocolML, recovery.MLRecovery},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			golden, err := Run(testCfg(tc.proto), prog)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := RunWithCrash(testCfg(tc.proto), prog, CrashPlan{
				Victim: 3, AtOp: 8, Recovery: tc.kind,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(golden.MemoryImage(), rep.MemoryImage()) {
				t.Fatal("post-recovery memory differs from failure-free run")
			}
			// Counter values must be exact: 4 nodes x 6 rounds.
			img := rep.MemoryImage()
			c1 := int64(0)
			for i := 0; i < 8; i++ {
				c1 |= int64(img[i]) << (8 * i)
			}
			if c1 != 24 {
				t.Fatalf("counter = %d, want 24", c1)
			}
		})
	}
}

func TestCrashAtEveryBarrier(t *testing.T) {
	// Sweep the crash point across the run: recovery must be correct at
	// any release/barrier, not only a hand-picked one.
	prog := stencilProg(6)
	golden, err := Run(testCfg(wal.ProtocolCCL), prog)
	if err != nil {
		t.Fatal(err)
	}
	for at := int32(1); at <= 6; at++ {
		rep, err := RunWithCrash(testCfg(wal.ProtocolCCL), prog, CrashPlan{
			Victim: 1, AtOp: at, Recovery: recovery.CCLRecovery,
		})
		if err != nil {
			t.Fatalf("crash at op %d: %v", at, err)
		}
		if !bytes.Equal(golden.MemoryImage(), rep.MemoryImage()) {
			t.Fatalf("crash at op %d: memory mismatch", at)
		}
	}
}

func TestRecoveryFasterThanExecution(t *testing.T) {
	// The headline Figure 5 property: replaying the victim is much
	// cheaper than executing, because synchronization waits, page-fault
	// round trips and (for CCL) log volume vanish.
	prog := stencilProg(10)
	base, err := Run(testCfg(wal.ProtocolCCL), prog)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunWithCrash(testCfg(wal.ProtocolCCL), prog, CrashPlan{
		Victim: 2, AtOp: 10, Recovery: recovery.CCLRecovery,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovery.ReplayTime >= base.ExecTime {
		t.Fatalf("CCL replay (%v) not faster than execution (%v)", rep.Recovery.ReplayTime, base.ExecTime)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Nodes: 0, PageSize: 512, NumPages: 4},
		{Nodes: 2, PageSize: 511, NumPages: 4},
		{Nodes: 2, PageSize: 512, NumPages: 0},
		{Nodes: 2, PageSize: 512, NumPages: 4, Homes: []int{0}},
		{Nodes: 2, PageSize: 512, NumPages: 2, Homes: []int{0, 5}},
		{Nodes: 2, PageSize: 512, NumPages: 2, Faults: fault.Plan{DropProb: 1.5}},
		{Nodes: 2, PageSize: 512, NumPages: 2, Faults: fault.Plan{DupProb: -0.1}},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg, func(*Proc) {}); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
}

// TestCrashPlanValidation exercises every rejection path of
// CrashPlan.validate, one case per path, and checks the error names the
// actual problem.
func TestCrashPlanValidation(t *testing.T) {
	cfg := testCfg(wal.ProtocolCCL)
	prog := stencilProg(2)
	cases := []struct {
		name    string
		cfg     Config
		plan    CrashPlan
		errWant string
	}{
		{"ML recovery on CCL log", cfg,
			CrashPlan{Victim: 1, AtOp: 1, Recovery: recovery.MLRecovery}, "ML-recovery needs"},
		{"CCL recovery on ML log", testCfg(wal.ProtocolML),
			CrashPlan{Victim: 1, AtOp: 1, Recovery: recovery.CCLRecovery}, "CCL-recovery needs"},
		{"re-execution unsupported", cfg,
			CrashPlan{Victim: 1, AtOp: 1, Recovery: recovery.ReExecution}, "ML- and CCL-recovery"},
		{"negative crash op", cfg,
			CrashPlan{Victim: 1, AtOp: -1, Recovery: recovery.CCLRecovery}, "negative"},
		{"victim above range", cfg,
			CrashPlan{Victim: 9, AtOp: 1, Recovery: recovery.CCLRecovery}, "invalid victim"},
		{"victim below range", cfg,
			CrashPlan{Victim: -1, AtOp: 1, Recovery: recovery.CCLRecovery}, "invalid victim"},
		{"victim hosts lock manager", cfg,
			CrashPlan{Victim: 0, AtOp: 1, Recovery: recovery.CCLRecovery}, "hosts a manager"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunWithCrash(tc.cfg, prog, tc.plan)
			if err == nil {
				t.Fatal("plan accepted")
			}
			if !strings.Contains(err.Error(), tc.errWant) {
				t.Fatalf("error %q does not mention %q", err, tc.errWant)
			}
		})
	}
}

func TestHomesPolicies(t *testing.T) {
	bh := BlockHomes(10, 3)
	if bh[0] != 0 || bh[9] != 2 {
		t.Fatalf("BlockHomes = %v", bh)
	}
	rr := RoundRobinHomes(5, 2)
	if fmt.Sprint(rr) != "[0 1 0 1 0]" {
		t.Fatalf("RoundRobinHomes = %v", rr)
	}
	// A run with round-robin homes still computes the same image.
	cfg := testCfg(wal.ProtocolCCL)
	cfg.Homes = RoundRobinHomes(cfg.NumPages, cfg.Nodes)
	rep, err := Run(cfg, stencilProg(4))
	if err != nil {
		t.Fatal(err)
	}
	repBlock, err := Run(testCfg(wal.ProtocolCCL), stencilProg(4))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep.MemoryImage(), repBlock.MemoryImage()) {
		t.Fatal("home placement changed program results")
	}
}

func TestExecTimeStableAcrossRuns(t *testing.T) {
	// Asynchronous update arrival order can shift which flush carries an
	// event record (exactly as on a real cluster), so virtual times carry
	// a small jitter; they must still be stable within a tolerance.
	r1, err := Run(testCfg(wal.ProtocolCCL), stencilProg(5))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(testCfg(wal.ProtocolCCL), stencilProg(5))
	if err != nil {
		t.Fatal(err)
	}
	a, b := float64(r1.ExecTime), float64(r2.ExecTime)
	if diff := (a - b) / a; diff > 0.2 || diff < -0.2 {
		t.Fatalf("exec time unstable: %v vs %v", r1.ExecTime, r2.ExecTime)
	}
}

func TestAppPanicPropagates(t *testing.T) {
	_, err := Run(testCfg(wal.ProtocolNone), func(p *Proc) {
		if p.ID() == 1 {
			panic("app bug")
		}
		// Other nodes must not hang forever: with no barrier, they just
		// finish.
	})
	if err == nil {
		t.Fatal("app panic swallowed")
	}
}

// TestFenceSkipsFinishedPeers runs a lock-only CCL program with no final
// barrier: node 2 keeps taking lock 1 long after the other nodes' programs
// have returned. A returned node's clock never moves again, so an arrival
// fence that waited for it to pass the cutoff would never come back; it
// sends nothing more, so the fence skips it. Same-seed runs must also
// replay exactly, the finished peers' early exit included.
func TestFenceSkipsFinishedPeers(t *testing.T) {
	prog := func(p *Proc) {
		rounds := 1
		if p.ID() == 2 {
			rounds = 40
		}
		for r := 0; r < rounds; r++ {
			p.AcquireLock(1)
			p.WriteI64(8, p.ReadI64(8)+1)
			p.ReleaseLock(1)
			p.Compute(20000)
		}
	}
	type outcome struct {
		exec          simtime.Time
		logs, flushes int64
	}
	run := func() outcome {
		t.Helper()
		done := make(chan *Report, 1)
		go func() {
			rep, err := Run(testCfg(wal.ProtocolCCL), prog)
			if err != nil {
				t.Error(err)
			}
			done <- rep
		}()
		select {
		case rep := <-done:
			if rep == nil {
				t.FailNow()
			}
			if got := binary.LittleEndian.Uint64(rep.MemoryImage()[8:]); got != 43 {
				t.Fatalf("lock counter = %d, want 43", got)
			}
			return outcome{rep.ExecTime, rep.TotalLogBytes, rep.TotalFlushes}
		case <-time.After(30 * time.Second):
			t.Fatal("run hung: a fence waited on a peer whose program had returned")
		}
		return outcome{}
	}
	first := run()
	for i := 0; i < 4; i++ {
		if got := run(); got != first {
			t.Fatalf("same-seed runs differ: %+v vs %+v", got, first)
		}
	}
}
