package core

import (
	"bytes"
	"sync"
	"testing"

	"sdsm/internal/fault"
	"sdsm/internal/recovery"
	"sdsm/internal/wal"
)

// lateServeRounds is the number of lock rounds in lateServeProg.
const lateServeRounds = 4

// lateServeCfg runs lateServeProg: three nodes, page 0 homed at node 0
// (which also hosts both managers).
func lateServeCfg() Config {
	return Config{
		Nodes: 3, PageSize: 512, NumPages: 4, Homes: []int{0, 1, 2, 2},
		Protocol: wal.ProtocolCCL,
	}
}

// lateServeProg is a data-race-free program whose home page is first
// served late. Node 0 homes page 0 and writes it over three barrier
// intervals that nobody reads. Node 1 then faults the page in while node 0
// has an interval open on it (a real-time hand-off orders the two, since
// no synchronization op may close that interval), and node 0 writes the
// page again in the same interval after the serve. From then on, each
// round node 0 (a home self-write) and node 2 (a remote diff) update their
// words of the page under their own locks, and after a barrier node 1
// reads both words and writes a word of its own under its lock, then
// writes what it has read so far under a second acquire of it. Node 1
// folds everything it read into acc and writes acc last, so a recovered
// node 1 that read a wrong version of the page leaves a wrong image.
//
// Every call returns a fresh program: the hand-off channels belong to one
// run. A replaying node 1 finds them already closed.
func lateServeProg() Program {
	opened, fetched := make(chan struct{}), make(chan struct{})
	var fetchedOnce sync.Once
	return func(p *Proc) {
		slot := func(i int) int { return 8 * i }
		b := 0
		barrier := func() { p.Barrier(b); b++ }
		for i := 0; i < 3; i++ {
			if p.ID() == 0 {
				p.WriteI64(slot(i), int64(100+i))
			}
			barrier()
		}
		var acc int64
		switch p.ID() {
		case 0:
			p.WriteI64(slot(8), 200) // opens an interval before the first serve
			close(opened)
			<-fetched
			p.WriteI64(slot(9), 201) // same interval, after the serve
		case 1:
			<-opened
			for i := 0; i < 3; i++ {
				acc += p.ReadI64(slot(i))
			}
			fetchedOnce.Do(func() { close(fetched) })
		}
		barrier()
		for r := 0; r < lateServeRounds; r++ {
			if p.ID() != 1 {
				w := slot(16 + p.ID()/2)
				p.AcquireLock(p.ID())
				p.WriteI64(w, p.ReadI64(w)+int64(10*(r+1)+p.ID()))
				p.ReleaseLock(p.ID())
			}
			barrier()
			if p.ID() == 1 {
				p.AcquireLock(1)
				v := 3*p.ReadI64(slot(16)) + p.ReadI64(slot(17))
				acc = 7*acc + v
				p.WriteI64(slot(24+r), v)
				p.ReleaseLock(1)
				p.AcquireLock(1)
				p.WriteI64(slot(32+r), acc)
				p.ReleaseLock(1)
			}
			barrier()
		}
		if p.ID() == 1 {
			p.WriteI64(slot(40), acc)
		}
		barrier()
	}
}

// lateServeOps is node 1's sync-op count in lateServeProg: four barriers
// before the rounds, then per round a barrier, two acquire/release pairs
// and a barrier, then the final barrier.
const lateServeOps = 4 + 6*lateServeRounds + 1

// lateServeSecondRelease is node 1's second lock release in round r.
func lateServeSecondRelease(r int) int32 { return int32(4 + 6*r + 4) }

// A home page first served late keeps undo history only from that serve
// on, and recovery is still exact: node 1 crashes at every sync op
// (quiescent) and at each round's second lock release (holding the lock),
// is recovered offline by CCL-recovery, and every image equals the
// failure-free one. (A holding-lock crash at the first release loses the
// barrier's write notices, which CCL has not flushed yet: ROADMAP item
// 2d, independent of the undo history.)
// The replayed reads of early rounds need the page rolled back through
// later rounds' self-write and remote entries, so a home that kept no
// history, or dropped the entries recorded after the serve, fails here.
func TestLateFirstServeRecovery(t *testing.T) {
	golden, err := Run(lateServeCfg(), lateServeProg())
	if err != nil {
		t.Fatal(err)
	}
	if got := golden.NodeOps[1]; got != lateServeOps {
		t.Fatalf("node 1 ran %d sync ops, want %d", got, lateServeOps)
	}
	crash := func(at int32, point fault.CrashPoint) {
		t.Helper()
		plan := CrashPlan{Victim: 1, AtOp: at, Recovery: recovery.CCLRecovery}
		cfg := lateServeCfg()
		cfg.HomeUndo = true // as RunWithCrash sets it for CCL-recovery
		rep, err := runWithOutage(cfg, lateServeProg(),
			ChurnPlan{Victim: plan.Victim, AtOp: plan.AtOp, Point: point, Recovery: plan.Recovery}, plan.validate)
		if err != nil {
			t.Fatalf("%v crash at op %d: %v", point, at, err)
		}
		if !bytes.Equal(golden.MemoryImage(), rep.MemoryImage()) {
			t.Errorf("%v crash at op %d: recovered image differs from the failure-free one", point, at)
		}
	}
	for at := int32(0); at < lateServeOps; at++ {
		crash(at, fault.PointSyncExit)
	}
	for r := 0; r < lateServeRounds; r++ {
		crash(lateServeSecondRelease(r), fault.PointHoldingLock)
	}
}
