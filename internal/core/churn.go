package core

import (
	"fmt"
	"math"

	"sdsm/internal/checkpoint"
	"sdsm/internal/fault"
	"sdsm/internal/hlrc"
	"sdsm/internal/memory"
	"sdsm/internal/recovery"
	"sdsm/internal/simtime"
	"sdsm/internal/wal"
)

// ChurnPlan injects a fail-stop crash and recovers the victim online:
// while the surviving cluster keeps executing, the victim's home pages
// migrate permanently to a deterministic successor, its locks are revoked
// after its lease expires, and its recovered incarnation replays the CCL
// log concurrently with forward progress, rejoining at the next barrier.
type ChurnPlan struct {
	// Victim is the node that crashes. It must not host a manager.
	Victim int
	// AtOp: the victim fail-stops at its first release or barrier whose
	// synchronization-op index is >= AtOp.
	AtOp int32
	// Point selects where, relative to that op, the fail-stop fires. The
	// zero value (PointSyncExit) is the quiescent Fig. 1(b) crash: after
	// the op's diffs are flushed, acknowledged and logged. PointHoldingLock
	// and PointDirtyHome fire at the op's entry instead — the victim dies
	// holding a lock (the manager must revoke it), its open interval
	// neither flushed nor logged (the replay re-executes it live).
	Point fault.CrashPoint
	// Recovery must be CCLRecovery: custody rebuilds at the adopter read
	// the writers' own-diff logs, which only the CCL protocol keeps.
	Recovery recovery.Kind
	// LeaseDuration is the virtual-clock lease on lock grants and barrier
	// releases; survivors act on the death only after it expires. Must be
	// positive.
	LeaseDuration simtime.Duration
	// RestartDelay is the virtual time between the crash and the recovered
	// incarnation starting its replay (reboot / redeploy time). The
	// replay clock starts at CrashTime + RestartDelay.
	RestartDelay simtime.Duration
	// PartitionFor, when positive, turns the injected fault into a
	// network partition instead of a fail-stop: at the crash point the
	// victim is cut off from every peer for this much virtual time while
	// staying up. Its lease expires inside the window, so the survivors
	// wrongly declare it dead, bump the membership epoch, and fail its
	// homes and locks over exactly as for a real death; when the window
	// heals, the victim's stale-epoch traffic is fenced (split-brain
	// prevention) and the runner re-admits it through the rejoin
	// protocol: membership re-admission at a fresh epoch, truncation of
	// the unacknowledged log suffix, concurrent replay, live catch-up.
	// Must exceed LeaseDuration — the wrong death declaration has to land
	// inside the window — and should stay well under the transport's
	// total retransmission budget (a few virtual seconds), which the
	// victim's in-window sends burn against the cut.
	PartitionFor simtime.Duration
	// Rejoin names the node the rejoin protocol re-admits after the
	// partition heals. Only meaningful with PartitionFor > 0, where it
	// must equal Victim: re-admitting a node that was never declared
	// dead is a plan error.
	Rejoin int
}

// validate checks the plan against a defaults-resolved config. All
// RunWithChurn rejection paths live here.
func (p ChurnPlan) validate(cfg Config) error {
	if p.Recovery != recovery.CCLRecovery {
		return fmt.Errorf("core: online recovery requires CCL-recovery (custody rebuilds read the writers' own-diff logs), not %v", p.Recovery)
	}
	if cfg.Protocol != wal.ProtocolCCL {
		return fmt.Errorf("core: online recovery needs the CCL logging protocol")
	}
	if !p.Point.Valid() {
		return fmt.Errorf("core: invalid crash point %d", int(p.Point))
	}
	if p.LeaseDuration <= 0 {
		return fmt.Errorf("core: online recovery needs a positive LeaseDuration, got %d", p.LeaseDuration)
	}
	if p.RestartDelay < 0 {
		return fmt.Errorf("core: RestartDelay must be non-negative, got %d", p.RestartDelay)
	}
	if p.AtOp < 0 {
		return fmt.Errorf("core: crash op %d is negative", p.AtOp)
	}
	if p.Victim < 0 || p.Victim >= cfg.Nodes {
		return fmt.Errorf("core: invalid victim %d", p.Victim)
	}
	if p.Victim == cfg.LockManagerNode || p.Victim == cfg.BarrierManagerNode {
		return fmt.Errorf("core: victim %d hosts a manager (outside the paper's failure model)", p.Victim)
	}
	if cfg.Nodes < 2 {
		return fmt.Errorf("core: online recovery needs a successor to adopt the victim's homes")
	}
	if p.PartitionFor > 0 {
		if p.PartitionFor <= p.LeaseDuration {
			return fmt.Errorf("core: PartitionFor (%v) must exceed LeaseDuration (%v): the wrong death declaration has to land inside the partition window", p.PartitionFor, p.LeaseDuration)
		}
		if p.Rejoin != p.Victim {
			return fmt.Errorf("core: rejoin of node %d, which never crashed (the partition victim is %d)", p.Rejoin, p.Victim)
		}
	}
	if p.Point == fault.PointDirtyHome {
		homesAny := false
		for _, h := range cfg.Homes {
			if h == p.Victim {
				homesAny = true
				break
			}
		}
		if !homesAny {
			return fmt.Errorf("core: %v crash point but victim %d is home to no page", p.Point, p.Victim)
		}
	}
	return nil
}

// RunWithChurn executes prog, crashes the victim per plan, and recovers
// it online: the surviving nodes keep executing (the victim's homes
// migrate to a successor, its locks are revoked at lease expiry), the
// recovered incarnation replays its log concurrently and rejoins at its
// next live synchronization point. Same-seed runs are deterministic in
// execution time, memory image, and catch-up time.
func RunWithChurn(cfg Config, prog Program, plan ChurnPlan) (*Report, error) {
	cfg.HomeUndo = true // versioned home fetches need the undo history
	cfg.SkipInitialCheckpoint = false
	cfg.LeaseDuration = plan.LeaseDuration
	c, err := buildCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer c.closeFabric()
	if err := plan.validate(c.cfg); err != nil {
		return nil, err
	}
	victim := c.nodes[plan.Victim]
	victim.CrashOp = plan.AtOp
	victim.CrashPoint = plan.Point
	victim.PartitionFor = plan.PartitionFor

	for _, nd := range c.nodes {
		nd.StartService()
	}
	recReport := &RecoveryReport{Victim: plan.Victim, Kind: plan.Recovery, Online: true, Partitioned: plan.PartitionFor > 0}
	victimCrashed := false
	// Unlike RunWithCrash, the survivors are never blocked on the victim's
	// recovery (leases unblock them), but a recovery failure still strands
	// them at the rejoin barrier; abort on the first error.
	type done struct {
		node int
		err  error
	}
	ch := make(chan done, c.cfg.Nodes)
	for i, nd := range c.nodes {
		go func(i int, nd *hlrc.Node) {
			crashed, fenced, err := runNode(nd, prog)
			if err == nil && fenced {
				if i != plan.Victim || plan.PartitionFor <= 0 {
					err = fmt.Errorf("node %d was fenced but no partition plan names it", i)
				} else {
					victimCrashed = true
					err = c.rejoinVictim(prog, plan, recReport)
				}
			}
			if err == nil && crashed {
				if i != plan.Victim || plan.PartitionFor > 0 {
					err = fmt.Errorf("node %d crashed but victim is %d", i, plan.Victim)
				} else {
					victimCrashed = true
					err = c.recoverVictimOnline(prog, plan, recReport)
				}
			}
			ch <- done{node: i, err: err}
		}(i, nd)
	}
	for remaining := c.cfg.Nodes; remaining > 0; remaining-- {
		d := <-ch
		if d.err != nil {
			return nil, fmt.Errorf("core: node %d: %w", d.node, d.err)
		}
	}
	for _, nd := range c.nodes {
		nd.StopService()
	}
	if !victimCrashed {
		return nil, fmt.Errorf("core: victim %d never reached crash op %d (program has fewer sync ops)", plan.Victim, plan.AtOp)
	}
	rep := c.report()
	rep.Recovery = recReport
	if err := c.assembleMigratedImage(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// recoverVictimOnline rebuilds the crashed node and replays it while the
// cluster keeps running. It runs on the victim's (former) application
// goroutine, concurrently with the survivors'.
func (c *cluster) recoverVictimOnline(prog Program, plan ChurnPlan, out *RecoveryReport) error {
	old := c.nodes[plan.Victim]
	old.StopService() // already stopped by the fail-stop; idempotent
	crashOp := old.CrashedAtOp()
	if crashOp < 0 {
		return fmt.Errorf("core: victim %d has no recorded crash op", plan.Victim)
	}
	out.CrashOp = crashOp
	tc, ever := c.nw.EverCrashed(plan.Victim)
	if !ever {
		return fmt.Errorf("core: victim %d crashed but is not in the liveness registry", plan.Victim)
	}
	out.CrashTime = tc
	out.DeclareTime = tc + simtime.Time(plan.LeaseDuration)
	restart := tc + simtime.Time(plan.RestartDelay)
	out.RestartTime = restart

	// New incarnation: volatile state gone, stable store and network
	// attachment survive. The replay clock starts at the restart time —
	// the survivors' clocks kept running — and the victim's former home
	// pages stay migrated at the successor for the rest of the run.
	store := c.depot.Store(plan.Victim)
	nd := c.newIncarnation(plan.Victim, c.stats[plan.Victim], simtime.NewClock(restart))
	c.nodes[plan.Victim] = nd
	if _, ok := checkpoint.RestoreInitial(nd, store); !ok {
		return fmt.Errorf("core: victim %d has no checkpoint", plan.Victim)
	}
	rep := recovery.NewReplayer(plan.Recovery, store, crashOp, *c.cfg.Model)
	rep.EnableOnline(restart)
	if plan.Point != fault.PointSyncExit {
		rep.ReexecuteCrashOp(nd)
	}
	rep.OnDetach = func() {
		// Resume live operation: the service loop drains everything that
		// queued while the node was down (pre-crash requests for its former
		// homes are answered with redirects to the successor).
		nd.StartService()
	}
	nd.SetDelegate(rep)

	crashed, fenced, err := runNode(nd, prog)
	if err != nil {
		return err
	}
	if crashed || fenced {
		return fmt.Errorf("core: victim %d crashed again during recovery", plan.Victim)
	}
	if !rep.Detached() {
		return fmt.Errorf("core: victim %d finished without completing replay", plan.Victim)
	}
	out.ReplayTime = rep.ReplayTime()
	out.RejoinTime = restart + rep.ReplayTime()
	out.Phases = rep.Phases()
	return nil
}

// rejoinVictim re-admits a node that was wrongly declared dead while
// merely partitioned. The stale incarnation just unwound with ErrFenced:
// its post-onset work never landed anywhere (cut inside the window,
// fenced after the heal), but it kept logging locally, so the rejoin
// protocol (1) stops the stale service loop, (2) re-admits the node into
// the membership at a fresh epoch — everything the new incarnation sends
// is now fence-proof while the buried incarnation's leftovers stay
// fenceable forever, (3) truncates the unacknowledged log suffix the
// stale incarnation wrote, and (4) rebuilds the node and replays it
// concurrently with the surviving cluster exactly like online crash
// recovery, re-executing the onset op live (it never completed
// cluster-visibly) and resuming service at detach. The victim's former
// homes stay migrated at their adopters — permanent migration keeps
// routing decisions stable, so a rejoin changes membership, never page
// custody.
func (c *cluster) rejoinVictim(prog Program, plan ChurnPlan, out *RecoveryReport) error {
	old := c.nodes[plan.Victim]
	old.StopService()
	crashOp := old.CrashedAtOp()
	if crashOp < 0 {
		return fmt.Errorf("core: victim %d has no recorded partition-onset op", plan.Victim)
	}
	out.CrashOp = crashOp
	tc, ever := c.nw.EverCrashed(plan.Victim)
	if !ever {
		return fmt.Errorf("core: victim %d was fenced but is not in the liveness registry", plan.Victim)
	}
	out.CrashTime = tc
	out.DeclareTime = tc + simtime.Time(plan.LeaseDuration)
	out.HealTime = tc + simtime.Time(plan.PartitionFor)
	// The stale incarnation's clock at the fence carries every
	// retransmission timeout it burned against the cut; the node was up
	// the whole time, so the "restart" is just the re-admission delay.
	fencedAt := old.Clock().Now()
	out.FencedTime = fencedAt
	restart := fencedAt + simtime.Time(plan.RestartDelay)
	out.RestartTime = restart

	// Membership re-admission: epoch bump past the death epoch. The new
	// incarnation's view starts at the rejoin epoch, so nothing it sends
	// can be fenced, while DeathEpoch keeps fencing whatever the buried
	// incarnation still has in flight.
	out.RejoinEpoch = c.nw.Rejoin(plan.Victim)
	c.stats[plan.Victim].EpochBumps.Add(1)

	store := c.depot.Store(plan.Victim)
	out.TruncatedRecords = store.TruncateFromOp(crashOp)

	nd := c.newIncarnation(plan.Victim, c.stats[plan.Victim], simtime.NewClock(restart))
	c.nodes[plan.Victim] = nd
	if _, ok := checkpoint.RestoreInitial(nd, store); !ok {
		return fmt.Errorf("core: victim %d has no checkpoint", plan.Victim)
	}
	rep := recovery.NewReplayer(plan.Recovery, store, crashOp, *c.cfg.Model)
	rep.EnableOnline(restart)
	// The onset op never completed cluster-visibly — its diffs were cut
	// or fenced and its log record was truncated above — so it is always
	// re-executed live, whatever the crash point.
	rep.ReexecuteCrashOp(nd)
	rep.OnDetach = func() {
		c.stats[plan.Victim].RejoinPhases.Add(1) // catch-up done, serving live
		nd.StartService()
	}
	nd.SetDelegate(rep)
	c.stats[plan.Victim].RejoinPhases.Add(1) // replay phase entered

	crashed, fenced, err := runNode(nd, prog)
	if err != nil {
		return err
	}
	if fenced {
		return fmt.Errorf("core: victim %d was fenced again after rejoining at epoch %d", plan.Victim, out.RejoinEpoch)
	}
	if crashed {
		return fmt.Errorf("core: victim %d crashed during rejoin", plan.Victim)
	}
	if !rep.Detached() {
		return fmt.Errorf("core: victim %d finished without completing rejoin replay", plan.Victim)
	}
	// Availability: sync ops the re-admitted node completed live, inside
	// the benchmark window, after the onset op (everything past crashOp
	// ran against the healed cluster, not from the log).
	c.stats[plan.Victim].RejoinServed.Add(int64(nd.OpIndex() - crashOp))
	out.ReplayTime = rep.ReplayTime()
	out.RejoinTime = restart + rep.ReplayTime()
	out.Phases = rep.Phases()
	return nil
}

// assembleMigratedImage overwrites the migrated pages of the report's
// memory image with their authoritative content. A migrated page's static
// home holds a stale (pre-crash, partially replayed) copy and its adopter
// holds no materialized copy at all, so the final content is assembled
// offline from every writer's own-diff log plus the adopter's custody
// record — the same entry set a custody rebuild would use, unbounded.
func (c *cluster) assembleMigratedImage(rep *Report) error {
	adopted := make(map[memory.PageID][]hlrc.AdoptedDiff)
	for _, nd := range c.nodes {
		st := nd.AdoptedState()
		rep.AdoptedPages = append(rep.AdoptedPages, st...)
		for _, s := range st {
			adopted[s.Page] = append(adopted[s.Page], s.Applied...)
		}
	}
	for p := 0; p < c.cfg.NumPages; p++ {
		if _, ever := c.nw.EverCrashed(c.cfg.Homes[p]); !ever {
			continue
		}
		pg := memory.PageID(p)
		var diffs []hlrc.AdoptedDiff
		for w := 0; w < c.cfg.Nodes; w++ {
			diffs = append(diffs, recovery.LoggedDiffs(c.depot.Store(w), int32(w), pg, 0, math.MaxInt32)...)
		}
		diffs = append(diffs, adopted[pg]...)
		data, _, err := hlrc.RebuildAdoptedImage(c.cfg.PageSize, diffs)
		if err != nil {
			return fmt.Errorf("core: assembling migrated page %d: %w", p, err)
		}
		rep.frames[p] = data
	}
	return nil
}
