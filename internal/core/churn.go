package core

import (
	"fmt"
	"math"
	"slices"

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
}

// validate checks the plan against a defaults-resolved config. All
// RunWithChurn rejection paths live here.
func (p ChurnPlan) validate(cfg Config) error {
	// Custody rebuilds at the adopter read the writers' own-diff logs, which
	// only the CCL protocol keeps: ML cannot recover online.
	if p.Recovery != recovery.CCLRecovery {
		return fmt.Errorf("core: online recovery requires CCL-recovery (custody rebuilds read the writers' own-diff logs), not %v", p.Recovery)
	}
	if cfg.Protocol != wal.ProtocolCCL {
		return fmt.Errorf("core: online recovery needs the CCL logging protocol")
	}
	if !p.Point.Valid() {
		return fmt.Errorf("core: invalid crash point %d", int(p.Point))
	}
	// Without a lease nobody ever declares the victim dead: that is
	// RunWithCrash.
	if p.LeaseDuration <= 0 {
		return fmt.Errorf("core: online recovery needs a positive LeaseDuration, got %d", p.LeaseDuration)
	}
	if p.RestartDelay < 0 {
		return fmt.Errorf("core: RestartDelay must be non-negative, got %d", p.RestartDelay)
	}
	if err := validateVictim(cfg, p.Victim, p.AtOp); err != nil {
		return err
	}
	if p.PartitionFor > 0 {
		// A window the lease outlasts heals before anyone notices: no death
		// declaration, no fence, nothing to rejoin from.
		if p.PartitionFor <= p.LeaseDuration {
			return fmt.Errorf("core: PartitionFor (%v) must exceed LeaseDuration (%v): the wrong death declaration has to land inside the partition window", p.PartitionFor, p.LeaseDuration)
		}
	}
	// The dirty-home point dies with a home page dirty, so the victim must
	// be home to some page (hlrc asserts the page is in fact dirty).
	if p.Point == fault.PointDirtyHome && !slices.Contains(cfg.Homes, p.Victim) {
		return fmt.Errorf("core: %v crash point but victim %d is home to no page", p.Point, p.Victim)
	}
	return nil
}

// RunWithChurn executes prog, brings the victim down per plan, and
// recovers it online: the surviving nodes keep executing (the victim's
// homes migrate to a successor, its locks are revoked at lease expiry),
// the recovered incarnation replays its log concurrently and rejoins at
// its next live synchronization point. Same-seed runs are deterministic in
// execution time, memory image, and catch-up time.
func RunWithChurn(cfg Config, prog Program, plan ChurnPlan) (*Report, error) {
	cfg.HomeUndo = true // versioned home fetches need the undo history
	return runWithOutage(cfg, prog, plan, plan.validate)
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
