package bench

import (
	"fmt"
	"strings"

	"sdsm/internal/core"
	"sdsm/internal/fault"
	"sdsm/internal/logview"
	"sdsm/internal/recovery"
	"sdsm/internal/simtime"
	"sdsm/internal/wal"
)

// The churn benchmark measures what the offline recovery experiments
// cannot: forward progress while a node is dead. A lock-phase workload
// keeps the survivors busy on pages they own under per-node locks, so
// the victim's death never blocks them — any read of data the victim
// wrote last would stall until its replay resupplies the crashed
// interval's diff (the correct protocol behavior, exercised by the core
// churn tests), which is why a shared counter has no place in the
// measured rounds. A final barrier gates all cross-region access until
// the victim has replayed its log and rejoined. Reported per
// configuration: the surviving cluster's throughput inside the
// [crash, rejoin] window, and the recovering node's catch-up time.

// ChurnRounds is the lock-phase length of the churn workload.
const ChurnRounds = 60

// churnCrashRound is the victim round whose lock release hosts the
// crash (sync ops: barrier, then acquire/release pairs).
const churnCrashRound = 20

// ChurnRow is one churn configuration's measurement.
type ChurnRow struct {
	Point        fault.CrashPoint
	LeaseMs      float64
	RestartMs    float64
	PartitionMs  float64 // 0: fail-stop; >0: partition window, node rejoins
	CrashSec     float64 // victim clock at the fail-stop / partition onset
	DeclareSec   float64 // lease expiry: survivors may act on the death
	RejoinSec    float64 // victim resumes live operation
	CatchUpSec   float64 // replay duration (RejoinSec - restart)
	ExecSec      float64 // slowest node at completion
	BaselineSec  float64 // same workload, no crash, leases off
	OverheadPct  float64 // ExecSec over BaselineSec
	SurvivorOps  int     // survivor rounds finished in (crash, rejoin]
	SurvivorRate float64 // SurvivorOps per second of down window
	Adoptions    int64
	Revocations  int64
	Redirects    int64
	AdoptedDiffs int64
	LeaseWaits   int64
	// TailOps counts the victim's sync ops replayed from the managers'
	// sender logs (a torn or multi-stream log tail); 0 on an intact
	// single-stream log.
	TailOps int
	// Partition-rejoin cells only (zero on fail-stop rows):
	FencedMsgs    int64   // stale-epoch messages survivors fenced post-heal
	EpochBumps    int64   // membership-epoch adoptions across the cluster
	TruncatedRecs int     // stale log records discarded at rejoin
	VictimServed  int64   // sync ops the rejoined node completed live
	AvailablePct  float64 // VictimServed over the victim's total sync ops
}

// churnWorkload builds the gated lock-phase program. stamps[node][round]
// receives the node's virtual clock after each finished round; rows are
// written only by that node's goroutine.
func churnWorkload(stamps [][]simtime.Time) core.Program {
	return func(p *core.Proc) {
		ps := p.PageSize()
		n := p.N()
		per := p.MemBytes() / ps / n
		myBase := p.ID() * per * ps
		p.WriteI64(myBase, int64(p.ID()+1))
		p.Barrier(0)
		for r := 0; r < ChurnRounds; r++ {
			lock := 1 + p.ID() // per-node lock: survivors never wait on the victim
			p.AcquireLock(lock)
			p.WriteI64(myBase+ps+8*(r%64), int64(r+1))
			p.ReleaseLock(lock)
			p.Compute(30_000)
			stamps[p.ID()][r] = p.Now()
		}
		p.Barrier(1) // the victim rejoins here; gates cross-region access
		sum := int64(0)
		for w := 0; w < n; w++ {
			sum += p.ReadI64(w * per * ps)
		}
		p.WriteI64(myBase+2*ps, sum)
		// Every node signs a private slot on a migrated page (the victim's
		// region): these post-rejoin diffs land in the adopter's custody
		// record, giving the adopted-home audit survivor-written entries to
		// match against the writers' own logs.
		p.WriteI64((n-1)*per*ps+3*ps+8*p.ID(), int64(p.ID()+1))
		p.Barrier(2)
	}
}

func churnConfig(nodes int) core.Config {
	return core.Config{
		Nodes:    nodes,
		PageSize: 1024,
		NumPages: nodes * 8,
		Protocol: wal.ProtocolCCL,
	}
}

// RunChurnScenario runs the churn workload once at the given crash
// point (the sweep's lease, a 10 ms restart, victim nodes-1) and
// returns the full report, custody state included. sdsminspect's
// adopted-home audit drives it.
func RunChurnScenario(nodes int, point fault.CrashPoint) (*core.Report, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("bench: churn needs at least 2 nodes, got %d", nodes)
	}
	stamps := make([][]simtime.Time, nodes)
	for i := range stamps {
		stamps[i] = make([]simtime.Time, ChurnRounds)
	}
	plan := core.ChurnPlan{
		Victim:        nodes - 1,
		AtOp:          2 * churnCrashRound,
		Point:         point,
		Recovery:      recovery.CCLRecovery,
		LeaseDuration: simtime.Duration(churnLeaseMs * 1e6),
		RestartDelay:  simtime.Duration(10 * 1e6),
	}
	return core.RunWithChurn(churnConfig(nodes), churnWorkload(stamps), plan)
}

// RunChurnPartitionScenario runs the churn workload with a partition
// instead of a fail-stop: the victim is cut off for partitionMs, wrongly
// declared dead inside the window, fenced after the heal, and re-admitted
// through the rejoin protocol. sdsminspect's adopted-home audit drives it
// alongside the fail-stop scenarios.
func RunChurnPartitionScenario(nodes int, partitionMs float64) (*core.Report, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("bench: churn needs at least 2 nodes, got %d", nodes)
	}
	stamps := make([][]simtime.Time, nodes)
	for i := range stamps {
		stamps[i] = make([]simtime.Time, ChurnRounds)
	}
	plan := core.ChurnPlan{
		Victim:        nodes - 1,
		AtOp:          2 * churnCrashRound,
		Recovery:      recovery.CCLRecovery,
		LeaseDuration: simtime.Duration(churnLeaseMs * 1e6),
		RestartDelay:  simtime.Duration(10 * 1e6),
		PartitionFor:  simtime.Duration(partitionMs * 1e6),
	}
	return core.RunWithChurn(churnConfig(nodes), churnWorkload(stamps), plan)
}

// ChurnPoints are the swept crash points.
var ChurnPoints = []fault.CrashPoint{fault.PointSyncExit, fault.PointHoldingLock, fault.PointDirtyHome}

// ChurnRestartsMs are the swept restart delays (reboot time) in
// virtual milliseconds.
var ChurnRestartsMs = []float64{10, 40}

// ChurnPartitionsMs are the swept partition-window lengths (virtual
// milliseconds) for the rejoin cells. Each must exceed the lease — the
// wrong death declaration has to land inside the window — and stay well
// under the transport's retransmission budget of a few virtual seconds.
var ChurnPartitionsMs = []float64{20, 60}

// churnLeaseMs is the lease duration used by every sweep point.
const churnLeaseMs = 3.0

// RunChurnBench sweeps crash points and restart delays over the churn
// workload. Every run's stable logs are passed through the consistency
// auditor — an online recovery that leaves an inconsistent log is a
// correctness bug regardless of its timings.
func RunChurnBench(nodes int) ([]ChurnRow, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("bench: churn needs at least 2 nodes, got %d", nodes)
	}
	victim := nodes - 1

	baseStamps := make([][]simtime.Time, nodes)
	for i := range baseStamps {
		baseStamps[i] = make([]simtime.Time, ChurnRounds)
	}
	baseRep, err := core.Run(churnConfig(nodes), churnWorkload(baseStamps))
	if err != nil {
		return nil, fmt.Errorf("bench: churn baseline: %w", err)
	}
	baseSec := baseRep.ExecTime.Seconds()

	var rows []ChurnRow
	for _, point := range ChurnPoints {
		for _, restartMs := range ChurnRestartsMs {
			stamps := make([][]simtime.Time, nodes)
			for i := range stamps {
				stamps[i] = make([]simtime.Time, ChurnRounds)
			}
			plan := core.ChurnPlan{
				Victim:        victim,
				AtOp:          2 * churnCrashRound, // the release of round churnCrashRound-1
				Point:         point,
				Recovery:      recovery.CCLRecovery,
				LeaseDuration: simtime.Duration(churnLeaseMs * 1e6),
				RestartDelay:  simtime.Duration(restartMs * 1e6),
			}
			rep, err := core.RunWithChurn(churnConfig(nodes), churnWorkload(stamps), plan)
			if err != nil {
				return nil, fmt.Errorf("bench: churn %v restart %gms: %w", point, restartMs, err)
			}
			if _, err := logview.Audit(rep.Depot, logview.AuditOptions{}); err != nil {
				return nil, fmt.Errorf("bench: churn %v restart %gms: log audit: %w", point, restartMs, err)
			}
			rec := rep.Recovery
			row := ChurnRow{
				Point:       point,
				LeaseMs:     churnLeaseMs,
				RestartMs:   restartMs,
				CrashSec:    rec.CrashTime.Seconds(),
				DeclareSec:  rec.DeclareTime.Seconds(),
				RejoinSec:   rec.RejoinTime.Seconds(),
				CatchUpSec:  rec.ReplayTime.Seconds(),
				ExecSec:     rep.ExecTime.Seconds(),
				BaselineSec: baseSec,
				OverheadPct: (rep.ExecTime.Seconds()/baseSec - 1) * 100,
				TailOps:     rec.TailOps,
			}
			for id, nodeStamps := range stamps {
				if id == victim {
					continue
				}
				for _, at := range nodeStamps {
					if at > rec.CrashTime && at <= rec.RejoinTime {
						row.SurvivorOps++
					}
				}
			}
			if window := rec.RejoinTime - rec.CrashTime; window > 0 {
				row.SurvivorRate = float64(row.SurvivorOps) / window.Seconds()
			}
			for _, s := range rep.Stats {
				row.Adoptions += s.HomeAdoptions
				row.Revocations += s.LockRevocations
				row.Redirects += s.RedirectedCalls
				row.AdoptedDiffs += s.AdoptedDiffs
				row.LeaseWaits += s.LeaseWaitsServed
			}
			rows = append(rows, row)
		}
	}
	// Partition-rejoin cells: the same workload, but the victim is merely
	// cut off and re-admitted after the heal. Availability is the fraction
	// of the victim's sync ops it served live (everything past the onset
	// op ran against the healed cluster, not from the log).
	for _, partMs := range ChurnPartitionsMs {
		stamps := make([][]simtime.Time, nodes)
		for i := range stamps {
			stamps[i] = make([]simtime.Time, ChurnRounds)
		}
		plan := core.ChurnPlan{
			Victim:        victim,
			AtOp:          2 * churnCrashRound,
			Recovery:      recovery.CCLRecovery,
			LeaseDuration: simtime.Duration(churnLeaseMs * 1e6),
			RestartDelay:  simtime.Duration(10 * 1e6),
			PartitionFor:  simtime.Duration(partMs * 1e6),
		}
		rep, err := core.RunWithChurn(churnConfig(nodes), churnWorkload(stamps), plan)
		if err != nil {
			return nil, fmt.Errorf("bench: churn partition %gms: %w", partMs, err)
		}
		if _, err := logview.Audit(rep.Depot, logview.AuditOptions{}); err != nil {
			return nil, fmt.Errorf("bench: churn partition %gms: log audit: %w", partMs, err)
		}
		rec := rep.Recovery
		row := ChurnRow{
			Point:         fault.PointSyncExit,
			LeaseMs:       churnLeaseMs,
			RestartMs:     10,
			PartitionMs:   partMs,
			CrashSec:      rec.CrashTime.Seconds(),
			DeclareSec:    rec.DeclareTime.Seconds(),
			RejoinSec:     rec.RejoinTime.Seconds(),
			CatchUpSec:    rec.ReplayTime.Seconds(),
			ExecSec:       rep.ExecTime.Seconds(),
			BaselineSec:   baseSec,
			OverheadPct:   (rep.ExecTime.Seconds()/baseSec - 1) * 100,
			TruncatedRecs: rec.TruncatedRecords,
			TailOps:       rec.TailOps,
		}
		for id, nodeStamps := range stamps {
			if id == victim {
				continue
			}
			for _, at := range nodeStamps {
				if at > rec.CrashTime && at <= rec.RejoinTime {
					row.SurvivorOps++
				}
			}
		}
		if window := rec.RejoinTime - rec.CrashTime; window > 0 {
			row.SurvivorRate = float64(row.SurvivorOps) / window.Seconds()
		}
		for _, s := range rep.Stats {
			row.Adoptions += s.HomeAdoptions
			row.Revocations += s.LockRevocations
			row.Redirects += s.RedirectedCalls
			row.AdoptedDiffs += s.AdoptedDiffs
			row.LeaseWaits += s.LeaseWaitsServed
			row.FencedMsgs += s.FencedMsgs
			row.EpochBumps += s.EpochBumps
			row.VictimServed += s.RejoinServed
		}
		if total := rep.NodeOps[victim]; total > 0 {
			row.AvailablePct = float64(row.VictimServed) / float64(total) * 100
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatChurn renders the churn sweep.
func FormatChurn(nodes int, rows []ChurnRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Online recovery under churn: %d nodes, %d lock rounds, victim %d crashes at round %d\n",
		nodes, ChurnRounds, nodes-1, churnCrashRound)
	b.WriteString("(surviving-cluster throughput measured inside the [crash, rejoin] window;\n")
	b.WriteString(" catch-up is the victim's concurrent replay; overhead is vs the crash-free run)\n\n")
	fmt.Fprintf(&b, "%-13s %8s %9s %9s %9s %9s %10s %9s %7s %6s %6s\n",
		"crash point", "lease", "restart", "crash s", "rejoin s", "catchup s", "surv ops/s", "exec s", "ovh%", "adopt", "revoke")
	partitions := false
	for _, r := range rows {
		if r.PartitionMs > 0 {
			partitions = true
			continue
		}
		fmt.Fprintf(&b, "%-13s %6gms %7gms %9.4f %9.4f %9.4f %10.0f %9.4f %6.1f%% %6d %6d\n",
			r.Point, r.LeaseMs, r.RestartMs, r.CrashSec, r.RejoinSec, r.CatchUpSec,
			r.SurvivorRate, r.ExecSec, r.OverheadPct, r.Adoptions, r.Revocations)
	}
	for _, r := range rows {
		if r.TailOps > 0 {
			cell := fmt.Sprintf("%v restart %gms", r.Point, r.RestartMs)
			if r.PartitionMs > 0 {
				cell = fmt.Sprintf("partition %gms", r.PartitionMs)
			}
			fmt.Fprintf(&b, "%s: %d sync ops replayed from the managers' sender logs\n", cell, r.TailOps)
		}
	}
	if !partitions {
		return b.String()
	}
	b.WriteString("\nPartition-rejoin cells: the victim is cut off (not crashed), wrongly declared\n")
	b.WriteString("dead inside the window, fenced on heal, and re-admitted at a fresh epoch;\n")
	b.WriteString("availability is the share of the victim's sync ops it served live.\n\n")
	fmt.Fprintf(&b, "%-10s %9s %9s %9s %10s %7s %7s %6s %7s %7s\n",
		"partition", "onset s", "rejoin s", "catchup s", "surv ops/s", "fenced", "epochs", "trunc", "served", "avail%")
	for _, r := range rows {
		if r.PartitionMs == 0 {
			continue
		}
		fmt.Fprintf(&b, "%8gms %9.4f %9.4f %9.4f %10.0f %7d %7d %6d %7d %6.1f%%\n",
			r.PartitionMs, r.CrashSec, r.RejoinSec, r.CatchUpSec, r.SurvivorRate,
			r.FencedMsgs, r.EpochBumps, r.TruncatedRecs, r.VictimServed, r.AvailablePct)
	}
	return b.String()
}
