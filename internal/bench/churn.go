package bench

import (
	"bytes"
	"fmt"
	"math"
	"strings"

	"sdsm/internal/core"
	"sdsm/internal/fault"
	"sdsm/internal/logview"
	"sdsm/internal/memory"
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
	// sender logs (a torn log tail); 0 on an intact log.
	TailOps int
	// CustodyMatched counts the adopted homes' custody entries found
	// byte-identical to the diffs their writers logged (checkCustody).
	CustodyMatched int
	// Partition-rejoin counters (zero on fail-stop rows):
	FencedMsgs    int64   // stale-epoch messages survivors fenced post-heal
	EpochBumps    int64   // membership-epoch adoptions across the cluster
	TruncatedRecs int     // stale log records discarded at rejoin
	VictimServed  int64   // sync ops the rejoined node completed live
	AvailablePct  float64 // VictimServed over the victim's total sync ops
}

// churnWorkload builds the gated lock-phase program for a cluster of
// nodes, and the per-node round stamps it fills: stamps[node][round]
// receives the node's virtual clock after each finished round; rows are
// written only by that node's goroutine.
func churnWorkload(nodes int) (core.Program, [][]simtime.Time) {
	stamps := make([][]simtime.Time, nodes)
	for i := range stamps {
		stamps[i] = make([]simtime.Time, ChurnRounds)
	}
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
		// record, giving the custody check survivor-written entries to
		// match against the writers' own logs.
		p.WriteI64((n-1)*per*ps+3*ps+8*p.ID(), int64(p.ID()+1))
		p.Barrier(2)
	}, stamps
}

// churnBaseline runs the churn workload failure-free, leases off. The
// workload is data-race free, so every fail-stop and partition-rejoin run
// of it must end with this run's memory image.
func churnBaseline(nodes int) (*core.Report, error) {
	prog, _ := churnWorkload(nodes)
	rep, err := core.Run(churnConfig(nodes), prog)
	if err != nil {
		return nil, fmt.Errorf("bench: churn baseline: %w", err)
	}
	return rep, nil
}

// countSurvivorOps fills the row's survivor progress: the rounds every
// node but the victim finished inside the (crash, rejoin] window, and
// their rate over it.
func (row *ChurnRow) countSurvivorOps(stamps [][]simtime.Time, victim int, rec *core.RecoveryReport) {
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
}

func churnConfig(nodes int) core.Config {
	return core.Config{
		Nodes:    nodes,
		PageSize: 1024,
		NumPages: nodes * 8,
		Protocol: wal.ProtocolCCL,
	}
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

// churnCells lists the sweep as rows with only their configuration
// filled: every crash point x restart delay, then the partition windows
// (the victim cut off at a sync exit, restarting 10 ms after the heal).
func churnCells() []ChurnRow {
	var cells []ChurnRow
	for _, point := range ChurnPoints {
		for _, restartMs := range ChurnRestartsMs {
			cells = append(cells, ChurnRow{Point: point, LeaseMs: churnLeaseMs, RestartMs: restartMs})
		}
	}
	for _, partMs := range ChurnPartitionsMs {
		cells = append(cells, ChurnRow{Point: fault.PointSyncExit, LeaseMs: churnLeaseMs, RestartMs: 10, PartitionMs: partMs})
	}
	return cells
}

// cell names the row's configuration.
func (r *ChurnRow) cell() string {
	if r.PartitionMs > 0 {
		return fmt.Sprintf("partition %gms", r.PartitionMs)
	}
	return fmt.Sprintf("%v restart %gms", r.Point, r.RestartMs)
}

// runChurnCell runs the churn workload once under cell's configuration,
// the victim (node nodes-1) crashing or cut off at the release of round
// churnCrashRound-1, and returns the report and the per-node round
// stamps.
func runChurnCell(nodes int, cell ChurnRow) (*core.Report, [][]simtime.Time, error) {
	prog, stamps := churnWorkload(nodes)
	rep, err := core.RunWithChurn(churnConfig(nodes), prog, core.ChurnPlan{
		Victim:        nodes - 1,
		AtOp:          2 * churnCrashRound,
		Point:         cell.Point,
		Recovery:      recovery.CCLRecovery,
		LeaseDuration: simtime.Duration(cell.LeaseMs * 1e6),
		RestartDelay:  simtime.Duration(cell.RestartMs * 1e6),
		PartitionFor:  simtime.Duration(cell.PartitionMs * 1e6),
	})
	return rep, stamps, err
}

// checkChurnRun holds one churn run to its ground truth: the stable logs
// pass the consistency auditor, the final image equals the failure-free
// image want, and the custody records agree with the writers' logs. It
// returns the custody entries matched.
func checkChurnRun(rep *core.Report, want []byte) (int, error) {
	if _, err := logview.Audit(rep.Depot, logview.AuditOptions{}); err != nil {
		return 0, fmt.Errorf("log audit: %w", err)
	}
	if !bytes.Equal(rep.MemoryImage(), want) {
		return 0, fmt.Errorf("final image differs from the failure-free run's")
	}
	return checkCustody(rep)
}

// checkCustody matches every custody-record entry of the victim's
// adopted homes against its writer's log: an entry from a never-crashed
// writer must equal, byte for byte, the diff that writer logged for the
// page under the same seq. The victim's own entries are skipped — its
// replay flushes carry predicted interval stamps and are not re-logged.
// It returns the number of entries matched.
func checkCustody(rep *core.Report) (int, error) {
	victim := rep.Recovery.Victim
	type key struct {
		writer, seq int32
		page        memory.PageID
	}
	logged := map[key][]byte{}
	for p, home := range rep.Homes {
		if home != victim {
			continue
		}
		for w := range rep.NodeOps {
			for _, d := range wal.LoggedDiffs(rep.Depot.Store(w), int32(w), memory.PageID(p), 0, math.MaxInt32) {
				logged[key{d.Writer, d.Seq, memory.PageID(p)}] = d.Diff.Encode(nil)
			}
		}
	}
	matched := 0
	for _, st := range rep.AdoptedPages {
		if rep.Homes[st.Page] != victim {
			return 0, fmt.Errorf("custody record for page %d, whose home %d never crashed", st.Page, rep.Homes[st.Page])
		}
		for _, e := range st.Applied {
			if int(e.Writer) == victim {
				continue
			}
			if enc, ok := logged[key{e.Writer, e.Seq, st.Page}]; !ok || !bytes.Equal(enc, e.Diff.Encode(nil)) {
				return 0, fmt.Errorf("page %d: custody entry (writer %d, seq %d) matches no diff the writer logged", st.Page, e.Writer, e.Seq)
			}
			matched++
		}
	}
	return matched, nil
}

// RunChurnBench runs every churn cell. Each run must pass checkChurnRun:
// an online recovery that leaves an inconsistent log, a wrong image or a
// custody record its writers' logs disagree with is a correctness bug
// regardless of its timings. Availability on the partition rows is the
// share of the victim's sync ops it served live, after the heal.
func RunChurnBench(nodes int) ([]ChurnRow, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("bench: churn needs at least 2 nodes, got %d", nodes)
	}
	victim := nodes - 1
	baseRep, err := churnBaseline(nodes)
	if err != nil {
		return nil, err
	}
	baseSec := baseRep.ExecTime.Seconds()
	want := baseRep.MemoryImage()

	rows := churnCells()
	for i := range rows {
		row := &rows[i]
		rep, stamps, err := runChurnCell(nodes, *row)
		if err == nil {
			row.CustodyMatched, err = checkChurnRun(rep, want)
		}
		if err != nil {
			return nil, fmt.Errorf("bench: churn %s: %w", row.cell(), err)
		}
		rec := rep.Recovery
		row.CrashSec = rec.CrashTime.Seconds()
		row.DeclareSec = rec.DeclareTime.Seconds()
		row.RejoinSec = rec.RejoinTime.Seconds()
		row.CatchUpSec = rec.ReplayTime.Seconds()
		row.ExecSec = rep.ExecTime.Seconds()
		row.BaselineSec = baseSec
		row.OverheadPct = (row.ExecSec/baseSec - 1) * 100
		row.TailOps = rec.TailOps
		row.TruncatedRecs = rec.TruncatedRecords
		row.countSurvivorOps(stamps, victim, rec)
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
	}
	return rows, nil
}

// FormatChurn renders the churn sweep: the fail-stop table, then the
// partition-rejoin table.
func FormatChurn(nodes int, rows []ChurnRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Online recovery under churn: %d nodes, %d lock rounds, victim %d crashes at round %d\n",
		nodes, ChurnRounds, nodes-1, churnCrashRound)
	b.WriteString("(surviving-cluster throughput measured inside the [crash, rejoin] window;\n")
	b.WriteString(" catch-up is the victim's concurrent replay; overhead is vs the crash-free run)\n\n")
	fmt.Fprintf(&b, "%-13s %8s %9s %9s %9s %9s %10s %9s %7s %6s %6s\n",
		"crash point", "lease", "restart", "crash s", "rejoin s", "catchup s", "surv ops/s", "exec s", "ovh%", "adopt", "revoke")
	for _, r := range rows {
		if r.PartitionMs > 0 {
			continue
		}
		fmt.Fprintf(&b, "%-13s %6gms %7gms %9.4f %9.4f %9.4f %10.0f %9.4f %6.1f%% %6d %6d\n",
			r.Point, r.LeaseMs, r.RestartMs, r.CrashSec, r.RejoinSec, r.CatchUpSec,
			r.SurvivorRate, r.ExecSec, r.OverheadPct, r.Adoptions, r.Revocations)
	}
	for _, r := range rows {
		if r.TailOps > 0 {
			fmt.Fprintf(&b, "%s: %d sync ops replayed from the managers' sender logs\n", r.cell(), r.TailOps)
		}
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
