package bench

import (
	"fmt"
	"strings"

	"sdsm/internal/apps"
	"sdsm/internal/fault"
	"sdsm/internal/wal"
)

// The fault sweep measures what the paper's testbed never shows: the
// execution-time cost of riding out an unreliable interconnect. Message
// loss turns into retransmission timeouts on the critical path, so the
// sweep reports the overhead of each loss rate over the reliable run,
// per application and per logging protocol.

// FaultRates are the swept per-copy loss/duplication probabilities.
var FaultRates = []float64{0, 0.001, 0.01}

// FaultSweepRow is one (application, loss rate) point.
type FaultSweepRow struct {
	App  string
	Rate float64
	// Per-protocol execution seconds and percent overhead over the same
	// protocol's reliable (rate 0) run.
	Sec      [3]float64
	Overhead [3]float64
	// ExtraMsgs is the wire-copy inflation over the reliable run (None
	// protocol): retransmissions and duplicates put extra copies on the
	// wire even when execution time barely moves.
	ExtraMsgsPct float64
}

// RunFaultSweep measures one workload under every fault rate and
// protocol. The seed is fixed so the table is reproducible.
func RunFaultSweep(w *apps.Workload, nodes int) ([]FaultSweepRow, error) {
	var rows []FaultSweepRow
	var baseSec [3]float64
	var baseMsgs int64
	for _, rate := range FaultRates {
		row := FaultSweepRow{App: w.Name, Rate: rate}
		for pi, proto := range Protocols {
			cfg := w.BaseConfig(nodes)
			cfg.Protocol = proto
			cfg.Faults = fault.Plan{Seed: 1, DropProb: rate, DupProb: rate}
			rep, err := runChecked(w, cfg, nil)
			if err != nil {
				return nil, fmt.Errorf("%s %v rate %g: %w", w.Name, proto, rate, err)
			}
			sec := rep.ExecTime.Seconds()
			row.Sec[pi] = sec
			if rate == 0 {
				baseSec[pi] = sec
				if proto == wal.ProtocolNone {
					baseMsgs = rep.NetMsgs
				}
			}
			row.Overhead[pi] = (sec/baseSec[pi] - 1) * 100
			if proto == wal.ProtocolNone {
				row.ExtraMsgsPct = (float64(rep.NetMsgs)/float64(baseMsgs) - 1) * 100
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFaultSweep renders the fault-injection ablation for all
// workloads: execution time under message loss, per protocol.
func FormatFaultSweep(nodes int, scale Scale) (string, error) {
	var b strings.Builder
	b.WriteString("Fault sweep: execution time under seeded message loss/duplication\n")
	b.WriteString("(overhead % over the same protocol at loss 0; wire copies include retransmissions)\n\n")
	fmt.Fprintf(&b, "%-10s %8s %10s %7s %10s %7s %10s %7s %9s\n",
		"Program", "loss", "None s", "+%", "ML s", "+%", "CCL s", "+%", "copies+%")
	for _, w := range Workloads(nodes, scale) {
		rows, err := RunFaultSweep(w, nodes)
		if err != nil {
			return "", err
		}
		for _, r := range rows {
			fmt.Fprintf(&b, "%-10s %7.2f%% %10.3f %6.1f%% %10.3f %6.1f%% %10.3f %6.1f%% %8.1f%%\n",
				r.App, r.Rate*100,
				r.Sec[0], r.Overhead[0],
				r.Sec[1], r.Overhead[1],
				r.Sec[2], r.Overhead[2],
				r.ExtraMsgsPct)
		}
	}
	return b.String(), nil
}
