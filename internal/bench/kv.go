package bench

import (
	"bytes"
	"fmt"
	"strings"

	"sdsm/internal/apps/kv"
	"sdsm/internal/core"
	"sdsm/internal/logview"
	"sdsm/internal/obsv"
	"sdsm/internal/recovery"
	"sdsm/internal/simtime"
	"sdsm/internal/wal"
)

// The kv benchmark measures what the batch kernels cannot: per-operation
// serving latency under request/response traffic, across wire backends
// and across a crash. One matrix cell is (transport, churn?); every cell
// must end with the same final memory image — the workload is
// order-invariant by construction — and a clean log audit, so the bench
// doubles as the acceptance check that the TCP backend and online
// recovery preserve kv semantics while only the latencies move.

// KVLeaseMs is the lease duration used by the kv churn cells (virtual
// milliseconds).
const KVLeaseMs = 2.0

// KVTransports is the default backend matrix.
var KVTransports = []core.Transport{core.TransportSim, core.TransportTCP}

// KVRow is one (transport, churn) cell of the kv serving benchmark.
type KVRow struct {
	Transport core.Transport
	Churn     bool
	ExecSec   float64
	// Ops counts observed transactions across the cluster. Failure-free
	// it equals nodes x ops-per-client; under churn it exceeds that,
	// because the victim re-executes (and re-observes) the prefix of its
	// op stream during replay — the committed image still counts each
	// write exactly once.
	Ops       int
	OpsPerSec float64 // Ops over virtual ExecSec

	Reads       int64
	Writes      int64
	ReadMeanUs  float64
	ReadP50Us   float64
	ReadP90Us   float64
	ReadP99Us   float64
	WriteMeanUs float64
	WriteP50Us  float64
	WriteP90Us  float64
	WriteP99Us  float64

	NetMsgs      int64
	NetBytes     int64
	LogBytes     int64
	AuditRecords int64

	// Wire-level stats, TCP backend only.
	Frames    int64
	WireBytes int64

	// Online-recovery timings, churn cells only.
	RejoinSec  float64
	CatchUpSec float64
}

// KVCoreConfig is the core configuration the kv bench (and the CLIs)
// run the workload under.
func KVCoreConfig(nodes int, cfg kv.Config, tr core.Transport) core.Config {
	// Churn recovery needs CCL, and the audit pipeline needs a logging
	// protocol, so every cell runs under CCL.
	return core.Config{
		Nodes:     nodes,
		PageSize:  512,
		NumPages:  cfg.NumPages(nodes, 512),
		Protocol:  wal.ProtocolCCL,
		Transport: tr,
	}
}

func usQ(h obsv.HistSnapshot, q float64) float64 { return float64(h.Quantile(q)) / 1e3 }

// runKVCell executes one matrix cell and fills a row; it also returns
// the cell's trace collector. The caller owns image verification.
func runKVCell(nodes int, cfg kv.Config, tr core.Transport, churn bool) (*core.Report, *obsv.Collector, KVRow, error) {
	cc := KVCoreConfig(nodes, cfg, tr)
	cc.Trace = obsv.NewCollector(nodes)
	var rep *core.Report
	var err error
	if churn {
		rep, err = core.RunWithChurn(cc, kv.Prog(cfg), core.ChurnPlan{
			Victim:        nodes - 1,
			AtOp:          int32(cfg.WithDefaults().Ops), // ~halfway: two sync ops per transaction
			Recovery:      recovery.CCLRecovery,
			LeaseDuration: simtime.Duration(KVLeaseMs * 1e6),
		})
	} else {
		rep, err = core.Run(cc, kv.Prog(cfg))
	}
	if err != nil {
		return nil, nil, KVRow{}, err
	}
	if err := kv.Check(cfg, nodes, rep.MemoryImage()); err != nil {
		return nil, nil, KVRow{}, fmt.Errorf("workload check: %w", err)
	}
	audit, err := logview.Audit(rep.Depot, logview.AuditOptions{})
	if err != nil {
		return nil, nil, KVRow{}, fmt.Errorf("log audit: %w", err)
	}
	reads := cc.Trace.MergedHist(obsv.HistKVRead)
	writes := cc.Trace.MergedHist(obsv.HistKVWrite)
	row := KVRow{
		Transport:    tr,
		Churn:        churn,
		ExecSec:      rep.ExecTime.Seconds(),
		Ops:          int(reads.Count + writes.Count),
		Reads:        reads.Count,
		Writes:       writes.Count,
		ReadMeanUs:   reads.Mean() / 1e3,
		ReadP50Us:    usQ(reads, 0.50),
		ReadP90Us:    usQ(reads, 0.90),
		ReadP99Us:    usQ(reads, 0.99),
		WriteMeanUs:  writes.Mean() / 1e3,
		WriteP50Us:   usQ(writes, 0.50),
		WriteP90Us:   usQ(writes, 0.90),
		WriteP99Us:   usQ(writes, 0.99),
		NetMsgs:      rep.NetMsgs,
		NetBytes:     rep.NetBytes,
		LogBytes:     rep.TotalLogBytes,
		AuditRecords: audit.Records,
	}
	if rep.ExecTime > 0 {
		row.OpsPerSec = float64(row.Ops) / rep.ExecTime.Seconds()
	}
	if rep.Fabric != nil {
		row.Frames = rep.Fabric.Frames
		row.WireBytes = rep.Fabric.WireBytes
	}
	if churn {
		if rep.Recovery == nil || !rep.Recovery.Online {
			return nil, nil, KVRow{}, fmt.Errorf("churn cell produced no online-recovery report")
		}
		row.RejoinSec = rep.Recovery.RejoinTime.Seconds()
		row.CatchUpSec = rep.Recovery.ReplayTime.Seconds()
	}
	return rep, cc.Trace, row, nil
}

// RunKVBench runs the kv serving workload over every requested backend,
// failure-free and with a crash-during-traffic churn cell, and verifies
// that every cell converges to the same final memory image.
func RunKVBench(nodes int, cfg kv.Config, transports []core.Transport) ([]KVRow, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("bench: kv needs at least 2 nodes, got %d", nodes)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	if len(transports) == 0 {
		transports = KVTransports
	}
	var rows []KVRow
	var baseline []byte
	for _, tr := range transports {
		for _, churn := range []bool{false, true} {
			rep, _, row, err := runKVCell(nodes, cfg, tr, churn)
			if err != nil {
				return nil, fmt.Errorf("bench: kv %s churn=%v: %w", tr, churn, err)
			}
			if baseline == nil {
				baseline = rep.MemoryImage()
			} else if !bytes.Equal(baseline, rep.MemoryImage()) {
				return nil, fmt.Errorf("bench: kv %s churn=%v: final image diverged from the first cell's", tr, churn)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatKV renders the kv serving matrix.
func FormatKV(nodes int, cfg kv.Config, rows []KVRow) string {
	cfg = cfg.WithDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "KV serving: %d closed-loop clients, %d keys, %dB values, %d ops/client, %d%% reads, zipf %g, seed %d\n",
		nodes, cfg.Keys, cfg.ValueSize, cfg.Ops, cfg.ReadPct, cfg.ZipfS, cfg.Seed)
	b.WriteString("(virtual latencies per complete transaction, lock + fetch + commit included;\n")
	fmt.Fprintf(&b, " churn cells crash node %d mid-traffic with a %gms lease; every cell verified image-identical and audit-clean)\n\n", nodes-1, KVLeaseMs)
	fmt.Fprintf(&b, "%-5s %-5s %8s %10s %22s %22s %9s %9s\n",
		"wire", "churn", "exec s", "ops/s", "read us p50/p90/p99", "write us p50/p90/p99", "rejoin s", "catchup s")
	for _, r := range rows {
		churn := "-"
		if r.Churn {
			churn = "crash"
		}
		rec := fmt.Sprintf("%9s %9s", "-", "-")
		if r.Churn {
			rec = fmt.Sprintf("%9.4f %9.4f", r.RejoinSec, r.CatchUpSec)
		}
		fmt.Fprintf(&b, "%-5s %-5s %8.4f %10.0f %6.0f/%6.0f/%6.0f  %6.0f/%6.0f/%6.0f  %s\n",
			r.Transport, churn, r.ExecSec, r.OpsPerSec,
			r.ReadP50Us, r.ReadP90Us, r.ReadP99Us,
			r.WriteP50Us, r.WriteP90Us, r.WriteP99Us, rec)
	}
	return b.String()
}
