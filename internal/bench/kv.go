package bench

import (
	"bytes"
	"flag"
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

	ReadP50Us  float64
	ReadP90Us  float64
	ReadP99Us  float64
	WriteP50Us float64
	WriteP90Us float64
	WriteP99Us float64

	AuditRecords int64

	// Wire-level stats, TCP backend only.
	Frames int64

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

// KVFlags registers the kv workload's -kv-* flags on fs and returns the
// config they fill when fs is parsed. Same flags, same op streams: a
// trace id one command printed resolves in another.
func KVFlags(fs *flag.FlagSet) *kv.Config {
	cfg := &kv.Config{}
	fs.IntVar(&cfg.Keys, "kv-keys", 0, "kv: table size (0 = default 64)")
	fs.IntVar(&cfg.ValueSize, "kv-value", 0, "kv: value bytes, multiple of 8 (0 = default 32)")
	fs.IntVar(&cfg.Ops, "kv-ops", 0, "kv: transactions per client (0 = default 160)")
	fs.IntVar(&cfg.ReadPct, "kv-readpct", 0, "kv: read percentage 1..100, -1 = pure writes (0 = default 80)")
	fs.Float64Var(&cfg.ZipfS, "kv-zipf", 1.2, "kv: zipf key skew s > 1, or 0 for uniform")
	fs.Int64Var(&cfg.Seed, "kv-seed", 0, "kv: op-stream seed (0 = default 1)")
	return cfg
}

func usQ(h obsv.HistSnapshot, q float64) float64 { return float64(h.Quantile(q)) / 1e3 }

// RunKV runs one matrix cell — failure-free, or with churn crashed
// mid-traffic and recovered online — under a trace collector, checks the
// final image against the workload's replay-computed expectation and
// audits the stable logs, and fills the cell's row. It also returns the
// report and the collector. Comparing images across cells is the
// caller's.
func RunKV(nodes int, cfg kv.Config, tr core.Transport, churn bool) (*core.Report, *obsv.Collector, KVRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, KVRow{}, err
	}
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
		ReadP50Us:    usQ(reads, 0.50),
		ReadP90Us:    usQ(reads, 0.90),
		ReadP99Us:    usQ(reads, 0.99),
		WriteP50Us:   usQ(writes, 0.50),
		WriteP90Us:   usQ(writes, 0.90),
		WriteP99Us:   usQ(writes, 0.99),
		AuditRecords: audit.Records,
	}
	if rep.ExecTime > 0 {
		row.OpsPerSec = float64(row.Ops) / rep.ExecTime.Seconds()
	}
	if rep.Fabric != nil {
		row.Frames = rep.Fabric.Frames
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
	if len(transports) == 0 {
		transports = KVTransports
	}
	var rows []KVRow
	var baseline []byte
	for _, tr := range transports {
		for _, churn := range []bool{false, true} {
			rep, _, row, err := RunKV(nodes, cfg, tr, churn)
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
