// Command sdsminspect dissects and audits the stable logs the logging
// protocols write: the introspection side of the paper's log-volume and
// recovery-time evaluation.
//
// Modes:
//
//	volume    run each selected app under ML and CCL and print the
//	          per-kind log-volume comparison (the paper's ML-vs-CCL
//	          log-size table), with byte totals reconciled exactly
//	          against the stable layer's own flush accounting
//	dump      run one app under one protocol and print every log
//	          record dissected into typed form
//	audit     run one app (optionally with -crash) and run the
//	          post-run consistency auditor over the depot; with
//	          -churn, run the online-recovery churn scenario at every
//	          crash point instead and additionally verify the
//	          adopted-home page state against the writers' logs;
//	          with -app kv, run the kv serving workload over the wire
//	          backend selected by -transport (with -churn, crashed
//	          mid-traffic) and audit its log and final image
//	recovery  crash one app and print the recovery-phase breakdown
//	          (log-read / diff-fetch / page-fetch / tail-sync /
//	          home-rebuild / catch-up / replay)
//	trace     re-run the kv serving workload (same seed => identical
//	          deterministic trace ids) and reconstruct causal span
//	          trees: with -trace-id, print the named op's cross-node
//	          span tree and phase breakdown; without, print the per-op
//	          span-phase attribution table (slowest traces, whose ids
//	          -trace-id resolves, plus per-tag aggregate)
//
// Usage:
//
//	sdsminspect [-mode volume|dump|audit|recovery|trace]
//	            [-app all|3d-fft|mg|shallow|water|kv] [-protocol ml|ccl]
//	            [-nodes 8] [-scale small|medium|large] [-transport sim|tcp]
//	            [-crash] [-churn] [-victim N] [-node N]
//	            [-max N]
//	            [-trace-id hex] [-trace-out trace.json]
//	            [-kv-keys N] [-kv-value N] [-kv-ops N]
//	            [-kv-readpct N] [-kv-zipf S] [-kv-seed N]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"sort"
	"strings"

	"sdsm/internal/apps"
	"sdsm/internal/apps/kv"
	"sdsm/internal/bench"
	"sdsm/internal/core"
	"sdsm/internal/logview"
	"sdsm/internal/memory"
	"sdsm/internal/obsv"
	"sdsm/internal/recovery"
	"sdsm/internal/simtime"
	"sdsm/internal/wal"
)

type options struct {
	nodes  int
	scale  bench.Scale
	proto  wal.Protocol
	crash  bool
	victim int
	node   int
	max    int
}

func main() {
	mode := flag.String("mode", "volume", "volume|dump|audit|recovery|trace")
	appFlag := flag.String("app", "all", "application: all|3d-fft|mg|shallow|water")
	protoFlag := flag.String("protocol", "ccl", "logging protocol for dump/audit/recovery: ml|ccl")
	nodes := flag.Int("nodes", 8, "cluster size")
	scaleFlag := flag.String("scale", "small", "problem scale: small|medium|large")
	crash := flag.Bool("crash", false, "audit mode: inject a fail-stop crash before auditing")
	churn := flag.Bool("churn", false, "audit mode: run the online-recovery churn scenario and verify adopted-home state against the writers' logs")
	victim := flag.Int("victim", -1, "crash victim (default: last node)")
	nodeFlag := flag.Int("node", -1, "dump mode: only this node's log")
	max := flag.Int("max", 0, "dump mode: print at most this many records per node (0 = all)")
	transportFlag := flag.String("transport", "sim", "kv audit/trace: wire backend, sim|tcp")
	traceID := flag.String("trace-id", "", "trace mode: resolve this 16-hex-digit trace id into its span tree")
	kvKeys := flag.Int("kv-keys", 0, "trace mode: kv table size (0 = default 64; match the run that minted the trace ids)")
	kvValue := flag.Int("kv-value", 0, "trace mode: kv value bytes (0 = default 32)")
	kvOps := flag.Int("kv-ops", 0, "trace mode: kv transactions per client (0 = default 160)")
	kvReadPct := flag.Int("kv-readpct", 0, "trace mode: kv read percentage (0 = default 80)")
	kvZipf := flag.Float64("kv-zipf", 1.2, "trace mode: kv zipf skew (sdsmbench's default)")
	kvSeed := flag.Int64("kv-seed", 0, "trace mode: kv op-stream seed (0 = default 1)")
	traceOut := flag.String("trace-out", "", "trace mode: also export the run as Chrome trace-event JSON (flow arrows included) to this file")
	flag.Parse()

	scale, err := bench.ParseScale(*scaleFlag)
	if err != nil {
		log.Fatal(err)
	}
	var proto wal.Protocol
	switch strings.ToLower(*protoFlag) {
	case "ml":
		proto = wal.ProtocolML
	case "ccl":
		proto = wal.ProtocolCCL
	default:
		log.Fatalf("unknown -protocol %q (dissection needs a logging protocol)", *protoFlag)
	}
	opts := options{nodes: *nodes, scale: scale, proto: proto,
		crash: *crash, victim: *victim, node: *nodeFlag, max: *max}

	switch *mode {
	case "volume":
		err = volumeMode(selectApps(*appFlag, opts), opts)
	case "dump":
		err = dumpMode(oneApp(*appFlag, opts), opts)
	case "audit":
		if strings.EqualFold(*appFlag, "kv") {
			err = kvAuditMode(opts, *transportFlag, *churn)
		} else if *churn {
			err = churnAuditMode(opts)
		} else {
			err = auditMode(oneApp(*appFlag, opts), opts)
		}
	case "recovery":
		err = recoveryMode(oneApp(*appFlag, opts), opts)
	case "trace":
		kvCfg := kv.Config{Keys: *kvKeys, ValueSize: *kvValue, Ops: *kvOps,
			ReadPct: *kvReadPct, ZipfS: *kvZipf, Seed: *kvSeed}
		err = traceMode(opts, *transportFlag, *churn, kvCfg, *traceID, *traceOut)
	default:
		log.Fatalf("unknown -mode %q", *mode)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func selectApps(name string, opts options) []*apps.Workload {
	all := bench.Workloads(opts.nodes, opts.scale)
	var ws []*apps.Workload
	for _, w := range all {
		if name == "all" || strings.EqualFold(w.Name, name) {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		log.Fatalf("unknown -app %q", name)
	}
	return ws
}

// oneApp picks the single workload the record-level modes run ("all"
// falls back to the first app).
func oneApp(name string, opts options) *apps.Workload {
	return selectApps(name, opts)[0]
}

// run executes one workload and returns its report; with crash set it
// injects a fail-stop crash at the workload's canonical crash op.
func run(w *apps.Workload, proto wal.Protocol, opts options) (*core.Report, error) {
	cfg := w.BaseConfig(opts.nodes)
	cfg.Protocol = proto
	if !opts.crash {
		cfg.SkipInitialCheckpoint = true
		rep, err := core.Run(cfg, w.Prog)
		if err != nil {
			return nil, err
		}
		return rep, w.Check(rep.MemoryImage())
	}
	kind := recovery.CCLRecovery
	if proto == wal.ProtocolML {
		kind = recovery.MLRecovery
	}
	v := opts.victim
	if v < 0 {
		v = opts.nodes - 1
	}
	rep, err := core.RunWithCrash(cfg, w.Prog, core.CrashPlan{
		Victim: v, AtOp: w.CrashOp, Recovery: kind,
	})
	if err != nil {
		return nil, err
	}
	return rep, w.Check(rep.MemoryImage())
}

// volumeMode reproduces the paper's log-volume comparison: per app, the
// dissected per-kind byte accounting under ML and CCL side by side. It
// fails if any dissection does not reconcile exactly with the stable
// layer's flush charges, or if CCL's total is not strictly below ML's.
func volumeMode(ws []*apps.Workload, opts options) error {
	bad := false
	for _, w := range ws {
		vols := make([]*logview.Volume, 0, 2)
		for _, proto := range []wal.Protocol{wal.ProtocolML, wal.ProtocolCCL} {
			rep, err := run(w, proto, opts)
			if err != nil {
				return fmt.Errorf("%s/%v: %w", w.Name, proto, err)
			}
			vol, err := logview.DissectDepot(rep.Depot)
			if err != nil {
				return fmt.Errorf("%s/%v: %w", w.Name, proto, err)
			}
			if err := vol.Reconcile(rep.Depot); err != nil {
				return fmt.Errorf("%s/%v: %w", w.Name, proto, err)
			}
			vols = append(vols, vol)
		}
		fmt.Printf("%s on %d nodes (%s):\n", w.Name, opts.nodes, w.DataSet)
		fmt.Print(logview.FormatVolumeComparison([]string{"ML", "CCL"}, vols))
		if vols[1].Bytes >= vols[0].Bytes {
			fmt.Printf("!! CCL total %d bytes is not below ML's %d\n", vols[1].Bytes, vols[0].Bytes)
			bad = true
		}
		fmt.Println()
	}
	if bad {
		return fmt.Errorf("sdsminspect: CCL did not log less than ML on every app")
	}
	return nil
}

func dumpMode(w *apps.Workload, opts options) error {
	rep, err := run(w, opts.proto, opts)
	if err != nil {
		return err
	}
	for node := 0; node < rep.Depot.Nodes(); node++ {
		if opts.node >= 0 && node != opts.node {
			continue
		}
		prefix, dropped := rep.Depot.Store(node).ValidPrefix()
		fmt.Printf("node %d: %d records (%d torn)\n", node, len(prefix), dropped)
		for i, r := range prefix {
			if opts.max > 0 && i >= opts.max {
				fmt.Printf("  ... %d more\n", len(prefix)-i)
				break
			}
			d, err := wal.DissectRecord(r)
			if err != nil {
				return fmt.Errorf("node %d record %d: %w", node, i, err)
			}
			fmt.Printf("  %4d  op %-5d %-8s %6dB  %s\n",
				i, d.Op, wal.KindName(d.Kind), d.Wire, d.Summary())
		}
	}
	return nil
}

func auditMode(w *apps.Workload, opts options) error {
	rep, err := run(w, opts.proto, opts)
	if err != nil {
		return err
	}
	torn := rep.Recovery != nil && rep.Recovery.TornTail
	audit, err := logview.Audit(rep.Depot, logview.AuditOptions{AllowTorn: torn})
	if err != nil {
		return err
	}
	fmt.Printf("audit OK: %d nodes, %d records, %d own-diff intervals, %d torn\n",
		audit.Nodes, audit.Records, audit.OwnDiffs, audit.TornRecs)
	vol, err := logview.DissectDepot(rep.Depot)
	if err != nil {
		return err
	}
	fmt.Print(logview.FormatVolume(vol))
	return nil
}

// kvAuditMode runs the kv serving workload over the selected wire
// backend — with churn, crashed mid-traffic and recovered online — then
// audits the stable logs and verifies the final image against the
// workload's exact replay-computed expectation.
func kvAuditMode(opts options, transport string, churn bool) error {
	tr, err := core.ParseTransport(transport)
	if err != nil {
		return err
	}
	kvCfg := kv.Config{Keys: 32, Ops: 80, ZipfS: 1.2, Seed: 7}
	cc := bench.KVCoreConfig(opts.nodes, kvCfg, tr)
	var rep *core.Report
	if churn {
		if opts.nodes < 2 {
			return fmt.Errorf("kv churn audit needs at least 2 nodes")
		}
		rep, err = core.RunWithChurn(cc, kv.Prog(kvCfg), core.ChurnPlan{
			Victim:        opts.nodes - 1,
			AtOp:          int32(kvCfg.Ops),
			Recovery:      recovery.CCLRecovery,
			LeaseDuration: simtime.Duration(bench.KVLeaseMs * 1e6),
		})
	} else {
		rep, err = core.Run(cc, kv.Prog(kvCfg))
	}
	if err != nil {
		return err
	}
	if err := kv.Check(kvCfg, opts.nodes, rep.MemoryImage()); err != nil {
		return fmt.Errorf("kv image check: %w", err)
	}
	audit, err := logview.Audit(rep.Depot, logview.AuditOptions{})
	if err != nil {
		return err
	}
	what := "failure-free"
	if churn {
		what = fmt.Sprintf("crash-during-traffic (victim %d rejoined at %.4fs%s)",
			rep.Recovery.Victim, rep.Recovery.RejoinTime.Seconds(), tailOpsNote(rep.Recovery))
	}
	fmt.Printf("kv audit OK over %s, %s: %d nodes, %d records, image matches the replay-computed expectation\n",
		tr, what, audit.Nodes, audit.Records)
	vol, err := logview.DissectDepot(rep.Depot)
	if err != nil {
		return err
	}
	fmt.Print(logview.FormatVolume(vol))
	return nil
}

// traceMode re-runs the kv serving workload with tracing on — trace ids
// are a pure function of (seed, node, op index), so the re-run mints
// exactly the ids any earlier same-config run printed or stamped into
// its Chrome trace — and reconstructs causal span trees from the
// collected events.
func traceMode(opts options, transport string, churn bool, kvCfg kv.Config, traceIDHex, traceOut string) error {
	tr, err := core.ParseTransport(transport)
	if err != nil {
		return err
	}
	if err := kvCfg.Validate(); err != nil {
		return err
	}
	cc := bench.KVCoreConfig(opts.nodes, kvCfg, tr)
	cc.Trace = obsv.NewCollector(opts.nodes)
	if churn {
		if opts.nodes < 2 {
			return fmt.Errorf("kv churn trace needs at least 2 nodes")
		}
		_, err = core.RunWithChurn(cc, kv.Prog(kvCfg), core.ChurnPlan{
			Victim:        opts.nodes - 1,
			AtOp:          int32(kvCfg.WithDefaults().Ops),
			Recovery:      recovery.CCLRecovery,
			LeaseDuration: simtime.Duration(bench.KVLeaseMs * 1e6),
		})
	} else {
		_, err = core.Run(cc, kv.Prog(kvCfg))
	}
	if err != nil {
		return err
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := obsv.WriteChromeTrace(f, cc.Trace); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d events)\n\n", traceOut, cc.Trace.EventCount())
	}
	if traceIDHex != "" {
		return printSpanTree(cc.Trace, traceIDHex)
	}
	return printTraceTable(cc.Trace, opts.max)
}

func evName(ev obsv.Event) string {
	if ev.Kind == obsv.EvRecv || ev.Kind == obsv.EvRecvDetached {
		return "recv-" + obsv.KindName(uint8(ev.Arg1))
	}
	return ev.Kind.String()
}

func us(t simtime.Time) float64 { return float64(t) / 1e3 }

// printSpanTree renders one trace's cross-node span tree: the op root,
// its app-side phase spans, and (indented once more) the remote service
// spans the op's messages opened, each with its parent edge.
func printSpanTree(c *obsv.Collector, hex string) error {
	id, err := obsv.ParseTraceID(hex)
	if err != nil {
		return err
	}
	evs := c.TraceEvents(id)
	if len(evs) == 0 {
		return fmt.Errorf("trace %s not found — pass the kv flags (-kv-seed etc.) of the run that minted it", hex)
	}
	var bd *obsv.TraceBreakdown
	for _, b := range c.TraceBreakdowns() {
		if b.Trace.TraceID == id {
			bd = &b
			break
		}
	}
	fmt.Printf("trace %s: %d spans", obsv.FormatTraceID(id), len(evs))
	if bd != nil {
		fmt.Printf(", %s on node %d, %.1fus total, %d nodes touched",
			obsv.TagName(bd.Trace.Tag), bd.Node, float64(bd.Total())/1e3, bd.NodesHit)
	}
	fmt.Println()
	for _, ne := range evs {
		ev := ne.Event
		depth := 1
		switch {
		case ev.Kind == obsv.EvOp:
			depth = 0
		case ev.Flags&obsv.FlagSvc != 0 || ev.Tid == obsv.TidService:
			depth = 2
		}
		fmt.Printf("%s%-22s node %d  [%10.1f %10.1f]us  span %s",
			strings.Repeat("    ", depth), evName(ev), ne.Node, us(ev.T0), us(ev.T1),
			obsv.FormatTraceID(ev.Trace.SpanID))
		if ev.From >= 0 {
			fmt.Printf("  <- node %d @ %.1fus", ev.From, us(ev.SentAt))
		}
		fmt.Println()
	}
	if bd != nil {
		fmt.Printf("\nphase attribution (remote service time %.1fus overlaps the waits):\n",
			float64(bd.SvcTime)/1e3)
		for _, k := range obsv.PhaseKinds() {
			if d := bd.Phase[k]; d > 0 {
				fmt.Printf("  %-14s %10.1fus  %5.1f%%\n", k.String(), float64(d)/1e3,
					100*float64(d)/float64(bd.Total()))
			}
		}
	}
	return nil
}

// printTraceTable renders the per-trace attribution table: the slowest
// traces individually, then the per-tag aggregate phase breakdown (the
// per-op extension of the critical-path walk).
func printTraceTable(c *obsv.Collector, max int) error {
	bds := c.TraceBreakdowns()
	if len(bds) == 0 {
		return fmt.Errorf("the run produced no traced ops")
	}
	if max <= 0 {
		max = 10
	}
	sorted := append([]obsv.TraceBreakdown{}, bds...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Total() > sorted[j].Total() })
	if len(sorted) > max {
		sorted = sorted[:max]
	}
	fmt.Printf("%d traced ops; %d slowest:\n", len(bds), len(sorted))
	fmt.Printf("%-18s %-9s %5s %10s %6s  %s\n", "trace", "tag", "node", "total us", "nodes", "dominant phase")
	for _, b := range sorted {
		k, d := b.Dominant()
		fmt.Printf("%-18s %-9s %5d %10.1f %6d  %s (%.1fus)\n",
			obsv.FormatTraceID(b.Trace.TraceID), obsv.TagName(b.Trace.Tag), b.Node,
			float64(b.Total())/1e3, b.NodesHit, k.String(), float64(d)/1e3)
	}
	fmt.Printf("\nper-tag aggregate phase attribution (mean us per op):\n")
	fmt.Printf("%-9s %6s %9s", "tag", "ops", "total")
	for _, k := range obsv.PhaseKinds() {
		fmt.Printf(" %13s", k.String())
	}
	fmt.Println()
	for _, tag := range []uint8{obsv.TagKVRead, obsv.TagKVWrite} {
		var n int
		var total float64
		phase := map[obsv.EventKind]float64{}
		for _, b := range bds {
			if b.Trace.Tag != tag {
				continue
			}
			n++
			total += float64(b.Total())
			for k, d := range b.Phase {
				phase[k] += float64(d)
			}
		}
		if n == 0 {
			continue
		}
		fmt.Printf("%-9s %6d %9.1f", obsv.TagName(tag), n, total/float64(n)/1e3)
		for _, k := range obsv.PhaseKinds() {
			fmt.Printf(" %13.1f", phase[k]/float64(n)/1e3)
		}
		fmt.Println()
	}
	return nil
}

// churnAuditMode runs the online-recovery churn scenario at every crash
// point and audits the result twice: the stable logs go through the
// standard consistency auditor, and the adopted-home page state is
// verified against its ground truth — every custody-record entry from a
// never-crashed writer must match, byte for byte, a diff that writer
// logged for the page, and the run's final image must equal the
// failure-free run's.
func churnAuditMode(opts options) error {
	base, err := bench.ChurnBaseline(opts.nodes)
	if err != nil {
		return err
	}
	want := base.MemoryImage()
	for _, point := range bench.ChurnPoints {
		rep, err := bench.RunChurnScenario(opts.nodes, point)
		if err != nil {
			return err
		}
		audit, err := logview.Audit(rep.Depot, logview.AuditOptions{})
		if err != nil {
			return fmt.Errorf("%v: %w", point, err)
		}
		sum, err := auditAdoptedHomes(rep, want)
		if err != nil {
			return fmt.Errorf("%v: adopted-home audit: %w", point, err)
		}
		fmt.Printf("%v: log audit OK (%d records); adopted-home audit OK: %d migrated pages, %d custody entries matched the writers' logs, %d replay-only entries, image equals the failure-free run's%s\n",
			point, audit.Records, sum.pages, sum.matched, sum.replayOnly, tailOpsNote(rep.Recovery))
	}
	// Partition-rejoin scenarios: the victim is wrongly declared dead
	// while merely cut off, fenced on heal, and re-admitted at a fresh
	// epoch. The same two audits must reconcile — the truncated stale log
	// suffix and the re-executed ops must leave logs and custody records
	// that match, and the failure-free image.
	for _, partMs := range bench.ChurnPartitionsMs {
		rep, err := bench.RunChurnPartitionScenario(opts.nodes, partMs)
		if err != nil {
			return err
		}
		audit, err := logview.Audit(rep.Depot, logview.AuditOptions{})
		if err != nil {
			return fmt.Errorf("partition %gms: %w", partMs, err)
		}
		sum, err := auditAdoptedHomes(rep, want)
		if err != nil {
			return fmt.Errorf("partition %gms: adopted-home audit: %w", partMs, err)
		}
		var fenced int64
		for _, s := range rep.Stats {
			fenced += s.FencedMsgs
		}
		fmt.Printf("partition %gms: log audit OK (%d records, %d stale truncated); adopted-home audit OK: %d migrated pages, %d custody entries matched, %d replay-only; rejoined at epoch %d, %d stale messages fenced, image equals the failure-free run's%s\n",
			partMs, audit.Records, rep.Recovery.TruncatedRecords, sum.pages, sum.matched, sum.replayOnly,
			rep.Recovery.RejoinEpoch, fenced, tailOpsNote(rep.Recovery))
	}
	return nil
}

// tailOpsNote says how many of the victim's sync ops replayed from the
// managers' sender logs instead of its disk log; empty when none did.
func tailOpsNote(rec *core.RecoveryReport) string {
	if rec.TailOps == 0 {
		return ""
	}
	return fmt.Sprintf("; %d tail ops replayed from sender logs", rec.TailOps)
}

type adoptedAudit struct {
	pages      int // migrated pages checked
	matched    int // custody entries matched against a logged diff
	replayOnly int // entries from the crashed writer (replay flushes are not re-logged)
}

// auditAdoptedHomes matches every custody-record entry against the diff
// its writer logged for the page, and the run's final image against the
// failure-free image want.
func auditAdoptedHomes(rep *core.Report, want []byte) (*adoptedAudit, error) {
	if rep.Recovery == nil {
		return nil, fmt.Errorf("run has no recovery report")
	}
	victim := rep.Recovery.Victim

	// Ground truth: every writer's own-diff log entries for the migrated
	// pages, keyed by (writer, seq, page) with the diff content encoded
	// for byte comparison.
	type key struct {
		writer, seq int32
		page        memory.PageID
	}
	out := &adoptedAudit{}
	loggedKey := map[key][]byte{}
	for p := range rep.Homes {
		if rep.Homes[p] != victim {
			continue
		}
		out.pages++
		pg := memory.PageID(p)
		for w := range rep.NodeOps {
			for _, d := range recovery.LoggedDiffs(rep.Depot.Store(w), int32(w), pg, 0, math.MaxInt32) {
				loggedKey[key{d.Writer, d.Seq, pg}] = d.Diff.Encode(nil)
			}
		}
	}

	for _, st := range rep.AdoptedPages {
		if rep.Homes[st.Page] != victim {
			return nil, fmt.Errorf("custody record for page %d, whose home %d never crashed", st.Page, rep.Homes[st.Page])
		}
		for _, e := range st.Applied {
			if int(e.Writer) == victim {
				// The victim's replay flushes carry predicted interval
				// stamps and are not re-logged; custody-only is legal.
				out.replayOnly++
				continue
			}
			enc, ok := loggedKey[key{e.Writer, e.Seq, st.Page}]
			if !ok {
				return nil, fmt.Errorf("page %d: custody entry (writer %d, seq %d) has no logged diff", st.Page, e.Writer, e.Seq)
			}
			if !bytes.Equal(enc, e.Diff.Encode(nil)) {
				return nil, fmt.Errorf("page %d: custody entry (writer %d, seq %d) differs from the writer's logged diff", st.Page, e.Writer, e.Seq)
			}
			out.matched++
		}
	}
	if !bytes.Equal(rep.MemoryImage(), want) {
		return nil, fmt.Errorf("final image differs from the failure-free run's")
	}
	return out, nil
}

func recoveryMode(w *apps.Workload, opts options) error {
	opts.crash = true
	rep, err := run(w, opts.proto, opts)
	if err != nil {
		return err
	}
	fmt.Printf("%s under %v: node %d crashed at op %d; %v replay took %.3f virtual seconds\n",
		w.Name, opts.proto, rep.Recovery.Victim, rep.Recovery.CrashOp,
		rep.Recovery.Kind, rep.Recovery.ReplayTime.Seconds())
	if rep.Recovery.TornTail {
		fmt.Println("the crash tore the victim's final log flush")
	}
	fmt.Print(logview.FormatRecoveryBreakdown(&rep.Recovery.Phases))
	return nil
}
