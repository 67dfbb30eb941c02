// Command sdsminspect runs the evaluation applications one at a time and
// inspects what a run leaves behind: its protocol trace, the stable logs
// the logging protocols write (the introspection side of the paper's
// log-volume and recovery-time evaluation), and the kv workload's causal
// span trees.
//
// Modes:
//
//	run       run one app under one protocol (none|ml|ccl) and print its
//	          protocol trace: per-node virtual times and counters, log
//	          and network totals, latency histograms, the per-kind
//	          message breakdown; with -crash, the recovery under the
//	          protocol's own scheme and its phase breakdown; with
//	          -breakdown, the runtime along the virtual-time critical
//	          path by category (compute, coherence, logging, faults)
//	volume    run each selected app under ML and CCL and print the
//	          per-kind log-volume comparison (the paper's ML-vs-CCL
//	          log-size table), with byte totals reconciled exactly
//	          against the stable layer's own flush accounting
//	dump      run one app under one protocol and print every log
//	          record dissected into typed form
//	audit     run one app (optionally with -crash) and run the
//	          post-run consistency auditor over the depot; with
//	          -app kv, run the kv serving workload over the wire
//	          backend selected by -transport (with -churn, crashed
//	          mid-traffic) and audit its log and final image (the churn
//	          sweep audits its own runs: sdsmbench -churn)
//	trace     re-run the kv serving workload (same seed => identical
//	          deterministic trace ids) and reconstruct causal span
//	          trees: with -trace-id, print the named op's cross-node
//	          span tree and phase breakdown; without, print the per-op
//	          span-phase attribution table (slowest traces, whose ids
//	          -trace-id resolves, plus per-tag aggregate)
//
// In run and trace mode, -trace-out exports the run as Chrome
// trace-event JSON (load in Perfetto / chrome://tracing), -node and
// -kind narrowing it; the file is read back and must be valid JSON.
//
// Usage:
//
//	sdsminspect [-mode run|volume|dump|audit|trace]
//	            [-app all|3d-fft|mg|shallow|water|kv] [-protocol none|ml|ccl]
//	            [-nodes 8] [-scale small|medium|large] [-transport sim|tcp]
//	            [-crash] [-churn] [-victim N] [-breakdown]
//	            [-node N] [-kind event-name] [-max N]
//	            [-trace-id hex] [-trace-out trace.json]
//	            [-kv-keys N] [-kv-value N] [-kv-ops N]
//	            [-kv-readpct N] [-kv-zipf S] [-kv-seed N]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"sdsm/internal/apps"
	"sdsm/internal/apps/kv"
	"sdsm/internal/bench"
	"sdsm/internal/core"
	"sdsm/internal/logview"
	"sdsm/internal/obsv"
	"sdsm/internal/recovery"
	"sdsm/internal/simtime"
	"sdsm/internal/wal"
)

type options struct {
	nodes     int
	scale     bench.Scale
	proto     wal.Protocol
	crash     bool
	victim    int
	max       int
	breakdown bool
	traceOut  string
	filter    obsv.ChromeFilter
}

func main() {
	mode := flag.String("mode", "volume", "run|volume|dump|audit|trace")
	appFlag := flag.String("app", "all", "application: all|3d-fft|mg|shallow|water, or kv for audit/trace (all: a single-app mode runs 3d-fft)")
	protoFlag := flag.String("protocol", "ccl", "logging protocol for run/dump/audit: none|ml|ccl (dump and audit need ml or ccl)")
	nodes := flag.Int("nodes", 8, "cluster size")
	scaleFlag := flag.String("scale", "small", "problem scale: small|medium|large")
	crash := flag.Bool("crash", false, "run/dump/audit/volume: inject a fail-stop crash and recover")
	churn := flag.Bool("churn", false, "kv audit/trace: crash a node mid-traffic and recover it online")
	victim := flag.Int("victim", -1, "crash victim (default: last node)")
	breakdown := flag.Bool("breakdown", false, "run mode: print the critical-path runtime breakdown")
	nodeFlag := flag.Int("node", -1, "dump mode: only this node's log; with -trace-out: only this node's process")
	kindFlag := flag.String("kind", "", "with -trace-out: export only events of this kind (e.g. lock-acquire, page-serve)")
	max := flag.Int("max", 0, "dump mode: at most this many records per node (0 = all); trace mode: this many slowest traces (0 = 10)")
	transportFlag := flag.String("transport", "sim", "kv audit/trace: wire backend, sim|tcp")
	traceID := flag.String("trace-id", "", "trace mode: resolve this 16-hex-digit trace id into its span tree")
	traceOut := flag.String("trace-out", "", "run/trace mode: also export the run as Chrome trace-event JSON to this file")
	kvCfg := bench.KVFlags(flag.CommandLine)
	flag.Parse()

	scale, err := bench.ParseScale(*scaleFlag)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := core.ParseTransport(*transportFlag)
	if err != nil {
		log.Fatal(err)
	}
	var proto wal.Protocol
	switch strings.ToLower(*protoFlag) {
	case "none":
		proto = wal.ProtocolNone
	case "ml":
		proto = wal.ProtocolML
	case "ccl":
		proto = wal.ProtocolCCL
	default:
		log.Fatalf("unknown -protocol %q", *protoFlag)
	}
	filter := obsv.NoChromeFilter()
	filter.Node = *nodeFlag
	if *kindFlag != "" {
		k, ok := obsv.EventKindByName(*kindFlag)
		if !ok {
			log.Fatalf("unknown -kind %q (use an event name as it appears in the trace, e.g. lock-acquire)", *kindFlag)
		}
		filter.Kind = k
	}
	opts := options{nodes: *nodes, scale: scale, proto: proto,
		crash: *crash, victim: *victim, max: *max,
		breakdown: *breakdown, traceOut: *traceOut, filter: filter}
	isKV := strings.EqualFold(*appFlag, "kv")
	if proto == wal.ProtocolNone && (*mode == "dump" || *mode == "audit" && !isKV) {
		log.Fatalf("-mode %s -protocol none: there is no log to dissect (use ml or ccl)", *mode)
	}

	switch *mode {
	case "run":
		err = runMode(oneApp(*appFlag, opts), opts)
	case "volume":
		err = volumeMode(selectApps(*appFlag, opts), opts)
	case "dump":
		err = dumpMode(oneApp(*appFlag, opts), opts)
	case "audit":
		switch {
		case isKV:
			err = kvAuditMode(opts, *kvCfg, tr, *churn)
		case *churn:
			err = fmt.Errorf("-mode audit -churn takes -app kv; the churn sweep audits every run itself: sdsmbench -churn")
		default:
			err = auditMode(oneApp(*appFlag, opts), opts)
		}
	case "trace":
		err = traceMode(opts, *kvCfg, tr, *churn, *traceID)
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

// run executes one workload, traced into col when col is non-nil, and
// checks its final image; with crash set it injects a fail-stop crash at
// the workload's canonical crash op and recovers under the protocol's
// own scheme (a scheme replays only the log its own protocol wrote).
func run(w *apps.Workload, proto wal.Protocol, opts options, col *obsv.Collector) (*core.Report, error) {
	cfg := w.BaseConfig(opts.nodes)
	cfg.Protocol = proto
	cfg.Trace = col
	var rep *core.Report
	var err error
	if !opts.crash {
		cfg.SkipInitialCheckpoint = true
		rep, err = core.Run(cfg, w.Prog)
	} else {
		kind := recovery.CCLRecovery
		if proto == wal.ProtocolML {
			kind = recovery.MLRecovery
		}
		v := opts.victim
		if v < 0 {
			v = opts.nodes - 1
		}
		rep, err = core.RunWithCrash(cfg, w.Prog, core.CrashPlan{
			Victim: v, AtOp: w.CrashOp, Recovery: kind,
		})
	}
	if err != nil {
		return nil, err
	}
	if err := w.Check(rep.MemoryImage()); err != nil {
		return nil, fmt.Errorf("result validation failed: %w", err)
	}
	return rep, nil
}

// exportTrace writes the collector's events, narrowed by filter, as
// Chrome trace-event JSON to path, reads the file back and fails unless
// it is valid JSON.
func exportTrace(path string, c *obsv.Collector, filter obsv.ChromeFilter) error {
	var buf bytes.Buffer
	if err := obsv.WriteChromeTraceFiltered(&buf, c, filter); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !json.Valid(data) {
		return fmt.Errorf("%s: exported trace is not valid JSON", path)
	}
	fmt.Printf("wrote %s (%d events, %d bytes)\n", path, c.EventCount(), len(data))
	return nil
}

// runMode runs one app traced and prints its protocol trace, the
// recovery (with -crash), the critical path (with -breakdown) and the
// Chrome export (with -trace-out).
func runMode(w *apps.Workload, opts options) error {
	col := obsv.NewCollector(opts.nodes)
	rep, err := run(w, opts.proto, opts, col)
	if err != nil {
		return err
	}

	fmt.Printf("%s under %v on %d nodes (%s)\n", w.Name, opts.proto, opts.nodes, w.DataSet)
	fmt.Printf("execution time: %.3f virtual seconds\n", rep.ExecTime.Seconds())
	fmt.Printf("network: %d messages, %.2f MB\n", rep.NetMsgs, float64(rep.NetBytes)/(1<<20))
	if rep.TotalFlushes > 0 {
		fmt.Printf("log: %.2f MB in %d flushes (mean %.1f KB)\n",
			float64(rep.TotalLogBytes)/(1<<20), rep.TotalFlushes, rep.MeanFlushBytes/1024)
	}
	fmt.Printf("\n%-5s %12s %8s %8s %8s %8s %8s %9s %8s\n",
		"node", "time(s)", "ops", "faults", "fetches", "twins", "diffs", "diffKB", "flushes")
	for i := range rep.NodeTimes {
		s := rep.Stats[i]
		fmt.Printf("%-5d %12.3f %8d %8d %8d %8d %8d %9.1f %8d\n",
			i, rep.NodeTimes[i].Seconds(), rep.NodeOps[i], s.Faults, s.PageFetches,
			s.TwinsCreated, s.DiffsCreated, float64(s.DiffBytesSent)/1024,
			rep.StoreStats[i].Flushes)
	}
	fmt.Printf("\n%-18s %10s %12s\n", "message kind", "msgs", "KB")
	for _, kc := range rep.MsgKinds {
		fmt.Printf("%-18s %10d %12.1f\n", kc.Name, kc.Msgs, float64(kc.Bytes)/1024)
	}

	fmt.Printf("\n%-18s %10s %12s %12s %12s\n", "latency", "count", "mean(us)", "p50(us)", "p99(us)")
	for _, id := range []obsv.HistID{obsv.HistFetchLatency, obsv.HistLockStall, obsv.HistBarrierStall, obsv.HistFlushDisk} {
		h := col.MergedHist(id)
		if h.Count == 0 {
			continue
		}
		fmt.Printf("%-18s %10d %12.1f %12.1f %12.1f\n", id.String(), h.Count,
			h.Mean()/1e3, float64(h.Quantile(0.5))/1e3, float64(h.Quantile(0.99))/1e3)
	}

	if rep.Recovery != nil {
		fmt.Printf("\ncrash: node %d at op %d; %v replay took %.3f virtual seconds\n",
			rep.Recovery.Victim, rep.Recovery.CrashOp, rep.Recovery.Kind,
			rep.Recovery.ReplayTime.Seconds())
		fmt.Print(logview.FormatRecoveryBreakdown(&rep.Recovery.Phases))
	}

	if opts.breakdown {
		pr, err := col.CriticalPath(rep.NodeTimes)
		if err != nil {
			fmt.Printf("\ncritical path: unavailable (%v)\n", err)
		} else {
			fmt.Printf("\ncritical path (%d hops), %.3f virtual seconds:\n", pr.Hops, pr.Total.Seconds())
			for c := obsv.Cat(0); c < obsv.NumCats; c++ {
				if pr.Dur[c] == 0 {
					continue
				}
				fmt.Printf("  %-10s %10.3fs  %5.1f%%\n", c.String(), pr.Dur[c].Seconds(), pr.Share(c)*100)
			}
		}
	}

	if opts.traceOut != "" {
		fmt.Println()
		if err := exportTrace(opts.traceOut, col, opts.filter); err != nil {
			return err
		}
	}

	fmt.Println("\nresult validation: OK")
	return nil
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
			rep, err := run(w, proto, opts, nil)
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
	rep, err := run(w, opts.proto, opts, nil)
	if err != nil {
		return err
	}
	for node := 0; node < rep.Depot.Nodes(); node++ {
		if opts.filter.Node >= 0 && node != opts.filter.Node {
			continue
		}
		prefix, dropped := rep.Depot.Store(node).ValidPrefix()
		fmt.Printf("node %d: %d records (%d torn)\n", node, len(prefix), dropped)
		var dis wal.Dissector
		for i, r := range prefix {
			if opts.max > 0 && i >= opts.max {
				fmt.Printf("  ... %d more\n", len(prefix)-i)
				break
			}
			d, err := dis.Dissect(r)
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
	rep, err := run(w, opts.proto, opts, nil)
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
// backend — with churn, crashed mid-traffic and recovered online —
// through the bench's kv cell, which audits the stable logs and verifies
// the final image against the workload's exact replay-computed
// expectation, then dissects the logs.
func kvAuditMode(opts options, cfg kv.Config, tr core.Transport, churn bool) error {
	rep, _, row, err := bench.RunKV(opts.nodes, cfg, tr, churn)
	if err != nil {
		return err
	}
	what := "failure-free"
	if churn {
		what = fmt.Sprintf("crash-during-traffic (victim %d rejoined at %.4fs)",
			rep.Recovery.Victim, rep.Recovery.RejoinTime.Seconds())
	}
	fmt.Printf("kv audit OK over %s, %s: %d nodes, %d records, image matches the replay-computed expectation\n",
		tr, what, rep.Depot.Nodes(), row.AuditRecords)
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
func traceMode(opts options, cfg kv.Config, tr core.Transport, churn bool, traceIDHex string) error {
	_, col, _, err := bench.RunKV(opts.nodes, cfg, tr, churn)
	if err != nil {
		return err
	}
	if opts.traceOut != "" {
		if err := exportTrace(opts.traceOut, col, opts.filter); err != nil {
			return err
		}
		fmt.Println()
	}
	if traceIDHex != "" {
		return printSpanTree(col, traceIDHex)
	}
	return printTraceTable(col, opts.max)
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
