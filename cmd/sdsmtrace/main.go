// Command sdsmtrace runs one evaluation application under one logging
// protocol and prints a detailed protocol trace: per-node virtual times,
// fault/fetch/diff counters, log statistics, network totals, latency
// histograms and the per-kind message breakdown.
// With -crash it injects a fail-stop crash and reports the recovery under
// the protocol's own scheme (ML-recovery for ML, CCL-recovery for CCL).
// With -trace-out it exports the run as Chrome trace-event JSON (load in
// Perfetto / chrome://tracing); with -breakdown it walks the virtual-time
// critical path and attributes the runtime to compute, coherence,
// logging, faults and retries.
//
// Usage:
//
//	sdsmtrace [-app 3d-fft|mg|shallow|water] [-protocol none|ml|ccl]
//	          [-nodes 8] [-scale small|medium|large]
//	          [-crash] [-victim 7]
//	          [-trace-out trace.json] [-node N] [-kind event-name] [-breakdown]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"sdsm/internal/apps"
	"sdsm/internal/bench"
	"sdsm/internal/core"
	"sdsm/internal/logview"
	"sdsm/internal/obsv"
	"sdsm/internal/recovery"
	"sdsm/internal/wal"
)

func main() {
	appFlag := flag.String("app", "3d-fft", "application: 3d-fft|mg|shallow|water")
	protoFlag := flag.String("protocol", "ccl", "logging protocol: none|ml|ccl")
	nodes := flag.Int("nodes", 8, "cluster size")
	scaleFlag := flag.String("scale", "small", "problem scale: small|medium|large")
	crash := flag.Bool("crash", false, "inject a fail-stop crash and recover")
	victim := flag.Int("victim", -1, "crash victim (default: last node)")
	traceOut := flag.String("trace-out", "", "write the run as Chrome trace-event JSON to this file")
	breakdown := flag.Bool("breakdown", false, "print the critical-path runtime breakdown")
	nodeFilter := flag.Int("node", -1, "with -trace-out: export only this node's process")
	kindFilter := flag.String("kind", "", "with -trace-out: export only events of this kind (e.g. lock-acquire, page-serve)")
	flag.Parse()

	filter := obsv.NoChromeFilter()
	if *nodeFilter >= 0 {
		filter.Node = *nodeFilter
	}
	if *kindFilter != "" {
		k, ok := obsv.EventKindByName(*kindFilter)
		if !ok {
			log.Fatalf("unknown -kind %q (use an event name as it appears in the trace, e.g. lock-acquire)", *kindFilter)
		}
		filter.Kind = k
	}

	scale, err := bench.ParseScale(*scaleFlag)
	if err != nil {
		log.Fatal(err)
	}
	var w *apps.Workload
	for _, cand := range bench.Workloads(*nodes, scale) {
		if strings.EqualFold(cand.Name, *appFlag) {
			w = cand
		}
	}
	if w == nil {
		log.Fatalf("unknown -app %q", *appFlag)
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

	cfg := w.BaseConfig(*nodes)
	cfg.Protocol = proto
	cfg.Trace = obsv.NewCollector(*nodes)

	var rep *core.Report
	if !*crash {
		cfg.SkipInitialCheckpoint = true
		rep, err = core.Run(cfg, w.Prog)
	} else {
		// A scheme replays only the log its own protocol wrote.
		kind := recovery.CCLRecovery
		if proto == wal.ProtocolML {
			kind = recovery.MLRecovery
		}
		v := *victim
		if v < 0 {
			v = *nodes - 1
		}
		rep, err = core.RunWithCrash(cfg, w.Prog, core.CrashPlan{
			Victim: v, AtOp: w.CrashOp, Recovery: kind,
		})
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := w.Check(rep.MemoryImage()); err != nil {
		log.Fatalf("result validation failed: %v", err)
	}

	fmt.Printf("%s under %v on %d nodes (%s)\n", w.Name, proto, *nodes, w.DataSet)
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
		h := cfg.Trace.MergedHist(id)
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

	if *breakdown {
		pr, err := cfg.Trace.CriticalPath(rep.NodeTimes)
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

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := obsv.WriteChromeTraceFiltered(f, cfg.Trace, filter); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		data, err := os.ReadFile(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if !json.Valid(data) {
			log.Fatalf("%s: exported trace is not valid JSON", *traceOut)
		}
		fmt.Printf("\nwrote %s (%d events, %d bytes)\n", *traceOut, cfg.Trace.EventCount(), len(data))
	}

	fmt.Println("\nresult validation: OK")
}
