// Command sdsmbench regenerates the paper's evaluation: Table 1 (application
// characteristics), Table 2(a)-(d) (failure-free logging overhead), Figure 4
// (normalized execution time) and Figure 5 (normalized recovery time) — plus
// the kv serving benchmark (latency percentiles per wire backend, with and
// without churn).
//
// Usage:
//
//	sdsmbench [-nodes 8] [-scale small|medium|large] [-app all|3d-fft|mg|shallow|water|kv] [-transport both|sim|tcp] [-skip-recovery] [-ablations] [-faults] [-churn]
//
// The tables are for reading. Whether a change regressed is answered by
// `bash benchmark/run.sh` and its -compare (see benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"sdsm/internal/apps"
	kvapp "sdsm/internal/apps/kv"
	"sdsm/internal/bench"
	"sdsm/internal/core"
	"sdsm/internal/telemetry"
	"sdsm/internal/telemetry/httpserver"
)

func main() {
	nodes := flag.Int("nodes", 8, "cluster size (the paper uses 8)")
	scaleFlag := flag.String("scale", "medium", "problem scale: small|medium|large")
	appFlag := flag.String("app", "all", "application: all|3d-fft|mg|shallow|water|kv")
	transportFlag := flag.String("transport", "both", "kv wire backend: both|sim|tcp")
	kvKeys := flag.Int("kv-keys", 0, "kv: table size (0 = default 64)")
	kvValue := flag.Int("kv-value", 0, "kv: value bytes, multiple of 8 (0 = default 32)")
	kvOps := flag.Int("kv-ops", 0, "kv: transactions per client (0 = default 160)")
	kvReadPct := flag.Int("kv-readpct", 0, "kv: read percentage 1..100, -1 = pure writes (0 = default 80)")
	kvZipf := flag.Float64("kv-zipf", 1.2, "kv: zipf key skew s > 1, or 0 for uniform")
	kvSeed := flag.Int64("kv-seed", 0, "kv: op-stream seed (0 = default 1)")
	telemetryAddr := flag.String("telemetry", "", "kv: serve live Prometheus metrics on this host:port (port 0 picks one) while the bench runs")
	telemetrySelfcheck := flag.Bool("telemetry-selfcheck", false, "kv: scrape the -telemetry endpoint while the run is live and fail unless the required metric families are exposed")
	slowLogPath := flag.String("slow-log", "", "kv: append threshold-gated slow-op records (JSONL, trace-id-stamped) to this file")
	slowThresholdUs := flag.Float64("slow-threshold-us", 500, "kv: virtual latency floor (microseconds) for -slow-log records")
	skipRecovery := flag.Bool("skip-recovery", false, "skip the Figure 5 recovery experiments")
	ablations := flag.Bool("ablations", false, "run only the ablation studies (overlap, placement, page size, scaling, checkpoints)")
	faults := flag.Bool("faults", false, "run only the fault-injection sweep (execution time under seeded message loss)")
	churn := flag.Bool("churn", false, "run only the online-recovery churn sweep (surviving-cluster throughput, recovering-node catch-up, and the partition/rejoin availability cells)")
	flag.Parse()

	if *nodes < 1 {
		log.Fatalf("-nodes %d: need at least one node", *nodes)
	}
	scale, err := bench.ParseScale(*scaleFlag)
	if err != nil {
		log.Fatal(err)
	}
	if strings.EqualFold(*appFlag, "kv") {
		kvCfg := kvapp.Config{Keys: *kvKeys, ValueSize: *kvValue, Ops: *kvOps,
			ReadPct: *kvReadPct, ZipfS: *kvZipf, Seed: *kvSeed}
		if err := kvCfg.Validate(); err != nil {
			log.Fatal(err)
		}
		var transports []core.Transport
		if strings.EqualFold(*transportFlag, "both") {
			transports = bench.KVTransports
		} else {
			tr, err := core.ParseTransport(*transportFlag)
			if err != nil {
				log.Fatal(err)
			}
			transports = []core.Transport{tr}
		}

		var opts bench.KVBenchOptions
		var telSrv *httpserver.Server
		if *telemetryAddr != "" {
			reg := telemetry.NewRegistry()
			srv, err := httpserver.Serve(*telemetryAddr, reg)
			if err != nil {
				log.Fatal(err)
			}
			defer srv.Close()
			telSrv = srv
			opts.Telemetry = reg
			fmt.Fprintf(os.Stderr, "telemetry: serving live metrics on http://%s/metrics\n", srv.Addr())
		}
		if *slowLogPath != "" {
			f, err := os.Create(*slowLogPath)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			slowLog := telemetry.NewSlowOpLog(f, int64(*slowThresholdUs*1e3))
			opts.OnOp = func(rec kvapp.OpRecord) {
				slowLog.Observe(rec.Node, rec.Trace, rec.Write, rec.Key, rec.Seq,
					int64(rec.Start), int64(rec.Latency))
			}
			defer func() {
				fmt.Fprintf(os.Stderr, "slow-op log: %d records >= %gus in %s\n",
					slowLog.Count(), *slowThresholdUs, *slowLogPath)
			}()
		}
		var scResult chan error
		var scStop chan struct{}
		if *telemetrySelfcheck {
			if telSrv == nil {
				log.Fatal("-telemetry-selfcheck needs -telemetry host:port")
			}
			families := append([]string{}, telemetry.RequiredFamilies...)
			for _, tr := range transports {
				if tr == core.TransportTCP {
					families = append(families, telemetry.RequiredLinkFamilies...)
					break
				}
			}
			scResult, scStop = make(chan error, 1), make(chan struct{})
			go func() { scResult <- selfScrape(telSrv.Addr(), scStop, families) }()
		}

		rows, err := bench.RunKVBenchOpts(*nodes, kvCfg, transports, opts)
		if err != nil {
			log.Fatal(err)
		}
		if scResult != nil {
			close(scStop)
			if err := <-scResult; err != nil {
				log.Fatalf("telemetry self-check failed: %v", err)
			}
			fmt.Fprintln(os.Stderr, "telemetry self-check OK: live scrape exposed every required metric family")
		}
		fmt.Print(bench.FormatKV(*nodes, kvCfg, rows))
		return
	}
	if *churn {
		rows, err := bench.RunChurnBench(*nodes)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(bench.FormatChurn(*nodes, rows))
		return
	}
	if *faults {
		out, err := bench.FormatFaultSweep(*nodes, bench.ScaleSmall)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(out)
		return
	}
	if *ablations {
		out, err := bench.FormatAblations(*nodes, bench.ScaleSmall)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(out)
		return
	}
	all := bench.Workloads(*nodes, scale)
	var ws []*apps.Workload
	for _, w := range all {
		if *appFlag == "all" || strings.EqualFold(w.Name, *appFlag) {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		log.Fatalf("unknown -app %q", *appFlag)
	}

	fmt.Println(bench.FormatTable1(ws))

	var t2 []*bench.Table2Result
	letters := "abcd"
	for i, w := range ws {
		fmt.Fprintf(os.Stderr, "running Table 2: %s ...\n", w.Name)
		r, err := bench.RunTable2(w, *nodes)
		if err != nil {
			log.Fatal(err)
		}
		t2 = append(t2, r)
		fmt.Println(bench.FormatTable2(string(letters[i%4]), r))
	}
	fmt.Println(bench.FormatFigure4(t2))

	if *skipRecovery {
		return
	}
	var f5 []*bench.Figure5Result
	for _, w := range ws {
		fmt.Fprintf(os.Stderr, "running Figure 5: %s ...\n", w.Name)
		r, err := bench.RunFigure5(w, *nodes)
		if err != nil {
			log.Fatal(err)
		}
		f5 = append(f5, r)
	}
	fmt.Println(bench.FormatFigure5(f5))
}

// selfScrape polls the telemetry endpoint while the bench runs until it
// captures a page that both exposes every required metric family and
// shows live progress (a nonzero lock-acquire count — evidence the
// scrape observed the run in flight, not an idle registry). It returns
// the last failure when stop closes first.
func selfScrape(addr string, stop <-chan struct{}, families []string) error {
	url := "http://" + addr + "/metrics"
	lastErr := fmt.Errorf("endpoint was never scraped")
	for {
		select {
		case <-stop:
			return fmt.Errorf("run finished before a live scrape passed: %w", lastErr)
		default:
		}
		resp, err := http.Get(url)
		if err != nil {
			lastErr = err
		} else {
			page, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case err != nil:
				lastErr = err
			case !strings.Contains(string(page), "\nsdsm_lock_acquires_total ") &&
				!strings.HasPrefix(string(page), "sdsm_lock_acquires_total "):
				lastErr = fmt.Errorf("page carries no sdsm_lock_acquires_total sample")
			case scrapeValue(string(page), "sdsm_lock_acquires_total") <= 0:
				lastErr = fmt.Errorf("run not yet live (sdsm_lock_acquires_total is 0)")
			default:
				if cerr := telemetry.CheckExposition(page, families); cerr != nil {
					lastErr = cerr
				} else {
					return nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// scrapeValue extracts an unlabeled sample's integer value from an
// exposition page, -1 when absent.
func scrapeValue(page, family string) int64 {
	for _, ln := range strings.Split(page, "\n") {
		var v int64
		if _, err := fmt.Sscanf(ln, family+" %d", &v); err == nil {
			return v
		}
	}
	return -1
}
