// Command benchmark is the repository's benchmark: four workloads, two
// clocks (host wall time and the simulated 1999 cluster's virtual time),
// per-layer probes, one results schema. See README.md.
//
//	benchmark [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out results.json] [-trace-out spans.json]
//	benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// processStart is the origin of the first set-up's clock.
var processStart = time.Now()

// fullSeconds is the run length the pass counts of README.md's workload
// table correspond to (20 passes of table2_sim).
const fullSeconds = 26

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	traceOut string
}

func main() {
	var o options
	compare := flag.Bool("compare", false, "compare two results files: -compare a.json b.json; exits 1 when a pair is outside its bound")
	flag.StringVar(&o.workload, "workload", "", "run one workload (table2_sim, kv_sim, kv_tcp, recovery_sim); default: all four, one process each")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the kv op streams (the four kernels have fixed inputs)")
	flag.IntVar(&o.seconds, "seconds", fullSeconds, "nominal seconds of timed passes per workload; fixes the pass counts")
	flag.IntVar(&o.trace, "trace", 0, "1: after the timed passes run one traced pass and the host probes, and report the per-layer metrics")
	flag.StringVar(&o.out, "out", "", "write the results JSON here")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the benchmark-side spans here")
	flag.Parse()

	var err error
	ok := false
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two results files, got %d arguments", flag.NArg())
			break
		}
		ok, err = runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
	case flag.NArg() != 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case o.seconds < 1 || o.trace < 0 || o.trace > 1:
		err = fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	case o.workload == "":
		ok, err = runAll(o)
	default:
		ok, err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// resultLine is the last line of a single-workload run's standard
// output: the form the benchmark driver reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]lineMetrics `json:"metrics"`
}

type lineMetrics struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResultLine lists every end_to_end metric of BENCHMARK.json for an
// untraced run and every per_layer metric for a traced one. A metric
// that is not defined on the workload (its layer does no work there)
// reads 0.
func newResultLine(res *WorkloadResult, traced bool) resultLine {
	line := resultLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]lineMetrics{}}
	endToEnd, perLayer := contractLists()
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		s, ok := res.EndToEnd[d.Name]
		if !ok {
			s = res.PerLayer[d.Name]
		}
		line.Metrics[d.Name] = lineMetrics{Value: s.Value, Unit: d.Unit}
	}
	return line
}

// runOne runs one workload in this process.
func runOne(o options) (bool, error) {
	res, spans, err := runWorkload(runOptions{workload: o.workload, seed: o.seed, seconds: o.seconds, trace: o.trace == 1}, processStart)
	if err != nil {
		return false, err
	}
	printWorkload(os.Stdout, o.workload, res, spans)
	if o.out != "" {
		all := newResults(o.seed, o.seconds)
		all.Workloads[o.workload] = res
		if err := all.writeFile(o.out); err != nil {
			return false, err
		}
	}
	if o.traceOut != "" && spans != nil {
		if err := spans.writeFile(o.traceOut); err != nil {
			return false, err
		}
	}
	line, err := json.Marshal(newResultLine(res, o.trace == 1))
	if err != nil {
		return false, fmt.Errorf("encoding the result line: %w", err)
	}
	fmt.Printf("\n%s\n", line)
	return res.Failed == 0, nil
}

// runAll runs the four workloads, each in a process of its own so that
// host_peak_rss_mb and the allocator state belong to one workload, and
// merges their results.
func runAll(o options) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	tmp, err := os.MkdirTemp("", "sdsm-benchmark-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)

	all := newResults(o.seed, o.seconds)
	var spans []span
	ok := true
	for _, wl := range allWorkloads {
		out := filepath.Join(tmp, wl+".json")
		args := []string{"-workload", wl, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace), "-out", out}
		spanFile := filepath.Join(tmp, wl+".spans.json")
		if o.traceOut != "" {
			args = append(args, "-trace-out", spanFile)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			if _, exited := err.(*exec.ExitError); !exited {
				return false, fmt.Errorf("running %s: %w", wl, err)
			}
			ok = false // the child said why on its own output
		}
		one, err := readResults(out)
		if err != nil {
			return false, fmt.Errorf("%s wrote no results: %w", wl, err)
		}
		all.Workloads[wl] = one.Workloads[wl]
		if o.traceOut != "" && o.trace == 1 {
			data, err := os.ReadFile(spanFile)
			if err != nil {
				return false, err
			}
			var ss []span
			if err := json.Unmarshal(data, &ss); err != nil {
				return false, fmt.Errorf("decoding %s spans: %w", wl, err)
			}
			spans = append(spans, ss...)
		}
	}

	// The same op streams must leave the same image on both backends.
	sim, tcp := all.Workloads[wlKVSim], all.Workloads[wlKVTCP]
	if sim.ImageCRC != tcp.ImageCRC {
		fmt.Printf("\nFAILED: kv_sim image %s differs from kv_tcp image %s for seed %d\n", sim.ImageCRC, tcp.ImageCRC, o.seed)
		ok = false
	} else {
		fmt.Printf("\nkv_sim and kv_tcp agree on the final image (crc %s, seed %d)\n", sim.ImageCRC, o.seed)
	}
	if o.out != "" {
		if err := all.writeFile(o.out); err != nil {
			return false, err
		}
	}
	if spans != nil {
		if err := (&spanRecorder{spans: spans}).writeFile(o.traceOut); err != nil {
			return false, err
		}
	}
	return ok, nil
}
