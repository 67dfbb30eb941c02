package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// resultsSchema versions the results JSON.
const resultsSchema = 1

// Results is the file -out writes and -compare reads: one invocation of
// the benchmark, one entry per workload it ran.
type Results struct {
	Schema     int                        `json:"schema"`
	Commit     string                     `json:"commit"`
	GoVersion  string                     `json:"go_version"`
	NProc      int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Seed       int64                      `json:"seed"`
	Seconds    int                        `json:"seconds"`
	Workloads  map[string]*WorkloadResult `json:"workloads"`
}

// WorkloadResult is one workload's run.
type WorkloadResult struct {
	Passes    int      `json:"passes"`
	SeedNote  string   `json:"seed_note"`
	Attempted int      `json:"cells_attempted"`
	Failed    int      `json:"cells_failed"`
	Failures  []string `json:"failures,omitempty"`
	// ImageCRC is the CRC32 of the kv workloads' final image: kv_sim and
	// kv_tcp must report the same one for the same seed.
	ImageCRC string `json:"image_crc,omitempty"`
	// EndToEnd and PerLayer hold only the metrics defined on this
	// workload. PerLayer is filled by a traced run.
	EndToEnd    map[string]Sample `json:"end_to_end"`
	PerLayer    map[string]Sample `json:"per_layer,omitempty"`
	SimIdentity []CellIdentity    `json:"sim_identity"`
	Paper       []PaperRef        `json:"paper,omitempty"`
}

// Sample is one metric's value: for a per-pass metric the median over
// the passes with its quartiles, for a pooled or one-shot metric the
// value itself (Raw then holds the per-pass or per-set-up values behind
// the quartiles, when there are any).
type Sample struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Clock string    `json:"clock"`
	Q1    float64   `json:"q1"`
	Q3    float64   `json:"q3"`
	N     int       `json:"n"` // samples behind Value
	Raw   []float64 `json:"raw,omitempty"`
}

// CellIdentity says which simulated quantities of a cell were identical
// across the passes of the run.
type CellIdentity struct {
	Cell     string   `json:"cell"`
	Passes   int      `json:"passes"`
	ExecTime bool     `json:"exec_time"`
	LogBytes bool     `json:"log_bytes"`
	NetMsgs  bool     `json:"net_msgs"`
	NetBytes bool     `json:"net_bytes"`
	Flushes  bool     `json:"flushes"`
	First    simFacts `json:"first"`
	// ExecSpreadPct is (max-min)/min of ExecTime over the passes.
	ExecSpreadPct float64 `json:"exec_spread_pct"`
}

func (c *CellIdentity) identical() bool {
	return c.ExecTime && c.LogBytes && c.NetMsgs && c.NetBytes && c.Flushes
}

// PaperRef puts a reproduced quantity beside the paper's value (from
// EXPERIMENTS.md) with the error in points.
type PaperRef struct {
	Metric   string  `json:"metric"`
	Measured float64 `json:"measured"`
	Paper    float64 `json:"paper"`
	ErrorPts float64 `json:"error_points"`
	Note     string  `json:"note"`
}

func newResults(seed int64, seconds int) *Results {
	return &Results{
		Schema:     resultsSchema,
		Commit:     buildCommit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Seconds:    seconds,
		Workloads:  map[string]*WorkloadResult{},
	}
}

// buildCommit is the VCS revision the go tool stamped into the binary;
// "unknown" when it was built outside a repository.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func (r *Results) writeFile(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return fmt.Errorf("encoding results: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	return nil
}

func readResults(path string) (*Results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading results: %w", err)
	}
	var r Results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	if r.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: results schema %d, this benchmark reads %d", path, r.Schema, resultsSchema)
	}
	return &r, nil
}
