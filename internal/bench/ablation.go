package bench

import (
	"fmt"
	"strings"

	"sdsm/internal/apps"
	"sdsm/internal/apps/fft"
	"sdsm/internal/apps/shallow"
	"sdsm/internal/core"
	"sdsm/internal/wal"
)

// This file holds the ablation studies of the design choices DESIGN.md
// calls out: CCL's flush/communication overlap, home placement, page
// size, cluster size, and the periodic-checkpoint interval.

// OverlapAblation measures CCL with and without its latency-tolerance
// technique (flushing overlapped with the release's diff/ack round trip
// versus fully serialized before the diffs leave).
type OverlapAblation struct {
	App                        string
	BaseSec                    float64
	OverheadWith, OverheadSans float64 // percent over baseline
}

// RunOverlapAblation runs the ablation for one workload.
func RunOverlapAblation(w *apps.Workload, nodes int) (*OverlapAblation, error) {
	res := &OverlapAblation{App: w.Name}
	base := w.BaseConfig(nodes)
	base.Protocol = wal.ProtocolNone
	rep, err := runChecked(w, base, nil)
	if err != nil {
		return nil, err
	}
	res.BaseSec = rep.ExecTime.Seconds()

	for _, sans := range []bool{false, true} {
		cfg := w.BaseConfig(nodes)
		cfg.Protocol = wal.ProtocolCCL
		cfg.NoFlushOverlap = sans
		rep, err := runChecked(w, cfg, nil)
		if err != nil {
			return nil, err
		}
		sec := rep.ExecTime.Seconds()
		if sans {
			res.OverheadSans = (sec/res.BaseSec - 1) * 100
		} else {
			res.OverheadWith = (sec/res.BaseSec - 1) * 100
		}
	}
	return res, nil
}

// PlacementAblation compares the partition-matched block home assignment
// against naive round-robin placement — the home-based protocol's
// sensitivity to home placement.
type PlacementAblation struct {
	App               string
	BlockSec, RRSec   float64
	BlockMsgs, RRMsgs int64
}

// RunPlacementAblation runs the ablation for one workload.
func RunPlacementAblation(w *apps.Workload, nodes int) (*PlacementAblation, error) {
	res := &PlacementAblation{App: w.Name}
	for _, rr := range []bool{false, true} {
		cfg := w.BaseConfig(nodes)
		cfg.Protocol = wal.ProtocolNone
		if rr {
			cfg.Homes = core.RoundRobinHomes(w.Pages, nodes)
		}
		rep, err := runChecked(w, cfg, nil)
		if err != nil {
			return nil, err
		}
		if rr {
			res.RRSec = rep.ExecTime.Seconds()
			res.RRMsgs = rep.NetMsgs
		} else {
			res.BlockSec = rep.ExecTime.Seconds()
			res.BlockMsgs = rep.NetMsgs
		}
	}
	return res, nil
}

// PageSizeRow is one coherence-unit point of the page-size sweep.
type PageSizeRow struct {
	PageSize            int
	NoneSec, MLSec      float64
	CCLSec              float64
	MLLogMB             float64
	Faults, EarlyCloses int64
}

// RunPageSizeSweep sweeps the coherence unit on the Shallow workload
// (fixed problem size): small pages cut false sharing and ML's
// full-page log volume but multiply faults; large pages do the reverse.
func RunPageSizeSweep(nodes int, sizes []int) ([]PageSizeRow, error) {
	var rows []PageSizeRow
	for _, ps := range sizes {
		w := shallow.New(64, 64, 8, nodes, ps)
		row := PageSizeRow{PageSize: ps}
		for _, proto := range Protocols {
			cfg := w.BaseConfig(nodes)
			cfg.Protocol = proto
			rep, err := runChecked(w, cfg, nil)
			if err != nil {
				return nil, err
			}
			sec := rep.ExecTime.Seconds()
			switch proto {
			case wal.ProtocolNone:
				row.NoneSec = sec
				for _, s := range rep.Stats {
					row.Faults += s.Faults
					row.EarlyCloses += s.EarlyCloses
				}
			case wal.ProtocolML:
				row.MLSec = sec
				row.MLLogMB = float64(rep.TotalLogBytes) / (1 << 20)
			case wal.ProtocolCCL:
				row.CCLSec = sec
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ScalingRow is one cluster-size point.
type ScalingRow struct {
	Nodes           int
	NoneSec         float64
	CCLOverheadPct  float64
	MLOverheadPct   float64
	LogBytesPerNode int64
}

// RunScalingSweep measures the 3D-FFT workload across cluster sizes:
// execution time and the logging overheads as the paper's probability-
// of-failure motivation grows with the system.
func RunScalingSweep(sizes []int) ([]ScalingRow, error) {
	var rows []ScalingRow
	for _, n := range sizes {
		w := fft.New(16, 16, 16, 3, n, 4096)
		row := ScalingRow{Nodes: n}
		var base float64
		for _, proto := range Protocols {
			cfg := w.BaseConfig(n)
			cfg.Protocol = proto
			rep, err := runChecked(w, cfg, nil)
			if err != nil {
				return nil, err
			}
			sec := rep.ExecTime.Seconds()
			switch proto {
			case wal.ProtocolNone:
				base = sec
				row.NoneSec = sec
			case wal.ProtocolML:
				row.MLOverheadPct = (sec/base - 1) * 100
			case wal.ProtocolCCL:
				row.CCLOverheadPct = (sec/base - 1) * 100
				row.LogBytesPerNode = rep.TotalLogBytes / int64(n)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// CheckpointRow is one checkpoint-interval point.
type CheckpointRow struct {
	EveryBarriers int // 0 = initial checkpoint only
	ExecSec       float64
	OverheadPct   float64
	CheckpointMB  float64
	Checkpoints   int
}

// RunCheckpointSweep measures the failure-free cost of periodic
// checkpointing (the paper's §3.2 facility) at several intervals on the
// Shallow workload.
func RunCheckpointSweep(nodes int, intervals []int) ([]CheckpointRow, error) {
	w := shallow.New(64, 64, 16, nodes, 4096)
	var base float64
	var rows []CheckpointRow
	for i, k := range intervals {
		cfg := w.BaseConfig(nodes)
		cfg.Protocol = wal.ProtocolCCL
		cfg.CheckpointEveryBarriers = k
		rep, err := runChecked(w, cfg, nil)
		if err != nil {
			return nil, err
		}
		sec := rep.ExecTime.Seconds()
		if i == 0 {
			base = sec
		}
		rows = append(rows, CheckpointRow{
			EveryBarriers: k,
			ExecSec:       sec,
			OverheadPct:   (sec/base - 1) * 100,
			CheckpointMB:  float64(rep.CheckpointBytes) / (1 << 20),
			Checkpoints:   rep.StoreStats[0].Checkpoints,
		})
	}
	return rows, nil
}

// FormatAblations renders all ablation studies.
func FormatAblations(nodes int, scale Scale) (string, error) {
	var b strings.Builder

	b.WriteString("Ablation A: CCL flush/communication overlap (CCL overhead over baseline, %)\n")
	fmt.Fprintf(&b, "%-10s %14s %14s\n", "Program", "overlapped", "serialized")
	for _, w := range Workloads(nodes, scale) {
		r, err := RunOverlapAblation(w, nodes)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-10s %13.1f%% %13.1f%%\n", r.App, r.OverheadWith, r.OverheadSans)
	}

	b.WriteString("\nAblation B: home placement (no logging)\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %12s %12s\n", "Program", "block sec", "rrobin sec", "block msgs", "rrobin msgs")
	for _, w := range Workloads(nodes, scale) {
		r, err := RunPlacementAblation(w, nodes)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-10s %12.3f %12.3f %12d %12d\n", r.App, r.BlockSec, r.RRSec, r.BlockMsgs, r.RRMsgs)
	}

	b.WriteString("\nAblation C: coherence unit (Shallow 64x64, 8 steps)\n")
	fmt.Fprintf(&b, "%8s %10s %10s %10s %10s %8s\n", "page", "None", "ML", "CCL", "ML logMB", "faults")
	rows, err := RunPageSizeSweep(nodes, []int{1024, 2048, 4096, 8192})
	if err != nil {
		return "", err
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %10.3f %10.3f %10.3f %10.2f %8d\n",
			r.PageSize, r.NoneSec, r.MLSec, r.CCLSec, r.MLLogMB, r.Faults)
	}

	b.WriteString("\nAblation D: cluster size (3D-FFT 16^3, 3 iterations)\n")
	fmt.Fprintf(&b, "%6s %10s %10s %10s %12s\n", "nodes", "None sec", "ML +%", "CCL +%", "log B/node")
	srows, err := RunScalingSweep([]int{2, 4, 8, 16})
	if err != nil {
		return "", err
	}
	for _, r := range srows {
		fmt.Fprintf(&b, "%6d %10.3f %10.1f %10.1f %12d\n",
			r.Nodes, r.NoneSec, r.MLOverheadPct, r.CCLOverheadPct, r.LogBytesPerNode)
	}

	b.WriteString("\nAblation E: periodic checkpoint interval (Shallow, CCL)\n")
	fmt.Fprintf(&b, "%10s %10s %10s %14s %8s\n", "every", "sec", "+%", "ckpt MB", "ckpts")
	crows, err := RunCheckpointSweep(nodes, []int{0, 16, 8, 4, 2})
	if err != nil {
		return "", err
	}
	for _, r := range crows {
		every := "never"
		if r.EveryBarriers > 0 {
			every = fmt.Sprintf("%d barriers", r.EveryBarriers)
		}
		fmt.Fprintf(&b, "%10s %10.3f %10.1f %14.2f %8d\n",
			every, r.ExecSec, r.OverheadPct, r.CheckpointMB, r.Checkpoints)
	}
	return b.String(), nil
}
