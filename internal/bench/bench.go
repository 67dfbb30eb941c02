// Package bench regenerates every table and figure of the paper's
// evaluation section:
//
//   - Table 1: application characteristics.
//   - Table 2(a)-(d): failure-free overhead of the logging protocols —
//     execution time, mean log size, total log size, flush count — for
//     None/ML/CCL on each application.
//   - Figure 4: execution time normalized to the no-logging baseline.
//   - Figure 5: recovery time normalized to re-execution, for
//     re-execution / ML-recovery / CCL-recovery.
//
// Absolute times come from the calibrated virtual-time model and are not
// expected to match the paper's 1999 wall-clock numbers; the shape (who
// wins, by roughly what factor) is the reproduction target. See
// EXPERIMENTS.md.
package bench

import (
	"fmt"
	"strings"

	"sdsm/internal/apps"
	"sdsm/internal/apps/fft"
	"sdsm/internal/apps/mg"
	"sdsm/internal/apps/shallow"
	"sdsm/internal/apps/water"
	"sdsm/internal/core"
	"sdsm/internal/hlrc"
	"sdsm/internal/logview"
	"sdsm/internal/recovery"
	"sdsm/internal/wal"
)

// Scale selects problem sizes.
type Scale int

// The benchmark scales.
const (
	// ScaleSmall finishes in well under a second per run (CI and unit
	// benchmarks).
	ScaleSmall Scale = iota
	// ScaleMedium is the default for cmd/sdsmbench.
	ScaleMedium
	// ScaleLarge approaches the paper's Table 1 sizes (scaled-down
	// iteration counts; the shapes are stable from ScaleMedium up).
	ScaleLarge
)

// ParseScale converts a -scale flag value.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	case "large":
		return ScaleLarge, nil
	default:
		return 0, fmt.Errorf("bench: unknown scale %q (small|medium|large)", s)
	}
}

// Workloads builds the four paper applications at the given scale for a
// cluster of `nodes`.
func Workloads(nodes int, scale Scale) []*apps.Workload {
	const ps = 4096
	switch scale {
	case ScaleSmall:
		return []*apps.Workload{
			fft.New(16, 16, 16, 2, nodes, ps),
			mg.New(16, 2, nodes, ps),
			shallow.New(16, 16, 4, nodes, ps),
			water.New(32, 4, nodes, ps),
		}
	case ScaleMedium:
		return []*apps.Workload{
			fft.New(32, 32, 32, 5, nodes, ps),
			mg.New(64, 4, nodes, ps),
			shallow.New(256, 256, 12, nodes, ps),
			water.New(256, 6, nodes, ps),
		}
	default: // ScaleLarge
		return []*apps.Workload{
			fft.New(64, 64, 32, 8, nodes, ps),
			mg.New(64, 8, nodes, ps),
			shallow.New(512, 512, 15, nodes, ps),
			water.New(512, 10, nodes, ps),
		}
	}
}

// Protocols in Table 2's row order.
var Protocols = []wal.Protocol{wal.ProtocolNone, wal.ProtocolML, wal.ProtocolCCL}

// ProtoRow is one row of Table 2.
type ProtoRow struct {
	Protocol   wal.Protocol
	ExecSec    float64
	MeanLogKB  float64
	TotalLogMB float64
	Flushes    int64
}

// Table2Result is one sub-table (one application) of Table 2.
type Table2Result struct {
	App  string
	Rows []ProtoRow
}

// Overhead returns a protocol's execution-time overhead over the
// baseline, in percent.
func (t *Table2Result) Overhead(p wal.Protocol) float64 {
	base := t.Rows[0].ExecSec
	for _, r := range t.Rows {
		if r.Protocol == p {
			return (r.ExecSec/base - 1) * 100
		}
	}
	return 0
}

// LogRatio returns CCL's total log size as a fraction of ML's.
func (t *Table2Result) LogRatio() float64 {
	var ml, ccl float64
	for _, r := range t.Rows {
		switch r.Protocol {
		case wal.ProtocolML:
			ml = r.TotalLogMB
		case wal.ProtocolCCL:
			ccl = r.TotalLogMB
		}
	}
	if ml == 0 {
		return 0
	}
	return ccl / ml
}

// runChecked runs one paper, ablation or fault-sweep cell — crashed and
// recovered when plan is non-nil — and fails unless the final image
// passes the workload's check and, under a logging protocol, the stable
// logs pass the consistency auditor (a torn tail allowed only where the
// recovery tore one). A cell that computes the wrong answer or leaves an
// inconsistent log has no number worth printing.
func runChecked(w *apps.Workload, cfg core.Config, plan *core.CrashPlan) (*core.Report, error) {
	var rep *core.Report
	var err error
	if plan == nil {
		rep, err = core.Run(cfg, w.Prog)
	} else {
		rep, err = core.RunWithCrash(cfg, w.Prog, *plan)
	}
	if err != nil {
		return nil, err
	}
	if err := w.Check(rep.MemoryImage()); err != nil {
		return nil, err
	}
	if cfg.Protocol != wal.ProtocolNone {
		torn := rep.Recovery != nil && rep.Recovery.TornTail
		if _, err := logview.Audit(rep.Depot, logview.AuditOptions{AllowTorn: torn}); err != nil {
			return nil, fmt.Errorf("log audit: %w", err)
		}
	}
	return rep, nil
}

// RunTable2 measures one application under all three protocols.
func RunTable2(w *apps.Workload, nodes int) (*Table2Result, error) {
	res := &Table2Result{App: w.Name}
	for _, proto := range Protocols {
		cfg := w.BaseConfig(nodes)
		cfg.Protocol = proto
		cfg.SkipInitialCheckpoint = true // the paper takes no checkpoints here
		rep, err := runChecked(w, cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("bench: %s/%v: %w", w.Name, proto, err)
		}
		res.Rows = append(res.Rows, ProtoRow{
			Protocol:   proto,
			ExecSec:    rep.ExecTime.Seconds(),
			MeanLogKB:  rep.MeanFlushBytes / 1024,
			TotalLogMB: float64(rep.TotalLogBytes) / (1 << 20),
			Flushes:    rep.TotalFlushes,
		})
	}
	return res, nil
}

// Figure5Result holds one application's recovery measurements.
type Figure5Result struct {
	App       string
	ReExecSec float64 // re-execution baseline: run the program again
	MLRecSec  float64 // ML-recovery replay time
	CCLRecSec float64 // CCL-recovery replay time
	// CCLFetches counts CCL-recovery's versioned page fetches
	// (rec-page-req), CCLMisses the on-demand ones among them.
	CCLFetches int64
	CCLMisses  int
}

// RunFigure5 measures one application's recovery times. The victim
// crashes late in the run (the workload's CrashOp); re-execution is the
// cost of reaching that point again from the initial state, which for a
// near-end crash is the program's execution time.
func RunFigure5(w *apps.Workload, nodes int) (*Figure5Result, error) {
	res := &Figure5Result{App: w.Name}

	cfg := w.BaseConfig(nodes)
	cfg.Protocol = wal.ProtocolNone
	rep, err := runChecked(w, cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("bench: %s re-exec: %w", w.Name, err)
	}
	res.ReExecSec = rep.ExecTime.Seconds()
	// Crash at ~85% of the victim's synchronization ops, measured from
	// the dry run (lock-based apps' op counts depend on the data, so the
	// workload's static estimate is only a fallback).
	victim := nodes - 1
	atOp := rep.NodeOps[victim] * 85 / 100
	if atOp < 1 {
		atOp = w.CrashOp
	}

	for _, tc := range []struct {
		proto wal.Protocol
		kind  recovery.Kind
	}{
		{wal.ProtocolML, recovery.MLRecovery},
		{wal.ProtocolCCL, recovery.CCLRecovery},
	} {
		cfg := w.BaseConfig(nodes)
		cfg.Protocol = tc.proto
		crep, err := runChecked(w, cfg, &core.CrashPlan{
			Victim: victim, AtOp: atOp, Recovery: tc.kind,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: %s/%v: %w", w.Name, tc.kind, err)
		}
		switch tc.kind {
		case recovery.MLRecovery:
			res.MLRecSec = crep.Recovery.ReplayTime.Seconds()
		case recovery.CCLRecovery:
			res.CCLRecSec = crep.Recovery.ReplayTime.Seconds()
			res.CCLFetches = crep.KindMsgs(hlrc.KindRecPageReq)
			res.CCLMisses = crep.Recovery.Misses
		}
	}
	return res, nil
}

// Reduction returns a scheme's recovery-time reduction versus
// re-execution, in percent (the numbers quoted in the paper's §4.3).
func (f *Figure5Result) Reduction(sec float64) float64 {
	if f.ReExecSec == 0 {
		return 0
	}
	return (1 - sec/f.ReExecSec) * 100
}
