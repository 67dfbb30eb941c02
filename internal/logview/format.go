package logview

import (
	"fmt"
	"strings"

	"sdsm/internal/recovery"
)

// FormatVolume renders a depot's volume accounting as the per-kind and
// per-node tables sdsminspect prints.
func FormatVolume(v *Volume) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %12s\n", "kind", "records", "bytes")
	for _, kv := range v.Kinds {
		if kv.Records == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-10s %10d %12d\n", kv.Kind, kv.Records, kv.Bytes)
	}
	fmt.Fprintf(&b, "%-10s %10d %12d\n", "total", v.Records, v.Bytes)
	if v.TornRecs > 0 {
		fmt.Fprintf(&b, "%-10s %10d %12d\n", "torn", v.TornRecs, v.TornBytes)
	}
	b.WriteString("\nper node:\n")
	fmt.Fprintf(&b, "%4s %10s %12s", "node", "records", "bytes")
	for _, kv := range v.Kinds {
		fmt.Fprintf(&b, " %12s", kv.Kind)
	}
	b.WriteByte('\n')
	for _, nv := range v.PerNode {
		fmt.Fprintf(&b, "%4d %10d %12d", nv.Node, nv.Records, nv.Bytes)
		for _, kv := range nv.Kinds {
			fmt.Fprintf(&b, " %12d", kv.Bytes)
		}
		if nv.TornRecs > 0 {
			fmt.Fprintf(&b, "  (+%d torn, %d bytes)", nv.TornRecs, nv.TornBytes)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatVolumeComparison renders several labeled volumes (typically one
// per logging protocol) side by side, per kind, with each volume's byte
// total as a ratio of the first — the paper's ML-vs-CCL log-volume
// comparison in table form.
func FormatVolumeComparison(labels []string, vols []*Volume) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "kind")
	for _, l := range labels {
		fmt.Fprintf(&b, " %14s", l)
	}
	b.WriteByte('\n')
	if len(vols) == 0 {
		return b.String()
	}
	for i, kv := range vols[0].Kinds {
		any := false
		for _, v := range vols {
			if v.Kinds[i].Records > 0 {
				any = true
			}
		}
		if !any {
			continue
		}
		fmt.Fprintf(&b, "%-10s", kv.Kind)
		for _, v := range vols {
			fmt.Fprintf(&b, " %14d", v.Kinds[i].Bytes)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-10s", "total")
	for _, v := range vols {
		fmt.Fprintf(&b, " %14d", v.Bytes)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-10s", "ratio")
	base := vols[0].Bytes
	for _, v := range vols {
		if base == 0 {
			fmt.Fprintf(&b, " %14s", "-")
			continue
		}
		fmt.Fprintf(&b, " %13.2f%%", 100*float64(v.Bytes)/float64(base))
	}
	b.WriteByte('\n')
	return b.String()
}

// FormatRecoveryBreakdown renders a replay's phase report as the
// recovery-time table EXPERIMENTS.md's critical-path section mirrors:
// per-phase virtual duration, share of the replay time, and the disk
// bytes and operation counts attributed to the phase.
func FormatRecoveryBreakdown(ph *recovery.PhaseReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovery breakdown (replay time %.3fms):\n",
		float64(ph.Total)/1e6)
	fmt.Fprintf(&b, "  %-12s %12s %7s %12s %8s\n",
		"phase", "time", "share", "bytes", "ops")
	for p := recovery.Phase(0); p < recovery.NumPhases; p++ {
		if ph.Ops[p] == 0 && ph.Dur[p] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-12s %10.3fms %6.1f%% %12d %8d\n",
			p.String(), float64(ph.Dur[p])/1e6, 100*ph.Share(p),
			ph.Bytes[p], ph.Ops[p])
	}
	fmt.Fprintf(&b, "  %-12s %10.3fms %6.1f%%\n", "total",
		float64(ph.Sum())/1e6, 100*float64(ph.Sum())/float64(max64(int64(ph.Total), 1)))
	return b.String()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
