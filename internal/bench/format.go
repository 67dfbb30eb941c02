package bench

import (
	"fmt"
	"strings"

	"sdsm/internal/apps"
)

// FormatTable1 renders the application-characteristics table.
func FormatTable1(ws []*apps.Workload) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1. Applications Characteristics.\n")
	fmt.Fprintf(&b, "%-10s %-38s %s\n", "Program", "Data Set Size", "Synchronization")
	for _, w := range ws {
		fmt.Fprintf(&b, "%-10s %-38s %s\n", w.Name, w.DataSet, w.Sync)
	}
	return b.String()
}

// FormatTable2 renders one application's sub-table in the paper's
// format.
func FormatTable2(idx string, r *Table2Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2(%s) %s\n", idx, r.App)
	fmt.Fprintf(&b, "%-9s %-12s %-10s %-10s %s\n",
		"Logging", "Execution", "Mean Log", "Total Log", "# of")
	fmt.Fprintf(&b, "%-9s %-12s %-10s %-10s %s\n",
		"Protocol", "Time (sec.)", "Size (KB)", "Size (MB)", "Flushes")
	for _, row := range r.Rows {
		if row.Flushes == 0 {
			fmt.Fprintf(&b, "%-9s %-12.3f %-10s %-10s %s\n",
				row.Protocol, row.ExecSec, "-", "-", "-")
			continue
		}
		fmt.Fprintf(&b, "%-9s %-12.3f %-10.1f %-10.3f %d\n",
			row.Protocol, row.ExecSec, row.MeanLogKB, row.TotalLogMB, row.Flushes)
	}
	return b.String()
}

// FormatFigure4 renders the normalized execution times of Figure 4.
func FormatFigure4(results []*Table2Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4. Impacts of Logging Protocols on Execution Time\n")
	fmt.Fprintf(&b, "(normalized to the no-logging baseline = 100)\n")
	fmt.Fprintf(&b, "%-10s %8s %8s %8s   %s\n", "Program", "None", "ML", "CCL", "(CCL/ML log ratio)")
	for _, r := range results {
		base := r.Rows[0].ExecSec
		fmt.Fprintf(&b, "%-10s %8.1f %8.1f %8.1f   %.1f%%\n",
			r.App, 100.0, 100*r.Rows[1].ExecSec/base, 100*r.Rows[2].ExecSec/base,
			100*r.LogRatio())
	}
	return b.String()
}

// FormatFigure5 renders the normalized recovery times of Figure 5.
func FormatFigure5(results []*Figure5Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5. Impacts of Logging Protocols on Recovery Time\n")
	fmt.Fprintf(&b, "(normalized to re-execution = 100)\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %12s\n", "Program", "Re-Execution", "ML-Recovery", "CCL-Recovery")
	for _, r := range results {
		fmt.Fprintf(&b, "%-10s %12.1f %12.1f %12.1f\n",
			r.App, 100.0, 100*r.MLRecSec/r.ReExecSec, 100*r.CCLRecSec/r.ReExecSec)
	}
	b.WriteString("\nRecovery-time reduction vs re-execution:\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%-10s ML-Recovery %5.1f%%   CCL-Recovery %5.1f%%\n",
			r.App, r.Reduction(r.MLRecSec), r.Reduction(r.CCLRecSec))
	}
	b.WriteString("\nCCL-recovery versioned page fetches (on demand):\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%-10s %6d (%d)\n", r.App, r.CCLFetches, r.CCLMisses)
	}
	return b.String()
}
