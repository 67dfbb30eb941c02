package main

import (
	"fmt"
	"strings"
	"time"

	"sdsm/internal/obsv"
	"sdsm/internal/recovery"
	"sdsm/internal/wal"
)

// Per-layer metrics come from three sources, all taken on the traced
// pass: counts read from core.Report, sim shares from the obsv collector
// and the recovery phase reports, and host probes (probes.go).

// layerMetrics derives every per-layer number of one workload. medianHostS
// is the median untraced pass, the base of the tracing overhead.
func layerMetrics(r *runner, workload string, inst instance, pd *passData, medianHostS float64) (map[string]float64, error) {
	m := map[string]float64{}
	layerCounts(m, pd)
	simShares(r, m, workload, pd)
	for name, v := range pd.perPass { // recovery.* of the traced pass
		if strings.HasPrefix(name, "recovery.") {
			m[name] = v
		}
	}
	m["obsv.trace_overhead_pct"] = (pd.perPass["host_pass_s"]/medianHostS - 1) * 100
	m["logview.audit_records"] = float64(pd.auditRecs)
	if pd.auditRecs > 0 {
		m["logview.audit_ns_per_rec"] = float64(pd.auditNS) / float64(pd.auditRecs)
	}

	solo, err := inst.solo(r)
	if err != nil {
		return nil, err
	}
	m["apps.solo_pass_s"] = solo
	if err := runProbes(r, m, pd); err != nil {
		return nil, err
	}
	m["apps.check_ms"] = float64(pd.checkNS) / 1e6
	return m, nil
}

// layerCounts sums the protocol, log, wire and socket counters of the
// traced pass's cells.
func layerCounts(m map[string]float64, pd *passData) {
	var logBytes, flushes, readBytes float64
	var wireBytes, modelBytesTCP float64
	for _, c := range pd.cells {
		if c.rep == nil {
			continue
		}
		rep := c.rep
		for _, s := range rep.Stats {
			m["hlrc.faults"] += float64(s.Faults)
			m["hlrc.page_fetches"] += float64(s.PageFetches)
			m["hlrc.twins_created"] += float64(s.TwinsCreated)
			m["hlrc.diffs_created"] += float64(s.DiffsCreated)
			m["hlrc.diff_kb_sent"] += float64(s.DiffBytesSent) / 1024
			m["hlrc.lock_acquires"] += float64(s.LockAcquires)
			m["hlrc.barriers"] += float64(s.Barriers)
			m["wal.log_appends"] += float64(s.LogAppends)
		}
		for _, s := range rep.StoreStats {
			readBytes += float64(s.ReadBytes)
		}
		logBytes += float64(rep.TotalLogBytes)
		flushes += float64(rep.TotalFlushes)
		m["checkpoint.mb"] += float64(rep.CheckpointBytes) / 1e6
		m["transport.msgs"] += float64(rep.NetMsgs)
		m["transport.model_mb"] += float64(rep.NetBytes) / 1e6
		if f := rep.Fabric; f != nil {
			m["tcp.frames"] += float64(f.Frames)
			m["tcp.batches"] += float64(f.Batches)
			m["tcp.reconnects"] += float64(f.Reconnects)
			wireBytes += float64(f.WireBytes)
			modelBytesTCP += float64(rep.NetBytes)
		}
		m["obsv.events_k"] += float64(c.trace.EventCount()) / 1e3
	}
	m["stable.flushes"] = flushes
	if flushes > 0 {
		m["stable.mean_flush_kb"] = logBytes / flushes / 1024
	}
	m["stable.read_mb"] = readBytes / 1e6
	m["tcp.wire_mb"] = wireBytes / 1e6
	if modelBytesTCP > 0 {
		// Socket bytes per modelled byte: what the gob framing wastes.
		m["tcp.wire_over_model"] = wireBytes / modelBytesTCP
	}
}

// simShares attributes virtual time: the critical-path category shares of
// the failure-free cells (mean over the CCL cells, logging share of the
// ML cells), the lock-wait share of the kv transactions, and the CCL
// recovery phase shares. The host time of the walks is obsv.critpath_ms.
func simShares(r *runner, m map[string]float64, workload string, pd *passData) {
	var critNS int64
	var ccl [obsv.NumCats][]float64
	var mlLogging []float64
	var lockWait, txnTotal float64
	var phase recovery.PhaseReport
	for _, c := range pd.cells {
		if c.rep == nil {
			continue
		}
		if rec := c.rep.Recovery; rec != nil {
			// Crash runs reset the victim's clock, so they have no
			// critical path; their breakdown is the phase report.
			if rec.Kind == recovery.CCLRecovery && !rec.Online {
				phase.Total += rec.Phases.Total
				for p, d := range rec.Phases.Dur {
					phase.Dur[p] += d
				}
			}
			continue
		}
		end := r.spans.begin("obsv.CriticalPath", c.id)
		t0 := time.Now()
		path, err := c.trace.CriticalPath(c.rep.NodeTimes)
		var breakdowns []obsv.TraceBreakdown
		if workload == wlKVSim || workload == wlKVTCP {
			breakdowns = c.trace.TraceBreakdowns()
		}
		critNS += int64(time.Since(t0))
		end()
		if err == nil {
			switch c.proto {
			case wal.ProtocolCCL:
				for cat := range ccl {
					ccl[cat] = append(ccl[cat], path.Share(obsv.Cat(cat))*100)
				}
			case wal.ProtocolML:
				mlLogging = append(mlLogging, path.Share(obsv.CatLogging)*100)
			}
		}
		for _, b := range breakdowns {
			lockWait += float64(b.Phase[obsv.EvLockAcquire])
			txnTotal += float64(b.Total())
		}
	}
	m["obsv.critpath_ms"] = float64(critNS) / 1e6
	m["simtime.crit_compute_pct_ccl"] = mean(ccl[obsv.CatCompute])
	m["simtime.crit_coherence_pct_ccl"] = mean(ccl[obsv.CatCoherence])
	m["simtime.crit_logging_pct_ccl"] = mean(ccl[obsv.CatLogging])
	m["simtime.crit_fault_pct_ccl"] = mean(ccl[obsv.CatFault])
	m["simtime.crit_logging_pct_ml"] = mean(mlLogging)
	if txnTotal > 0 {
		m["simtime.txn_lock_wait_pct"] = lockWait / txnTotal * 100
	}
	if phase.Total > 0 {
		m["recovery.log_read_pct"] = phase.Share(recovery.PhaseLogRead) * 100
		m["recovery.diff_fetch_pct"] = phase.Share(recovery.PhaseDiffFetch) * 100
		m["recovery.page_fetch_pct"] = phase.Share(recovery.PhasePageFetch) * 100
		m["recovery.replay_pct"] = phase.Share(recovery.PhaseReplay) * 100
	}
}

// checkLayerMetrics reports a layer metric the workload lists but the
// traced pass did not produce: a benchmark bug, not a measurement.
func checkLayerMetrics(workload string, m map[string]float64) error {
	for i := range perLayerMetrics {
		d := &perLayerMetrics[i]
		if _, ok := m[d.Name]; d.appliesTo(workload) && !ok {
			return fmt.Errorf("per-layer metric %s was not produced on %s", d.Name, workload)
		}
	}
	return nil
}
