// Package telemetry is the live observation surface of a run: a registry
// that aggregates the obsv counter/histogram registry and the TCP
// fabric's per-link wire counters into a Prometheus-text-format
// exposition page, an HTTP server that serves it while the run is in
// flight, and a structured JSONL slow-op log stamped with trace ids.
//
// Everything here is stdlib-only and read-only with respect to the run:
// the registry snapshots live atomics, so scraping mid-run is safe and
// costs the run nothing beyond the atomic loads.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"sdsm/internal/obsv"
	"sdsm/internal/stable"
	"sdsm/internal/transport/tcp"
)

// Registry binds one run's live metric sources. The zero value is
// usable: an unattached registry exposes an empty (but well-formed)
// page, and Attach may be called again for each cell of a bench matrix.
type Registry struct {
	mu       sync.Mutex
	counters []*obsv.Counters
	trace    *obsv.Collector
	fabric   *tcp.Fabric
	depot    *stable.Depot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Attach binds the registry to a run's live sources: the per-node
// counter registries, the trace collector (may be nil), and the TCP
// fabric (nil under the sim transport — the link families are simply
// absent then). Safe to call while a scrape is in flight; the scrape
// sees either the old or the new set, never a mix.
func (r *Registry) Attach(counters []*obsv.Counters, trace *obsv.Collector, fabric *tcp.Fabric) {
	r.mu.Lock()
	r.counters = counters
	r.trace = trace
	r.fabric = fabric
	r.mu.Unlock()
}

// AttachDepot binds the registry to a run's stable-storage depot, adding
// the per-node/per-stream WAL families (stream bytes, stream writes,
// group flushes) to the page. The depot outlives node incarnations, so
// the binding stays valid across crashes and recoveries. Nil detaches.
func (r *Registry) AttachDepot(d *stable.Depot) {
	r.mu.Lock()
	r.depot = d
	r.mu.Unlock()
}

// snapshot reads the sources once under the lock.
func (r *Registry) snapshot() (sum obsv.CountersSnapshot, trace *obsv.Collector, fabric *tcp.Fabric, depot *stable.Depot) {
	r.mu.Lock()
	for _, c := range r.counters {
		if c != nil {
			sum.Add(c.Snapshot())
		}
	}
	trace, fabric, depot = r.trace, r.fabric, r.depot
	r.mu.Unlock()
	return sum, trace, fabric, depot
}

// metricName maps an obsv display name ("fetch-latency-ns") to a
// Prometheus metric name component ("fetch_latency_ns").
func metricName(s string) string { return strings.ReplaceAll(s, "-", "_") }

// WritePrometheus renders the registry as a Prometheus text-format
// (version 0.0.4) exposition page. The output is deterministic for
// fixed source values: counters iterate the obsv registry's fixed
// order, histograms the id order, links the fabric's from-major order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	sum, trace, fabric, depot := r.snapshot()

	sum.Each(func(name string, v int64) {
		fam := "sdsm_" + name + "_total"
		fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", fam, fam, v)
	})

	for id := 0; id < obsv.NumHists(); id++ {
		h := trace.MergedHist(obsv.HistID(id))
		writeHist(bw, "sdsm_"+metricName(obsv.HistID(id).String()), h)
	}

	fmt.Fprintf(bw, "# TYPE sdsm_trace_events gauge\nsdsm_trace_events %d\n", trace.EventCount())

	if depot != nil {
		bw.WriteString("# TYPE sdsm_wal_flushes_total counter\n")
		for n := 0; n < depot.Nodes(); n++ {
			fmt.Fprintf(bw, "sdsm_wal_flushes_total{node=\"%d\"} %d\n", n, depot.Store(n).Stats().Flushes)
		}
		bw.WriteString("# TYPE sdsm_wal_stream_bytes_total counter\n")
		for n := 0; n < depot.Nodes(); n++ {
			for s, st := range depot.Store(n).StreamStats() {
				fmt.Fprintf(bw, "sdsm_wal_stream_bytes_total{node=\"%d\",stream=\"%d\"} %d\n", n, s, st.Bytes)
			}
		}
		bw.WriteString("# TYPE sdsm_wal_stream_writes_total counter\n")
		for n := 0; n < depot.Nodes(); n++ {
			for s, st := range depot.Store(n).StreamStats() {
				fmt.Fprintf(bw, "sdsm_wal_stream_writes_total{node=\"%d\",stream=\"%d\"} %d\n", n, s, st.Writes)
			}
		}
	}

	if fabric != nil {
		links := fabric.LinkStats()
		writeLinkCounter(bw, "sdsm_link_frames_total", links, func(l tcp.LinkStat) int64 { return l.Frames })
		writeLinkCounter(bw, "sdsm_link_batches_total", links, func(l tcp.LinkStat) int64 { return l.Batches })
		writeLinkCounter(bw, "sdsm_link_wire_bytes_total", links, func(l tcp.LinkStat) int64 { return l.WireBytes })
		writeLinkCounter(bw, "sdsm_link_redials_total", links, func(l tcp.LinkStat) int64 { return l.Redials })
		bw.WriteString("# TYPE sdsm_link_queue_depth gauge\n")
		for _, l := range links {
			fmt.Fprintf(bw, "sdsm_link_queue_depth{from=\"%d\",to=\"%d\"} %d\n", l.From, l.To, l.QueueDepth)
		}
		bw.WriteString("# TYPE sdsm_link_coalesce_ratio gauge\n")
		for _, l := range links {
			ratio := 0.0
			if l.Batches > 0 {
				ratio = float64(l.Frames) / float64(l.Batches)
			}
			fmt.Fprintf(bw, "sdsm_link_coalesce_ratio{from=\"%d\",to=\"%d\"} %s\n",
				l.From, l.To, strconv.FormatFloat(ratio, 'g', -1, 64))
		}
	}
	return bw.Flush()
}

// writeHist renders one obsv power-of-two histogram as a cumulative
// Prometheus histogram family. Bucket i of the source counts integer
// values with bit-length i — [2^(i-1), 2^i) — so its inclusive upper
// edge is 2^i - 1 (bucket 0 counts v <= 0, edge 0). Buckets above the
// highest non-empty one collapse into +Inf.
func writeHist(bw *bufio.Writer, fam string, h obsv.HistSnapshot) {
	fmt.Fprintf(bw, "# TYPE %s histogram\n", fam)
	top := 0
	for i, n := range h.Buckets {
		if n > 0 {
			top = i
		}
	}
	cum := int64(0)
	for i := 0; i <= top; i++ {
		cum += h.Buckets[i]
		edge := int64(0)
		if i > 0 {
			edge = int64(1)<<uint(i) - 1
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"%d\"} %d\n", fam, edge, cum)
	}
	fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", fam, h.Count)
	fmt.Fprintf(bw, "%s_sum %d\n", fam, h.Sum)
	fmt.Fprintf(bw, "%s_count %d\n", fam, h.Count)
}

func writeLinkCounter(bw *bufio.Writer, fam string, links []tcp.LinkStat, get func(tcp.LinkStat) int64) {
	fmt.Fprintf(bw, "# TYPE %s counter\n", fam)
	for _, l := range links {
		fmt.Fprintf(bw, "%s{from=\"%d\",to=\"%d\"} %d\n", fam, l.From, l.To, get(l))
	}
}

// RequiredFamilies is the metric-family floor every exposition page must
// carry (the telemetry self-check and `make telemetry-smoke` assert it
// on a live scrape).
var RequiredFamilies = []string{
	"sdsm_lock_acquires_total",
	"sdsm_barriers_total",
	"sdsm_diff_bytes_sent_total",
	"sdsm_wal_coalesced_total",
	"sdsm_wal_fence_flushes_total",
	"sdsm_kv_read_ns",
	"sdsm_kv_write_ns",
	"sdsm_flush_stall_ns",
	"sdsm_trace_events",
	"sdsm_wal_stream_bytes_total",
}

// RequiredLinkFamilies is the additional floor when the run uses the
// TCP fabric: the per-peer transport gauges.
var RequiredLinkFamilies = []string{
	"sdsm_link_frames_total",
	"sdsm_link_wire_bytes_total",
	"sdsm_link_redials_total",
	"sdsm_link_queue_depth",
	"sdsm_link_coalesce_ratio",
}

// CheckExposition verifies that an exposition page carries at least one
// sample of every named family, returning an error naming every family
// it misses.
func CheckExposition(page []byte, families []string) error {
	var missing []string
	lines := strings.Split(string(page), "\n")
	for _, fam := range families {
		found := false
		for _, ln := range lines {
			if !strings.HasPrefix(ln, fam) {
				continue
			}
			rest := ln[len(fam):]
			if strings.HasPrefix(rest, "{") || strings.HasPrefix(rest, " ") ||
				strings.HasPrefix(rest, "_bucket") || strings.HasPrefix(rest, "_count") {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, fam)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("telemetry: exposition is missing metric families: %s", strings.Join(missing, ", "))
	}
	return nil
}
