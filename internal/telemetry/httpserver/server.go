// Package httpserver serves a telemetry registry over HTTP while a run is
// live: the Prometheus exposition page, a few Go runtime metrics appended
// to it, and the Go runtime's profiles.
//
// It is a package of its own, imported only by the commands that serve
// telemetry, because importing net/http/pprof costs every binary that
// links it, serving or not: the import registers the profile handlers,
// which makes the heap profile reachable, which turns on the runtime's
// heap-profile sampling (runtime.MemProfileRate 0 → 512 KiB) and its
// per-stack bookkeeping. Whatever links core links package telemetry
// (core.Config names its Registry), so the import cannot live there.
package httpserver

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"

	"sdsm/internal/telemetry"
)

// Server serves a registry's exposition page, followed by the runtime
// families of runtimeFamilies, at /metrics (also mounted at / so a bare
// scrape of the root works) and the net/http/pprof handlers under
// /debug/pprof/, so a live run can be profiled as is. Stdlib-only.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts listening on addr (host:port; port 0 picks a free one)
// and serves until Close. Every handler is mounted on the server's own
// mux (the net/http/pprof import also registers its handlers on
// http.DefaultServeMux, which nothing in this module serves).
func Serve(addr string, r *telemetry.Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	handler := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
		writeRuntimeMetrics(w)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", handler)
	mux.HandleFunc("/", handler)
	// pprof.Index serves every named profile (heap, goroutine, ...) below
	// its prefix; the other four are the endpoints Index does not cover.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln)
	return s, nil
}

// runtimeFamilies are the runtime/metrics samples the page ends with, as
// Prometheus families: how often the collector ran and against what heap
// goal, the live heap, and the goroutine count. They are read here rather
// than in package telemetry so the registry's own page, its golden, and
// every binary that renders the page without serving it stay as they are.
var runtimeFamilies = []struct{ sample, family, kind string }{
	{"/gc/cycles/total:gc-cycles", "go_gc_cycles_total", "counter"},
	{"/gc/heap/goal:bytes", "go_gc_heap_goal_bytes", "gauge"},
	{"/memory/classes/heap/objects:bytes", "go_heap_objects_bytes", "gauge"},
	{"/sched/goroutines:goroutines", "go_goroutines", "gauge"},
}

// writeRuntimeMetrics reads runtimeFamilies' samples and writes them in
// the exposition format, skipping any the running toolchain lacks.
func writeRuntimeMetrics(w io.Writer) {
	samples := make([]metrics.Sample, len(runtimeFamilies))
	for i, f := range runtimeFamilies {
		samples[i].Name = f.sample
	}
	metrics.Read(samples)
	var page []byte
	for i, f := range runtimeFamilies {
		if samples[i].Value.Kind() != metrics.KindUint64 {
			continue
		}
		page = fmt.Appendf(page, "# TYPE %s %s\n%s %d\n", f.family, f.kind, f.family, samples[i].Value.Uint64())
	}
	w.Write(page)
}

// Addr returns the address the server actually listens on (resolved
// port when Serve was given :0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }
