package telemetry_test

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"sdsm/internal/telemetry"
	"sdsm/internal/telemetry/httpserver"
)

// The server must serve the registry's live page over HTTP with the
// Prometheus content type — the contract `sdsmbench -telemetry` and
// `make telemetry-smoke` scrape against.
func TestServeScrape(t *testing.T) {
	r := telemetry.GoldenRegistry()
	srv, err := httpserver.Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.CheckExposition(body, telemetry.RequiredFamilies); err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := r.WritePrometheus(&direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(body, direct.Bytes()) {
		t.Fatal("scraped page does not start with a direct render")
	}
}

// The page ends with the Go runtime's families, read live: a collection
// between two scrapes shows in the GC cycle counter.
func TestServeRuntimeMetrics(t *testing.T) {
	srv, err := httpserver.Serve("127.0.0.1:0", telemetry.GoldenRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	families := []string{"go_gc_cycles_total", "go_gc_heap_goal_bytes", "go_heap_objects_bytes", "go_goroutines"}
	scrape := func() uint64 {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := telemetry.CheckExposition(body, append(families, telemetry.RequiredFamilies...)); err != nil {
			t.Fatal(err)
		}
		for _, ln := range strings.Split(string(body), "\n") {
			if v, ok := strings.CutPrefix(ln, "go_gc_cycles_total "); ok {
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					t.Fatalf("go_gc_cycles_total line %q: %v", ln, err)
				}
				return n
			}
		}
		t.Fatal("no go_gc_cycles_total sample")
		return 0
	}
	before := scrape()
	runtime.GC()
	if after := scrape(); after <= before {
		t.Fatalf("go_gc_cycles_total %d -> %d across runtime.GC()", before, after)
	}
}

// The server also serves the Go runtime's profiles, so a live run can be
// profiled without a patched binary.
func TestServePprof(t *testing.T) {
	srv, err := httpserver.Serve("127.0.0.1:0", telemetry.GoldenRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/debug/pprof/goroutine?debug=1", "/debug/pprof/heap?debug=1"} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Fatalf("GET %s: status %d, %d bytes", path, resp.StatusCode, len(body))
		}
	}
}
