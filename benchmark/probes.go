package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sdsm/internal/core"
	"sdsm/internal/hlrc"
	"sdsm/internal/memory"
	"sdsm/internal/simtime"
	"sdsm/internal/stable"
	"sdsm/internal/transport"
	"sdsm/internal/transport/tcp"
	"sdsm/internal/vclock"
	"sdsm/internal/wal"
)

// Host probes time calls into each layer's exported functions from the
// benchmark's side, fed with diffs and log records decoded from the
// traced pass's own stable logs, so a probe of memory or wal sees the
// diff sizes this workload really produces (4 KB pages on the kernels,
// 56-byte slots on kv). Each reports a median over rounds.

// probeCalls is the minimum number of calls behind a function probe.
func (r *runner) probeCalls() int {
	if r.small {
		return 60
	}
	return 1000
}

// measure times fn in rounds of batch calls, at least calls in all and
// at least 15 rounds, and returns the median ns per call. fn receives
// the running call index.
func measure(calls, batch int, fn func(i int)) float64 {
	rounds := max(15, (calls+batch-1)/batch)
	per := make([]float64, rounds)
	i := 0
	for n := 0; n < batch; n++ { // warm-up round: pools, caches
		fn(i)
		i++
	}
	for rd := range per {
		t0 := time.Now()
		for n := 0; n < batch; n++ {
			fn(i)
			i++
		}
		per[rd] = float64(time.Since(t0)) / float64(batch)
	}
	return median(per)
}

// allocsPerCall is the mean heap allocations of one call of fn.
func allocsPerCall(calls int, fn func(i int)) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

// probeInput is what the traced pass left in its stable logs.
type probeInput struct {
	pageSize int
	batches  [][]memory.Diff // one per logged interval (RecDiffBatch record)
	diffs    []memory.Diff   // the batches, flattened
	records  []stable.Record // the largest log's records
	store    *stable.Store   // the largest log
}

const (
	batchesPerNode  = 2 // per CCL cell
	maxProbeDiffs   = 256
	maxProbeRecords = 512
)

// gatherProbeInput decodes own-diff records from every CCL cell of the
// traced pass, spread over its nodes.
func gatherProbeInput(pd *passData) (*probeInput, error) {
	in := &probeInput{}
	largest := 0
	for _, c := range pd.cells {
		if c.rep == nil || c.proto != wal.ProtocolCCL {
			continue
		}
		in.pageSize = max(in.pageSize, c.rep.PageSize)
		for node := 0; node < c.rep.Depot.Nodes(); node++ {
			store := c.rep.Depot.Store(node)
			recs := store.Records()
			if len(recs) > largest {
				largest, in.store, in.records = len(recs), store, recs
			}
			taken := 0
			for _, rec := range recs {
				if rec.Kind != wal.RecDiffBatch || taken == batchesPerNode {
					continue
				}
				_, _, _, diffs, err := wal.DecodeDiffBatchRecord(rec.Data)
				if err != nil {
					return nil, fmt.Errorf("probe input: %s node %d: %w", c.id, node, err)
				}
				if len(diffs) == 0 {
					continue
				}
				in.batches = append(in.batches, diffs)
				taken++
			}
		}
	}
	for _, b := range in.batches {
		for _, d := range b {
			if len(in.diffs) < maxProbeDiffs {
				in.diffs = append(in.diffs, d)
			}
		}
	}
	if len(in.diffs) == 0 || in.store == nil {
		return nil, errors.New("probe input: the traced pass logged no diff batch")
	}
	if len(in.records) > maxProbeRecords {
		in.records = in.records[:maxProbeRecords]
	}
	return in, nil
}

// runProbes fills m with every host probe.
func runProbes(r *runner, m map[string]float64, pd *passData) error {
	in, err := gatherProbeInput(pd)
	if err != nil {
		return err
	}
	probes := []struct {
		layer string
		run   func(*runner, map[string]float64, *probeInput) error
	}{
		{"memory", probeMemory},
		{"vclock", probeVClock},
		{"wal", probeWAL},
		{"stable", probeStable},
		{"transport", probeTransport},
		{"tcp", probeTCP},
		{"hlrc", probeHLRC},
		{"core", probeCore},
	}
	for _, p := range probes {
		end := r.spans.begin("probe."+p.layer, "")
		err := protect(func() error { return p.run(r, m, in) })
		end()
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.layer, err)
		}
	}
	return nil
}

func probeMemory(r *runner, m map[string]float64, in *probeInput) error {
	n := len(in.diffs)
	// Rebuild a (twin, page) pair per diff: the twin is a zero page, the
	// page is the twin with the logged diff applied.
	twin := make([]byte, in.pageSize)
	pages := make([][]byte, n)
	for i, d := range in.diffs {
		if err := d.Validate(in.pageSize); err != nil {
			return err
		}
		pages[i] = make([]byte, in.pageSize)
		d.Apply(pages[i])
	}
	var sink memory.Diff
	m["memory.make_diff_ns"] = measure(r.probeCalls(), n, func(i int) {
		sink = memory.MakeDiff(in.diffs[i%n].Page, twin, pages[i%n])
	})
	_ = sink
	dst := make([]byte, in.pageSize)
	m["memory.apply_diff_ns"] = measure(r.probeCalls(), n, func(i int) {
		in.diffs[i%n].Apply(dst)
	})
	var buf []byte
	var cerr error
	m["memory.diff_codec_ns"] = measure(r.probeCalls(), n, func(i int) {
		buf = in.diffs[i%n].Encode(buf[:0])
		if _, _, err := memory.DecodeDiff(buf); err != nil {
			cerr = err
		}
	})
	return cerr
}

func probeVClock(r *runner, m map[string]float64, _ *probeInput) error {
	a, b := vclock.New(paperNodes), vclock.New(paperNodes)
	for i := range b {
		b[i] = int32(i + 1)
	}
	covered := 0
	m["vclock.merge_ns"] = measure(r.probeCalls(), 256, func(i int) {
		b[i%paperNodes]++
		a.Merge(b)
		if a.Covers(b) {
			covered++
		}
	})
	if covered == 0 {
		return errors.New("merged clock does not cover its input")
	}
	return nil
}

func probeWAL(r *runner, m map[string]float64, in *probeInput) error {
	n := len(in.batches)
	// Rounds of 64 calls against a fresh store each: what is timed is the
	// steady release path, not the growth of a log that never gets read.
	const batch = 64
	store := stable.NewStore()
	ccl := wal.New(wal.ProtocolCCL, store, nil)
	release := func(i int) {
		if i%batch == 0 {
			store.Reset()
		}
		ccl.AtRelease(int32(i), int32(i+1), int64(i+1), simtime.Time(i), in.batches[i%n])
	}
	m["wal.ccl_release_ns"] = measure(r.probeCalls(), batch, release)
	m["wal.ccl_release_allocs"] = allocsPerCall(r.probeCalls(), release)

	mlStore := stable.NewStore()
	ml := wal.New(wal.ProtocolML, mlStore, nil)
	events := make([][]hlrc.UpdateEvent, n)
	for i, b := range in.batches {
		for _, d := range b {
			events[i] = append(events[i], hlrc.UpdateEvent{Page: d.Page, Writer: 1, Seq: 1})
		}
	}
	m["wal.ml_incoming_ns"] = measure(r.probeCalls(), batch, func(i int) {
		ml.OnIncomingDiffs(int32(i), simtime.Time(i), events[i%n], in.batches[i%n])
		if i%batch == batch-1 {
			ml.AtSyncEntry(int32(i)) // flush so the volatile log stays bounded
			mlStore.Reset()
		}
	})

	var buf []byte
	var cerr error
	m["wal.record_codec_ns"] = measure(r.probeCalls(), batch, func(i int) {
		buf = wal.EncodeDiffBatchRecord(buf[:0], -1, int32(i), int64(i), in.batches[i%n])
		if _, _, _, _, err := wal.DecodeDiffBatchRecord(buf); err != nil {
			cerr = err
		}
	})
	return cerr
}

func probeStable(r *runner, m map[string]float64, in *probeInput) error {
	// Flush the real records in groups of eight into a store that is
	// reset every round; Flush stamps its argument, so it gets copies.
	const group = 8
	recs := append([]stable.Record(nil), in.records...)
	groups := (len(recs) + group - 1) / group
	var kb float64
	for _, rec := range recs {
		kb += float64(rec.WireSize()) / 1024
	}
	store := stable.NewStore()
	nsPerGroup := measure(r.probeCalls(), groups, func(i int) {
		g := i % groups
		if g == 0 {
			store.Reset()
		}
		store.Flush(recs[g*group : min((g+1)*group, len(recs))])
	})
	m["stable.flush_ns_per_kb"] = nsPerGroup * float64(groups) / kb

	total := len(in.store.Records())
	calls := max(1, r.probeCalls()/total)
	var dropped int
	nsPerScan := measure(calls, 1, func(int) {
		_, dropped = in.store.ValidPrefix()
	})
	m["stable.valid_prefix_ns_per_rec"] = nsPerScan / float64(total)
	if dropped != 0 {
		return fmt.Errorf("ValidPrefix dropped %d records of a clean log", dropped)
	}
	return nil
}

// echoPair builds a two-node network whose node 1 answers every request,
// over the in-process backend or a loopback TCP fabric.
func echoPair(overTCP bool) (client *transport.Endpoint, fab *tcp.Fabric, stop func(), err error) {
	nw := transport.NewNetwork(2, simtime.DefaultCostModel())
	if overTCP {
		fab, err = tcp.New(nw, tcp.Options{Payloads: hlrc.WirePayloads()})
		if err != nil {
			return nil, nil, nil, err
		}
		nw.SetFabric(fab)
	}
	client = nw.NewEndpoint(0, simtime.NewClock(0))
	server := nw.NewEndpoint(1, simtime.NewClock(0))
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		grant := &hlrc.LockGrant{VT: vclock.New(kvNodes)}
		for {
			select {
			case <-quit:
				return
			case msg := <-server.Inbox():
				server.Arrive(msg)
				server.Reply(msg, hlrc.KindLockGrant, grant.WireSize(), grant)
				server.MarkHandled()
			}
		}
	}()
	stop = func() {
		close(quit)
		<-done
		nw.CloseFabric() // a no-op for the in-process backend
	}
	return client, fab, stop, nil
}

// callProbe times a small request/reply round trip — a lock request and
// its grant, the message pair a kv transaction waits for.
func callProbe(r *runner, overTCP bool) (usPerCall, wireBytesPerCall float64, err error) {
	client, fab, stop, err := echoPair(overTCP)
	if err != nil {
		return 0, 0, err
	}
	defer stop()
	req := &hlrc.LockReq{Lock: 1, VT: vclock.New(kvNodes)}
	calls := 0
	ns := measure(r.probeCalls(), 100, func(int) {
		client.Call(1, hlrc.KindLockReq, req.WireSize(), req)
		calls++
	})
	if fab != nil {
		wireBytesPerCall = float64(fab.Stats().WireBytes) / float64(calls)
	}
	return ns / 1e3, wireBytesPerCall, nil
}

func probeTransport(r *runner, m map[string]float64, _ *probeInput) error {
	us, _, err := callProbe(r, false)
	m["transport.call_us"] = us
	return err
}

func probeTCP(r *runner, m map[string]float64, _ *probeInput) error {
	us, wire, err := callProbe(r, true) // tcp.New also registers the payload types with gob
	if err != nil {
		return err
	}
	m["tcp.call_us"] = us
	m["tcp.wire_bytes_per_call"] = wire

	// Encode and decode a frame around every payload type that crosses
	// the wire.
	payloads := hlrc.WirePayloads()
	n := len(payloads)
	frames := make([]*tcp.Frame, n)
	encoded := make([][]byte, n)
	for i, p := range payloads {
		frames[i] = &tcp.Frame{Type: 1, From: 0, To: 1, Kind: uint8(i + 1), Seq: int64(i), Size: 64, Epoch: 1, Payload: p}
		enc, err := tcp.AppendFrame(nil, frames[i])
		if err != nil {
			return err
		}
		encoded[i] = enc
	}
	var buf []byte
	var cerr error
	m["tcp.frame_encode_ns"] = measure(r.probeCalls(), n, func(i int) {
		var err error
		if buf, err = tcp.AppendFrame(buf[:0], frames[i%n]); err != nil {
			cerr = err
		}
	})
	m["tcp.frame_decode_ns"] = measure(r.probeCalls(), n, func(i int) {
		if _, _, err := tcp.DecodeFrame(encoded[i%n], tcp.DefaultMaxFrame); err != nil {
			cerr = err
		}
	})
	return cerr
}

// hlrcCluster builds n bare protocol nodes (no logging hooks) with pages
// homed round-robin, as internal/hlrc/bench_test.go does.
func hlrcCluster(n, numPages, pageSize int) (nodes []*hlrc.Node, stop func()) {
	model := simtime.DefaultCostModel()
	nw := transport.NewNetwork(n, model)
	homes := core.RoundRobinHomes(numPages, n)
	nodes = make([]*hlrc.Node, n)
	for i := range nodes {
		nodes[i] = hlrc.NewNode(hlrc.Config{
			ID: i, N: n, PageSize: pageSize, NumPages: numPages,
			Homes: homes, Model: model,
		}, nw, simtime.NewClock(0), nil, nil)
		nodes[i].StartService()
	}
	return nodes, func() {
		for _, nd := range nodes {
			nd.StopService()
		}
	}
}

// scenario times rounds of iterations of body, run on every node at
// once, and returns the median us per iteration (the go-bench figure of
// internal/hlrc/bench_test.go, as a median over rounds).
func scenario(r *runner, nodes []*hlrc.Node, body func(nd *hlrc.Node, i int)) float64 {
	const rounds = 5
	batch := (r.probeCalls() + rounds - 1) / rounds
	per := make([]float64, rounds+1)
	for rd := range per {
		t0 := time.Now()
		var wg sync.WaitGroup
		for _, nd := range nodes {
			wg.Add(1)
			go func(nd *hlrc.Node) {
				defer wg.Done()
				for k := 0; k < batch; k++ {
					body(nd, rd*batch+k)
				}
			}(nd)
		}
		wg.Wait()
		per[rd] = float64(time.Since(t0)) / float64(batch) / 1e3
	}
	return median(per[1:]) // the first round warms up
}

func probeHLRC(r *runner, m map[string]float64, _ *probeInput) error {
	const ps = 4096
	// A contended lock acquire/release cycle.
	nodes, stop := hlrcCluster(kvNodes, 8, ps)
	m["hlrc.lock_handoff_us"] = scenario(r, nodes, func(nd *hlrc.Node, _ int) {
		nd.AcquireLock(1)
		nd.ReleaseLock(1)
	})
	stop()
	// One full 8-node barrier.
	nodes, stop = hlrcCluster(paperNodes, 8, ps)
	m["hlrc.barrier_round_us"] = scenario(r, nodes, func(nd *hlrc.Node, i int) { nd.Barrier(i) })
	stop()
	// The miss path: invalidate, then one round trip to the home.
	nodes, stop = hlrcCluster(2, 2, ps)
	m["hlrc.page_fetch_us"] = scenario(r, nodes[:1], func(nd *hlrc.Node, _ int) {
		nd.PageTable().Invalidate(1) // homed at node 1
		_ = nd.ReadI64(ps)
	})
	stop()
	// An interval close that diffs four dirty remote pages and sends
	// them to their home.
	nodes, stop = hlrcCluster(2, 8, ps)
	m["hlrc.release_diffs_us"] = scenario(r, nodes[:1], func(nd *hlrc.Node, i int) {
		for g := 0; g < 4; g++ {
			nd.WriteI64((2*g+1)*ps, int64(i)) // odd pages are homed at node 1
		}
		nd.AcquireLock(3)
		nd.ReleaseLock(3)
	})
	stop()
	return nil
}

// probeCore times core.Run of an empty program on the kv cluster shape:
// cluster build plus report assembly, and over tcp the listener and dial
// set-up — the fixed cost inside every kv pass. A run is milliseconds, so
// it gets tens of repetitions, not a thousand.
func probeCore(r *runner, m map[string]float64, _ *probeInput) error {
	for _, run := range []struct {
		metric    string
		transport core.Transport
		reps      int
	}{
		{"core.empty_run_ms", core.TransportSim, 50},
		{"core.empty_run_tcp_ms", core.TransportTCP, 20},
	} {
		if r.small {
			run.reps = 3
		}
		cfg := core.Config{Nodes: kvNodes, PageSize: 512, NumPages: 16, Protocol: wal.ProtocolCCL, Transport: run.transport}
		ms := make([]float64, run.reps)
		for i := range ms {
			t0 := time.Now()
			if _, err := core.Run(cfg, func(*core.Proc) {}); err != nil {
				return err
			}
			ms[i] = float64(time.Since(t0)) / 1e6
		}
		m[run.metric] = median(ms)
	}
	return nil
}
