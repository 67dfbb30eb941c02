package kv

import (
	"bytes"
	"testing"
	"time"

	"sdsm/internal/core"
	"sdsm/internal/hlrc"
	"sdsm/internal/obsv"
	"sdsm/internal/recovery"
	"sdsm/internal/simtime"
	"sdsm/internal/transport"
	"sdsm/internal/wal"
)

func runCfg(cfg Config, nodes int) core.Config {
	return core.Config{
		Nodes:    nodes,
		PageSize: 512,
		NumPages: cfg.NumPages(nodes, 512),
		Protocol: wal.ProtocolCCL,
	}
}

func TestKVFailureFree(t *testing.T) {
	const nodes = 4
	cfg := Config{Keys: 32, Ops: 80, ZipfS: 1.2, Seed: 7}
	cc := runCfg(cfg, nodes)
	cc.Trace = obsv.NewCollector(nodes)
	rep, err := core.Run(cc, Prog(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(cfg, nodes, rep.MemoryImage()); err != nil {
		t.Fatal(err)
	}
	reads := cc.Trace.MergedHist(obsv.HistKVRead)
	writes := cc.Trace.MergedHist(obsv.HistKVWrite)
	if reads.Count+writes.Count != int64(nodes)*int64(cfg.withDefaults().Ops) {
		t.Fatalf("observed %d reads + %d writes, want %d ops total", reads.Count, writes.Count, nodes*cfg.withDefaults().Ops)
	}
	if reads.Count == 0 || writes.Count == 0 {
		t.Fatalf("degenerate mix: %d reads, %d writes", reads.Count, writes.Count)
	}
	if reads.Quantile(0.5) <= 0 || writes.Quantile(0.99) <= 0 {
		t.Fatal("latency histograms empty")
	}
}

func TestKVDeterministicSameSeed(t *testing.T) {
	const nodes = 4
	cfg := Config{Keys: 16, Ops: 60, Seed: 3}
	var images [][]byte
	var times []simtime.Time
	for i := 0; i < 2; i++ {
		rep, err := core.Run(runCfg(cfg, nodes), Prog(cfg))
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, rep.MemoryImage())
		times = append(times, rep.ExecTime)
	}
	if !bytes.Equal(images[0], images[1]) {
		t.Fatal("same-seed kv runs produced different memory images")
	}
	// The manager decides grants in virtual-arrival order, so same-seed
	// virtual times repeat (core.TestRunWithChurnDeterministic pins
	// that); here they are only held to a band.
	lo, hi := float64(times[0]), float64(times[1])
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi > lo*1.2 {
		t.Fatalf("same-seed kv exec times outside 20%% band: %v vs %v", times[0], times[1])
	}
	// A different seed must change the image (the workload is actually
	// seed-driven).
	other, err := core.Run(runCfg(Config{Keys: 16, Ops: 60, Seed: 4}, nodes), Prog(Config{Keys: 16, Ops: 60, Seed: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(images[0], other.MemoryImage()) {
		t.Fatal("different seeds produced identical images")
	}
}

func TestKVReadWriteMixes(t *testing.T) {
	const nodes = 2
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"pure-read", Config{Keys: 8, Ops: 30, ReadPct: 100}},
		{"pure-write", Config{Keys: 8, Ops: 30, ReadPct: -1}},
		{"uniform", Config{Keys: 8, Ops: 30, ReadPct: 50, ZipfS: 0}},
		{"skewed", Config{Keys: 8, Ops: 30, ReadPct: 50, ZipfS: 1.5}},
	} {
		rep, err := core.Run(runCfg(tc.cfg, nodes), Prog(tc.cfg))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := Check(tc.cfg, nodes, rep.MemoryImage()); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

func TestKVCrashDuringTraffic(t *testing.T) {
	const nodes = 4
	cfg := Config{Keys: 32, Ops: 80, ZipfS: 1.2, Seed: 7}
	cc := runCfg(cfg, nodes)
	cc.Trace = obsv.NewCollector(nodes)
	rep, err := core.RunWithChurn(cc, Prog(cfg), core.ChurnPlan{
		Victim:        nodes - 1,
		AtOp:          40,
		Recovery:      recovery.CCLRecovery,
		LeaseDuration: simtime.Duration(2 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(cfg, nodes, rep.MemoryImage()); err != nil {
		t.Fatalf("post-churn: %v", err)
	}
	if rep.Recovery == nil || !rep.Recovery.Online {
		t.Fatalf("recovery report = %+v", rep.Recovery)
	}
	// The crash run must end with the same committed state as the
	// failure-free run: the workload is deterministic per seed, and
	// recovery is exact.
	base, err := core.Run(runCfg(cfg, nodes), Prog(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base.MemoryImage(), rep.MemoryImage()) {
		t.Fatal("churn run diverged from failure-free image")
	}
}

// TestAdopterSpansJoinRequesterTrace: after the victim's crash its pages
// are served by an adopter, from custody. The adopter's serve span
// (EvAdoptServe) and its take of an adopted page's diffs (EvHomeUpdate)
// join the trace of the op whose message they handle, as an owner's spans
// do: each is the child of the sender's op span, derived through the
// message's kind.
func TestAdopterSpansJoinRequesterTrace(t *testing.T) {
	const nodes = 4
	cfg := Config{Keys: 32, Ops: 80, ZipfS: 1.2, Seed: 7}
	cc := runCfg(cfg, nodes)
	cc.Trace = obsv.NewCollector(nodes)
	if _, err := core.RunWithChurn(cc, Prog(cfg), core.ChurnPlan{
		Victim:        nodes - 1,
		AtOp:          40,
		Recovery:      recovery.CCLRecovery,
		LeaseDuration: simtime.Duration(2 * time.Millisecond),
	}); err != nil {
		t.Fatal(err)
	}
	// The op span of every traced op, by node and trace id.
	type opKey struct {
		node  int32
		trace uint64
	}
	ops := map[opKey]obsv.TraceCtx{}
	for i := range nodes {
		for _, ev := range cc.Trace.Tracer(i).Events() {
			if ev.Kind == obsv.EvOp && ev.Trace.Valid() {
				ops[opKey{int32(i), ev.Trace.TraceID}] = ev.Trace
			}
		}
	}
	serves := 0
	for i := range nodes {
		for _, ev := range cc.Trace.Tracer(i).Events() {
			var kind transport.Kind
			switch ev.Kind {
			case obsv.EvAdoptServe:
				kind, serves = hlrc.KindPageReq, serves+1
			case obsv.EvHomeUpdate:
				kind = hlrc.KindDiffUpdate
			default:
				continue
			}
			op, ok := ops[opKey{ev.From, ev.Trace.TraceID}]
			if !ev.Trace.Valid() || !ok {
				t.Fatalf("node %d: %v from node %d at %d joins no op of the sender (trace %+v)",
					i, ev.Kind, ev.From, ev.T0, ev.Trace)
			}
			if want := obsv.ChildSpanID(op.SpanID, uint8(kind)); ev.Trace.SpanID != want || ev.Trace.Tag != op.Tag {
				t.Fatalf("node %d: %v from node %d: span %x tag %d, want the child %x of op span %x, tag %d",
					i, ev.Kind, ev.From, ev.Trace.SpanID, ev.Trace.Tag, want, op.SpanID, op.Tag)
			}
		}
	}
	if serves == 0 {
		t.Fatal("no custody serve: the run no longer exercises the adopter")
	}
}

func TestKVOverTCPTransport(t *testing.T) {
	const nodes = 4
	cfg := Config{Keys: 32, Ops: 60, ZipfS: 1.2, Seed: 5}
	base, err := core.Run(runCfg(cfg, nodes), Prog(cfg))
	if err != nil {
		t.Fatal(err)
	}
	cc := runCfg(cfg, nodes)
	cc.Transport = core.TransportTCP
	rep, err := core.Run(cc, Prog(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(cfg, nodes, rep.MemoryImage()); err != nil {
		t.Fatalf("tcp: %v", err)
	}
	if !bytes.Equal(base.MemoryImage(), rep.MemoryImage()) {
		t.Fatal("kv image differs between sim and tcp backends")
	}
}

func TestKVValidate(t *testing.T) {
	bad := []Config{
		{Keys: -1},
		{ValueSize: 12},
		{ValueSize: -8},
		{Ops: -5},
		{ReadPct: 120},
		{ZipfS: 0.5},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", cfg)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
}

func TestKVCheckDetectsCorruption(t *testing.T) {
	const nodes = 2
	cfg := Config{Keys: 8, Ops: 30, Seed: 2}
	rep, err := core.Run(runCfg(cfg, nodes), Prog(cfg))
	if err != nil {
		t.Fatal(err)
	}
	img := append([]byte(nil), rep.MemoryImage()...)
	if err := Check(cfg, nodes, img); err != nil {
		t.Fatal(err)
	}
	d := cfg.withDefaults()
	img[d.valAddr(3)] ^= 0xff // corrupt one payload byte
	if err := Check(cfg, nodes, img); err == nil {
		t.Fatal("Check missed a corrupted payload")
	}
	img[d.valAddr(3)] ^= 0xff
	img[d.counterAddr(0)]++ // phantom committed write
	if err := Check(cfg, nodes, img); err == nil {
		t.Fatal("Check missed a conservation violation")
	}
}
