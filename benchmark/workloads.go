package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"sdsm/internal/apps"
	"sdsm/internal/apps/kv"
	"sdsm/internal/bench"
	"sdsm/internal/core"
	"sdsm/internal/logview"
	"sdsm/internal/obsv"
	"sdsm/internal/recovery"
	"sdsm/internal/simtime"
	"sdsm/internal/wal"
)

// A workload is a fixed list of cells; a cell is one core.Run* call with
// its output checks; a pass runs every cell once. All four workloads are
// closed loops: the SDSM nodes are goroutines of this process and each
// issues its next operation only when the previous one completed.

// workloadDef is one of the four workloads.
type workloadDef struct {
	name string
	why  string
	// nominalPassS is the design-time length of one pass. The pass count
	// of a run is -seconds / nominalPassS, so it is fixed by the flag
	// and not by how fast the code under test happens to be: both sides
	// of a comparison run the same number of passes.
	nominalPassS float64
	// seedNote says what -seed does on this workload.
	seedNote string
	build    func(r *runner, seed int64, passes int) instance
}

// instance is a constructed workload, ready to run passes.
type instance interface {
	// pass runs every cell once and checks every output.
	pass(r *runner, mode passMode) *passData
	// solo runs the workload's programs on one node without logging:
	// kernel compute plus local access checks, no coherence traffic —
	// the floor no protocol change can go below. Host seconds.
	solo(r *runner) (float64, error)
	// finish adds the workload's own pooled metrics to the result.
	finish(res *WorkloadResult)
}

const minPasses = 3

func (w *workloadDef) passes(seconds int) int {
	return max(minPasses, int(math.Round(float64(seconds)/w.nominalPassS)))
}

var workloadDefs = []*workloadDef{
	{
		name:         wlTable2,
		why:          "paper Table 2 / Fig. 4: four kernels x None/ML/CCL at 8 nodes; bulk and barrier-bound, so memory, the hlrc fetch/update path and wal+stable do the work",
		nominalPassS: 1.3,
		seedNote:     "the four kernels have fixed inputs; -seed does not change them",
		build:        buildTable2,
	},
	{
		name:         wlKVSim,
		why:          "serving traffic: 8000 lock-guarded zipf kv transactions per pass on 4 nodes under CCL; lock manager, small-message delivery and the per-release flush dominate, memory idles",
		nominalPassS: 0.075,
		seedNote:     "-seed seeds the op streams; every timed pass runs a stream of its own",
		build: func(r *runner, seed int64, passes int) instance {
			return buildKV(r, seed, passes, core.TransportSim)
		},
	},
	{
		name:         wlKVTCP,
		why:          "the same op streams over the loopback TCP backend: every message crosses the gob codec and a socket; sim metrics equal kv_sim, host cost is many times higher",
		nominalPassS: 2.0,
		seedNote:     "-seed seeds the op streams; every timed pass runs a stream of its own",
		build: func(r *runner, seed int64, passes int) instance {
			return buildKV(r, seed, passes, core.TransportTCP)
		},
	},
	{
		name:         wlRecovery,
		why:          "paper Fig. 5 plus online recovery: each kernel crashed at 85% and replayed under ML- and CCL-recovery, plus one kv churn cell; the only workload where recovery, stable reads and checkpoint restore run",
		nominalPassS: 2.5,
		seedNote:     "the four kernels and the kv churn cell have fixed inputs; -seed does not change them",
		build:        buildRecovery,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloadDefs {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runner carries what every cell of one workload run shares.
type runner struct {
	spans *spanRecorder // nil unless tracing
	small bool          // test scale: ScaleSmall kernels, Ops:60 kv
}

// cell is the outcome of one core.Run* call.
type cell struct {
	id    string
	proto wal.Protocol
	rep   *core.Report
	trace *obsv.Collector // non-nil on the traced pass
	wallS float64
	err   error
}

// simFacts are the simulated quantities of a cell that a change meant
// only to speed up the Go code must leave untouched.
type simFacts struct {
	ExecNS   int64 `json:"exec_ns"`
	LogBytes int64 `json:"log_bytes"`
	NetMsgs  int64 `json:"net_msgs"`
	NetBytes int64 `json:"net_bytes"`
	Flushes  int64 `json:"flushes"`
}

// passData accumulates one pass. The timed region is the core.Run* calls
// only; checks and audits run outside it.
type passData struct {
	// perPass holds the pass's value of every per-pass metric, by metric
	// name: the five every workload has (runCell sums them over the
	// cells) and the workload's own.
	perPass           map[string]float64
	attempted, failed int
	failures          []string
	cellIDs           []string
	facts             []simFacts // aligned with cellIDs
	// ownInputs: the pass ran an input stream of its own, so its sim
	// facts cannot be held against another pass's.
	ownInputs bool
	checkNS   int64
	auditNS   int64
	auditRecs int64
	cells     []*cell // reports and collectors, kept on the traced pass only
}

func newPassData() *passData { return &passData{perPass: map[string]float64{}} }

func (pd *passData) fail(id string, err error) {
	pd.failed++
	pd.failures = append(pd.failures, fmt.Sprintf("%s: %v", id, err))
}

// skip counts a cell that could not be attempted because the cell it
// depends on failed: it is a failed cell, not a missing one.
func (pd *passData) skip(id string, why error) {
	pd.attempted++
	pd.fail(id, fmt.Errorf("not run: %w", why))
}

// protect turns a panic in the system under test into an error, so a
// broken cell lands in failed_share and the run goes on.
func protect(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

// cellTimeout bounds one core.Run* call; the longest cell takes under
// three seconds. A cell that is still running then has livelocked (see
// README.md: the churn cell spins in transport's arrival fence on some
// seeds) and will neither return nor stop burning both cores, so the run
// cannot go on: it reports where every goroutine is and ends.
const cellTimeout = 60 * time.Second

func hung(id string) {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	fmt.Fprintf(os.Stderr, "benchmark: cell %s is still running after %v: the system under test hangs.\n%s\n", id, cellTimeout, buf)
	os.Exit(1)
}

// runCell executes and times one core.Run* call.
func (r *runner) runCell(pd *passData, id string, cfg core.Config, traced bool, run func(core.Config) (*core.Report, error)) *cell {
	c := &cell{id: id, proto: cfg.Protocol}
	if traced {
		c.trace = obsv.NewCollector(cfg.Nodes)
		cfg.Trace = c.trace
		pd.cells = append(pd.cells, c)
	}
	end := r.spans.begin("core.Run", id)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.err = protect(func() (err error) {
			c.rep, err = run(cfg)
			return err
		})
	}()
	select {
	case <-done:
	case <-time.After(cellTimeout):
		hung(id)
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	end()

	pd.attempted++
	pd.cellIDs = append(pd.cellIDs, id)
	if c.err != nil {
		pd.facts = append(pd.facts, simFacts{})
		pd.fail(id, c.err)
		return c
	}
	c.wallS = wall.Seconds()
	pd.perPass["host_pass_s"] += c.wallS
	pd.perPass["sim_pass_s"] += c.rep.ExecTime.Seconds()
	pd.perPass["host_alloc_mb"] += float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	pd.perPass["host_mallocs_k"] += float64(m1.Mallocs-m0.Mallocs) / 1e3
	pd.perPass["log_mb"] += float64(c.rep.TotalLogBytes) / 1e6
	pd.facts = append(pd.facts, simFacts{
		ExecNS:   int64(c.rep.ExecTime),
		LogBytes: c.rep.TotalLogBytes,
		NetMsgs:  c.rep.NetMsgs,
		NetBytes: c.rep.NetBytes,
		Flushes:  c.rep.TotalFlushes,
	})
	return c
}

// guarded runs one check of a cell's output under a span and returns how
// long it took; a failed check fails the cell (once).
func (r *runner) guarded(pd *passData, c *cell, span string, fn func() error) time.Duration {
	if c.err != nil {
		return 0
	}
	end := r.spans.begin(span, c.id)
	t0 := time.Now()
	err := protect(fn)
	d := time.Since(t0)
	end()
	if err != nil {
		c.err = err
		pd.fail(c.id, err)
	}
	return d
}

// check runs the workload's own checks of a cell's final image.
func (r *runner) check(pd *passData, c *cell, fn func() error) {
	pd.checkNS += int64(r.guarded(pd, c, "apps.check", fn))
}

// audit passes a logging cell's stable logs through the log auditor.
func (r *runner) audit(pd *passData, c *cell) {
	var records int64
	d := r.guarded(pd, c, "logview.Audit", func() error {
		rep, err := logview.Audit(c.rep.Depot, logview.AuditOptions{})
		if err == nil {
			records = rep.Records
		}
		return err
	})
	pd.auditNS += int64(d)
	pd.auditRecs += records
}

// ---------------------------------------------------------------- table2_sim

const paperNodes = 8

func (r *runner) scale() bench.Scale {
	if r.small {
		return bench.ScaleSmall
	}
	return bench.ScaleMedium
}

type table2 struct{ apps []*apps.Workload }

func buildTable2(r *runner, _ int64, _ int) instance {
	return &table2{apps: bench.Workloads(paperNodes, r.scale())}
}

func (t *table2) pass(r *runner, mode passMode) *passData {
	pd := newPassData()
	traced := mode == passTraced
	var cclNorm, mlNorm, logRatio []float64
	for _, w := range t.apps {
		var golden []byte
		exec := map[wal.Protocol]float64{}
		logB := map[wal.Protocol]float64{}
		for _, proto := range bench.Protocols {
			cfg := w.BaseConfig(paperNodes)
			cfg.Protocol = proto
			cfg.SkipInitialCheckpoint = true // the paper takes no checkpoints here
			c := r.runCell(pd, w.Name+"/"+proto.String(), cfg, traced, func(cfg core.Config) (*core.Report, error) {
				return core.Run(cfg, w.Prog)
			})
			r.check(pd, c, func() error {
				img := c.rep.MemoryImage()
				if err := w.Check(img); err != nil {
					return err
				}
				if w.Deterministic {
					if golden == nil {
						golden = img
					} else if !bytes.Equal(golden, img) {
						return errors.New("final image differs from the first protocol's")
					}
				}
				return nil
			})
			if proto != wal.ProtocolNone {
				r.audit(pd, c)
			}
			if c.err == nil {
				exec[proto] = c.rep.ExecTime.Seconds()
				logB[proto] = float64(c.rep.TotalLogBytes)
			}
		}
		if len(exec) == len(bench.Protocols) {
			cclNorm = append(cclNorm, exec[wal.ProtocolCCL]/exec[wal.ProtocolNone]*100)
			mlNorm = append(mlNorm, exec[wal.ProtocolML]/exec[wal.ProtocolNone]*100)
			logRatio = append(logRatio, logB[wal.ProtocolCCL]/logB[wal.ProtocolML]*100)
		}
	}
	if len(cclNorm) == len(t.apps) {
		pd.perPass["ccl_norm_exec_pct"] = mean(cclNorm)
		pd.perPass["ml_norm_exec_pct"] = mean(mlNorm)
		pd.perPass["ccl_ml_log_ratio_pct"] = mean(logRatio)
	}
	return pd
}

func (t *table2) solo(r *runner) (float64, error) { return soloKernels(r) }

func (t *table2) finish(*WorkloadResult) {}

// soloKernels runs the four kernels on one node, protocol None.
func soloKernels(r *runner) (float64, error) {
	var total float64
	for _, w := range bench.Workloads(1, r.scale()) {
		cfg := w.BaseConfig(1)
		end := r.spans.begin("apps.solo", w.Name)
		t0 := time.Now()
		err := protect(func() error {
			_, err := core.Run(cfg, w.Prog)
			return err
		})
		total += time.Since(t0).Seconds()
		end()
		if err != nil {
			return 0, fmt.Errorf("solo %s: %w", w.Name, err)
		}
	}
	return total, nil
}

// ---------------------------------------------------------------- kv_sim, kv_tcp

const kvNodes = 4

// clientLat holds one client's latency samples. Each client goroutine
// touches only its own entry; the padding keeps two entries off one
// cache line.
type clientLat struct {
	last time.Time
	host []int32 // wall ns between consecutive completions
	sim  []int32 // virtual ns, OpRecord.Latency
	_    [64]byte
}

// latencies takes the transaction latencies in kv.Config.OnOp into
// arrays allocated before the first timed pass.
type latencies struct {
	on                  bool // flipped by the driver between passes only
	clients             []clientLat
	hostMark, simMark   []int     // per client: sample count at the start of the open pass
	p50, p99, simP99    []float64 // per timed pass, us
	scratchH, scratchSi []int32
}

func newLatencies(clients, opsPerClient, passes int) *latencies {
	l := &latencies{
		clients:  make([]clientLat, clients),
		hostMark: make([]int, clients),
		simMark:  make([]int, clients),
	}
	for i := range l.clients {
		l.clients[i].host = make([]int32, 0, opsPerClient*passes)
		l.clients[i].sim = make([]int32, 0, opsPerClient*passes)
	}
	l.scratchH = make([]int32, 0, clients*opsPerClient)
	l.scratchSi = make([]int32, 0, clients*opsPerClient)
	return l
}

func nsI32(d int64) int32 { return int32(min(d, math.MaxInt32)) }

func (l *latencies) onOp(rec kv.OpRecord) {
	if !l.on {
		return
	}
	c := &l.clients[rec.Node]
	now := time.Now()
	if rec.Seq > 1 { // the first op of a pass has no previous completion
		c.host = append(c.host, nsI32(int64(now.Sub(c.last))))
	}
	c.last = now
	c.sim = append(c.sim, nsI32(int64(rec.Latency)))
}

// closePass computes the finished pass's own quantiles (the per-pass
// values behind the printed quartiles) and moves the marks.
func (l *latencies) closePass() {
	h, s := l.scratchH[:0], l.scratchSi[:0]
	for i := range l.clients {
		c := &l.clients[i]
		h = append(h, c.host[l.hostMark[i]:]...)
		s = append(s, c.sim[l.simMark[i]:]...)
		l.hostMark[i], l.simMark[i] = len(c.host), len(c.sim)
	}
	slices.Sort(h)
	slices.Sort(s)
	l.p50 = append(l.p50, quantile(h, 0.50)/1e3)
	l.p99 = append(l.p99, quantile(h, 0.99)/1e3)
	l.simP99 = append(l.simP99, quantile(s, 0.99)/1e3)
}

// pooled returns the quantiles over every client and pass: host p50 and
// p99, sim p99 (us), and the host and sim sample counts.
func (l *latencies) pooled() (p50, p99, simP99 float64, nHost, nSim int) {
	var h, s []int32
	for i := range l.clients {
		h = append(h, l.clients[i].host...)
		s = append(s, l.clients[i].sim...)
	}
	slices.Sort(h)
	slices.Sort(s)
	return quantile(h, 0.50) / 1e3, quantile(h, 0.99) / 1e3, quantile(s, 0.99) / 1e3, len(h), len(s)
}

type kvInst struct {
	cfg  kv.Config
	seed int64
	tr   core.Transport
	lat  *latencies
	// timed counts the timed passes run: timed pass i draws stream i.
	timed int
	// imageCRC is the final image of stream 0 (every set-up's warm-up
	// pass, the first timed pass and the traced pass run it).
	imageCRC uint32
	imaged   bool
}

// streamSeed derives the op-stream seed of a pass. Every timed pass runs
// a stream of its own, so a run's medians are over as many streams as
// passes and say the same thing whatever -seed was: with one stream per
// run, log_mb alone moved 3.6% from seed to seed (its share of writes).
func streamSeed(seed int64, stream int) int64 { return seed*1_000_003 + int64(stream) + 1 }

func kvConfig(r *runner) kv.Config {
	ops := 2000
	if r.small {
		ops = 60
	}
	return kv.Config{Keys: 64, Ops: ops, ZipfS: 1.2, ReadPct: 80, BarrierEvery: -1}
}

func buildKV(r *runner, seed int64, passes int, tr core.Transport) instance {
	cfg := kvConfig(r)
	k := &kvInst{cfg: cfg, seed: seed, tr: tr, lat: newLatencies(kvNodes, cfg.Ops, passes)}
	k.cfg.OnOp = k.lat.onOp
	return k
}

func (k *kvInst) pass(r *runner, mode passMode) *passData {
	pd := newPassData()
	pd.ownInputs = true
	traced := mode == passTraced
	stream := 0
	if mode == passTimed {
		stream = k.timed
		k.timed++
	}
	cfg := k.cfg
	cfg.Seed = streamSeed(k.seed, stream)
	cc := bench.KVCoreConfig(kvNodes, cfg, k.tr)
	k.lat.on = mode == passTimed
	c := r.runCell(pd, "kv/"+string(k.tr), cc, traced, func(cc core.Config) (*core.Report, error) {
		return core.Run(cc, kv.Prog(cfg))
	})
	r.check(pd, c, func() error {
		img := c.rep.MemoryImage()
		// kv.Check recomputes the image the streams imply, exactly; so
		// runs of one stream — on either backend — agree on it.
		if err := kv.Check(cfg, kvNodes, img); err != nil {
			return err
		}
		if stream == 0 {
			crc := crc32.ChecksumIEEE(img)
			if k.imaged && crc != k.imageCRC {
				return fmt.Errorf("final image crc %08x differs from the last run of the same stream, %08x", crc, k.imageCRC)
			}
			k.imageCRC, k.imaged = crc, true
		}
		return nil
	})
	r.audit(pd, c)
	if mode == passTimed {
		k.lat.closePass()
	}
	return pd
}

// finish adds the transaction latencies, pooled over every client and
// timed pass; the per-pass quantiles stand behind the quartiles.
func (k *kvInst) finish(res *WorkloadResult) {
	p50, p99, simP99, nHost, nSim := k.lat.pooled()
	pooled := func(name string, v float64, n int, perPass []float64) {
		d := e2eDef(name)
		q := summarize(perPass)
		res.EndToEnd[name] = Sample{Value: v, Unit: d.Unit, Clock: d.Clock, Q1: q.q1, Q3: q.q3, N: n, Raw: perPass}
	}
	pooled("host_txn_p50_us", p50, nHost, k.lat.p50)
	pooled("host_txn_p99_us", p99, nHost, k.lat.p99)
	pooled("sim_txn_p99_us", simP99, nSim, k.lat.simP99)
	res.ImageCRC = fmt.Sprintf("%08x", k.imageCRC)
}

func (k *kvInst) solo(r *runner) (float64, error) {
	cfg := k.cfg
	cfg.Seed = streamSeed(k.seed, 0)
	return soloKV(r, cfg)
}

// soloKV runs the kv program with one client on one node, protocol None.
func soloKV(r *runner, cfg kv.Config) (float64, error) {
	cfg.OnOp = nil
	cc := bench.KVCoreConfig(1, cfg, core.TransportSim)
	cc.Protocol = wal.ProtocolNone
	defer r.spans.begin("apps.solo", "kv")()
	t0 := time.Now()
	err := protect(func() error {
		_, err := core.Run(cc, kv.Prog(cfg))
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("solo kv: %w", err)
	}
	return time.Since(t0).Seconds(), nil
}

// ---------------------------------------------------------------- recovery_sim

// The churn cell stays at Ops:160 / AtOp:160: at Ops:400 / AtOp:400 the
// same cell lost a committed write in 4 of 300 runs at 427b53b (ROADMAP
// item 2; see README.md) and a benchmark must run on cells that pass.
const churnOps = 160

// The churn cell's op streams are fixed, like the kernels' inputs: on
// some streams the cell livelocks in transport.FenceArrivalsBefore
// (three nodes spinning in their release fences at once). At 427b53b
// seed 37 hung 3 times in 662 runs, seed 1 once in 8871 (README.md).
const churnSeed = 1

type recoveryInst struct {
	apps  []*apps.Workload
	churn kv.Config
}

func buildRecovery(r *runner, _ int64, _ int) instance {
	ops := churnOps
	if r.small {
		ops = 60
	}
	return &recoveryInst{
		apps:  bench.Workloads(paperNodes, r.scale()),
		churn: kv.Config{Keys: 64, Ops: ops, ZipfS: 1.2, ReadPct: 80, Seed: churnSeed},
	}
}

var crashSchemes = []struct {
	proto wal.Protocol
	kind  recovery.Kind
	name  string
}{
	{wal.ProtocolML, recovery.MLRecovery, "ML-recovery"},
	{wal.ProtocolCCL, recovery.CCLRecovery, "CCL-recovery"},
}

func (ri *recoveryInst) pass(r *runner, mode passMode) *passData {
	pd := newPassData()
	traced := mode == passTraced
	const victim = paperNodes - 1
	var simRecovery, hostExtra float64
	replay := map[wal.Protocol]float64{}
	reduction := map[wal.Protocol][]float64{}
	for _, w := range ri.apps {
		// The failure-free run places the crash at 85% of the victim's
		// synchronization ops and is the re-execution baseline of Fig. 5.
		cfg := w.BaseConfig(paperNodes)
		none := r.runCell(pd, w.Name+"/None", cfg, traced, func(cfg core.Config) (*core.Report, error) {
			return core.Run(cfg, w.Prog)
		})
		r.check(pd, none, func() error { return w.Check(none.rep.MemoryImage()) })
		if none.err != nil {
			for _, s := range crashSchemes {
				pd.skip(w.Name+"/"+s.name, none.err)
			}
			continue
		}
		atOp := none.rep.NodeOps[victim] * 85 / 100
		if atOp < 1 {
			atOp = w.CrashOp
		}
		golden, reexec := none.rep.MemoryImage(), none.rep.ExecTime.Seconds()
		for _, s := range crashSchemes {
			cfg := w.BaseConfig(paperNodes)
			cfg.Protocol = s.proto
			c := r.runCell(pd, w.Name+"/"+s.name, cfg, traced, func(cfg core.Config) (*core.Report, error) {
				return core.RunWithCrash(cfg, w.Prog, core.CrashPlan{Victim: victim, AtOp: atOp, Recovery: s.kind})
			})
			r.check(pd, c, func() error {
				if c.rep.Recovery == nil {
					return errors.New("crash cell produced no recovery report")
				}
				img := c.rep.MemoryImage()
				if err := w.Check(img); err != nil {
					return fmt.Errorf("post-recovery: %w", err)
				}
				// Water's lock-ordered sums are not bit-reproducible;
				// its images pass Check only.
				if w.Deterministic && !bytes.Equal(golden, img) {
					return errors.New("recovered image differs from the failure-free image")
				}
				return nil
			})
			r.audit(pd, c)
			if c.err != nil {
				continue
			}
			rt := c.rep.Recovery.ReplayTime.Seconds()
			simRecovery += rt
			replay[s.proto] += rt
			reduction[s.proto] = append(reduction[s.proto], (1-rt/reexec)*100)
			if traced {
				// The same configuration without the crash: what the
				// crash and the recovery added on the host clock.
				twin := cfg
				twin.HomeUndo = s.kind == recovery.CCLRecovery // as RunWithCrash sets it
				end := r.spans.begin("core.Run(no-crash twin)", c.id)
				t0 := time.Now()
				err := protect(func() error {
					_, err := core.Run(twin, w.Prog)
					return err
				})
				twinS := time.Since(t0).Seconds()
				end()
				if err == nil {
					hostExtra += c.wallS - twinS
				}
			}
		}
	}

	cc := bench.KVCoreConfig(kvNodes, ri.churn, core.TransportSim)
	churn := r.runCell(pd, "kv/churn", cc, traced, func(cc core.Config) (*core.Report, error) {
		return core.RunWithChurn(cc, kv.Prog(ri.churn), core.ChurnPlan{
			Victim:        kvNodes - 1,
			AtOp:          int32(ri.churn.Ops), // about halfway: two sync ops per transaction
			Recovery:      recovery.CCLRecovery,
			LeaseDuration: simtime.Duration(bench.KVLeaseMs * 1e6),
		})
	})
	r.check(pd, churn, func() error {
		if churn.rep.Recovery == nil || !churn.rep.Recovery.Online {
			return errors.New("churn cell produced no online-recovery report")
		}
		return kv.Check(ri.churn, kvNodes, churn.rep.MemoryImage())
	})
	r.audit(pd, churn)

	if pd.failed == 0 {
		pd.perPass["sim_recovery_s"] = simRecovery
		pd.perPass["recovery.replay_s_ml"] = replay[wal.ProtocolML]
		pd.perPass["recovery.replay_s_ccl"] = replay[wal.ProtocolCCL]
		pd.perPass["recovery.ml_reduction_pct"] = mean(reduction[wal.ProtocolML])
		pd.perPass["recovery.ccl_reduction_pct"] = mean(reduction[wal.ProtocolCCL])
		rec := churn.rep.Recovery
		pd.perPass["recovery.rejoin_s"] = (rec.RejoinTime - rec.CrashTime).Seconds()
		if traced {
			pd.perPass["recovery.host_extra_s"] = hostExtra
		}
	}
	return pd
}

func (ri *recoveryInst) finish(*WorkloadResult) {}

func (ri *recoveryInst) solo(r *runner) (float64, error) {
	kernels, err := soloKernels(r)
	if err != nil {
		return 0, err
	}
	kvS, err := soloKV(r, ri.churn)
	return kernels + kvS, err
}
