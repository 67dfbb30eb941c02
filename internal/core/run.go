package core

import (
	"fmt"
	"sync"

	"sdsm/internal/checkpoint"
	"sdsm/internal/fault"
	"sdsm/internal/hlrc"
	"sdsm/internal/memory"
	"sdsm/internal/obsv"
	"sdsm/internal/recovery"
	"sdsm/internal/simtime"
	"sdsm/internal/stable"
	"sdsm/internal/transport"
	"sdsm/internal/transport/tcp"
	"sdsm/internal/wal"
)

// cluster is one assembled run: network, stable storage, and the node
// incarnations (updated in place when a crashed node is rebuilt).
type cluster struct {
	cfg Config
	// lease is the virtual-clock lease every incarnation runs with
	// (hlrc.Config.LeaseDuration): the churn plan's under RunWithChurn,
	// zero (offline recovery semantics) otherwise.
	lease  simtime.Duration
	nw     *transport.Network
	depot  *stable.Depot
	nodes  []*hlrc.Node
	stats  []*hlrc.Stats
	fabric *tcp.Fabric // non-nil under TransportTCP
}

// closeFabric tears the wire backend down after the run (a no-op for the
// in-process backend). Deferred by every Run* entry point so errors and
// panics do not leak fabric goroutines.
func (c *cluster) closeFabric() {
	if c.fabric != nil {
		c.nw.CloseFabric()
	}
}

func buildCluster(cfg Config, lease simtime.Duration) (*cluster, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &cluster{
		cfg:   cfg,
		lease: lease,
		nw:    transport.NewNetwork(cfg.Nodes, *cfg.Model),
		depot: stable.NewDepot(cfg.Nodes),
		nodes: make([]*hlrc.Node, cfg.Nodes),
		stats: make([]*hlrc.Stats, cfg.Nodes),
	}
	c.nw.SetFaultPlan(cfg.Faults)
	if cfg.Transport == TransportTCP {
		fab, err := tcp.New(c.nw, tcp.Options{Payloads: hlrc.WirePayloads()})
		if err != nil {
			return nil, fmt.Errorf("core: starting tcp fabric: %w", err)
		}
		c.fabric = fab
		c.nw.SetFabric(fab)
	}
	for i := 0; i < cfg.Nodes; i++ {
		c.stats[i] = &hlrc.Stats{}
		c.nodes[i] = c.newIncarnation(i, c.stats[i], simtime.NewClock(0))
	}
	if !cfg.SkipInitialCheckpoint {
		for i := 0; i < cfg.Nodes; i++ {
			checkpoint.Take(c.nodes[i], c.depot.Store(i))
		}
	}
	return c, nil
}

// newIncarnation builds a (fresh or recovered) node attached to slot id.
func (c *cluster) newIncarnation(id int, stats *hlrc.Stats, clock *simtime.Clock) *hlrc.Node {
	// Torn-tail recovery needs the hardened log layout (ML logs its own
	// diffs too) and manager sender logs to replay from.
	hardened := c.cfg.Faults.TornWriteOnCrash
	newHooks := wal.New
	if hardened {
		newHooks = wal.NewHardened
	}
	store := c.depot.Store(id)
	hooks := newHooks(c.cfg.Protocol, store, stats)
	trc := c.cfg.Trace.Tracer(id)
	store.ObserveFlushes(trc.Hist(obsv.HistFlushBytes))
	nd := hlrc.NewNode(hlrc.Config{
		ID: id, N: c.cfg.Nodes,
		PageSize: c.cfg.PageSize, NumPages: c.cfg.NumPages,
		Homes:          c.cfg.Homes,
		Model:          *c.cfg.Model,
		HomeUndo:       c.cfg.HomeUndo,
		NoFlushOverlap: c.cfg.NoFlushOverlap,
		SenderLogs:     hardened,
		LeaseDuration:  c.lease,
		LogDiffs:       func(req *hlrc.RecDiffsReq) *hlrc.RecDiffsReply { return wal.ReadLoggedDiffs(store, req) },
		Tracer:         trc,
	}, c.nw, clock, hooks, stats)
	c.installCheckpointing(nd)
	return nd
}

// installCheckpointing arms the periodic-checkpoint hook: after every
// k-th barrier, at a lock-free point, the node's state is saved to its
// stable store and the creation cost is charged to its clock.
func (c *cluster) installCheckpointing(nd *hlrc.Node) {
	k := c.cfg.CheckpointEveryBarriers
	if k <= 0 {
		return
	}
	store := c.depot.Store(nd.ID())
	barriers := 0
	nd.PostBarrier = func(int32) {
		barriers++
		if barriers%k != 0 || nd.HoldsLocks() {
			return
		}
		bytes := checkpoint.Take(nd, store)
		t0, t1 := nd.Clock().AdvanceSpan(c.cfg.Model.DiskTime(bytes))
		nd.Tracer().Seg(obsv.EvCheckpoint, obsv.CatLogging, t0, t1, int64(bytes), 0)
	}
}

// runNode executes prog on one node, translating the injected-crash and
// membership-fence panics into flags and letting real bugs propagate as
// errors. A fenced node unwound with its state intact: the runner decides
// whether a rejoin plan covers it.
func runNode(nd *hlrc.Node, prog Program) (crashed, fenced bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			switch r {
			case hlrc.ErrCrashed:
				crashed = true
			case hlrc.ErrFenced:
				fenced = true
			default:
				err = fmt.Errorf("node %d panicked: %v", nd.ID(), r)
			}
		}
	}()
	prog(&Proc{nd: nd})
	return false, false, nil
}

// Report summarizes one run.
type Report struct {
	Protocol wal.Protocol
	// Transport is the wire backend the run used.
	Transport Transport
	// Fabric holds the TCP backend's physical wire counters; nil under
	// TransportSim.
	Fabric *tcp.Stats
	// ExecTime is the slowest node's virtual clock at completion — the
	// paper's "execution time".
	ExecTime simtime.Time
	// NodeTimes holds every node's final virtual clock.
	NodeTimes []simtime.Time
	// Stats holds per-node protocol counters.
	Stats []hlrc.Snapshot
	// StoreStats holds per-node stable-storage counters.
	StoreStats []stable.Stats
	// TotalLogBytes and TotalFlushes aggregate the log columns of the
	// paper's Table 2; MeanFlushBytes is its "mean log size".
	TotalLogBytes  int64
	TotalFlushes   int64
	MeanFlushBytes float64
	// NetMsgs and NetBytes count all protocol traffic.
	NetMsgs  int64
	NetBytes int64
	// MsgKinds breaks the protocol traffic down per message kind.
	MsgKinds []obsv.KindCount
	// NodeOps holds each node's final synchronization-op count; crash
	// planners use it to place late crash points.
	NodeOps []int32
	// CheckpointBytes is the accounted on-disk size of all checkpoints
	// (incremental after the first).
	CheckpointBytes int64
	// Recovery is set by RunWithCrash and RunWithChurn; nil after Run.
	Recovery *RecoveryReport
	// Depot exposes the run's stable stores for post-run introspection
	// (log dissection and auditing — see internal/logview). Treat the
	// stores as read-only.
	Depot *stable.Depot
	// Homes is the run's static page-to-home assignment after config
	// defaults; paired with Recovery.Victim it identifies the migrated
	// pages of a churn run.
	Homes []int
	// PageSize is the run's page size in bytes.
	PageSize int
	// AdoptedPages holds every node's custody state for homes adopted
	// from crashed nodes, in node order. Set only by RunWithChurn; the
	// custody check of the churn sweep (internal/bench) cross-checks it
	// against the writers' logs.
	AdoptedPages []hlrc.AdoptedPageState

	// frames holds the authoritative copy of every page by reference —
	// its home's frame, nil for a page nobody touched (all zeros). The
	// nodes have stopped, so the frames no longer change; MemoryImage
	// assembles them into mem on first use.
	frames  [][]byte
	memOnce sync.Once
	mem     []byte
}

// RecoveryReport describes an injected crash and its recovery.
type RecoveryReport struct {
	Victim  int
	Kind    recovery.Kind
	CrashOp int32
	// ReplayTime is the victim's virtual time from the start of recovery
	// until it resumed live operation — the paper's "recovery time".
	ReplayTime simtime.Time
	// TornTail reports whether the crash tore the victim's final log
	// flush (Config.Faults.TornWriteOnCrash and the log was non-empty);
	// TailOps counts the sync ops replayed from the managers' sender logs
	// instead of the (lost) disk records.
	TornTail bool
	TailOps  int
	// Misses counts CCL-recovery's on-demand page fetches: pages the
	// replay touched that its prefetch had left invalid.
	Misses int
	// Phases is the recovery-time breakdown: per-phase virtual durations
	// that partition ReplayTime exactly (see recovery.PhaseReport).
	Phases recovery.PhaseReport
	// Online churn (RunWithChurn only): the recovery ran concurrently
	// with the surviving cluster. CrashTime is the victim's clock at the
	// fail-stop; DeclareTime is when its lease expired (survivors may act
	// on the death); RestartTime is when the recovered incarnation began
	// replaying; RejoinTime is when it resumed live operation
	// (RestartTime + ReplayTime — the catch-up includes the checkpoint
	// restore).
	Online      bool
	CrashTime   simtime.Time
	DeclareTime simtime.Time
	RestartTime simtime.Time
	RejoinTime  simtime.Time
	// Partition churn (ChurnPlan.PartitionFor > 0 only): the victim was
	// merely partitioned, not dead. Partitioned is true for such runs.
	// HealTime is when the partition window closed; FencedTime is the
	// victim's clock when its first post-heal request was fenced (the
	// stale incarnation's end); RejoinEpoch is the membership epoch the
	// re-admission bumped the cluster to; TruncatedRecords counts the
	// stale incarnation's unacknowledged log records the rejoin protocol
	// discarded before replay.
	Partitioned      bool
	HealTime         simtime.Time
	FencedTime       simtime.Time
	RejoinEpoch      int64
	TruncatedRecords int
}

// MemoryImage returns the authoritative final shared-memory image,
// assembled from the home copy of every page. Runs of the same program
// must produce identical images regardless of protocol or crashes. The
// image is built on the first call, so a caller that never asks for it
// never pays for the copy.
func (r *Report) MemoryImage() []byte {
	r.memOnce.Do(func() {
		r.mem = make([]byte, len(r.frames)*r.PageSize)
		for p, f := range r.frames {
			copy(r.mem[p*r.PageSize:], f)
		}
		r.frames = nil
	})
	return r.mem
}

// KindMsgs returns how many messages of kind the run sent.
func (r *Report) KindMsgs(kind transport.Kind) int64 {
	for _, k := range r.MsgKinds {
		if k.Kind == uint8(kind) {
			return k.Msgs
		}
	}
	return 0
}

func (c *cluster) report() *Report {
	rep := &Report{
		Protocol:      c.cfg.Protocol,
		Transport:     c.cfg.Transport,
		NodeTimes:     make([]simtime.Time, c.cfg.Nodes),
		Stats:         make([]hlrc.Snapshot, c.cfg.Nodes),
		StoreStats:    make([]stable.Stats, c.cfg.Nodes),
		TotalLogBytes: c.depot.TotalLoggedBytes(),
		TotalFlushes:  c.depot.TotalFlushes(),
		NetMsgs:       c.nw.MsgCount(),
		NetBytes:      c.nw.ByteCount(),
		MsgKinds:      c.nw.KindCounts(),
		NodeOps:       make([]int32, c.cfg.Nodes),
		Depot:         c.depot,
		Homes:         c.cfg.Homes,
		PageSize:      c.cfg.PageSize,
	}
	if c.fabric != nil {
		s := c.fabric.Stats()
		rep.Fabric = &s
	}
	for i, nd := range c.nodes {
		rep.CheckpointBytes += c.depot.Store(i).CheckpointBytes()
		rep.NodeOps[i] = nd.OpIndex()
		rep.NodeTimes[i] = nd.Clock().Now()
		if rep.NodeTimes[i] > rep.ExecTime {
			rep.ExecTime = rep.NodeTimes[i]
		}
		rep.Stats[i] = c.stats[i].Snapshot()
		rep.StoreStats[i] = c.depot.Store(i).Stats()
	}
	if rep.TotalFlushes > 0 {
		rep.MeanFlushBytes = float64(rep.TotalLogBytes) / float64(rep.TotalFlushes)
	}
	rep.frames = make([][]byte, c.cfg.NumPages)
	for p := range rep.frames {
		rep.frames[p] = c.nodes[c.cfg.Homes[p]].PageTable().Frame(memory.PageID(p))
	}
	return rep
}

// Run executes prog failure-free on a fresh cluster and reports timing,
// logging and protocol statistics.
func Run(cfg Config, prog Program) (*Report, error) {
	c, err := buildCluster(cfg, 0)
	if err != nil {
		return nil, err
	}
	defer c.closeFabric()
	return c.run(prog, unplanned)
}

// unplanned is the down handler for a node no failure plan covers.
func unplanned(node int, fenced bool) error {
	if fenced {
		return fmt.Errorf("node %d was fenced, which no partition plan covers", node)
	}
	return fmt.Errorf("node %d crashed, which no crash plan covers", node)
}

// run is the one launch-and-collect loop: it starts every node's service
// and application goroutine, waits for the program to complete everywhere,
// and reports. down says what to do when a node comes down — its program
// unwound with the injected crash, or (fenced) with the membership fence —
// and runs on that node's application goroutine.
//
// A node whose down handler (its recovery) fails leaves the others blocked
// on protocol progress it will never make; waiting for them would
// deadlock. Completions are collected on a channel so the first error
// aborts the run immediately with the real cause (the blocked goroutines
// are abandoned — the run is lost anyway).
func (c *cluster) run(prog Program, down func(node int, fenced bool) error) (*Report, error) {
	for _, nd := range c.nodes {
		nd.StartService()
	}
	type done struct {
		node int
		err  error
	}
	ch := make(chan done, c.cfg.Nodes)
	// Every node runs before any starts, so the manager's horizon is
	// bounded by all of them from the first message on; a node stops
	// bounding it once its program, recovery included, has returned.
	for i := range c.nodes {
		c.nw.SetRunning(i, true)
	}
	for i, nd := range c.nodes {
		go func(i int, nd *hlrc.Node) {
			crashed, fenced, err := runNode(nd, prog)
			if err == nil && (crashed || fenced) {
				err = down(i, fenced)
			}
			c.nw.SetRunning(i, false)
			ch <- done{node: i, err: err}
		}(i, nd)
	}
	for remaining := c.cfg.Nodes; remaining > 0; remaining-- {
		if d := <-ch; d.err != nil {
			return nil, fmt.Errorf("core: node %d: %w", d.node, d.err)
		}
	}
	for _, nd := range c.nodes {
		nd.StopService()
	}
	return c.report(), nil
}

// CrashPlan injects a fail-stop crash and selects the recovery scheme.
type CrashPlan struct {
	// Victim is the node that crashes. It must not host a manager.
	Victim int
	// AtOp: the victim fail-stops at its first release or barrier whose
	// synchronization-op index is >= AtOp, after that op's diffs are
	// flushed and acknowledged (the paper's Fig. 1(b) scenario).
	AtOp int32
	// Recovery must be MLRecovery or CCLRecovery and match the logging
	// protocol. (Re-execution is measured by simply re-running; see
	// internal/bench.)
	Recovery recovery.Kind
}

// validate checks the plan against a defaults-resolved config. All
// RunWithCrash rejection paths live here.
func (p CrashPlan) validate(cfg Config) error {
	switch {
	// A scheme replays the log its own protocol wrote.
	case p.Recovery == recovery.MLRecovery && cfg.Protocol != wal.ProtocolML:
		return fmt.Errorf("core: ML-recovery needs the ML logging protocol")
	case p.Recovery == recovery.CCLRecovery && cfg.Protocol != wal.ProtocolCCL:
		return fmt.Errorf("core: CCL-recovery needs the CCL logging protocol")
	// Re-execution has nothing to replay: it is measured by re-running.
	case p.Recovery != recovery.MLRecovery && p.Recovery != recovery.CCLRecovery:
		return fmt.Errorf("core: RunWithCrash supports ML- and CCL-recovery, not %v", p.Recovery)
	}
	return validateVictim(cfg, p.Victim, p.AtOp)
}

// validateVictim holds the checks every failure plan shares.
func validateVictim(cfg Config, victim int, atOp int32) error {
	if atOp < 0 {
		return fmt.Errorf("core: crash op %d is negative", atOp)
	}
	if victim < 0 || victim >= cfg.Nodes {
		return fmt.Errorf("core: invalid victim %d", victim)
	}
	// Manager state is volatile and never logged; the paper's experiments
	// fail a worker, and rebuilding a manager is ROADMAP item 5(c).
	if victim == hlrc.ManagerNode {
		return fmt.Errorf("core: victim %d hosts a manager (outside the paper's failure model)", victim)
	}
	return nil
}

// RunWithCrash executes prog, crashes the victim per plan, recovers it by
// replaying its logs, lets it rejoin, runs the program to completion, and
// reports — including the replay time that Figure 5 compares.
func RunWithCrash(cfg Config, prog Program, plan CrashPlan) (*Report, error) {
	if plan.Recovery == recovery.CCLRecovery || cfg.Faults.TornWriteOnCrash {
		// CCL's versioned home fetches need the undo history. So does an ML
		// victim whose torn log lost page copies (it falls back to versioned
		// fetches from the live homes).
		cfg.HomeUndo = true
	}
	// An offline crash is the churn plan without a lease: nobody declares
	// the victim dead, so the survivors block on it until it is back.
	return runWithOutage(cfg, prog, ChurnPlan{Victim: plan.Victim, AtOp: plan.AtOp, Recovery: plan.Recovery}, plan.validate)
}

// runWithOutage builds the cluster, arms the victim with the plan's
// failure, and runs prog with recover as the victim's down handler.
func runWithOutage(cfg Config, prog Program, plan ChurnPlan, validate func(Config) error) (*Report, error) {
	cfg.SkipInitialCheckpoint = false
	c, err := buildCluster(cfg, plan.LeaseDuration)
	if err != nil {
		return nil, err
	}
	defer c.closeFabric()
	if err := validate(c.cfg); err != nil {
		return nil, err
	}
	victim := c.nodes[plan.Victim]
	victim.CrashOp = plan.AtOp
	victim.CrashPoint = plan.Point
	victim.PartitionFor = plan.PartitionFor

	var rec *RecoveryReport
	rep, err := c.run(prog, func(node int, fenced bool) error {
		if node != plan.Victim || fenced != (plan.PartitionFor > 0) {
			return unplanned(node, fenced)
		}
		r, err := c.recover(prog, plan)
		rec = r
		return err
	})
	if err != nil {
		return nil, err
	}
	if rec == nil {
		return nil, fmt.Errorf("core: victim %d never reached crash op %d (program has fewer sync ops)", plan.Victim, plan.AtOp)
	}
	rep.Recovery = rec
	if rec.Online {
		if err := c.assembleMigratedImage(rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// recover is the one recovery driver: restore the checkpoint, replay the
// local log, fetch what the log names, resume. It rebuilds the downed
// victim as a new incarnation and runs the program to completion on it, on
// the victim's (former) application goroutine — concurrently with the
// survivors when the plan carries a lease, while they block on the victim
// when it does not. An offline crash, an online fail-stop and a partition
// differ in three inputs only: the clock the incarnation starts at, what
// is done to the stable store first, and whether the crash op re-executes.
func (c *cluster) recover(prog Program, plan ChurnPlan) (*RecoveryReport, error) {
	v := plan.Victim
	old, store, stats := c.nodes[v], c.depot.Store(v), c.stats[v]
	old.StopService() // a fail-stop already stopped it; a fenced node's is still up
	crashOp := old.CrashedAtOp()
	if crashOp < 0 {
		return nil, fmt.Errorf("core: victim %d has no recorded crash op", v)
	}
	partitioned := plan.PartitionFor > 0
	out := &RecoveryReport{
		Victim: v, Kind: plan.Recovery, CrashOp: crashOp,
		Online: plan.LeaseDuration > 0, Partitioned: partitioned,
	}

	// Input 1, the clock start. Offline it is zero, so the victim's final
	// clock is the replay plus the rest of the run (ROADMAP item 5(a)). Online
	// the survivors' clocks kept running: a crashed node is back
	// RestartDelay after the crash; a partitioned node was up the whole
	// time, and its stale incarnation's clock at the fence carries every
	// retransmission timeout it burned against the cut, so its "restart"
	// is just the re-admission delay past that.
	var start simtime.Time
	if out.Online {
		tc, ever := c.nw.Members().Crashed(v)
		if !ever {
			return nil, fmt.Errorf("core: victim %d is down but has not crashed in the membership", v)
		}
		out.CrashTime = tc
		out.DeclareTime = tc + simtime.Time(plan.LeaseDuration)
		start = tc
		if partitioned {
			out.HealTime = tc + simtime.Time(plan.PartitionFor)
			out.FencedTime = old.Clock().Now()
			start = out.FencedTime
		}
		start += simtime.Time(plan.RestartDelay)
		out.RestartTime = start
	}

	// Input 2, the store prep.
	switch {
	case partitioned:
		// The stale incarnation's post-onset work never landed anywhere
		// (cut inside the window, fenced after the heal), but it kept
		// logging locally. Re-admit the node at a fresh epoch past the
		// burial epoch — nothing the new incarnation sends can be fenced,
		// while whatever the buried one still has in flight stays
		// fenceable forever — and drop the unacknowledged log suffix.
		out.RejoinEpoch = c.nw.Members().Rejoin(v)
		stats.EpochBumps.Add(1)
		out.TruncatedRecords = store.TruncateFromOp(crashOp)
	case c.cfg.Faults.TornWriteOnCrash:
		// The crash interrupted the victim's final log flush: destroy a
		// deterministic suffix of it. Recovery must detect the damage via
		// the per-record checksums and rebuild the lost tail from the
		// managers' sender logs and the writers' own-diff logs.
		store.TearTail(c.cfg.Faults.TearRoll(v, 0))
	}

	// Input 3: a non-quiescent crash point fired at the op's entry, and a
	// partition's onset op never completed cluster-visibly (its diffs were
	// cut or fenced, its log record truncated above), so either way the
	// crash op has no records and is re-executed live.
	reexec := partitioned || plan.Point != fault.PointSyncExit

	// New incarnation: volatile state gone, stable store and network
	// attachment survive. Homes that migrated to a successor while the
	// victim was down stay there for the rest of the run — a rejoin changes
	// membership, never page custody.
	nd := c.newIncarnation(v, stats, simtime.NewClock(start))
	c.nodes[v] = nd
	if _, ok := checkpoint.RestoreInitial(nd, store); !ok {
		return nil, fmt.Errorf("core: victim %d has no checkpoint", v)
	}
	rep := recovery.NewReplayer(plan.Recovery, nd, store, crashOp, reexec)
	rejoinPhase := func() {
		if partitioned {
			stats.RejoinPhases.Add(1)
		}
	}
	rep.OnDetach = func() {
		// Resume live operation: the service loop drains everything that
		// queued while the node was down (requests for homes that migrated
		// are answered with redirects to the successor).
		rejoinPhase() // catch-up done, serving live
		nd.StartService()
	}
	nd.ReplayFrom(rep)
	rejoinPhase() // replay phase entered

	crashed, fenced, err := runNode(nd, prog)
	switch {
	case err != nil:
		return nil, err
	case crashed:
		return nil, fmt.Errorf("core: victim %d crashed again during recovery", v)
	case fenced:
		return nil, fmt.Errorf("core: victim %d was fenced again after recovering at epoch %d", v, out.RejoinEpoch)
	case !rep.Detached():
		return nil, fmt.Errorf("core: victim %d finished without completing replay", v)
	}
	if partitioned {
		// Availability: sync ops the re-admitted node completed live after
		// the onset op (everything past crashOp ran against the healed
		// cluster, not from the log).
		stats.RejoinServed.Add(int64(nd.OpIndex() - crashOp))
	}
	out.ReplayTime = rep.ReplayTime()
	out.TornTail = rep.Torn()
	out.TailOps = rep.TailOps
	out.Misses = rep.Misses
	out.Phases = rep.Phases()
	if out.Online {
		out.RejoinTime = start + out.ReplayTime
	}
	return out, nil
}
