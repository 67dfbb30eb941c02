package core

import (
	"fmt"
	"sync"

	"sdsm/internal/checkpoint"
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
	cfg    Config
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

func buildCluster(cfg Config) (*cluster, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &cluster{
		cfg:   cfg,
		nw:    transport.NewNetwork(cfg.Nodes, *cfg.Model),
		depot: stable.NewDepotStreams(cfg.Nodes, cfg.LogStreams),
		nodes: make([]*hlrc.Node, cfg.Nodes),
		stats: make([]*hlrc.Stats, cfg.Nodes),
	}
	c.nw.SetFaultPlan(cfg.Faults)
	if cfg.Transport == TransportTCP {
		fab, err := tcp.New(c.nw, tcp.Options{
			BudgetBytesPerSec: cfg.NetBudgetBytesPerSec,
			Payloads:          hlrc.WirePayloads(),
		})
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
			checkpoint.TakeInitial(c.nodes[i], c.depot.Store(i))
		}
	}
	if cfg.Telemetry != nil {
		// The stats slots outlive node incarnations (recovery reuses
		// them), so the registry stays valid across a crash and rebuild.
		cfg.Telemetry.Attach(c.stats, cfg.Trace, c.fabric)
		// The depot outlives incarnations too; per-stream WAL families.
		cfg.Telemetry.AttachDepot(c.depot)
	}
	return c, nil
}

// newIncarnation builds a (fresh or recovered) node attached to slot id.
func (c *cluster) newIncarnation(id int, stats *hlrc.Stats, clock *simtime.Clock) *hlrc.Node {
	var wopts wal.Options
	if c.cfg.LogStreams > 1 && c.cfg.LeaseDuration > 0 {
		// Online (churn) recovery replays concurrently with the live
		// cluster and has no tail-mode path to rebuild group-commit
		// deferrals lost to the crash, so multi-stream churn runs flush
		// at every release like the single-stream protocol (streams still
		// write in parallel). 1 byte pending is already over threshold.
		wopts.GroupCommitBytes = 1
	}
	// Torn-tail recovery needs the hardened log layout (ML logs its
	// own diffs too) and manager sender logs to replay from. Multi-stream
	// stores need the same machinery even without torn-write injection:
	// a crash silently discards group-commit deferrals, and offline
	// recovery rebuilds them from the sender logs (tail mode).
	hardened := c.cfg.Faults.TornWriteOnCrash || c.cfg.LogStreams > 1
	hooks := wal.NewWithOptions(c.cfg.Protocol, c.depot.Store(id), stats, hardened, wopts)
	trc := c.cfg.Trace.Tracer(id)
	c.depot.Store(id).ObserveFlushes(trc.Hist(obsv.HistFlushBytes))
	nd := hlrc.NewNode(hlrc.Config{
		ID: id, N: c.cfg.Nodes,
		PageSize: c.cfg.PageSize, NumPages: c.cfg.NumPages,
		Homes:              c.cfg.Homes,
		LockManagerNode:    c.cfg.LockManagerNode,
		BarrierManagerNode: c.cfg.BarrierManagerNode,
		Model:              *c.cfg.Model,
		HomeUndo:           c.cfg.HomeUndo,
		NoFlushOverlap:     c.cfg.NoFlushOverlap,
		SenderLogs:         c.cfg.Faults.TornWriteOnCrash || c.cfg.LogStreams > 1,
		LeaseDuration:      c.cfg.LeaseDuration,
		Tracer:             trc,
	}, c.nw, clock, hooks, stats)
	recovery.InstallService(nd, c.depot.Store(id))
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
	// Recovery is set by RunWithCrash.
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
	// adopted-home auditor cross-checks it against the writers' logs.
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
	c, err := buildCluster(cfg)
	if err != nil {
		return nil, err
	}
	return c.run(prog)
}

// run executes prog failure-free on an assembled cluster.
func (c *cluster) run(prog Program) (*Report, error) {
	defer c.closeFabric()
	for _, nd := range c.nodes {
		nd.StartService()
	}
	errs := make([]error, c.cfg.Nodes)
	var wg sync.WaitGroup
	for i, nd := range c.nodes {
		wg.Add(1)
		go func(i int, nd *hlrc.Node) {
			defer wg.Done()
			crashed, fenced, err := runNode(nd, prog)
			if crashed {
				err = fmt.Errorf("node %d crashed without a crash plan", i)
			}
			if fenced {
				err = fmt.Errorf("node %d was fenced without a partition plan", i)
			}
			errs[i] = err
		}(i, nd)
	}
	wg.Wait()
	for _, nd := range c.nodes {
		nd.StopService()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
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
	case p.Recovery == recovery.MLRecovery && cfg.Protocol != wal.ProtocolML:
		return fmt.Errorf("core: ML-recovery needs the ML logging protocol")
	case p.Recovery == recovery.CCLRecovery && cfg.Protocol != wal.ProtocolCCL:
		return fmt.Errorf("core: CCL-recovery needs the CCL logging protocol")
	case p.Recovery != recovery.MLRecovery && p.Recovery != recovery.CCLRecovery:
		return fmt.Errorf("core: RunWithCrash supports ML- and CCL-recovery, not %v", p.Recovery)
	}
	if p.AtOp < 0 {
		return fmt.Errorf("core: crash op %d is negative", p.AtOp)
	}
	if p.Victim < 0 || p.Victim >= cfg.Nodes {
		return fmt.Errorf("core: invalid victim %d", p.Victim)
	}
	if p.Victim == cfg.LockManagerNode || p.Victim == cfg.BarrierManagerNode {
		return fmt.Errorf("core: victim %d hosts a manager (outside the paper's failure model)", p.Victim)
	}
	return nil
}

// RunWithCrash executes prog, crashes the victim per plan, recovers it by
// replaying its logs, lets it rejoin, runs the program to completion, and
// reports — including the replay time that Figure 5 compares.
func RunWithCrash(cfg Config, prog Program, plan CrashPlan) (*Report, error) {
	if plan.Recovery == recovery.CCLRecovery {
		cfg.HomeUndo = true // versioned home fetches need the undo history
	}
	if plan.Recovery == recovery.MLRecovery && (cfg.Faults.TornWriteOnCrash || cfg.LogStreams > 1) {
		// An ML victim whose torn log lost page copies falls back to
		// versioned fetches from the live homes, which need undo. A
		// multi-stream victim always replays its final logged op in tail
		// mode (group-commit deferrals vanish with the crash).
		cfg.HomeUndo = true
	}
	cfg.SkipInitialCheckpoint = false
	c, err := buildCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer c.closeFabric()
	if err := plan.validate(c.cfg); err != nil {
		return nil, err
	}
	c.nodes[plan.Victim].CrashOp = plan.AtOp

	for _, nd := range c.nodes {
		nd.StartService()
	}
	recReport := &RecoveryReport{Victim: plan.Victim, Kind: plan.Recovery}
	victimCrashed := false
	// When the victim's recovery itself fails, the surviving nodes are
	// blocked on protocol progress the victim will never make; waiting
	// for them would deadlock. Collect completions on a channel so a
	// recovery failure aborts the run immediately with the real error
	// (the blocked goroutines are abandoned — the run is lost anyway).
	type done struct {
		node int
		err  error
	}
	ch := make(chan done, c.cfg.Nodes)
	for i, nd := range c.nodes {
		go func(i int, nd *hlrc.Node) {
			crashed, fenced, err := runNode(nd, prog)
			if err == nil && fenced {
				err = fmt.Errorf("node %d was fenced without a partition plan", i)
			}
			if err == nil && crashed {
				if i != plan.Victim {
					err = fmt.Errorf("node %d crashed but victim is %d", i, plan.Victim)
				} else {
					victimCrashed = true
					err = c.recoverVictim(prog, plan, recReport)
				}
			}
			ch <- done{node: i, err: err}
		}(i, nd)
	}
	for remaining := c.cfg.Nodes; remaining > 0; remaining-- {
		d := <-ch
		if d.err != nil {
			return nil, fmt.Errorf("core: node %d: %w", d.node, d.err)
		}
	}
	for _, nd := range c.nodes {
		nd.StopService()
	}
	if !victimCrashed {
		return nil, fmt.Errorf("core: victim %d never reached crash op %d (program has fewer sync ops)", plan.Victim, plan.AtOp)
	}
	rep := c.report()
	rep.Recovery = recReport
	return rep, nil
}

// recoverVictim rebuilds the crashed node from its checkpoint, replays
// its log, and runs the program to completion on the recovered
// incarnation. It runs on the victim's (former) application goroutine.
func (c *cluster) recoverVictim(prog Program, plan CrashPlan, out *RecoveryReport) error {
	old := c.nodes[plan.Victim]
	old.StopService() // already stopped by the fail-stop; idempotent
	crashOp := old.CrashedAtOp()
	if crashOp < 0 {
		return fmt.Errorf("core: victim %d has no recorded crash op", plan.Victim)
	}
	out.CrashOp = crashOp

	// New incarnation: volatile state gone, stable store and network
	// attachment survive. The replay clock starts at zero so the
	// measured replay time is the recovery duration.
	store := c.depot.Store(plan.Victim)
	if c.cfg.Faults.TornWriteOnCrash {
		// The crash interrupted the victim's final log flush: destroy a
		// deterministic suffix of it. Recovery must detect the damage via
		// the per-record checksums and rebuild the lost tail from the
		// managers' sender logs and the writers' own-diff logs.
		store.TearTail(c.cfg.Faults.TearRoll(plan.Victim, 0))
	}
	nd := c.newIncarnation(plan.Victim, c.stats[plan.Victim], simtime.NewClock(0))
	c.nodes[plan.Victim] = nd
	if _, ok := checkpoint.RestoreInitial(nd, store); !ok {
		return fmt.Errorf("core: victim %d has no checkpoint", plan.Victim)
	}
	var rep *recovery.Replayer
	if c.cfg.LogStreams > 1 {
		// A multi-stream victim's final logged op is distrusted even with
		// an intact log: the crash silently discards any group-commit
		// deferrals, so the tail replays from the sender logs.
		rep = recovery.NewReplayerTail(plan.Recovery, store, crashOp, *c.cfg.Model)
	} else {
		rep = recovery.NewReplayer(plan.Recovery, store, crashOp, *c.cfg.Model)
	}
	if c.cfg.Faults.TornWriteOnCrash || c.cfg.LogStreams > 1 {
		rep.EnableTailMode(c.cfg.LockManagerNode, c.cfg.BarrierManagerNode)
	}
	rep.OnDetach = func() {
		// Resume live operation: the service loop drains everything that
		// queued while the node was down.
		nd.StartService()
	}
	nd.SetDelegate(rep)

	crashed, fenced, err := runNode(nd, prog)
	if err != nil {
		return err
	}
	if crashed || fenced {
		return fmt.Errorf("core: victim %d crashed again during recovery", plan.Victim)
	}
	if !rep.Detached() {
		return fmt.Errorf("core: victim %d finished without completing replay", plan.Victim)
	}
	out.ReplayTime = rep.ReplayTime()
	out.TornTail = rep.Torn()
	out.TailOps = rep.TailOps
	out.Phases = rep.Phases()
	return nil
}
