// Package homeless implements a TreadMarks-style home-less lazy release
// consistency protocol — the kind of SDSM the paper's related work
// targets and contrasts with home-based HLRC (§2, §5).
//
// In a home-less protocol no node collects updates: every writer keeps
// the diffs of every interval it ever produced, and a faulting reader
// must fetch the diffs it lacks from every such writer and apply them in
// happens-before order. That is exactly the behaviour the home-based
// design removes: a miss costs up to N-1 round trips instead of one,
// writers retain diffs indefinitely (motivating the garbage collection
// home-based SDSM does not need), and write notices must carry vector
// timestamps so fetched diffs can be ordered.
//
// The engine supports failure-free execution only; it exists to
// reproduce the paper's motivation quantitatively (ablation F in
// cmd/sdsmbench -ablations). Crash recovery for home-less protocols is
// the related work ([11], [12], [17]); the paper's contribution is the
// home-based side.
package homeless

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"sdsm/internal/memory"
	"sdsm/internal/obsv"
	"sdsm/internal/simtime"
	"sdsm/internal/transport"
	"sdsm/internal/vclock"
)

// Message kinds (disjoint from hlrc's; the two engines never share a
// network).
const (
	kindLockReq transport.Kind = 64 + iota
	kindLockGrant
	kindLockRelease
	kindBarrierCheckin
	kindBarrierRelease
	kindDiffsReq
	kindDiffsReply
)

// notice is a home-less write notice: it carries the interval's closing
// vector time, which readers use to order fetched diffs.
type notice struct {
	Proc  int32
	Seq   int32
	VT    vclock.VC
	Pages []memory.PageID
}

func (n notice) wireSize() int { return 12 + n.VT.WireSize() + 4*len(n.Pages) }

func noticesWireSize(ns []notice) int {
	sz := 4
	for _, n := range ns {
		sz += n.wireSize()
	}
	return sz
}

// noticeStore mirrors hlrc's store but keeps the interval vector times.
type noticeStore struct {
	n      int
	byProc [][]notice
}

func newNoticeStore(n int) *noticeStore {
	return &noticeStore{n: n, byProc: make([][]notice, n)}
}

func (s *noticeStore) add(nt notice) {
	p := int(nt.Proc)
	have := int32(len(s.byProc[p]))
	switch {
	case nt.Seq <= have:
		return
	case nt.Seq == have+1:
		s.byProc[p] = append(s.byProc[p], nt)
	default:
		panic(fmt.Sprintf("homeless: notice gap for proc %d: have %d got %d", p, have, nt.Seq))
	}
}

func (s *noticeStore) addAll(ns []notice) {
	for _, n := range ns {
		s.add(n)
	}
}

func (s *noticeStore) delta(since vclock.VC) []notice {
	var out []notice
	for p := range s.byProc {
		var from int32
		if p < len(since) {
			from = since[p]
		}
		for seq := from + 1; int(seq) <= len(s.byProc[p]); seq++ {
			out = append(out, s.byProc[p][seq-1])
		}
	}
	return out
}

func (s *noticeStore) get(proc int, seq int32) notice { return s.byProc[proc][seq-1] }

// lock/barrier manager state (centralized on node 0).
type pendingMsg struct {
	m       transport.Message
	arrival simtime.Time
}

type lockState struct {
	held  bool
	queue []pendingMsg
}

type barrierState struct{ waiting []pendingMsg }

// lockReq etc. payloads.
type lockReq struct {
	Lock int32
	VT   vclock.VC
}
type lockGrant struct {
	VT      vclock.VC
	Notices []notice
}
type lockRelease struct {
	Lock    int32
	VT      vclock.VC
	Notices []notice
}
type barrierCheckin struct {
	Barrier int32
	VT      vclock.VC
	Notices []notice
}
type barrierRelease struct {
	VT      vclock.VC
	Notices []notice
}

// diffsReq asks a writer for its retained diffs of one page for a set of
// its interval sequence numbers.
type diffsReq struct {
	Page memory.PageID
	Seqs []int32
}

type diffsReply struct{ Diffs []memory.Diff }

// Stats is the aggregated counter snapshot the ablation compares against
// the home-based engine. The live counters are the shared obsv registry
// (Faults, plus the homeless-only FetchRounds, DiffsFetched and
// BytesRetained fields).
type Stats = obsv.CountersSnapshot

// Node is one process of the home-less SDSM.
type Node struct {
	id, n    int
	pageSize int
	ep       *transport.Endpoint
	clock    *simtime.Clock
	model    simtime.CostModel

	mu      sync.Mutex
	pt      *memory.PageTable
	vt      vclock.VC
	notices *noticeStore
	// applied[p] is the per-writer interval count already applied to the
	// local copy of page p.
	applied []vclock.VC
	// retained[p][seq] holds this node's own diffs, kept forever (the
	// home-less protocol's storage cost).
	retained map[memory.PageID]map[int32]memory.Diff
	grantVT  map[int32]vclock.VC
	lastBar  vclock.VC

	locks    map[int32]*lockState
	barriers map[int32]*barrierState

	stats   obsv.Counters
	stopSvc chan struct{}
	svcDone chan struct{}
}

// Cluster is a set of home-less nodes sharing a network.
type Cluster struct {
	Nodes []*Node
	nw    *transport.Network
}

// NewCluster builds n home-less nodes over numPages pages of pageSize
// bytes.
func NewCluster(n, numPages, pageSize int, model simtime.CostModel) *Cluster {
	nw := transport.NewNetwork(n, model)
	c := &Cluster{nw: nw}
	for i := 0; i < n; i++ {
		nd := &Node{
			id: i, n: n, pageSize: pageSize,
			clock: simtime.NewClock(0), model: model,
			pt:       memory.NewPageTable(numPages, pageSize),
			vt:       vclock.New(n),
			notices:  newNoticeStore(n),
			applied:  make([]vclock.VC, numPages),
			retained: make(map[memory.PageID]map[int32]memory.Diff),
			grantVT:  make(map[int32]vclock.VC),
			lastBar:  vclock.New(n),
			locks:    make(map[int32]*lockState),
			barriers: make(map[int32]*barrierState),
		}
		nd.ep = nw.NewEndpoint(i, nd.clock)
		for p := range nd.applied {
			nd.applied[p] = vclock.New(n)
		}
		c.Nodes = append(c.Nodes, nd)
	}
	return c
}

// Run executes prog on every node and waits.
func (c *Cluster) Run(prog func(nd *Node)) error {
	for _, nd := range c.Nodes {
		nd.startService()
	}
	errs := make([]error, len(c.Nodes))
	var wg sync.WaitGroup
	for i, nd := range c.Nodes {
		wg.Add(1)
		go func(i int, nd *Node) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("homeless node %d panicked: %v", i, r)
				}
			}()
			prog(nd)
		}(i, nd)
	}
	wg.Wait()
	for _, nd := range c.Nodes {
		nd.stopService()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MsgCount returns the total messages exchanged.
func (c *Cluster) MsgCount() int64 { return c.nw.MsgCount() }

// ExecTime returns the slowest node's virtual clock.
func (c *Cluster) ExecTime() simtime.Time {
	var max simtime.Time
	for _, nd := range c.Nodes {
		if t := nd.clock.Now(); t > max {
			max = t
		}
	}
	return max
}

// TotalStats aggregates the per-node counters.
func (c *Cluster) TotalStats() Stats {
	var s Stats
	for _, nd := range c.Nodes {
		s.Add(nd.stats.Snapshot())
	}
	return s
}

// ID returns the node's rank; N the cluster size.
func (nd *Node) ID() int { return nd.id }

// N returns the number of nodes.
func (nd *Node) N() int { return nd.n }

// Compute charges virtual compute time in flop-equivalents.
func (nd *Node) Compute(flops float64) { nd.clock.Advance(nd.model.FlopsTime(flops)) }

// Clock returns the node's virtual clock.
func (nd *Node) Clock() *simtime.Clock { return nd.clock }

func (nd *Node) startService() {
	nd.stopSvc = make(chan struct{})
	nd.svcDone = make(chan struct{})
	go func() {
		defer close(nd.svcDone)
		for {
			select {
			case <-nd.stopSvc:
				return
			case m := <-nd.ep.Inbox():
				nd.handle(m)
				nd.ep.MarkHandled()
			}
		}
	}()
}

func (nd *Node) stopService() {
	close(nd.stopSvc)
	<-nd.svcDone
}

func (nd *Node) handle(m transport.Message) {
	at := nd.ep.ArrivalOf(m) + simtime.Time(nd.model.MsgHandling)
	switch m.Kind {
	case kindDiffsReq:
		req := m.Payload.(*diffsReq)
		nd.mu.Lock()
		resp := &diffsReply{}
		for _, seq := range req.Seqs {
			d, ok := nd.retained[req.Page][seq]
			if !ok {
				nd.mu.Unlock()
				panic(fmt.Sprintf("homeless: node %d lacks diff (page %d, seq %d)", nd.id, req.Page, seq))
			}
			resp.Diffs = append(resp.Diffs, d)
		}
		nd.mu.Unlock()
		sz := 8
		for _, d := range resp.Diffs {
			sz += d.WireSize()
		}
		nd.ep.ReplyAt(at, m, kindDiffsReply, sz, resp)
	case kindLockReq:
		nd.handleLockReq(m, at)
	case kindLockRelease:
		nd.handleLockRelease(m, at)
	case kindBarrierCheckin:
		nd.handleBarrierCheckin(m, at)
	default:
		panic(fmt.Sprintf("homeless: unexpected message kind %d", m.Kind))
	}
}

// manager handlers (node 0), mirroring the home-based engine's.
func (nd *Node) handleLockReq(m transport.Message, at simtime.Time) {
	req := m.Payload.(*lockReq)
	nd.mu.Lock()
	ls := nd.locks[req.Lock]
	if ls == nil {
		ls = &lockState{}
		nd.locks[req.Lock] = ls
	}
	if ls.held {
		ls.queue = append(ls.queue, pendingMsg{m: m, arrival: at})
		nd.mu.Unlock()
		return
	}
	ls.held = true
	g := &lockGrant{VT: nd.mgrVT().Clone(), Notices: nd.notices.delta(req.VT)}
	nd.mu.Unlock()
	nd.ep.ReplyAt(at, m, kindLockGrant, g.VT.WireSize()+noticesWireSize(g.Notices), g)
}

// mgrVT: the manager reuses its own notice store as the cluster-wide
// knowledge pool (manager is node 0, which also participates).
func (nd *Node) mgrVT() vclock.VC {
	v := vclock.New(nd.n)
	for p := range nd.notices.byProc {
		v[p] = int32(len(nd.notices.byProc[p]))
	}
	return v
}

func (nd *Node) handleLockRelease(m transport.Message, at simtime.Time) {
	rel := m.Payload.(*lockRelease)
	nd.mu.Lock()
	nd.notices.addAll(rel.Notices)
	ls := nd.locks[rel.Lock]
	var next pendingMsg
	var g *lockGrant
	granted := false
	if len(ls.queue) > 0 {
		next, ls.queue = ls.queue[0], ls.queue[1:]
		g = &lockGrant{VT: nd.mgrVT().Clone(), Notices: nd.notices.delta(next.m.Payload.(*lockReq).VT)}
		granted = true
	} else {
		ls.held = false
	}
	nd.mu.Unlock()
	if granted {
		grantAt := at
		if next.arrival > grantAt {
			grantAt = next.arrival
		}
		nd.ep.ReplyAt(grantAt, next.m, kindLockGrant, g.VT.WireSize()+noticesWireSize(g.Notices), g)
	}
}

func (nd *Node) handleBarrierCheckin(m transport.Message, at simtime.Time) {
	ci := m.Payload.(*barrierCheckin)
	nd.mu.Lock()
	nd.notices.addAll(ci.Notices)
	bs := nd.barriers[ci.Barrier]
	if bs == nil {
		bs = &barrierState{}
		nd.barriers[ci.Barrier] = bs
	}
	bs.waiting = append(bs.waiting, pendingMsg{m: m, arrival: at})
	if len(bs.waiting) < nd.n {
		nd.mu.Unlock()
		return
	}
	waiting := bs.waiting
	bs.waiting = nil
	var releaseAt simtime.Time
	for _, w := range waiting {
		if w.arrival > releaseAt {
			releaseAt = w.arrival
		}
	}
	type out struct {
		m   transport.Message
		rel *barrierRelease
	}
	outs := make([]out, 0, len(waiting))
	for _, w := range waiting {
		outs = append(outs, out{m: w.m, rel: &barrierRelease{
			VT:      nd.mgrVT().Clone(),
			Notices: nd.notices.delta(w.m.Payload.(*barrierCheckin).VT),
		}})
	}
	nd.mu.Unlock()
	for _, o := range outs {
		nd.ep.ReplyAt(releaseAt, o.m, kindBarrierRelease, o.rel.VT.WireSize()+noticesWireSize(o.rel.Notices), o.rel)
	}
}

// --- synchronization -----------------------------------------------------

// closeInterval creates and RETAINS diffs for every dirty page (nothing
// is sent anywhere — the home-less property), then emits the write
// notice with the interval's vector time.
func (nd *Node) closeInterval() {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	dirty := nd.pt.DirtyPages()
	if len(dirty) == 0 {
		return
	}
	seq := nd.vt.Tick(nd.id)
	pages := make([]memory.PageID, 0, len(dirty))
	compare := 0
	for _, p := range dirty {
		d := nd.pt.MakeDiff(p)
		compare += nd.pageSize
		if nd.retained[p] == nil {
			nd.retained[p] = make(map[int32]memory.Diff)
		}
		nd.retained[p][seq] = d
		nd.stats.BytesRetained.Add(int64(d.WireSize()))
		nd.applied[p][nd.id] = seq
		pages = append(pages, p)
	}
	nd.notices.add(notice{Proc: int32(nd.id), Seq: seq, VT: nd.vt.Clone(), Pages: pages})
	nd.pt.EndInterval()
	nd.clock.Advance(nd.model.CopyTime(compare))
}

// anyDirty reports whether an incoming notice names a locally dirty page
// (the false-sharing case): the open interval is closed first, exactly as
// in the home-based engine, so invalidation never destroys local writes.
func (nd *Node) anyDirty(ns []notice) bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	for _, n := range ns {
		if nd.vt.CoversInterval(int(n.Proc), n.Seq) {
			continue
		}
		for _, p := range n.Pages {
			if nd.pt.IsDirty(p) {
				return true
			}
		}
	}
	return false
}

func (nd *Node) applyNotices(ns []notice, mgrVT vclock.VC) {
	if nd.anyDirty(ns) {
		nd.closeInterval()
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	for _, n := range ns {
		if nd.vt.CoversInterval(int(n.Proc), n.Seq) {
			nd.notices.add(n)
			continue
		}
		for _, p := range n.Pages {
			nd.pt.Invalidate(p)
		}
		nd.notices.add(n)
	}
	nd.vt.Merge(mgrVT)
}

// AcquireLock acquires a lock through the central manager.
func (nd *Node) AcquireLock(lock int) {
	l := int32(lock)
	nd.mu.Lock()
	req := &lockReq{Lock: l, VT: nd.vt.Clone()}
	nd.mu.Unlock()
	resp := nd.ep.Call(0, kindLockReq, 4+req.VT.WireSize(), req)
	g := resp.Payload.(*lockGrant)
	nd.applyNotices(g.Notices, g.VT)
	nd.mu.Lock()
	nd.grantVT[l] = g.VT.Clone()
	nd.mu.Unlock()
}

// ReleaseLock closes the interval (retaining its diffs locally) and
// returns ownership.
func (nd *Node) ReleaseLock(lock int) {
	l := int32(lock)
	nd.closeInterval()
	nd.mu.Lock()
	gvt := nd.grantVT[l]
	delete(nd.grantVT, l)
	rel := &lockRelease{Lock: l, VT: nd.vt.Clone(), Notices: nd.notices.delta(gvt)}
	nd.mu.Unlock()
	nd.ep.Send(0, kindLockRelease, 4+rel.VT.WireSize()+noticesWireSize(rel.Notices), rel)
}

// Barrier joins the global barrier.
func (nd *Node) Barrier(barrier int) {
	b := int32(barrier)
	nd.closeInterval()
	nd.mu.Lock()
	ci := &barrierCheckin{Barrier: b, VT: nd.vt.Clone(), Notices: nd.notices.delta(nd.lastBar)}
	nd.mu.Unlock()
	resp := nd.ep.Call(0, kindBarrierCheckin, 4+ci.VT.WireSize()+noticesWireSize(ci.Notices), ci)
	rel := resp.Payload.(*barrierRelease)
	nd.applyNotices(rel.Notices, rel.VT)
	nd.mu.Lock()
	nd.lastBar = rel.VT.Clone()
	nd.mu.Unlock()
}

// --- memory access ---------------------------------------------------------

// validate brings page p up to date: it determines every interval the
// node knows about but has not applied, fetches the diffs from their
// writers (one round trip per writer, in parallel), and applies them in
// a linear extension of happens-before — the home-less miss path the
// home-based protocol replaces with a single round trip.
func (nd *Node) validate(p memory.PageID) {
	nd.mu.Lock()
	if nd.pt.State(p) != memory.Invalid {
		nd.mu.Unlock()
		return
	}
	type missing struct {
		proc int32
		seq  int32
		vt   vclock.VC
	}
	var need []missing
	perWriter := make(map[int32][]int32)
	for w := 0; w < nd.n; w++ {
		if w == nd.id {
			continue
		}
		for seq := nd.applied[p][w] + 1; seq <= nd.vt[w]; seq++ {
			nt := nd.notices.get(w, seq)
			wrote := false
			for _, pg := range nt.Pages {
				if pg == p {
					wrote = true
					break
				}
			}
			if !wrote {
				continue
			}
			need = append(need, missing{proc: int32(w), seq: seq, vt: nt.VT})
			perWriter[int32(w)] = append(perWriter[int32(w)], seq)
		}
	}
	nd.stats.Faults.Add(1)
	nd.mu.Unlock()
	nd.clock.Advance(nd.model.FaultCost)

	// One round trip per writer, all overlapped.
	writers := make([]int32, 0, len(perWriter))
	for w := range perWriter {
		writers = append(writers, w)
	}
	sort.Slice(writers, func(i, j int) bool { return writers[i] < writers[j] })
	diffs := make(map[[2]int32]memory.Diff)
	pendings := make([]*transport.Pending, 0, len(writers))
	for _, w := range writers {
		req := &diffsReq{Page: p, Seqs: perWriter[w]}
		pendings = append(pendings, nd.ep.CallAsync(int(w), kindDiffsReq, 12+4*len(req.Seqs), req))
		nd.mu.Lock()
		nd.stats.FetchRounds.Add(1)
		nd.mu.Unlock()
	}
	for i, pd := range pendings {
		m := pd.Wait(nd.clock)
		resp := m.Payload.(*diffsReply)
		w := writers[i]
		for k, seq := range perWriter[w] {
			diffs[[2]int32{w, seq}] = resp.Diffs[k]
		}
	}

	// Apply in a linear extension of happens-before: sort by the
	// interval vector-time component sum (dominance implies a strictly
	// smaller sum), then by process and sequence for determinism among
	// concurrent intervals (whose diffs touch disjoint words under data-
	// race freedom).
	sort.Slice(need, func(i, j int) bool {
		si, sj := need[i].vt.Sum(), need[j].vt.Sum()
		if si != sj {
			return si < sj
		}
		if need[i].proc != need[j].proc {
			return need[i].proc < need[j].proc
		}
		return need[i].seq < need[j].seq
	})
	nd.mu.Lock()
	applied := 0
	for _, ms := range need {
		d := diffs[[2]int32{ms.proc, ms.seq}]
		d.Apply(nd.pt.Page(p))
		if nd.applied[p][ms.proc] < ms.seq {
			nd.applied[p][ms.proc] = ms.seq
		}
		applied += d.DataBytes()
		nd.stats.DiffsFetched.Add(1)
	}
	nd.pt.SetState(p, memory.ReadOnly)
	nd.mu.Unlock()
	nd.clock.Advance(nd.model.CopyTime(applied))
}

func (nd *Node) ensureWritable(p memory.PageID) {
	nd.validate(p)
	nd.mu.Lock()
	if !nd.pt.IsDirty(p) {
		if !nd.pt.HasTwin(p) {
			nd.pt.MakeTwin(p)
		}
		nd.pt.SetState(p, memory.Writable)
		nd.pt.MarkDirty(p)
		nd.mu.Unlock()
		nd.clock.Advance(nd.model.FaultCost + nd.model.CopyTime(nd.pageSize))
		return
	}
	nd.mu.Unlock()
}

// ReadI64 reads an int64 at byte address addr.
func (nd *Node) ReadI64(addr int) int64 {
	p := memory.PageID(addr / nd.pageSize)
	nd.validate(p)
	nd.mu.Lock()
	defer nd.mu.Unlock()
	off := addr % nd.pageSize
	return int64(binary.LittleEndian.Uint64(nd.pt.Page(p)[off : off+8]))
}

// WriteI64 writes an int64 at byte address addr.
func (nd *Node) WriteI64(addr int, v int64) {
	p := memory.PageID(addr / nd.pageSize)
	nd.ensureWritable(p)
	nd.mu.Lock()
	defer nd.mu.Unlock()
	off := addr % nd.pageSize
	binary.LittleEndian.PutUint64(nd.pt.Page(p)[off:off+8], uint64(v))
}

// ReadF64 reads a float64 at byte address addr.
func (nd *Node) ReadF64(addr int) float64 { return math.Float64frombits(uint64(nd.ReadI64(addr))) }

// WriteF64 writes a float64 at byte address addr.
func (nd *Node) WriteF64(addr int, v float64) { nd.WriteI64(addr, int64(math.Float64bits(v))) }

// Page exposes a page copy for verification in tests.
func (nd *Node) Page(p memory.PageID) []byte {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	out := make([]byte, nd.pageSize)
	copy(out, nd.pt.Page(p))
	return out
}
