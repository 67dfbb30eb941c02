package hlrc

// Online recovery: lease-based liveness, permanent home migration, and
// custody service (DESIGN.md §2.9). All of it is gated on
// Config.LeaseDuration > 0; with leases disabled none of this code runs
// and the wire format stays byte-identical to the offline protocol.
//
// The design avoids a custody-handback protocol entirely: once a node
// has crashed, its statically-assigned home pages are served by its
// successor for the rest of the run, keyed off the transport's
// never-cleared ever-crashed registry. Home resolution is therefore a
// pure function of the page id and the registry, identical at every node
// and stable over time — there is no handback window during which two
// nodes could both claim a page.
//
// The successor keeps no materialized custody copies. It serves a page
// request by rebuilding a scratch copy from the zero page plus the
// writers' logged diffs (its own log read locally, live peers' logs read
// over the wire, ever-crashed writers' diffs taken from the custody
// record of directly-received DiffUpdates), bounded by the requester's
// vector time. Both the content and the virtual-time cost of the reply
// are pure functions of the request, which keeps same-seed churn runs
// deterministic even though rebuilds race with the victim's concurrent
// replay in real time.

import (
	"fmt"
	"sort"

	"sdsm/internal/memory"
	"sdsm/internal/obsv"
	"sdsm/internal/simtime"
	"sdsm/internal/transport"
	"sdsm/internal/vclock"
)

// revokedLock records a lock the manager reclaimed from a dead holder at
// virtual time at (the holder's lease expiry). The holder's eventual
// replayed release is absorbed against this record instead of panicking
// as a release of a free lock.
type revokedLock struct {
	holder int
	at     simtime.Time
}

// adoptedPage is the custody record of one adopted page: every diff the
// adopter received directly for it, in arrival order, with the dedup
// version vector (ver[w] = newest interval of writer w in the record).
// Rebuilds and the post-run audit read the record; nothing is ever
// applied to the adopter's own page table.
type adoptedPage struct {
	applied []AdoptedDiff
	ver     vclock.VC
}

// successorOf returns the node that adopts a crashed node's homes: the
// next node id (mod N) that has never crashed. Every node computes the
// same answer from the shared ever-crashed registry.
func (nd *Node) successorOf(dead int) int {
	for i := 1; i < nd.cfg.N; i++ {
		cand := (dead + i) % nd.cfg.N
		if _, ever := nd.ep.EverCrashed(cand); !ever {
			return cand
		}
	}
	panic(fmt.Sprintf("hlrc: node %d: every node has crashed, no successor for %d", nd.cfg.ID, dead))
}

// effectiveNode resolves a (possibly crashed) node id to the live node
// currently serving its home pages: the id itself while it has never
// crashed, else the walk to its successor.
func (nd *Node) effectiveNode(h int) int {
	if _, ever := nd.ep.EverCrashed(h); !ever {
		return h
	}
	return nd.successorOf(h)
}

// effectiveHome resolves the current home of a page under permanent
// migration.
func (nd *Node) effectiveHome(p memory.PageID) int {
	if nd.cfg.LeaseDuration <= 0 {
		return nd.cfg.Homes[p]
	}
	return nd.effectiveNode(nd.cfg.Homes[p])
}

// EffectiveHome is the exported form of effectiveHome (runner, recovery
// service and audit).
func (nd *Node) EffectiveHome(p memory.PageID) int { return nd.effectiveHome(p) }

// ownsHome reports whether this node serves page p from its own page
// table: it is the static home and has never crashed. A recovered
// incarnation's statically-assigned pages stay migrated for the rest of
// the run and are accessed like remote pages. With leases disabled this
// is exactly IsHome.
func (nd *Node) ownsHome(p memory.PageID) bool {
	if nd.cfg.Homes[p] != nd.cfg.ID {
		return false
	}
	if nd.cfg.LeaseDuration <= 0 {
		return true
	}
	_, ever := nd.ep.EverCrashed(nd.cfg.ID)
	return !ever
}

// OwnsHome is the exported form of ownsHome (recovery service).
func (nd *Node) OwnsHome(p memory.PageID) bool { return nd.ownsHome(p) }

// leaseExpiry returns the virtual time at which a crashed node's lease
// runs out — the earliest instant any survivor may act on its death.
func (nd *Node) leaseExpiry(crashedAt simtime.Time) simtime.Time {
	return crashedAt + simtime.Time(nd.cfg.LeaseDuration)
}

// waitOutLease charges the caller's clock up to the dead peer's lease
// expiry (a no-op if the clock is already past it) and counts the stall.
func (nd *Node) waitOutLease(dead int) {
	at, ever := nd.ep.EverCrashed(dead)
	if !ever {
		return
	}
	d := nd.leaseExpiry(at)
	t0, t1 := nd.clock.MergePlusSpan(d, 0)
	nd.trc.Seg(obsv.EvLeaseWait, obsv.CatCoherence, t0, t1, int64(dead), 0)
	nd.stats.LeaseWaitsServed.Add(1)
}

// handleObit processes a death declaration: the successor takes the
// victim's homes into custody, and the lock manager sweeps its state —
// queued requests from the dead node are dropped, locks it held are
// revoked at lease expiry and regranted to the queue head. The obituary
// itself is a simulator shortcut for each peer's independent lease-expiry
// detector: every effect is stamped at D = crash time + lease duration,
// so the timing matches a real detector without per-peer timers.
func (nd *Node) handleObit(m transport.Message, at simtime.Time) {
	ob := m.Payload.(*Obituary)
	dead := int(ob.Node)
	d := nd.leaseExpiry(ob.At)
	nd.trc.SvcInstant(obsv.EvObit, at, int64(dead), int64(ob.At))
	if ob.Epoch > 0 && nd.ep.AdoptEpoch(ob.Epoch) {
		// Partition-flow obituary: carries the membership epoch the
		// death declaration bumped the cluster to. Adopting it makes
		// every message this node sends from here on fence-proof
		// against the declared-dead sender's stale incarnation.
		nd.stats.EpochBumps.Add(1)
	}

	nd.mu.Lock()
	if nd.adoptedFrom < 0 && nd.successorOf(dead) == nd.cfg.ID {
		nd.adoptedFrom = dead
		nd.stats.HomeAdoptions.Add(1)
	}
	if nd.cfg.ID != ManagerNode {
		nd.mu.Unlock()
		return
	}
	// Manager sweep. Lock ids are sorted so the (idempotent) sweep order
	// never depends on map iteration.
	ids := make([]int32, 0, len(nd.locks))
	for lid := range nd.locks {
		ids = append(ids, lid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	type regrant struct {
		req  transport.Message
		g    *LockGrant
		at   simtime.Time
		lock int32
	}
	var regrants []regrant
	for _, lid := range ids {
		ls := nd.locks[lid]
		q := ls.queue[:0]
		for _, w := range ls.queue {
			if w.m.From != dead {
				q = append(q, w)
			}
		}
		ls.queue = q
		if !ls.held || ls.holder != dead {
			continue
		}
		// Revoke: the victim died holding the lock. Its open interval was
		// neither flushed nor logged; the lost updates reappear when its
		// recovered incarnation replays the interval, and the eventual
		// replayed release is absorbed against the revocation record.
		nd.revoked[lid] = revokedLock{holder: dead, at: d}
		nd.stats.LockRevocations.Add(1)
		ls.held = false
		ls.holder = -1
		if len(ls.queue) == 0 {
			continue
		}
		next := ls.queue[0]
		ls.queue = ls.queue[1:]
		g := nd.grantLocked(next.m.Payload.(*LockReq).VT)
		grantAt := d
		if next.arrival > grantAt {
			grantAt = next.arrival
		}
		nd.issueGrantLocked(ls, next.m.From, next.m.ReqID, g, grantAt)
		regrants = append(regrants, regrant{req: next.m, g: g, at: grantAt, lock: lid})
	}
	nd.mu.Unlock()
	for _, r := range regrants {
		nd.trc.SvcSpan(obsv.EvLockGrant, obsv.CatCoherence,
			at-simtime.Time(nd.cfg.Model.MsgHandling), r.at, m.From, m.SentAt,
			int64(r.lock), 0)
		nd.ep.ReplyAt(r.at, r.req, KindLockGrant, r.g.WireSize(), r.g)
	}
}

// handleForeignPageReq serves a page request this node is not the static
// owner of: a custody rebuild when it is the page's current effective
// home, a redirect otherwise.
func (nd *Node) handleForeignPageReq(m transport.Message, req *PageReq, at simtime.Time) {
	if eff := nd.effectiveHome(req.Page); eff != nd.cfg.ID {
		rd := &RedirectHome{Page: req.Page, Home: int32(eff)}
		nd.ep.ReplyAt(at, m, KindRedirectHome, rd.WireSize(), rd)
		return
	}
	data, ver, done := nd.rebuildCustody(req.Page, req.VT, at)
	resp := &PageReply{Data: data, Ver: ver}
	nd.trc.SvcSpan(obsv.EvAdoptServe, obsv.CatCoherence,
		at-simtime.Time(nd.cfg.Model.MsgHandling), done, m.From, m.SentAt,
		int64(req.Page), int64(resp.WireSize()))
	nd.ep.ReplyAt(done, m, KindPageReply, resp.WireSize(), resp)
}

// handleForeignDiffUpdate receives a writer interval's diffs for pages
// this node is not the static owner of: recorded into the custody record
// when it is their effective home, redirected otherwise. The diffs are
// never applied to a page table — rebuilds replay the record on demand.
func (nd *Node) handleForeignDiffUpdate(m transport.Message, du *DiffUpdate, at simtime.Time) {
	p0 := du.Diffs[0].Page
	if eff := nd.effectiveHome(p0); eff != nd.cfg.ID {
		rd := &RedirectHome{Page: p0, Home: int32(eff)}
		nd.ep.ReplyAt(at, m, KindRedirectHome, rd.WireSize(), rd)
		return
	}
	var copied, recorded int
	nd.mu.Lock()
	for _, d := range du.Diffs {
		if err := d.Validate(nd.cfg.PageSize); err != nil {
			nd.mu.Unlock()
			panic(fmt.Sprintf("hlrc: node %d rejected custody diff: %v", nd.cfg.ID, err))
		}
		ap := nd.adopted[d.Page]
		if ap == nil {
			ap = &adoptedPage{ver: vclock.New(nd.cfg.N)}
			nd.adopted[d.Page] = ap
		}
		if int(du.Writer) < len(ap.ver) && du.Seq <= ap.ver[du.Writer] {
			continue // retransmitted interval, already recorded
		}
		ap.applied = append(ap.applied, AdoptedDiff{
			Writer: du.Writer, Seq: du.Seq, VTSum: du.VTSum, Diff: d,
		})
		if int(du.Writer) < len(ap.ver) {
			ap.ver[du.Writer] = du.Seq
		}
		copied += d.DataBytes()
		recorded++
	}
	nd.mu.Unlock()
	if recorded > 0 {
		nd.stats.AdoptedDiffs.Add(int64(recorded))
	}
	arrival := at - simtime.Time(nd.cfg.Model.MsgHandling)
	at += simtime.Time(nd.cfg.Model.CopyTime(copied))
	nd.trc.SvcSpan(obsv.EvHomeUpdate, obsv.CatCoherence,
		arrival, at, m.From, m.SentAt, int64(recorded), int64(copied))
	nd.ep.ReplyAt(at, m, KindDiffAck, DiffAck{}.WireSize(), DiffAck{})
}

// custodyEntry is one (writer, seq) diff with its application-order key.
type custodyEntry struct {
	writer int32
	seq    int32
	vtSum  int64
	diff   memory.Diff
}

// sortCustody orders entries in the canonical custody application order:
// ascending (vtSum, writer, seq) — a fixed linear extension of causal
// order, so every rebuild of the same entry set yields the same bytes.
func sortCustody(entries []custodyEntry) {
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.vtSum != b.vtSum {
			return a.vtSum < b.vtSum
		}
		if a.writer != b.writer {
			return a.writer < b.writer
		}
		return a.seq < b.seq
	})
}

// rebuildCustody assembles a custody copy of page p covering every writer
// interval need bounds (need[w] = newest interval of writer w the
// requester must see; nil bounds nothing and yields the zero page). It
// runs on the service goroutine; at anchors the sub-requests, and the
// returned done time includes the parallel log-read round trips plus the
// charged disk time. The writer sets of the three sources are disjoint:
// this node's own log is read locally (a network call to self would
// deadlock the service loop), never-crashed peers' logs over the wire,
// and ever-crashed writers' diffs come from the custody record — their
// causally-required entries are always present, because a DiffUpdate is
// acknowledged (and recorded) before its writer's interval can become
// visible to any requester.
func (nd *Node) rebuildCustody(p memory.PageID, need vclock.VC, at simtime.Time) ([]byte, vclock.VC, simtime.Time) {
	scratch := simtime.NewClock(at)
	bound := func(w int) int32 {
		if w < 0 || w >= len(need) {
			return 0
		}
		return need[w]
	}
	var entries []custodyEntry
	// Own log.
	if b := bound(nd.cfg.ID); b > 0 && nd.LocalLogDiffs != nil {
		seqs, sums, diffs, diskBytes := nd.LocalLogDiffs(p, 0, b)
		scratch.AdvanceSpan(nd.cfg.Model.DiskTime(diskBytes))
		for i := range seqs {
			entries = append(entries, custodyEntry{int32(nd.cfg.ID), seqs[i], sums[i], diffs[i]})
		}
	}
	// Custody record (ever-crashed writers, including the requester's own
	// pre-rejoin replay flushes). No virtual cost: the record is volatile
	// local state, and charging per entry would make the reply time depend
	// on how much of the victim's replay has raced in.
	nd.mu.Lock()
	if ap := nd.adopted[p]; ap != nil {
		for _, ad := range ap.applied {
			if ad.Seq <= bound(int(ad.Writer)) {
				entries = append(entries, custodyEntry{ad.Writer, ad.Seq, ad.VTSum, ad.Diff})
			}
		}
	}
	nd.mu.Unlock()
	// Live peers' logs, fanned out in parallel.
	var pendings []*transport.Pending
	var froms []int
	for w := 0; w < nd.cfg.N; w++ {
		if w == nd.cfg.ID {
			continue
		}
		if _, ever := nd.ep.EverCrashed(w); ever {
			continue
		}
		b := bound(w)
		if b <= 0 {
			continue
		}
		req := &RecDiffsReq{Page: p, FromSeq: 0, ToSeq: b}
		pendings = append(pendings, nd.ep.CallAsyncAt(at, w, KindRecDiffsReq, req.WireSize(), req))
		froms = append(froms, w)
	}
	for i, pd := range pendings {
		rd := pd.Wait(scratch).Payload.(*RecDiffsReply)
		scratch.AdvanceSpan(nd.cfg.Model.DiskTime(rd.DiskBytes))
		for j := range rd.Seqs {
			entries = append(entries, custodyEntry{int32(froms[i]), rd.Seqs[j], rd.VTSums[j], rd.Diffs[j]})
		}
	}
	sortCustody(entries)
	data := make([]byte, nd.cfg.PageSize)
	ver := vclock.New(nd.cfg.N)
	for _, e := range entries {
		if err := e.diff.Validate(nd.cfg.PageSize); err != nil {
			panic(fmt.Sprintf("hlrc: node %d rejected rebuilt diff for page %d: %v", nd.cfg.ID, p, err))
		}
		e.diff.Apply(data)
		if int(e.writer) < len(ver) && e.seq > ver[e.writer] {
			ver[e.writer] = e.seq
		}
	}
	return data, ver, scratch.Now()
}

// RebuildCustody is the exported form of rebuildCustody; the recovery
// service uses it to answer RecPageReq for adopted pages.
func (nd *Node) RebuildCustody(p memory.PageID, need vclock.VC, at simtime.Time) ([]byte, vclock.VC, simtime.Time) {
	return nd.rebuildCustody(p, need, at)
}

// AdoptedState snapshots the custody record, sorted by page id, for the
// post-run audit and the authoritative final-image assembly. Callers must
// not mutate the diffs.
func (nd *Node) AdoptedState() []AdoptedPageState {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	out := make([]AdoptedPageState, 0, len(nd.adopted))
	for p, ap := range nd.adopted {
		out = append(out, AdoptedPageState{
			Page:    p,
			Ver:     ap.ver.Clone(),
			Applied: append([]AdoptedDiff(nil), ap.applied...),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Page < out[j].Page })
	return out
}

// RebuildAdoptedImage assembles the authoritative final content of one
// page from an arbitrary mix of logged and custody-recorded diffs: dedup
// by (writer, seq), canonical custody order, apply onto the zero page.
// The runner uses it for migrated pages in the final memory image, and
// the audit to cross-check the custody record against the writers' logs.
func RebuildAdoptedImage(pageSize int, diffs []AdoptedDiff) ([]byte, vclock.VC, error) {
	entries := make([]custodyEntry, 0, len(diffs))
	type key struct{ w, s int32 }
	seen := make(map[key]bool)
	maxW := int32(0)
	for _, ad := range diffs {
		k := key{ad.Writer, ad.Seq}
		if seen[k] {
			continue
		}
		seen[k] = true
		entries = append(entries, custodyEntry{ad.Writer, ad.Seq, ad.VTSum, ad.Diff})
		if ad.Writer > maxW {
			maxW = ad.Writer
		}
	}
	sortCustody(entries)
	data := make([]byte, pageSize)
	ver := vclock.New(int(maxW) + 1)
	for _, e := range entries {
		if err := e.diff.Validate(pageSize); err != nil {
			return nil, nil, fmt.Errorf("hlrc: rebuild (writer %d, seq %d): %w", e.writer, e.seq, err)
		}
		e.diff.Apply(data)
		if e.seq > ver[e.writer] {
			ver[e.writer] = e.seq
		}
	}
	return data, ver, nil
}
