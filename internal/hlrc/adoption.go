package hlrc

// Online recovery: lease-based liveness, permanent home migration, and
// custody service (DESIGN.md §2.9). Only a leased fail-stop or a
// partition onset (Config.LeaseDuration > 0) writes the cluster's
// transport.Membership, so without a lease every home resolves to its
// static owner, awaitHome is one plain wait, nothing answers
// RedirectHome or Fenced, and the wire format is the offline protocol's.
// A crashed node's homes stay with its successor for the rest of the run
// (no handback), which keeps no custody copy: it rebuilds each reply from
// the writers' logs and its custody record, so a reply's content and
// virtual cost are pure functions of the request.

import (
	"fmt"
	"sort"

	"sdsm/internal/memory"
	"sdsm/internal/obsv"
	"sdsm/internal/simtime"
	"sdsm/internal/transport"
	"sdsm/internal/vclock"
)

// EffectiveHome resolves the current home of a page under permanent
// migration (see transport.Membership.Serving).
func (nd *Node) EffectiveHome(p memory.PageID) int {
	return nd.members.Serving(nd.cfg.Homes[p])
}

// OwnsHome reports whether this node serves page p from its own page
// table: it is the static home and has never crashed. A recovered
// incarnation's statically-assigned pages stay migrated for the rest of
// the run and are accessed like remote pages. Without a lease no node is
// ever marked crashed, so this is exactly IsHome.
func (nd *Node) OwnsHome(p memory.PageID) bool {
	if nd.cfg.Homes[p] != nd.cfg.ID {
		return false
	}
	_, ever := nd.members.Crashed(nd.cfg.ID)
	return !ever
}

// waitOutLease charges the caller's clock up to the dead peer's lease
// expiry, the earliest instant any survivor may act on its death (a
// no-op if the clock is already past it), and counts the stall.
func (nd *Node) waitOutLease(dead int) {
	at, ever := nd.members.Crashed(dead)
	if !ever {
		return
	}
	d := at + simtime.Time(nd.cfg.LeaseDuration)
	t0, t1 := nd.clock.MergePlusSpan(d, 0)
	nd.trc.Seg(obsv.EvLeaseWait, obsv.CatCoherence, t0, t1, int64(dead), 0)
	nd.stats.LeaseWaitsServed.Add(1)
}

// awaitHome waits for the reply to a request sent to the node serving a
// home — a page miss or a release's diff batch — and follows the home
// when it has moved: a crash with the reply outstanding waits out the
// dead node's lease and resends to whoever serves its pages now, and a
// RedirectHome reply resends to the node it names (bounded: custody only
// walks dead-node chains). A Fenced reply means the receiver's cluster
// has declared this incarnation dead: its request must not land
// anywhere, so the op unwinds to the runner, which re-admits the node
// via rejoin. Without a lease nothing marks a node crashed and nothing
// answers RedirectHome or Fenced, so this is one plain wait.
func (nd *Node) awaitHome(pd *transport.Pending, to int, kind transport.Kind, req interface{ WireSize() int }) transport.Message {
	for {
		m, ok := pd.WaitRedirect(nd.clock)
		switch {
		case !ok:
			// The failover itself charges no virtual time, so this path
			// costs the same whether the death was noticed here or via
			// the obituary.
			nd.waitOutLease(to)
			nd.stats.RedirectedCalls.Add(1)
			to = nd.members.Serving(to)
		case m.Kind == KindFenced:
			panic(ErrFenced)
		case m.Kind == KindRedirectHome:
			nd.stats.RedirectedCalls.Add(1)
			to = int(m.Payload.(*RedirectHome).Home)
		default:
			return m
		}
		pd = nd.ep.CallAsync(to, kind, req.WireSize(), req)
	}
}

// handleObit processes a death declaration: the successor takes the
// victim's homes into custody at once, and the manager holds the
// obituary for its lock sweep (manager.obit), decided in key order. The
// obituary itself is a simulator shortcut for each peer's independent
// lease-expiry detector: every effect is stamped at D = crash time +
// lease duration, so the timing matches a real detector without per-peer
// timers.
func (nd *Node) handleObit(m transport.Message, at simtime.Time) {
	ob := m.Payload.(*Obituary)
	dead := int(ob.Node)
	nd.trc.SvcInstant(obsv.TraceCtx{}, obsv.EvObit, at, int64(dead), int64(ob.At))
	if ob.Epoch > 0 && nd.members.Adopt(nd.cfg.ID, ob.Epoch) {
		// Partition-flow obituary: carries the membership epoch the
		// death declaration bumped the cluster to. Adopting it makes
		// every message this node sends from here on fence-proof
		// against the declared-dead sender's stale incarnation.
		nd.stats.EpochBumps.Add(1)
	}

	nd.mu.Lock()
	if nd.adoptedFrom < 0 && nd.members.Serving(dead) == nd.cfg.ID {
		nd.adoptedFrom = dead
		nd.stats.HomeAdoptions.Add(1)
	}
	nd.mu.Unlock()
	if nd.mgr != nil {
		nd.mgr.admit(m, nd.ep.ArrivalOf(m))
	}
}

// RebuildCustody assembles a custody copy of page p covering every writer
// interval need bounds (need[w] = newest interval of writer w the
// requester must see; nil bounds nothing and yields the zero page). It
// runs on the service goroutine; at anchors the sub-requests, and the
// returned done time includes the parallel log-read round trips plus the
// charged disk time. Entries come from three sources: this node's own log
// is read locally (a network call to self would deadlock the service
// loop), never-crashed peers' logs over the wire, and the custody record.
// Ever-crashed writers' diffs come from the custody record alone — their
// causally-required entries are always present, because a DiffUpdate is
// acknowledged (and recorded) before its writer's interval can become
// visible to any requester. The record also holds every diff it received
// from never-crashed writers, this node included, and every entry need
// bounds is taken, so those diffs arrive twice: once from custody and
// once from the writer's log. The two copies have equal keys and equal
// bytes (the churn sweep's custody check compares them), so they sort
// next to each other and the second apply rewrites the same bytes.
func (nd *Node) RebuildCustody(p memory.PageID, need vclock.VC, at simtime.Time) ([]byte, simtime.Time) {
	scratch := simtime.NewClock(at)
	bound := need.At // a writer need does not name is at 0, as in serveAt
	var entries []AdoptedDiff
	// Own log.
	if b := bound(nd.cfg.ID); b > 0 {
		rd := nd.cfg.LogDiffs(&RecDiffsReq{Page: p, FromSeq: 0, ToSeq: b})
		scratch.AdvanceSpan(nd.cfg.Model.DiskTime(rd.DiskBytes))
		for i := range rd.Seqs {
			entries = append(entries, AdoptedDiff{int32(nd.cfg.ID), rd.Seqs[i], rd.VTSums[i], rd.Diffs[i]})
		}
	}
	// Custody record (any writer; an ever-crashed requester's entries
	// include its own pre-rejoin replay flushes). No virtual cost: the
	// record is volatile local state, and charging per entry would make
	// the reply time depend on how much of the victim's replay has raced
	// in.
	nd.mu.Lock()
	entries = nd.home.custody(p, entries, bound)
	nd.mu.Unlock()
	// Live peers' logs, fanned out in parallel.
	var pendings []*transport.Pending
	var froms []int
	for w := 0; w < nd.cfg.N; w++ {
		if w == nd.cfg.ID {
			continue
		}
		if _, ever := nd.members.Crashed(w); ever {
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
			entries = append(entries, AdoptedDiff{int32(froms[i]), rd.Seqs[j], rd.VTSums[j], rd.Diffs[j]})
		}
	}
	data, err := applyCustody(nd.cfg.PageSize, entries)
	if err != nil {
		panic(fmt.Sprintf("hlrc: node %d rejected rebuilt diff for page %d: %v", nd.cfg.ID, p, err))
	}
	return data, scratch.Now()
}

// AdoptedState snapshots the custody record, sorted by page id, for the
// post-run audit and the authoritative final-image assembly. Callers must
// not mutate the diffs.
func (nd *Node) AdoptedState() []AdoptedPageState {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.home.adoptedState()
}

// RebuildAdoptedImage assembles the authoritative final content of one
// page from an arbitrary mix of logged and custody-recorded diffs: dedup
// by (writer, seq), canonical custody order, apply onto the zero page.
// The runner uses it for migrated pages in the final memory image.
func RebuildAdoptedImage(pageSize int, diffs []AdoptedDiff) ([]byte, error) {
	entries := make([]AdoptedDiff, 0, len(diffs))
	type key struct{ w, s int32 }
	seen := make(map[key]bool)
	for _, ad := range diffs {
		k := key{ad.Writer, ad.Seq}
		if seen[k] {
			continue
		}
		seen[k] = true
		entries = append(entries, ad)
	}
	data, err := applyCustody(pageSize, entries)
	if err != nil {
		return nil, fmt.Errorf("hlrc: rebuild %w", err)
	}
	return data, nil
}

// SortCanonical sorts writer-interval diffs in place into the canonical
// apply order: ascending (VTSum, Writer, Seq). The vector-time sum makes
// it a fixed linear extension of the intervals' causal order, which keeps
// each writer's intervals in seq order; intervals the sum cannot order
// are causally concurrent, and under a data-race-free program concurrent
// diffs touch disjoint bytes, so the writer/seq tiebreak only keeps every
// apply of the same set deterministic.
func SortCanonical(diffs []AdoptedDiff) {
	sort.Slice(diffs, func(i, j int) bool {
		a, b := diffs[i], diffs[j]
		if a.VTSum != b.VTSum {
			return a.VTSum < b.VTSum
		}
		if a.Writer != b.Writer {
			return a.Writer < b.Writer
		}
		return a.Seq < b.Seq
	})
}

// applyCustody applies entries onto the zero page in the canonical order
// (SortCanonical), so every rebuild of the same entry set yields the same
// bytes. Entries are sorted in place; every diff is validated first.
func applyCustody(pageSize int, entries []AdoptedDiff) ([]byte, error) {
	SortCanonical(entries)
	data := make([]byte, pageSize)
	for _, e := range entries {
		if err := e.Diff.Validate(pageSize); err != nil {
			return nil, fmt.Errorf("(writer %d, seq %d): %w", e.Writer, e.Seq, err)
		}
		e.Diff.Apply(data)
	}
	return data, nil
}
