package hlrc

import (
	"sync"
	"sync/atomic"

	"sdsm/internal/memory"
	"sdsm/internal/obsv"
	"sdsm/internal/simtime"
	"sdsm/internal/transport"
	"sdsm/internal/vclock"
)

// Protocol message kinds carried over the transport.
const (
	KindLockReq transport.Kind = iota + 1
	KindLockGrant
	KindLockRelease
	KindBarrierCheckin
	KindBarrierRelease
	KindDiffUpdate
	KindDiffAck
	KindPageReq
	KindPageReply
	// Recovery-service kinds (handled by live nodes on behalf of a
	// recovering peer; see internal/recovery).
	KindRecPageReq
	KindRecPageReply
	KindRecDiffsReq
	KindRecDiffsReply
	// Sender-log kinds: a victim whose torn disk log lost the tail of its
	// sync records replays the lost lock grants and barrier releases from
	// the managers' volatile sender logs (Config.SenderLogs).
	KindRecGrantReq
	KindRecGrantReply
	KindRecBarrierReq
	KindRecBarrierReply
	// Online-recovery kinds (lease-based liveness and home adoption; see
	// DESIGN.md §2.9). Appended after the recovery-service kinds so every
	// pre-existing kind keeps its wire value.
	KindObit         // manager → all: node declared dead after lease expiry
	KindRedirectHome // reply: "not my page (anymore) — ask Home instead"
	// Epoch-fencing kind (partition-safe membership; see DESIGN.md §2.13).
	// Appended so every pre-existing kind keeps its wire value.
	KindFenced // reply: "your epoch predates your death declaration"
)

// Register display names for the per-kind wire counters and the trace
// export.
func init() {
	for kind, name := range map[transport.Kind]string{
		KindLockReq:         "lock-req",
		KindLockGrant:       "lock-grant",
		KindLockRelease:     "lock-release",
		KindBarrierCheckin:  "barrier-checkin",
		KindBarrierRelease:  "barrier-release",
		KindDiffUpdate:      "diff-update",
		KindDiffAck:         "diff-ack",
		KindPageReq:         "page-req",
		KindPageReply:       "page-reply",
		KindRecPageReq:      "rec-page-req",
		KindRecPageReply:    "rec-page-reply",
		KindRecDiffsReq:     "rec-diffs-req",
		KindRecDiffsReply:   "rec-diffs-reply",
		KindRecGrantReq:     "rec-grant-req",
		KindRecGrantReply:   "rec-grant-reply",
		KindRecBarrierReq:   "rec-barrier-req",
		KindRecBarrierReply: "rec-barrier-reply",
		KindObit:            "obituary",
		KindRedirectHome:    "redirect-home",
		KindFenced:          "fenced",
	} {
		obsv.RegisterKindName(uint8(kind), name)
	}
}

// WirePayloads returns one exemplar of every concrete payload type the
// protocol puts on the wire, exactly as the senders construct them
// (pointers everywhere except the empty DiffAck value). Each type's
// layout is its case of the codec's one walk (wire.go), behind WireSize,
// AppendWire and DecodeWire alike. An out-of-process transport fabric
// builds its tag → decoder table from the exemplars (WireTag and
// DecodeWire) so a Message's `any` payload round-trips; the in-process
// fabric never needs them.
func WirePayloads() []any {
	return []any{
		&LockReq{}, &LockGrant{}, &LockRelease{},
		&BarrierCheckin{}, &BarrierRelease{},
		&DiffUpdate{}, DiffAck{},
		&PageReq{}, &PageReply{},
		&RecDiffsReq{}, &RecDiffsReply{},
		&RecSyncReq{}, &RecGrantReply{}, &RecBarrierReply{},
		&Obituary{}, &RedirectHome{}, &Fenced{},
	}
}

// LockReq asks the lock manager for ownership of a lock. VT is the
// acquirer's vector time so the grant can carry only the notices the
// acquirer lacks.
type LockReq struct {
	Lock int32
	VT   vclock.VC
}

// LockGrant transfers lock ownership. It carries the manager's knowledge
// horizon and the write-invalidation notices the acquirer lacks —
// the paper's "lock grant message piggybacked with write-invalidation
// notices".
type LockGrant struct {
	VT      vclock.VC
	Notices []Notice
	// LeaseUntil, when nonzero, is the virtual time until which the grantee
	// may assume the manager will not declare it dead (Config.LeaseDuration).
	LeaseUntil simtime.Time
}

// LockRelease returns ownership to the manager together with the
// releaser's knowledge delta (everything it learned or produced since its
// grant).
type LockRelease struct {
	Lock    int32
	VT      vclock.VC
	Notices []Notice
}

// BarrierCheckin announces arrival at a barrier, carrying the arriver's
// vector time and knowledge delta since the last barrier.
type BarrierCheckin struct {
	Barrier int32
	VT      vclock.VC
	Notices []Notice
}

// BarrierRelease releases one waiter from the barrier with the merged
// vector time and the notices that waiter lacks.
type BarrierRelease struct {
	VT      vclock.VC
	Notices []Notice
	// LeaseUntil: as on LockGrant (zero when leases are disabled).
	LeaseUntil simtime.Time
}

// DiffUpdate flushes one writer interval's diffs for the pages homed at
// the destination node. VTSum is the writer's vector-time sum at the
// interval close; it is populated only under online recovery
// (Config.LeaseDuration > 0), where an adopter records it as the
// custody-application ordering key. Live homes ignore it.
type DiffUpdate struct {
	Writer int32
	Seq    int32 // the writer interval the diffs belong to
	VTSum  int64
	Diffs  []memory.Diff
}

// DiffAck acknowledges a DiffUpdate; after it arrives the writer may
// discard its diffs (and, under CCL, knows they are both applied at the
// home and safely logged locally).
type DiffAck struct{}

// PageReq fetches one page. As a KindPageReq it asks for the current
// copy, and VT, the requester's vector time, is set only under online
// recovery (Config.LeaseDuration > 0), to bound an adopter's custody
// rebuild. As a KindRecPageReq a recovering node asks for the page at
// version VT, rolled back from the home's undo history if it has advanced
// (the paper's "home node must rollback ... to recreate its modification").
type PageReq struct {
	Page memory.PageID
	VT   vclock.VC
}

// pageReqs is the process-wide table of requests with no VT: entry p is
// PageReq{Page: p}. Such a request is a pure function of its page and a
// sent payload is never written again (DESIGN.md §2.8), so every
// failure-free fetch of page p, on every node and cluster of the process,
// sends the one value, and the tcp decoder hands it out again. The table
// only grows, to the largest NumPages a sender has used (constPageReq);
// an entry is never written after it is published, and readers load the
// table without a lock.
var pageReqs struct {
	mu  sync.Mutex // serializes growth
	tab atomic.Pointer[[]*PageReq]
}

// sharedPageReq returns page p's constant request, or nil when the table
// does not reach p. It never grows the table.
func sharedPageReq(p memory.PageID) *PageReq {
	if t := pageReqs.tab.Load(); t != nil && uint(p) < uint(len(*t)) {
		return (*t)[p]
	}
	return nil
}

// constPageReq returns page p's constant request, first growing the table
// to numPages entries when it does not reach p. p must be below numPages.
func constPageReq(p memory.PageID, numPages int) *PageReq {
	if req := sharedPageReq(p); req != nil {
		return req
	}
	pageReqs.mu.Lock()
	defer pageReqs.mu.Unlock()
	var old []*PageReq
	if t := pageReqs.tab.Load(); t != nil {
		old = *t
	}
	if numPages > len(old) {
		// Entries already published keep their addresses: the new ones
		// are cut from one block, and only the index is copied.
		reqs := make([]PageReq, numPages-len(old))
		tab := make([]*PageReq, len(old), numPages)
		copy(tab, old)
		for i := range reqs {
			reqs[i].Page = memory.PageID(len(tab))
			tab = append(tab, &reqs[i])
		}
		pageReqs.tab.Store(&tab)
	}
	return sharedPageReq(p)
}

// PageReply carries the home copy's bytes and nothing else: fetchPage and
// CCL-recovery's fetchPages install Data and read no version back. It
// answers a KindPageReq (KindPageReply) and a KindRecPageReq
// (KindRecPageReply) alike.
type PageReply struct {
	Data []byte
}

// RecDiffsReq asks a live writer for the diffs it logged for one page,
// for writer intervals in (FromSeq, ToSeq].
type RecDiffsReq struct {
	Page    memory.PageID
	FromSeq int32
	ToSeq   int32
}

// RecDiffsReply carries logged diffs read from the writer's stable store.
// VTSums holds, per diff, the vector-time sum the writer logged with the
// closing interval; the recovering home sorts diffs from different
// writers by it before applying (a linear extension of causal order).
// DiskBytes is the number of log bytes the writer had to read; the
// recovering node charges that disk time to its replay clock, since the
// remote read is on the recovery critical path.
type RecDiffsReply struct {
	Seqs      []int32
	VTSums    []int64
	Diffs     []memory.Diff
	DiskBytes int
}

// RecSyncReq asks a manager for the Idx-th (0-based, in issue order) lock
// grant or barrier release it sent to Node before the crash — the
// sender-log read of a torn-tail recovery.
type RecSyncReq struct {
	Node int32
	Idx  int32
}

// RecGrantReply answers a KindRecGrantReq. Grant is nil past the end of
// the sender log (a replay divergence; the requester panics).
type RecGrantReply struct {
	Grant *LockGrant
}

// RecBarrierReply answers a KindRecBarrierReq.
type RecBarrierReply struct {
	Rel *BarrierRelease
}

// Obituary announces that Node was declared dead at virtual time At (its
// lease expired). The lock manager originates it; every survivor uses it
// to start redirecting traffic for the victim's homes to the successor.
// Epoch is the membership epoch the declaration bumped the cluster to
// (zero on pre-epoch obituaries); survivors adopt it, after which every
// message the buried incarnation still has in flight is fenceably stale.
type Obituary struct {
	Node  int32
	At    simtime.Time
	Epoch int64
}

// RedirectHome answers a request for a page this node is not (or no
// longer) responsible for: ask Home instead. Senders re-resolve and retry;
// the chain is bounded because custody only moves between the static home
// and its successor.
type RedirectHome struct {
	Page memory.PageID
	Home int32
}

// Fenced is the typed fencing diagnostic answering a request whose
// sender's epoch predates the sender's own death declaration: the node
// was declared dead (rightly or wrongly) and must not act as home, lock
// holder or barrier participant with pre-declaration state. The fenced
// node aborts its current incarnation and re-admits itself through the
// rejoin path (see internal/core), which bumps it past Buried.
type Fenced struct {
	Node     int32 // the fenced (stale) node
	MsgEpoch int64 // the stale epoch the offending message carried
	Buried   int64 // the epoch of the sender's burial (death declaration)
	Epoch    int64 // the responder's current epoch view
}

// AdoptedDiff is one writer-interval diff with the ordering key it is
// applied under (SortCanonical): a diff received directly by an adopter
// for a page in its custody, or one read back from its writer's log.
// Custody rebuilds and the post-run audit replay the former against the
// writers' logged diffs.
type AdoptedDiff struct {
	Writer int32
	Seq    int32
	VTSum  int64
	Diff   memory.Diff
}

// AdoptedPageState is the exported custody state of one adopted page: the
// version its custody record has reached and the directly-received diffs
// in the record (backfill diffs are re-readable from the writers' logs and
// are not duplicated here).
type AdoptedPageState struct {
	Page    memory.PageID
	Ver     vclock.VC
	Applied []AdoptedDiff
}
