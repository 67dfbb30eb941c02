package obsv

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// HistID selects one of the registry's fixed latency/size histograms.
type HistID int

// Histogram ids.
const (
	HistFetchLatency HistID = iota // remote page fetch, fault to install (ns)
	HistLockStall                  // lock acquire, entry to grant (ns)
	HistBarrierStall               // barrier, entry to release (ns)
	HistFlushDisk                  // synchronous log-flush disk time (ns)
	HistFlushBytes                 // bytes per stable-log flush
	// Application-level op latencies, observed by workloads through
	// Proc.Observe (virtual ns per complete operation, synchronization
	// included). Appended so every pre-existing id keeps its value.
	HistKVRead  // kv workload: read transaction latency (ns)
	HistKVWrite // kv workload: write transaction latency (ns)
	// HistFlushStall is the release-path stall waiting for the overlapped
	// log flush to settle (ns): how much of the flush the diff/ack round
	// trip failed to hide. Appended so every pre-existing id keeps its
	// value.
	HistFlushStall
	numHists
)

var histNames = [numHists]string{
	"fetch-latency-ns", "lock-stall-ns", "barrier-stall-ns",
	"flush-disk-ns", "flush-bytes",
	"kv-read-ns", "kv-write-ns",
	"flush-stall-ns",
}

// String returns the histogram's stable display name.
func (id HistID) String() string {
	if int(id) < len(histNames) {
		return histNames[id]
	}
	return "hist-?"
}

const histBuckets = 48

// Hist is a lock-free power-of-two histogram: bucket i counts values v
// with bit-length i, i.e. v in [2^(i-1), 2^i); bucket 0 counts v <= 0.
type Hist struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func histBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe adds one value. Safe for concurrent use; nil-safe so stable
// storage can hold a nil *Hist when tracing is disabled.
func (h *Hist) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[histBucket(v)].Add(1)
}

// Snapshot returns a plain-value copy of the histogram.
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is a mergeable plain-value histogram.
type HistSnapshot struct {
	Count   int64
	Sum     int64
	Buckets [histBuckets]int64
}

// Merge accumulates o into s.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the
// upper edge of the bucket the q-th observation falls in.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen int64
	for i, n := range s.Buckets {
		seen += n
		if seen > rank {
			if i == 0 {
				return 0
			}
			return 1 << uint(i) // upper edge of [2^(i-1), 2^i)
		}
	}
	return 1 << (histBuckets - 1)
}

// Message-kind name registry. The transport counts wire traffic per raw
// kind byte; protocol packages register display names for their kinds at
// init time so exports can label them.
var (
	kindNameMu  sync.RWMutex
	kindNameTab = map[uint8]string{}
)

// RegisterKindName associates a display name with a message kind byte.
// Re-registering a kind with the name it already has is a no-op (package
// init may legitimately run alongside tests that register the same
// table); re-registering with a *different* name panics — silently
// letting the last writer win would mislabel every export that keys off
// the kind byte.
func RegisterKindName(kind uint8, name string) {
	kindNameMu.Lock()
	defer kindNameMu.Unlock()
	if prev, ok := kindNameTab[kind]; ok && prev != name {
		panic(fmt.Sprintf("obsv: message kind %d already registered as %q, refusing conflicting name %q", kind, prev, name))
	}
	kindNameTab[kind] = name
}

// KindName returns the registered display name for a message kind byte,
// or "kind-N" when none was registered.
func KindName(kind uint8) string {
	kindNameMu.RLock()
	name, ok := kindNameTab[kind]
	kindNameMu.RUnlock()
	if !ok {
		return fmt.Sprintf("kind-%d", kind)
	}
	return name
}

// KindCount is the wire traffic observed for one message kind.
type KindCount struct {
	Kind  uint8  `json:"kind"`
	Name  string `json:"name"`
	Msgs  int64  `json:"msgs"`
	Bytes int64  `json:"bytes"`
}
