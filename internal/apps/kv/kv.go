// Package kv is a key-value serving workload over the shared-memory
// system: every node is one closed-loop client issuing keyed read/write
// transactions against a table of versioned slots that live in DSM pages,
// with one global lock per key. The key popularity is optionally
// zipf-skewed, the read/write mix and value size are configurable, and
// every operation's virtual latency is recorded in the obsv histogram
// registry (HistKVRead / HistKVWrite), so sdsmbench can report
// percentiles per backend and protocol.
//
// Each slot carries a version counter, a commutative writer checksum,
// and a payload whose bytes are a pure function of (key, version) — so a
// read transaction can verify, under the key's lock, that it observed a
// consistent committed value. Every slot field is an order-invariant
// function of the committed writes (counts and sums commute), and each
// client's write set is drawn from its private seeded stream — so the
// final memory image is a pure function of (Config, cluster size),
// independent of lock-grant interleaving, wire backend, and crash
// recovery. Check exploits that: it replays the op streams, recomputes
// the expected image exactly, and flags any divergence — the bank
// example's balance invariant, generalized to the whole table and made
// latency-observable.
package kv

import (
	"fmt"
	"math/rand"

	"sdsm/internal/core"
	"sdsm/internal/obsv"
	"sdsm/internal/simtime"
)

// Config parameterizes the workload. The zero value of any field selects
// its default.
type Config struct {
	// Keys is the table size (default 64). Key k is guarded by lock k.
	Keys int
	// ValueSize is the payload bytes per slot (default 32, multiple of 8).
	ValueSize int
	// Ops is the number of transactions each client issues (default 160).
	Ops int
	// ReadPct is the percentage of read transactions, 1..100 (default 80;
	// -1 selects a pure-write workload).
	ReadPct int
	// ZipfS skews key popularity: s > 1 draws keys zipf(s)-distributed
	// (rank 0 hottest); 0 draws uniformly. Values in (0, 1] are invalid.
	ZipfS float64
	// Seed seeds each client's private op stream (default 1); same seed,
	// same per-node transaction sequence.
	Seed int64
	// BarrierEvery inserts a global barrier every k transactions (default
	// Ops/8, minimum 1): the workload's phase structure, and the rejoin
	// points for online recovery. 0 keeps the default; -1 disables
	// intermediate barriers.
	BarrierEvery int
	// OnOp, when non-nil, is called after every completed transaction
	// with the op's trace context and virtual latency — the benchmark's
	// per-op latency feed. It runs on each client's application
	// goroutine; under churn the recovering client re-invokes it for the
	// replayed prefix of its op stream.
	OnOp func(OpRecord)
}

// OpRecord describes one completed transaction to Config.OnOp.
type OpRecord struct {
	Node    int              // client node id
	Trace   obsv.TraceCtx    // the op's trace context (id is f(seed, node, seq))
	Write   bool             // false = read transaction
	Key     int              // key the transaction touched
	Seq     int              // 1-based op index within the client's stream
	Start   simtime.Time     // op entry on the client's virtual clock
	Latency simtime.Duration // virtual ns, synchronization included
}

// WithDefaults returns the config with every zero field replaced by its
// default, so drivers can report the parameters a run actually used.
func (c Config) WithDefaults() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Keys == 0 {
		c.Keys = 64
	}
	if c.ValueSize == 0 {
		c.ValueSize = 32
	}
	if c.Ops == 0 {
		c.Ops = 160
	}
	if c.ReadPct == 0 {
		c.ReadPct = 80
	} else if c.ReadPct == -1 {
		c.ReadPct = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.BarrierEvery == 0 {
		c.BarrierEvery = c.Ops / 8
		if c.BarrierEvery < 1 {
			c.BarrierEvery = 1
		}
	}
	return c
}

// Validate reports a config error, with defaults applied first.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch {
	case c.Keys < 1:
		return fmt.Errorf("kv: Keys must be positive, got %d", c.Keys)
	case c.ValueSize < 8 || c.ValueSize%8 != 0:
		return fmt.Errorf("kv: ValueSize must be a positive multiple of 8, got %d", c.ValueSize)
	case c.Ops < 1:
		return fmt.Errorf("kv: Ops must be positive, got %d", c.Ops)
	case c.ReadPct < 0 || c.ReadPct > 100:
		return fmt.Errorf("kv: ReadPct must be in [0,100], got %d", c.ReadPct)
	case c.ZipfS != 0 && c.ZipfS <= 1:
		return fmt.Errorf("kv: ZipfS must be 0 (uniform) or > 1, got %g", c.ZipfS)
	}
	return nil
}

// Slot layout: version, writer checksum, payload.
const slotHeader = 16

func (c Config) slotSize() int { return slotHeader + c.ValueSize }

func (c Config) verAddr(k int) int  { return k * c.slotSize() }
func (c Config) wsumAddr(k int) int { return k*c.slotSize() + 8 }
func (c Config) valAddr(k int) int  { return k*c.slotSize() + slotHeader }

// countersBase is where the per-client committed-write counters start.
func (c Config) countersBase() int { return c.Keys * c.slotSize() }

func (c Config) counterAddr(client int) int { return c.countersBase() + client*8 }

// MemBytes is the shared-memory footprint for a cluster of n clients.
func (c Config) MemBytes(n int) int { return c.countersBase() + n*8 }

// NumPages returns the page count the workload needs, with defaults
// applied — pass it to core.Config.
func (c Config) NumPages(n, pageSize int) int {
	c = c.withDefaults()
	return (c.MemBytes(n) + pageSize - 1) / pageSize
}

// valByte is the payload pattern: byte j of key k at version v. Version 0
// (never written) is all zeroes, matching fresh memory.
func valByte(k int, v int64, j int) byte {
	if v == 0 {
		return 0
	}
	x := uint64(k)*0x9e3779b97f4a7c15 + uint64(v)*0xbf58476d1ce4e5b9 + uint64(j)
	x ^= x >> 29
	return byte(x * 0x94d049bb133111eb >> 56)
}

func fillVal(dst []byte, k int, v int64) {
	for j := range dst {
		dst[j] = valByte(k, v, j)
	}
}

// writerTag is client id's contribution to a slot's writer checksum:
// nonzero, so the checksum can't miss a dropped write from client 0, and
// order-invariant under addition.
func writerTag(id int) int64 { return int64(id) + 1 }

// opStream replays client id's deterministic transaction sequence,
// calling fn once per op. The sequence is a pure function of (Config,
// id): the workload draws it inside Prog, and Check re-draws it to
// compute the expected final image.
func (c Config) opStream(id int, fn func(op, key int, isRead bool)) {
	rng := rand.New(rand.NewSource(c.Seed<<20 + int64(id)))
	var zipf *rand.Zipf
	if c.ZipfS > 1 {
		zipf = rand.NewZipf(rng, c.ZipfS, 1, uint64(c.Keys-1))
	}
	for op := 1; op <= c.Ops; op++ {
		var k int
		if zipf != nil {
			k = int(zipf.Uint64())
		} else {
			k = rng.Intn(c.Keys)
		}
		fn(op, k, rng.Intn(100) < c.ReadPct)
	}
}

// Prog returns the per-node client program for core.Run / RunWithChurn.
// Panics inside the returned program indicate coherence violations (a
// client observed a torn or stale committed value under its lock) and
// fail the run loudly.
func Prog(cfg Config) core.Program {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return func(p *core.Proc) {
		p.Barrier(0)
		b := 1
		var writes int64
		val := make([]byte, cfg.ValueSize)
		cfg.opStream(p.ID(), func(op, k int, isRead bool) {
			t0 := p.Now()
			// Every op runs under a deterministic trace context: the id is
			// a pure function of (seed, node, op index), so same-seed runs
			// mint identical ids on any backend, and the context rides every
			// protocol message of the op (lock, fetch, flush) to form one
			// cross-node span tree.
			tag, hist := obsv.TagKVWrite, obsv.HistKVWrite
			if isRead {
				tag, hist = obsv.TagKVRead, obsv.HistKVRead
			}
			tc := obsv.TraceCtx{TraceID: obsv.NewTraceID(cfg.Seed, p.ID(), int64(op)), Tag: tag}
			tc.SpanID = obsv.RootSpanID(tc.TraceID)
			p.BeginOp(tc)
			p.AcquireLock(k)
			if isRead {
				v := p.ReadI64(cfg.verAddr(k))
				w := p.ReadI64(cfg.wsumAddr(k))
				p.ReadBytes(cfg.valAddr(k), val)
				p.ReleaseLock(k)
				if v < 0 || (v == 0) != (w == 0) {
					panic(fmt.Sprintf("kv: client %d read key %d: version %d, writer checksum %d", p.ID(), k, v, w))
				}
				for j := range val {
					if val[j] != valByte(k, v, j) {
						panic(fmt.Sprintf("kv: client %d read key %d version %d: torn value at byte %d", p.ID(), k, v, j))
					}
				}
			} else {
				v := p.ReadI64(cfg.verAddr(k)) + 1
				p.WriteI64(cfg.verAddr(k), v)
				p.WriteI64(cfg.wsumAddr(k), p.ReadI64(cfg.wsumAddr(k))+writerTag(p.ID()))
				fillVal(val, k, v)
				p.WriteBytes(cfg.valAddr(k), val)
				writes++
				p.WriteI64(cfg.counterAddr(p.ID()), writes)
				p.ReleaseLock(k)
			}
			lat := int64(p.Now() - t0)
			p.Observe(hist, lat)
			p.EndOp(t0, int64(k), int64(op))
			if cfg.OnOp != nil {
				cfg.OnOp(OpRecord{
					Node: p.ID(), Trace: tc, Write: !isRead, Key: k, Seq: op,
					Start: t0, Latency: simtime.Duration(lat),
				})
			}
			if cfg.BarrierEvery > 0 && op%cfg.BarrierEvery == 0 {
				p.Barrier(b)
				b++
			}
		})
		p.Barrier(b)
	}
}

// Check audits a final memory image against the workload's expected
// final state, recomputed exactly by replaying every client's op stream:
// per-key versions (write counts), writer checksums, payload patterns
// and per-client committed-write counters must all match. Any lost,
// duplicated or phantom committed write — including across crash
// recovery and across wire backends — shows up as a divergence.
func Check(cfg Config, n int, img []byte) error {
	cfg = cfg.withDefaults()
	if len(img) < cfg.MemBytes(n) {
		return fmt.Errorf("kv: image is %d bytes, workload needs %d", len(img), cfg.MemBytes(n))
	}
	expVer := make([]int64, cfg.Keys)
	expWsum := make([]int64, cfg.Keys)
	expCnt := make([]int64, n)
	for id := 0; id < n; id++ {
		cfg.opStream(id, func(_, k int, isRead bool) {
			if !isRead {
				expVer[k]++
				expWsum[k] += writerTag(id)
				expCnt[id]++
			}
		})
	}
	readI64 := func(addr int) int64 {
		var v int64
		for i := 0; i < 8; i++ {
			v |= int64(img[addr+i]) << (8 * i)
		}
		return v
	}
	for k := 0; k < cfg.Keys; k++ {
		if v := readI64(cfg.verAddr(k)); v != expVer[k] {
			return fmt.Errorf("kv: key %d has version %d, expected %d committed writes", k, v, expVer[k])
		}
		if w := readI64(cfg.wsumAddr(k)); w != expWsum[k] {
			return fmt.Errorf("kv: key %d has writer checksum %d, expected %d", k, w, expWsum[k])
		}
		for j := 0; j < cfg.ValueSize; j++ {
			if got, want := img[cfg.valAddr(k)+j], valByte(k, expVer[k], j); got != want {
				return fmt.Errorf("kv: key %d version %d: payload byte %d is %#x, want %#x", k, expVer[k], j, got, want)
			}
		}
	}
	for c := 0; c < n; c++ {
		if w := readI64(cfg.counterAddr(c)); w != expCnt[c] {
			return fmt.Errorf("kv: client %d committed-write counter is %d, expected %d", c, w, expCnt[c])
		}
	}
	return nil
}
