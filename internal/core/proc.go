package core

import (
	"sdsm/internal/hlrc"
	"sdsm/internal/obsv"
	"sdsm/internal/simtime"
)

// Program is the SPMD application body: it runs once per node, like the
// per-process main of a TreadMarks application.
type Program func(p *Proc)

// Proc is a process's handle on the shared-memory system: typed access to
// the coherent global address space, synchronization, and virtual-compute
// accounting. All addresses are byte offsets into the shared space.
type Proc struct {
	nd *hlrc.Node
}

// ID returns this process's rank (0-based).
func (p *Proc) ID() int { return p.nd.ID() }

// N returns the number of processes.
func (p *Proc) N() int { return p.nd.N() }

// PageSize returns the coherence unit in bytes.
func (p *Proc) PageSize() int { return p.nd.PageTable().PageSize() }

// MemBytes returns the size of the shared address space.
func (p *Proc) MemBytes() int { return p.nd.PageTable().Bytes() }

// AcquireLock acquires the global lock with the given id.
func (p *Proc) AcquireLock(lock int) { p.nd.AcquireLock(lock) }

// ReleaseLock releases the lock.
func (p *Proc) ReleaseLock(lock int) { p.nd.ReleaseLock(lock) }

// Barrier joins the global barrier with the given id. All processes must
// reach it.
func (p *Proc) Barrier(barrier int) { p.nd.Barrier(barrier) }

// Compute charges the process's virtual clock for local computation,
// expressed in floating-point operations.
func (p *Proc) Compute(flops float64) { p.nd.Compute(flops) }

// Now returns the process's current virtual time.
func (p *Proc) Now() simtime.Time { return p.nd.Clock().Now() }

// ReadF64 reads the float64 at byte address addr.
func (p *Proc) ReadF64(addr int) float64 { return p.nd.ReadF64(addr) }

// WriteF64 writes the float64 at byte address addr.
func (p *Proc) WriteF64(addr int, v float64) { p.nd.WriteF64(addr, v) }

// ReadI64 reads the int64 at byte address addr.
func (p *Proc) ReadI64(addr int) int64 { return p.nd.ReadI64(addr) }

// WriteI64 writes the int64 at byte address addr.
func (p *Proc) WriteI64(addr int, v int64) { p.nd.WriteI64(addr, v) }

// ReadBytes copies shared memory [addr, addr+len(dst)) into dst.
func (p *Proc) ReadBytes(addr int, dst []byte) { p.nd.ReadAt(addr, dst) }

// WriteBytes copies src into shared memory at addr.
func (p *Proc) WriteBytes(addr int, src []byte) { p.nd.WriteAt(addr, src) }

// ReadF64s bulk-reads len(dst) float64s starting at byte address addr.
// One bulk transfer faults each covered page at most once, like a real
// SDSM touching a range.
func (p *Proc) ReadF64s(addr int, dst []float64) { p.nd.ReadF64s(addr, dst) }

// WriteF64s bulk-writes src starting at byte address addr.
func (p *Proc) WriteF64s(addr int, src []float64) { p.nd.WriteF64s(addr, src) }

// Observe records one value in this node's histogram registry (a no-op
// when tracing is disabled). Workloads use it to report application-level
// latencies — e.g. the kv workload's per-op virtual latencies — through
// the same obsv.Collector the protocol metrics flow through.
func (p *Proc) Observe(id obsv.HistID, v int64) { p.nd.Tracer().Observe(id, v) }

// BeginOp opens a traced application-level operation: tc is stamped into
// every event this process records and piggybacked on every protocol
// message it sends until EndOp. Workloads mint tc deterministically
// (obsv.NewTraceID over seed, node and op sequence) so same-seed runs
// carry identical trace ids. A no-op when tracing is disabled.
func (p *Proc) BeginOp(tc obsv.TraceCtx) { p.nd.Tracer().SetTrace(tc) }

// EndOp closes the operation opened by BeginOp: it emits the op's root
// span (obsv.EvOp) covering [t0, now] with the op's key and sequence
// number as args, then clears the trace context.
func (p *Proc) EndOp(t0 simtime.Time, key, seq int64) {
	trc := p.nd.Tracer()
	trc.Span(obsv.EvOp, t0, p.nd.Clock().Now(), key, seq)
	trc.SetTrace(obsv.TraceCtx{})
}

// F64 is a convenience for indexed access: the float64 at element i of an
// array based at byte address base.
func (p *Proc) F64(base, i int) float64 { return p.ReadF64(base + 8*i) }

// SetF64 stores v at element i of an array based at byte address base.
func (p *Proc) SetF64(base, i int, v float64) { p.WriteF64(base+8*i, v) }
