// Package simtime provides virtual-time accounting for the simulated
// SDSM cluster.
//
// The reproduction runs on a single machine, so wall-clock time tells us
// nothing about the behaviour of the 1999 cluster the paper measured.
// Instead every simulated node owns a monotone virtual Clock, and the
// protocol layers charge it according to a calibrated CostModel: network
// latency and transfer time, disk seek and transfer time, page-fault
// handling, twin creation, and application compute. Message receipt uses a
// Lamport-style merge (receiver time = max(receiver, sender+delay)) so
// causality is preserved: nothing is ever received before it was sent.
package simtime

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of the run.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = time.Duration

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the timestamp with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fms", float64(t)/1e6) }

// Clock is a monotone virtual clock owned by one simulated node.
// It is safe for concurrent use by the node's application and protocol
// service goroutines.
type Clock struct {
	mu  sync.Mutex
	now Time
	// pub mirrors now for Now, which takes no lock: the manager reads
	// every node's clock each time it computes its horizon.
	pub atomic.Int64

	// Threshold watches (see NotifyPast). watchAt is the lowest threshold
	// any watch waits for, noWatch when there is none, so a clock nobody
	// watches pays one compare per mutation.
	watchAt Time
	watches []watch
}

// watch is one NotifyPast registration.
type watch struct {
	past Time
	ch   chan<- struct{}
}

const noWatch = Time(math.MaxInt64)

// NewClock returns a clock set to the given start time.
func NewClock(start Time) *Clock {
	c := &Clock{now: start, watchAt: noWatch}
	c.pub.Store(int64(start))
	return c
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return Time(c.pub.Load()) }

// NotifyPast arranges for one non-blocking send on ch as soon as the
// clock reads later than t — the "wait until a peer's clock passes T"
// primitive of the arrival fence. It reports false, registering nothing,
// if the clock already does. ch should have capacity one: the send never
// blocks the goroutine advancing the clock, and a full buffer already
// holds the wake-up. A watch fires at most once; StopNotify removes one
// that has not.
func (c *Clock) NotifyPast(t Time, ch chan<- struct{}) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.now > t {
		return false
	}
	c.watches = append(c.watches, watch{past: t, ch: ch})
	if t < c.watchAt {
		c.watchAt = t
	}
	return true
}

// StopNotify removes every watch registered for ch that has not fired.
func (c *Clock) StopNotify(ch chan<- struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweep(func(w watch) bool { return w.ch != ch })
}

// moved runs after every mutation, with c.mu held: it publishes the new
// time, and the one compare is all an unwatched clock pays.
func (c *Clock) moved() {
	c.pub.Store(int64(c.now))
	if c.now > c.watchAt {
		c.sweep(func(w watch) bool {
			if c.now <= w.past {
				return true
			}
			select {
			case w.ch <- struct{}{}:
			default:
			}
			return false
		})
	}
}

// sweep keeps the watches keep accepts and recomputes watchAt.
func (c *Clock) sweep(keep func(watch) bool) {
	kept := c.watches[:0]
	c.watchAt = noWatch
	for _, w := range c.watches {
		if !keep(w) {
			continue
		}
		kept = append(kept, w)
		if w.past < c.watchAt {
			c.watchAt = w.past
		}
	}
	clear(c.watches[len(kept):])
	c.watches = kept
}

// Advance moves the clock forward by d (clamped to be non-negative) and
// returns the new time.
func (c *Clock) Advance(d Duration) Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.now += Time(d)
		c.moved()
	}
	return c.now
}

// AdvanceSpan is Advance returning the (before, after) pair under one
// lock acquisition — the instrumentation-friendly form used to record a
// trace segment for the charge just applied.
func (c *Clock) AdvanceSpan(d Duration) (Time, Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t0 := c.now
	if d > 0 {
		c.now += Time(d)
		c.moved()
	}
	return t0, c.now
}

// MergePlus applies the Lamport receive rule: the clock becomes
// max(now, t+d). It returns the new time.
func (c *Clock) MergePlus(t Time, d Duration) Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if nt := t + Time(d); nt > c.now {
		c.now = nt
		c.moved()
	}
	return c.now
}

// MergePlusSpan is MergePlus returning the (before, after) pair under
// one lock acquisition, for recording the wait as a trace segment.
func (c *Clock) MergePlusSpan(t Time, d Duration) (Time, Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t0 := c.now
	if nt := t + Time(d); nt > c.now {
		c.now = nt
		c.moved()
	}
	return t0, c.now
}

// AdvanceTo moves the clock to t if t is later than now, and returns the
// new time.
func (c *Clock) AdvanceTo(t Time) Time { return c.MergePlus(t, 0) }

// Set forcibly sets the clock. It is used when a recovering node restarts
// with a fresh replay clock.
func (c *Clock) Set(t Time) {
	c.mu.Lock()
	c.now = t
	c.moved()
	c.mu.Unlock()
}

// CostModel holds the calibrated costs of the simulated platform. The
// defaults approximate the paper's testbed: Sun Ultra-5 workstations
// (270 MHz UltraSPARC-IIi) on 100 Mbps switched Ethernet with a local disk
// for logs.
type CostModel struct {
	// NetLatency is the one-way message latency (wire + software).
	NetLatency Duration
	// NetBandwidth is the network bandwidth in bytes per second.
	NetBandwidth float64
	// MsgHandling is the CPU cost charged at the receiver to process one
	// protocol message.
	MsgHandling Duration
	// DiskSeek is the fixed latency of one stable-storage flush or read.
	DiskSeek Duration
	// DiskBandwidth is the stable-storage bandwidth in bytes per second.
	DiskBandwidth float64
	// FaultCost is the cost of taking one (software) page fault.
	FaultCost Duration
	// MemBandwidth is the memory-copy bandwidth in bytes per second,
	// used for twin creation and diff application.
	MemBandwidth float64
	// FlopTime is the virtual cost of one floating-point operation,
	// used by applications to charge compute time.
	FlopTime Duration
}

// DefaultCostModel returns the calibrated 1999-cluster model described in
// DESIGN.md. DiskSeek models the completion latency of a log append on a
// local disk with a write-behind cache (~1 ms), not a full mechanical
// seek: the logging protocols issue small sequential appends, and large
// flushes are bandwidth-bound through DiskBandwidth. FlopTime models the
// sustained rate of memory-bound scientific code on a 270 MHz
// UltraSPARC-IIi (~20 MFLOPS), not the peak issue rate.
func DefaultCostModel() CostModel {
	return CostModel{
		// One-way small-message latency of a 1999 UDP stack (interrupt,
		// kernel crossing, protocol code): a 4 KiB page fetch round trip
		// comes to ~2 ms, matching published TreadMarks measurements.
		NetLatency:    700 * time.Microsecond,
		NetBandwidth:  100e6 / 8, // 100 Mbps
		MsgHandling:   50 * time.Microsecond,
		DiskSeek:      time.Millisecond,
		DiskBandwidth: 10e6, // 10 MB/s
		FaultCost:     100 * time.Microsecond,
		MemBandwidth:  200e6, // 200 MB/s
		FlopTime:      50 * time.Nanosecond,
	}
}

// XferTime is the time to push n bytes through the network.
func (m CostModel) XferTime(n int) Duration {
	if n <= 0 || m.NetBandwidth <= 0 {
		return 0
	}
	return Duration(float64(n) / m.NetBandwidth * 1e9)
}

// MsgTime is the full one-way cost of a message of n bytes:
// latency plus transfer time.
func (m CostModel) MsgTime(n int) Duration { return m.NetLatency + m.XferTime(n) }

// RoundTrip is the cost of a request of reqBytes answered by a reply of
// respBytes, including the remote handling cost.
func (m CostModel) RoundTrip(reqBytes, respBytes int) Duration {
	return m.MsgTime(reqBytes) + m.MsgHandling + m.MsgTime(respBytes)
}

// DiskTime is the time of one stable-storage operation moving n bytes.
func (m CostModel) DiskTime(n int) Duration {
	if n < 0 {
		n = 0
	}
	d := m.DiskSeek
	if m.DiskBandwidth > 0 {
		d += Duration(float64(n) / m.DiskBandwidth * 1e9)
	}
	return d
}

// CopyTime is the time to copy n bytes in memory (twin creation, diff
// application).
func (m CostModel) CopyTime(n int) Duration {
	if n <= 0 || m.MemBandwidth <= 0 {
		return 0
	}
	return Duration(float64(n) / m.MemBandwidth * 1e9)
}

// FlopsTime is the time to execute n floating-point operations.
func (m CostModel) FlopsTime(n float64) Duration {
	if n <= 0 {
		return 0
	}
	return Duration(n * float64(m.FlopTime))
}
