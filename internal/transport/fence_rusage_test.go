//go:build unix

package transport

import (
	"syscall"
	"testing"
	"time"
)

// cpuTime is the process's user + system CPU time so far.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestFenceParksWithoutSpinning holds a fence waiting for 50 ms of wall
// time: a parked fence costs the process next to no CPU, where a polling
// one burns a whole core (50 ms of it).
func TestFenceParksWithoutSpinning(t *testing.T) {
	r := newFenceRig(t, 3, 1)
	r.run(0, 1, 2)
	done := r.fence()
	r.blocked(done, "with a peer's clock at zero") // past the yield phase
	cpu0, wall0 := cpuTime(t), time.Now()
	time.Sleep(50 * time.Millisecond)
	cpu, wall := cpuTime(t)-cpu0, time.Since(wall0)
	r.blocked(done, "while being measured")
	if cpu > 5*time.Millisecond {
		t.Errorf("a fence waiting %v of wall time cost %v of CPU time, want < 5ms", wall, cpu)
	}
	r.eps[1].Clock().AdvanceTo(fenceCutoff)
	r.released(done, "the peer's clock passing cutoff - transit")
}
