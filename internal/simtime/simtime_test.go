package simtime

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestClockMonotone(t *testing.T) {
	c := NewClock(0)
	if c.Now() != 0 {
		t.Fatalf("fresh clock = %v, want 0", c.Now())
	}
	c.Advance(5 * time.Millisecond)
	if got := c.Now(); got != Time(5*time.Millisecond) {
		t.Fatalf("after advance: %v", got)
	}
	// Negative advances are clamped.
	c.Advance(-time.Second)
	if got := c.Now(); got != Time(5*time.Millisecond) {
		t.Fatalf("negative advance moved clock: %v", got)
	}
}

func TestClockMergePlus(t *testing.T) {
	c := NewClock(Time(100))
	// Merge with an earlier timestamp is a no-op.
	if got := c.MergePlus(Time(10), 20); got != Time(100) {
		t.Fatalf("merge with past moved clock to %v", got)
	}
	// Merge with a later timestamp advances.
	if got := c.MergePlus(Time(200), 50); got != Time(250) {
		t.Fatalf("merge with future: got %v want 250", got)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock(Time(100))
	c.AdvanceTo(Time(50))
	if c.Now() != Time(100) {
		t.Fatalf("AdvanceTo moved clock backward: %v", c.Now())
	}
	c.AdvanceTo(Time(500))
	if c.Now() != Time(500) {
		t.Fatalf("AdvanceTo: %v", c.Now())
	}
}

func TestClockSet(t *testing.T) {
	c := NewClock(Time(100))
	c.Set(0)
	if c.Now() != 0 {
		t.Fatalf("Set(0): %v", c.Now())
	}
}

func TestClockConcurrent(t *testing.T) {
	c := NewClock(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(1)
				c.MergePlus(c.Now(), 1)
			}
		}()
	}
	wg.Wait()
	if c.Now() < Time(8000) {
		t.Fatalf("lost advances: %v", c.Now())
	}
}

func TestClockMergeMonotoneProperty(t *testing.T) {
	// Property: MergePlus never decreases the clock.
	f := func(start int64, ts []int64) bool {
		c := NewClock(Time(abs64(start) % 1e12))
		prev := c.Now()
		for _, raw := range ts {
			now := c.MergePlus(Time(abs64(raw)%1e12), Duration(abs64(raw)%1e6))
			if now < prev {
				return false
			}
			prev = now
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		if v == -1<<63 {
			return 1<<63 - 1
		}
		return -v
	}
	return v
}

func TestCostModelXfer(t *testing.T) {
	m := DefaultCostModel()
	// 100 Mbps = 12.5 MB/s; 12500 bytes take 1 ms.
	if got := m.XferTime(12500); got != time.Millisecond {
		t.Fatalf("XferTime(12500) = %v, want 1ms", got)
	}
	if m.XferTime(0) != 0 || m.XferTime(-5) != 0 {
		t.Fatal("XferTime of non-positive sizes must be 0")
	}
	if got := m.MsgTime(0); got != m.NetLatency {
		t.Fatalf("MsgTime(0) = %v, want latency %v", got, m.NetLatency)
	}
}

func TestCostModelDisk(t *testing.T) {
	m := DefaultCostModel()
	// 10 MB/s: 10e6 bytes take 1 s plus the seek.
	want := m.DiskSeek + time.Second
	if got := m.DiskTime(10_000_000); got != want {
		t.Fatalf("DiskTime = %v, want %v", got, want)
	}
	if got := m.DiskTime(-1); got != m.DiskSeek {
		t.Fatalf("DiskTime(-1) = %v, want bare seek", got)
	}
}

func TestCostModelRoundTrip(t *testing.T) {
	m := DefaultCostModel()
	got := m.RoundTrip(100, 4096)
	want := m.MsgTime(100) + m.MsgHandling + m.MsgTime(4096)
	if got != want {
		t.Fatalf("RoundTrip = %v, want %v", got, want)
	}
}

func TestCostModelCopyAndFlops(t *testing.T) {
	m := DefaultCostModel()
	if m.CopyTime(0) != 0 {
		t.Fatal("CopyTime(0) != 0")
	}
	// 200 MB/s: 200e6 bytes take 1s.
	if got := m.CopyTime(200_000_000); got != time.Second {
		t.Fatalf("CopyTime = %v", got)
	}
	if got := m.FlopsTime(1e6); got != Duration(1e6*float64(m.FlopTime)) {
		t.Fatalf("FlopsTime = %v", got)
	}
	if m.FlopsTime(-3) != 0 {
		t.Fatal("FlopsTime negative != 0")
	}
}

func TestZeroBandwidthModels(t *testing.T) {
	var m CostModel // all zero: must not divide by zero
	if m.XferTime(100) != 0 || m.DiskTime(100) != 0 || m.CopyTime(100) != 0 {
		t.Fatal("zero-bandwidth model must charge nothing for transfer")
	}
}

func TestTimeFormatting(t *testing.T) {
	if Time(1_500_000).String() != "1.500ms" {
		t.Fatalf("String: %s", Time(1_500_000).String())
	}
	if Time(2e9).Seconds() != 2.0 {
		t.Fatalf("Seconds: %v", Time(2e9).Seconds())
	}
}

// woken reports whether a NotifyPast wake-up is waiting in ch.
func woken(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func TestNotifyPast(t *testing.T) {
	c := NewClock(Time(100))
	ch := make(chan struct{}, 1)
	if c.NotifyPast(Time(99), ch) {
		t.Fatal("registered a watch the clock is already past")
	}
	if !c.NotifyPast(Time(100), ch) {
		t.Fatal("a clock at t is not past t")
	}
	// Every way the clock moves checks the watch; only passing t fires it.
	c.Advance(0)
	c.MergePlus(Time(50), 50)
	if woken(ch) {
		t.Fatal("fired without the clock moving past the threshold")
	}
	c.Advance(1)
	if !woken(ch) {
		t.Fatal("did not fire when Advance moved the clock past the threshold")
	}
	c.Advance(10)
	if woken(ch) {
		t.Fatal("a watch fired twice")
	}

	for name, move := range map[string]func(){
		"AdvanceSpan":   func() { c.AdvanceSpan(1000) },
		"MergePlus":     func() { c.MergePlus(c.Now(), 1000) },
		"MergePlusSpan": func() { c.MergePlusSpan(c.Now(), 1000) },
		"AdvanceTo":     func() { c.AdvanceTo(c.Now() + 1000) },
		"Set":           func() { c.Set(c.Now() + 1000) },
	} {
		if !c.NotifyPast(c.Now()+500, ch) {
			t.Fatalf("%s: watch not registered", name)
		}
		move()
		if !woken(ch) {
			t.Errorf("%s past the threshold did not fire the watch", name)
		}
	}
}

func TestNotifyPastSeveralWatchers(t *testing.T) {
	c := NewClock(0)
	near, far, gone := make(chan struct{}, 1), make(chan struct{}, 1), make(chan struct{}, 1)
	c.NotifyPast(Time(10), near)
	c.NotifyPast(Time(100), far)
	c.NotifyPast(Time(10), gone)
	c.StopNotify(gone)
	c.Advance(50)
	if !woken(near) || woken(far) || woken(gone) {
		t.Fatal("at 50: want only the watch at 10 fired, and not the stopped one")
	}
	c.Advance(50) // exactly 100: not past it
	if woken(far) {
		t.Fatal("the watch at 100 fired at 100")
	}
	// A full channel already holds a wake-up; the send must not block the
	// goroutine advancing the clock.
	far <- struct{}{}
	c.Advance(1)
	if !woken(far) || woken(far) {
		t.Fatal("want exactly the one buffered wake-up")
	}
	// The zero Clock has no watches either.
	var z Clock
	z.Advance(5)
	if !z.NotifyPast(Time(5), near) {
		t.Fatal("zero-value clock refused a watch")
	}
	z.Advance(1)
	if !woken(near) {
		t.Fatal("zero-value clock did not fire its watch")
	}
}

// TestNotifyPastNoLostWakeup races registration against the advance that
// satisfies it: either NotifyPast reports the clock already past, or the
// wake-up arrives.
func TestNotifyPastNoLostWakeup(t *testing.T) {
	for i := 0; i < 2000; i++ {
		c := NewClock(0)
		ch := make(chan struct{}, 1)
		go c.Advance(10)
		if c.NotifyPast(Time(5), ch) {
			select {
			case <-ch:
			case <-time.After(5 * time.Second):
				t.Fatal("registered before the advance but never woken")
			}
		}
	}
}
