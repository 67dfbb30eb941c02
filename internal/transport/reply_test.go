package transport

import (
	"testing"
	"time"

	"sdsm/internal/simtime"
)

// replyWithin runs ReplyAt on its own goroutine and fails the test if it
// has not returned within a generous real-time bound: a reply must never
// wait for its requester.
func replyWithin(t *testing.T, ep *Endpoint, m Message, payload string) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		ep.ReplyAt(ep.ArrivalOf(m), m, m.Kind, 8, payload)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("ReplyAt blocked on a reply to request %d", m.ReqID)
	}
}

// TestStaleGenerationReplyDropped: a reply carrying the key of a call
// that is over reaches its slot after the slot has been re-armed for a
// new call. It is dropped, does not block ReplyAt, and never reaches the
// new call, which gets its own reply. A second wait on the released
// handle of the first call panics naming the slot and generation.
func TestStaleGenerationReplyDropped(t *testing.T) {
	_, a, b := pairs(t)

	first := a.CallAsync(1, Kind(1), 8, "first")
	req1 := <-b.Inbox()
	slot, gen := first.slot, first.gen
	replyWithin(t, b, req1, "first")
	if m := first.Wait(a.Clock()); m.Payload != "first" {
		t.Fatalf("first call answered %v", m.Payload)
	}
	// Given back and still idle: a late reply and a second wait both find
	// the generation closed.
	replyWithin(t, b, req1, "stale")
	mustPanic(t, "released reply slot", func() { first.Wait(a.Clock()) })

	second := a.CallAsync(1, Kind(1), 8, "second")
	if second.slot != slot || second.gen != gen+1 {
		t.Fatalf("second call took slot %d generation %d, want the first call's slot %d at generation %d",
			second.slot.idx, second.gen, slot.idx, gen+1)
	}
	req2 := <-b.Inbox()
	replyWithin(t, b, req1, "stale") // re-armed: the old generation's key
	if r := (Message{From: 1, To: 0, Payload: "stale"}); a.nw.DeliverReply(req1.replyKey, r) {
		t.Fatal("a reply keyed to the closed generation was delivered")
	}
	replyWithin(t, b, req2, "second")
	replyWithin(t, b, req2, "doubled") // the generation's second reply
	if m := second.Wait(a.Clock()); m.Payload != "second" {
		t.Fatalf("re-armed call answered %v", m.Payload)
	}
	if n := len(slot.ch); n != 0 {
		t.Fatalf("released slot holds %d replies", n)
	}
}

// TestWaitRedirectWakesOnCrash: a WaitRedirect parked on a peer that is
// alive but silent returns ok=false, without charging the caller's
// clock, as soon as another goroutine marks the peer crashed, and the
// call's slot is given back for the next call.
func TestWaitRedirectWakesOnCrash(t *testing.T) {
	_, a, b := pairs(t)
	p := a.CallAsync(1, Kind(9), 64, "unanswered")
	slot := p.slot
	type result struct {
		ok  bool
		now simtime.Time
	}
	got := make(chan result, 1)
	go func() {
		_, ok := p.WaitRedirect(a.Clock())
		got <- result{ok, a.Clock().Now()}
	}()
	// The wait parks (on its slot and the crash signal) well within this;
	// the test holds if it has not yet, through the check before the park.
	time.Sleep(10 * time.Millisecond)
	crashedAt := time.Now()
	go b.MarkCrashed(b.Clock().Now())
	select {
	case r := <-got:
		if r.ok {
			t.Fatal("wait on a crashed peer did not fail over")
		}
		if r.now != 0 {
			t.Fatalf("failed-over wait charged the clock to %v", r.now)
		}
		if d := time.Since(crashedAt); d > time.Second {
			t.Errorf("failover took %v after the crash mark", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitRedirect still parked 5 s after the peer was marked crashed")
	}
	if next := a.CallAsync(0, Kind(9), 8, nil); next.slot != slot {
		t.Errorf("the abandoned call's slot %d was not given back (next call took %d)", slot.idx, next.slot.idx)
	}
}
