package fault

import "testing"

func TestZeroPlanInjectsNothing(t *testing.T) {
	var p Plan
	if p.Enabled() {
		t.Fatal("zero plan reports enabled")
	}
	for seq := int64(0); seq < 1000; seq++ {
		if p.DropCopy(0, 1, seq) || p.DuplicateCopy(0, 1, seq) || p.DropReply(0, 1, seq) {
			t.Fatalf("zero plan injected a fault at seq %d", seq)
		}
		if p.DelayCopy(0, 1, seq) != 0 || p.DelayReply(0, 1, seq) != 0 {
			t.Fatalf("zero plan injected a delay at seq %d", seq)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := Plan{Seed: 7, DropProb: 0.3, DupProb: 0.3, DelayProb: 0.3}
	b := Plan{Seed: 7, DropProb: 0.3, DupProb: 0.3, DelayProb: 0.3}
	for seq := int64(0); seq < 500; seq++ {
		if a.DropCopy(1, 2, seq) != b.DropCopy(1, 2, seq) ||
			a.DuplicateCopy(1, 2, seq) != b.DuplicateCopy(1, 2, seq) ||
			a.DelayCopy(1, 2, seq) != b.DelayCopy(1, 2, seq) ||
			a.DropReply(1, 2, seq) != b.DropReply(1, 2, seq) {
			t.Fatalf("same seed diverged at seq %d", seq)
		}
	}
	if a.TearRoll(1, 0) != b.TearRoll(1, 0) {
		t.Fatal("tear roll diverged")
	}
}

func TestSeedsAndLinksDiffer(t *testing.T) {
	a := Plan{Seed: 1, DropProb: 0.5}
	b := Plan{Seed: 2, DropProb: 0.5}
	sameSeed, sameLink := 0, 0
	const n = 2000
	for seq := int64(0); seq < n; seq++ {
		if a.DropCopy(0, 1, seq) == b.DropCopy(0, 1, seq) {
			sameSeed++
		}
		if a.DropCopy(0, 1, seq) == a.DropCopy(0, 2, seq) {
			sameLink++
		}
	}
	// Independent coins agree about half the time; identical streams
	// would agree always.
	if sameSeed > n*3/4 || sameLink > n*3/4 {
		t.Fatalf("streams look correlated: seed-agree %d/%d link-agree %d/%d", sameSeed, n, sameLink, n)
	}
}

func TestDropRateTracksProbability(t *testing.T) {
	p := Plan{Seed: 3, DropProb: 0.1}
	drops := 0
	const n = 20000
	for seq := int64(0); seq < n; seq++ {
		if p.DropCopy(0, 1, seq) {
			drops++
		}
	}
	got := float64(drops) / n
	if got < 0.07 || got > 0.13 {
		t.Fatalf("drop rate %v far from 0.1", got)
	}
}

func TestRTOBacksOffAndCaps(t *testing.T) {
	if RTO(1) != DefaultRetryTimeout {
		t.Fatalf("RTO(1) = %v", RTO(1))
	}
	if RTO(3) != 4*DefaultRetryTimeout {
		t.Fatalf("RTO(3) = %v", RTO(3))
	}
	if RTO(50) != 64*DefaultRetryTimeout {
		t.Fatalf("RTO(50) = %v, want capped at 64 × DefaultRetryTimeout", RTO(50))
	}
}

func TestValidate(t *testing.T) {
	if err := (Plan{DropProb: 0.5}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Plan{
		{DropProb: -0.1}, {DupProb: 1.5}, {DelayProb: 2},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("plan %+v accepted", bad)
		}
	}
}
