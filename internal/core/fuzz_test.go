package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"sdsm/internal/recovery"
	"sdsm/internal/wal"
)

// Randomized data-race-free program generator. The shared space is split
// into small regions (a quarter page each, so several regions share a
// page and the multiple-writer path is exercised constantly). In each
// phase, region r is written only by node (r+phase) mod N with values
// that are a pure function of (phase, region, cell); after the barrier,
// every node reads random regions and checks the previous phase's
// values. A lock-guarded counter region adds lock traffic. Everything is
// self-checking and the final image is deterministic, so the same seed
// must produce identical images under every protocol and after
// crash-recovery.

const (
	fuzzPageSize = 512
	fuzzPages    = 16
	fuzzRegion   = fuzzPageSize / 4
	fuzzRegions  = fuzzPages * 4
	counterAddr  = (fuzzPages - 1) * fuzzPageSize // last page holds counters
	dataRegions  = fuzzRegions - 4                // keep the counter page out
)

func fuzzVal(phase, region, cell int) int64 {
	h := uint64(phase)*1_000_003 + uint64(region)*10_007 + uint64(cell)*101 + 12345
	h ^= h >> 13
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	return int64(h & 0x7fffffffffff)
}

func fuzzProgram(seed int64, phases int) Program {
	return func(p *Proc) {
		rng := rand.New(rand.NewSource(seed + int64(p.ID())*7919))
		b := 0
		for phase := 1; phase <= phases; phase++ {
			// Write the regions this node owns in this phase.
			for r := 0; r < dataRegions; r++ {
				if (r+phase)%p.N() != p.ID() {
					continue
				}
				base := r * fuzzRegion
				for c := 0; c < fuzzRegion/8; c++ {
					p.WriteI64(base+8*c, fuzzVal(phase, r, c))
				}
			}
			// Lock-guarded counter bump (one of four counters).
			ctr := phase % 4
			p.AcquireLock(100 + ctr)
			p.WriteI64(counterAddr+8*ctr, p.ReadI64(counterAddr+8*ctr)+int64(p.ID()+1))
			p.ReleaseLock(100 + ctr)

			p.Compute(20_000)
			p.Barrier(b)
			b++

			// Read and verify random regions from this phase.
			for k := 0; k < 8; k++ {
				r := rng.Intn(dataRegions)
				c := rng.Intn(fuzzRegion / 8)
				got := p.ReadI64(r*fuzzRegion + 8*c)
				want := fuzzVal(phase, r, c)
				if got != want {
					panic(fmt.Sprintf("node %d phase %d region %d cell %d: got %d want %d",
						p.ID(), phase, r, c, got, want))
				}
			}
			p.Barrier(b)
			b++
		}
	}
}

func fuzzCfg(proto wal.Protocol) Config {
	return Config{Nodes: 4, PageSize: fuzzPageSize, NumPages: fuzzPages, Protocol: proto}
}

// checkFuzzImage validates the final image: every region holds the last
// phase's values and the counters sum all contributions.
func checkFuzzImage(t *testing.T, img []byte, phases int) {
	t.Helper()
	for r := 0; r < dataRegions; r++ {
		for c := 0; c < fuzzRegion/8; c++ {
			off := r*fuzzRegion + 8*c
			var got int64
			for i := 0; i < 8; i++ {
				got |= int64(img[off+i]) << (8 * i)
			}
			if got != fuzzVal(phases, r, c) {
				t.Fatalf("final image region %d cell %d: got %d want %d", r, c, got, fuzzVal(phases, r, c))
			}
		}
	}
	// Counter ctr accumulates (1+2+3+4) once per phase with phase%4==ctr.
	for ctr := 0; ctr < 4; ctr++ {
		uses := 0
		for phase := 1; phase <= phases; phase++ {
			if phase%4 == ctr {
				uses++
			}
		}
		var got int64
		for i := 0; i < 8; i++ {
			got |= int64(img[counterAddr+8*ctr+i]) << (8 * i)
		}
		if got != int64(uses*10) {
			t.Fatalf("counter %d = %d, want %d", ctr, got, uses*10)
		}
	}
}

func TestFuzzProtocolsAgree(t *testing.T) {
	const phases = 8
	for seed := int64(1); seed <= 5; seed++ {
		prog := fuzzProgram(seed, phases)
		var golden []byte
		for _, proto := range []wal.Protocol{wal.ProtocolNone, wal.ProtocolML, wal.ProtocolCCL} {
			rep, err := Run(fuzzCfg(proto), prog)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, proto, err)
			}
			checkFuzzImage(t, rep.MemoryImage(), phases)
			if golden == nil {
				golden = rep.MemoryImage()
			} else if !bytes.Equal(golden, rep.MemoryImage()) {
				t.Fatalf("seed %d %v: image differs", seed, proto)
			}
			if proto != wal.ProtocolNone {
				auditDepot(t, rep, false)
			}
		}
	}
}

func TestFuzzCrashRecoveryAgrees(t *testing.T) {
	const phases = 8
	for seed := int64(1); seed <= 4; seed++ {
		prog := fuzzProgram(seed, phases)
		for _, tc := range []struct {
			proto wal.Protocol
			kind  recovery.Kind
		}{
			{wal.ProtocolCCL, recovery.CCLRecovery},
			{wal.ProtocolML, recovery.MLRecovery},
		} {
			golden, err := Run(fuzzCfg(tc.proto), prog)
			if err != nil {
				t.Fatal(err)
			}
			// Crash at a pseudo-random late op per seed.
			atOp := int32(10 + seed*3)
			rep, err := RunWithCrash(fuzzCfg(tc.proto), prog, CrashPlan{
				Victim: 1 + int(seed)%3, AtOp: atOp, Recovery: tc.kind,
			})
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, tc.kind, err)
			}
			checkFuzzImage(t, rep.MemoryImage(), phases)
			if !bytes.Equal(golden.MemoryImage(), rep.MemoryImage()) {
				t.Fatalf("seed %d %v: post-recovery image differs", seed, tc.kind)
			}
		}
	}
}
