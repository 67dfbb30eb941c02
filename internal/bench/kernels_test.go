package bench

import (
	"hash/crc32"
	"testing"

	"sdsm/internal/core"
	"sdsm/internal/simtime"
	"sdsm/internal/wal"
)

// A kernel's simulated program — every shared access with its address and
// length, every Compute charge, every barrier — and the bits it computes
// are fixed; how its Go arithmetic gets there is not. Any rewrite of a
// kernel's host arithmetic must reproduce these values, measured at
// 7ab6a45. The three kernels are barrier-only, so under protocol None the
// virtual timeline repeats exactly (under -race too).
func TestKernelOutputsPinned(t *testing.T) {
	type pin struct {
		crc      uint32
		exec     simtime.Time
		msgs     int64
		netBytes int64
	}
	for _, tc := range []struct {
		scale Scale
		pins  map[string]pin
	}{
		{ScaleSmall, map[string]pin{
			"3D-FFT":  {0x38a8a44f, 92085760, 762, 1048454},
			"MG":      {0xa2601618, 150838997, 1144, 1211240},
			"Shallow": {0xf024a915, 152646295, 1182, 1654024},
		}},
		{ScaleMedium, map[string]pin{
			"3D-FFT":  {0x92311ef4, 1432499840, 9502, 19281064},
			"MG":      {0x6f8b3a6a, 2904979593, 9588, 16268108},
			"Shallow": {0x545da6cd, 1314512840, 3026, 5010786},
		}},
	} {
		for _, w := range Workloads(8, tc.scale) {
			want, ok := tc.pins[w.Name]
			if !ok {
				continue // Water: lock-ordered, not bit-reproducible
			}
			cfg := w.BaseConfig(8)
			cfg.Protocol = wal.ProtocolNone
			rep, err := core.Run(cfg, w.Prog)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if err := w.Check(rep.MemoryImage()); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			got := pin{crc32.ChecksumIEEE(rep.MemoryImage()), rep.ExecTime, rep.NetMsgs, rep.NetBytes}
			if got != want {
				t.Errorf("scale %d %s: got image crc %#x exec %d msgs %d bytes %d, want %#x %d %d %d",
					tc.scale, w.Name, got.crc, got.exec, got.msgs, got.netBytes,
					want.crc, want.exec, want.msgs, want.netBytes)
			}
		}
	}
}
