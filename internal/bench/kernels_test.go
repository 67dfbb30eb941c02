package bench

import (
	"fmt"
	"hash/crc32"
	"testing"

	"sdsm/internal/core"
	"sdsm/internal/hlrc"
	"sdsm/internal/recovery"
	"sdsm/internal/simtime"
	"sdsm/internal/wal"
)

// A kernel's simulated program — every shared access with its address and
// length, every Compute charge, every barrier — and the bits it computes
// are fixed; how its Go arithmetic and the host side of the access path
// get there are not. Any rewrite of either must reproduce these values,
// each of which repeated over 50 runs at 96ff23d (the None rows were first
// measured at 7ab6a45). The three kernels are barrier-only, so under None
// and CCL the virtual timeline repeats exactly (under -race too), and so
// do the Figure 5 crash cells under CCL-recovery: image, replay time and
// versioned page fetches repeated over 250 runs per cell and scale once
// the replay prefetched only the pages it uses.
//
// Left out because they drift between same-seed runs (ROADMAP item 1):
// every ML row (3D-FFT/ML exec_ns differs between passes, and
// 3D-FFT/ML-recovery took 3 values in 4 runs), and the exec_ns of the
// 3D-FFT and Shallow CCL-recovery cells (3D-FFT 46 in 250 off the mode
// at ScaleSmall, Shallow 4 in 250 at ScaleMedium; the parent of the
// prefetch change shows 3D-FFT's 7 in 50 too).
//
// A failing cell prints its got and want values as literals, so a
// deliberate model change re-pins by pasting the got lines.
func TestKernelOutputsPinned(t *testing.T) {
	for _, tc := range []struct {
		scale       Scale
		none, ccl   map[string]pin
		cclRecovery map[string]recoveryPin
	}{
		{ScaleSmall,
			map[string]pin{
				"3D-FFT":  pin{0x38a8a44f, 92006880, 762, 1040600, 0, 0},
				"MG":      pin{0xa2601618, 150724757, 1144, 1201992, 0, 0},
				"Shallow": pin{0xf024a915, 152504855, 1182, 1641648, 0, 0},
			},
			map[string]pin{
				"3D-FFT":  pin{0x38a8a44f, 97496899, 762, 1040600, 87803, 63},
				"MG":      pin{0xa2601618, 164916057, 1144, 1201992, 72503, 207},
				"Shallow": pin{0xf024a915, 156615255, 1182, 1641648, 143775, 132},
			},
			map[string]recoveryPin{
				"3D-FFT":  recoveryPin{0x38a8a44f, 0, 33035236, 58},
				"MG":      recoveryPin{0xa2601618, 165079897, 51190740, 54},
				"Shallow": recoveryPin{0xf024a915, 0, 30498280, 50},
			},
		},
		{ScaleMedium,
			map[string]pin{
				"3D-FFT":  pin{0x92311ef4, 1430965760, 9502, 19127792, 0, 0},
				"MG":      pin{0x6f8b3a6a, 2903652233, 9588, 16140472, 0, 0},
				"Shallow": pin{0x545da6cd, 1314156520, 3026, 4975528, 0, 0},
			},
			map[string]pin{
				"3D-FFT":  pin{0x92311ef4, 1448141500, 9502, 19127792, 618358, 132},
				"MG":      pin{0x6f8b3a6a, 2993010509, 9588, 16140472, 616285, 861},
				"Shallow": pin{0x545da6cd, 1355989320, 3026, 4975528, 612877, 373},
			},
			map[string]recoveryPin{
				"3D-FFT":  recoveryPin{0x92311ef4, 0, 430300920, 677},
				"MG":      recoveryPin{0x6f8b3a6a, 3004663629, 1727392419, 2018},
				"Shallow": recoveryPin{0x545da6cd, 0, 884945420, 1562},
			},
		},
	} {
		for _, w := range Workloads(8, tc.scale) {
			if _, ok := tc.none[w.Name]; !ok {
				continue // Water: lock-ordered, not bit-reproducible
			}
			var noneRep *core.Report
			for _, proto := range []wal.Protocol{wal.ProtocolNone, wal.ProtocolCCL} {
				want := tc.none[w.Name]
				if proto == wal.ProtocolCCL {
					want = tc.ccl[w.Name]
				}
				cfg := w.BaseConfig(8)
				cfg.Protocol = proto
				rep, err := core.Run(cfg, w.Prog)
				if err != nil {
					t.Fatalf("%s/%v: %v", w.Name, proto, err)
				}
				if err := w.Check(rep.MemoryImage()); err != nil {
					t.Fatalf("%s/%v: %v", w.Name, proto, err)
				}
				if proto == wal.ProtocolNone {
					noneRep = rep
				}
				got := pin{crc32.ChecksumIEEE(rep.MemoryImage()), rep.ExecTime, rep.NetMsgs, rep.NetBytes,
					rep.TotalLogBytes, rep.TotalFlushes}
				if got != want {
					t.Errorf("scale %d %s/%v:\n\tgot  %q: %v,\n\twant %q: %v,", tc.scale, w.Name, proto, w.Name, got, w.Name, want)
				}
			}
			// RunFigure5's crash cell: the last node fails at 85% of its ops.
			cfg := w.BaseConfig(8)
			cfg.Protocol = wal.ProtocolCCL
			rep, err := core.RunWithCrash(cfg, w.Prog, core.CrashPlan{
				Victim: 7, AtOp: noneRep.NodeOps[7] * 85 / 100, Recovery: recovery.CCLRecovery,
			})
			if err != nil {
				t.Fatalf("%s/CCL-recovery: %v", w.Name, err)
			}
			want := tc.cclRecovery[w.Name]
			got := recoveryPin{crc32.ChecksumIEEE(rep.MemoryImage()), rep.ExecTime, rep.Recovery.ReplayTime,
				rep.KindMsgs(hlrc.KindRecPageReq)}
			if want.exec == 0 {
				got.exec = 0
			}
			if got != want {
				t.Errorf("scale %d %s/CCL-recovery:\n\tgot  %q: %v,\n\twant %q: %v,", tc.scale, w.Name, w.Name, got, w.Name, want)
			}
		}
	}
}

// pin is one failure-free cell of TestKernelOutputsPinned.
type pin struct {
	crc      uint32
	exec     simtime.Time
	msgs     int64
	netBytes int64
	logBytes int64 // CCL rows only
	flushes  int64
}

// String prints p as the literal that pins it.
func (p pin) String() string {
	return fmt.Sprintf("pin{%#x, %d, %d, %d, %d, %d}", p.crc, p.exec, p.msgs, p.netBytes, p.logBytes, p.flushes)
}

// recoveryPin is one CCL-recovery crash cell of TestKernelOutputsPinned.
type recoveryPin struct {
	crc     uint32
	exec    simtime.Time // 0: drifts, not pinned
	replay  simtime.Time
	fetches int64 // rec-page-req messages
}

// String prints p as the literal that pins it.
func (p recoveryPin) String() string {
	return fmt.Sprintf("recoveryPin{%#x, %d, %d, %d}", p.crc, p.exec, p.replay, p.fetches)
}
