package core

import (
	"bytes"
	"testing"

	"sdsm/internal/recovery"
	"sdsm/internal/wal"
)

// TestTransportTCPMatchesSim runs the same programs over both wire
// backends: the final memory images must be identical (the protocol is
// backend-independent; only goroutine interleavings differ).
func TestTransportTCPMatchesSim(t *testing.T) {
	progs := []struct {
		name string
		prog Program
	}{
		{"stencil", stencilProg(6)},
		{"locks", lockProg(5)},
		{"sharing", sharingProg(3, 4)},
	}
	for _, tc := range progs {
		for _, proto := range []wal.Protocol{wal.ProtocolML, wal.ProtocolCCL} {
			simRep, err := Run(testCfg(proto), tc.prog)
			if err != nil {
				t.Fatalf("%s/%v sim: %v", tc.name, proto, err)
			}
			if simRep.Transport != TransportSim || simRep.Fabric != nil {
				t.Fatalf("%s/%v sim report claims %q fabric=%v", tc.name, proto, simRep.Transport, simRep.Fabric)
			}
			cfg := testCfg(proto)
			cfg.Transport = TransportTCP
			tcpRep, err := Run(cfg, tc.prog)
			if err != nil {
				t.Fatalf("%s/%v tcp: %v", tc.name, proto, err)
			}
			if !bytes.Equal(simRep.MemoryImage(), tcpRep.MemoryImage()) {
				t.Fatalf("%s/%v: final memory differs between sim and tcp backends", tc.name, proto)
			}
			if tcpRep.Fabric == nil || tcpRep.Fabric.Frames == 0 || tcpRep.Fabric.WireBytes == 0 {
				t.Fatalf("%s/%v: tcp run reports no wire activity: %+v", tc.name, proto, tcpRep.Fabric)
			}
			// Traffic counts are timing-dependent (lock-grant order differs
			// across backends, so re-acquisitions skip different page
			// fetches); only the memory image is backend-invariant. But
			// every accounted message must have crossed the wire: the frame
			// count can exceed the message count only by reply frames.
			if tcpRep.Fabric.Frames < tcpRep.NetMsgs/2 {
				t.Fatalf("%s/%v: %d frames for %d accounted messages", tc.name, proto, tcpRep.Fabric.Frames, tcpRep.NetMsgs)
			}
		}
	}
}

// TestTransportTCPCrashRecovery replays a crash over the TCP backend and
// checks the recovered image against the failure-free sim image.
func TestTransportTCPCrashRecovery(t *testing.T) {
	prog := stencilProg(6)
	base, err := Run(testCfg(wal.ProtocolCCL), prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg(wal.ProtocolCCL)
	cfg.Transport = TransportTCP
	rep, err := RunWithCrash(cfg, prog, CrashPlan{Victim: 1, AtOp: 3, Recovery: recovery.CCLRecovery})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base.MemoryImage(), rep.MemoryImage()) {
		t.Fatal("tcp crash recovery diverged from failure-free sim image")
	}
	if rep.Recovery == nil || rep.Recovery.ReplayTime <= 0 {
		t.Fatalf("recovery report = %+v", rep.Recovery)
	}
}

func TestTransportConfigValidation(t *testing.T) {
	cfg := testCfg(wal.ProtocolNone)
	cfg.Transport = "carrier-pigeon"
	if _, err := Run(cfg, stencilProg(1)); err == nil {
		t.Fatal("unknown transport accepted")
	}
	if tr, err := ParseTransport(""); err != nil || tr != TransportSim {
		t.Fatalf("ParseTransport(\"\") = %v, %v", tr, err)
	}
	if tr, err := ParseTransport("tcp"); err != nil || tr != TransportTCP {
		t.Fatalf("ParseTransport(\"tcp\") = %v, %v", tr, err)
	}
	if _, err := ParseTransport("xyz"); err == nil {
		t.Fatal("ParseTransport accepted garbage")
	}
}
