package core_test

import (
	"hash/crc32"
	"sync"
	"testing"

	"sdsm/internal/bench"
	"sdsm/internal/core"
	"sdsm/internal/hlrc"
	"sdsm/internal/transport"
	"sdsm/internal/wal"
)

// goldenCell is the content fingerprint of one failure-free run. Per node:
// updates is the CRC of every DiffUpdate it sent, encoded with the tcp
// codec and chained in send order; logs is the sum of the CRCs of the
// payloads of its diff-batch log records. The log fingerprint leaves out
// what real arrival order decides even on these barrier-only cells — the
// op a home tags an incoming record with, the order of records from
// different writers, the grouping of CCL's event records (ROADMAP item 1)
// — and keeps what the diff encoding decides: every byte of every logged
// diff, under CCL the writer's own, under ML the ones a home received.
type goldenCell struct {
	logs, updates [goldenNodes]uint32
}

const goldenNodes = 8

func fingerprint(t *testing.T, app string, proto wal.Protocol) goldenCell {
	t.Helper()
	var cell goldenCell
	for _, w := range bench.Workloads(goldenNodes, bench.ScaleSmall) {
		if w.Name != app {
			continue
		}
		cfg := w.BaseConfig(goldenNodes)
		cfg.Protocol = proto
		var mu sync.Mutex
		var buf []byte
		rep, err := core.RunTapped(cfg, w.Prog, func(m transport.Message) {
			du, ok := m.Payload.(*hlrc.DiffUpdate)
			if !ok {
				return
			}
			mu.Lock()
			buf = du.AppendWire(buf[:0])
			cell.updates[m.From] = crc32.Update(cell.updates[m.From], crc32.IEEETable, buf)
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		for node := 0; node < goldenNodes; node++ {
			for _, rec := range rep.Depot.Store(node).Records() {
				if rec.Kind == wal.RecDiffBatch {
					cell.logs[node] += crc32.ChecksumIEEE(rec.Data)
				}
			}
		}
		return cell
	}
	t.Fatalf("no workload %q", app)
	return cell
}

// The diff representation is free to change; what it encodes to is not.
// These fingerprints were taken at commit 4e765ba, where a diff was a
// slice of runs aliasing the page: logged and sent diffs must stay
// byte-equal, not merely equal in size. 3D-FFT sends whole-page runs from
// every node; Shallow's pages carry dozens of 16-byte runs, all homed at
// node 0.
func TestGoldenLogAndWireContent(t *testing.T) {
	for _, tc := range []struct {
		app   string
		proto wal.Protocol
		want  goldenCell
	}{
		{"3D-FFT", wal.ProtocolCCL, goldenCell{
			logs:    [goldenNodes]uint32{0xd34930a, 0x313ead4, 0xbc2a55e0, 0xe58d9802, 0x4c7bfb72, 0xa70fb7f3, 0x7aa830a8, 0x29d0dd57},
			updates: [goldenNodes]uint32{0xc9ebe8fa, 0xb52d2475, 0xadb57626, 0x138ec018, 0x58583a1f, 0xe3dab3a6, 0x5e362e53, 0x686c0125},
		}},
		{"Shallow", wal.ProtocolML, goldenCell{
			logs:    [goldenNodes]uint32{0x8e9e6ab6, 0, 0, 0, 0, 0, 0, 0},
			updates: [goldenNodes]uint32{0, 0xaeb9f334, 0x4b5c4672, 0xb01f2e4c, 0xc3c50522, 0x490252cd, 0x26d14e30, 0x15eea669},
		}},
	} {
		t.Run(tc.app+"/"+tc.proto.String(), func(t *testing.T) {
			got := fingerprint(t, tc.app, tc.proto)
			if got != tc.want {
				t.Errorf("content moved:\n got logs    %#x\nwant logs    %#x\n got updates %#x\nwant updates %#x",
					got.logs, tc.want.logs, got.updates, tc.want.updates)
			}
		})
	}
}

// multiHomeProg makes every node dirty four pages homed at its right
// neighbour each round (disjoint writers per page: race-free without
// locks), so each release closes an interval of four diffs bound for a
// single home.
func multiHomeProg(rounds int) core.Program {
	return func(p *core.Proc) {
		// 64 pages block-homed over 4 nodes: 16 pages per node.
		home := (p.ID() + 1) % p.N()
		for r := 0; r < rounds; r++ {
			for k := 0; k < 4; k++ {
				addr := (home*16+k)*512 + (r%32)*8
				p.WriteI64(addr, int64(100*p.ID()+10*r+k))
			}
			p.Barrier(r)
		}
	}
}

// A release sends one DiffUpdate per home and logs one diff-batch record
// per closed interval, however many diffs the interval holds. What that
// saves is pinned against the counts of a layout with one message and
// one record per diff, measured on this program at 25e2adc, the last
// commit that could write it. The program is barrier-only, so the counts
// repeat exactly, under -race too.
func TestBatchingSavesAppends(t *testing.T) {
	const (
		msgs, modelBytes               = 128, 8172
		perDiffMsgs, perDiffModelBytes = 318, 9692
	)
	for _, tc := range []struct {
		proto                   wal.Protocol
		appends, perDiffAppends int64
	}{
		{wal.ProtocolML, 64, 159},
		{wal.ProtocolCCL, 96, 286},
	} {
		t.Run(tc.proto.String(), func(t *testing.T) {
			rep, err := core.Run(core.Config{Nodes: 4, PageSize: 512, NumPages: 64, Protocol: tc.proto}, multiHomeProg(8))
			if err != nil {
				t.Fatal(err)
			}
			var appends int64
			for i := range rep.Stats {
				appends += rep.Stats[i].LogAppends
			}
			if appends != tc.appends || rep.NetMsgs != msgs || rep.NetBytes != modelBytes {
				t.Errorf("got %d appends, %d messages, %d model bytes; want %d, %d, %d",
					appends, rep.NetMsgs, rep.NetBytes, tc.appends, msgs, modelBytes)
			}
			if appends >= tc.perDiffAppends || rep.NetMsgs >= perDiffMsgs || rep.NetBytes >= perDiffModelBytes {
				t.Errorf("batching saves nothing: %d appends, %d messages, %d model bytes against %d, %d, %d per diff",
					appends, rep.NetMsgs, rep.NetBytes, tc.perDiffAppends, perDiffMsgs, perDiffModelBytes)
			}
		})
	}
}
