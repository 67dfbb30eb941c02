package hlrc

import (
	"bytes"
	"sync"
	"testing"

	"sdsm/internal/fault"
	"sdsm/internal/memory"
	"sdsm/internal/obsv"
	"sdsm/internal/simtime"
	"sdsm/internal/transport"
)

// wireRecorder is an in-process fabric that records the encoding of every
// request and reply payload at the moment it is handed over, so a test
// can check later that nothing wrote the payload after it was sent.
type wireRecorder struct {
	nw   *transport.Network
	mu   sync.Mutex
	sent []sentPayload
}

type sentPayload struct {
	kind    transport.Kind
	payload any
	wire    []byte
}

// senderBytes encodes what the sender keeps of a payload: all of it but
// a page reply, which is nothing but the buffer the requester adopts as
// its frame (DESIGN.md §2.8, "Who owns a fetched page buffer").
func senderBytes(payload any) []byte {
	switch p := payload.(type) {
	case *PageReply:
		return nil
	case interface{ AppendWire([]byte) []byte }:
		return p.AppendWire(nil)
	}
	return nil
}

func (f *wireRecorder) record(m transport.Message) {
	wire := senderBytes(m.Payload)
	f.mu.Lock()
	f.sent = append(f.sent, sentPayload{kind: m.Kind, payload: m.Payload, wire: wire})
	f.mu.Unlock()
}

func (f *wireRecorder) Deliver(m transport.Message) {
	f.record(m)
	f.nw.Inject(m)
}

func (f *wireRecorder) Reply(key uint64, r transport.Message) {
	f.record(r)
	f.nw.DeliverReply(key, r)
}

func (f *wireRecorder) Close() error { return nil }

// TestSentPayloadsNeverChange holds the engine to the rule that a sent
// payload is never written again (DESIGN.md §2.8): messages share the
// node clock and the manager's clock instead of copying them, so an owner
// that changed one in place after a send would rewrite a message in
// flight or already kept by its receiver.
// Lock handoffs, barrier rounds and page fetches of pages whose homes
// then take diffs run under lost and duplicated copies; afterwards every
// recorded payload must encode to the bytes it had when it was sent
// (a page reply aside: its buffer is the requester's from then on).
func TestSentPayloadsNeverChange(t *testing.T) {
	const n, pages, psz, rounds = 4, 8, 256, 6
	model := simtime.DefaultCostModel()
	nw := transport.NewNetwork(n, model)
	rec := &wireRecorder{nw: nw}
	nw.SetFabric(rec)
	nw.SetFaultPlan(fault.Plan{Seed: 3, DropProb: 0.05, DupProb: 0.1})
	homes := make([]int, pages)
	for i := range homes {
		homes[i] = i % n
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(Config{
			ID: i, N: n, PageSize: psz, NumPages: pages,
			Homes: homes, Model: model, HomeUndo: true,
		}, nw, simtime.NewClock(0), nil, nil)
		nodes[i].StartService()
	}
	var wg sync.WaitGroup
	errs := make([]any, n)
	for i, nd := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { errs[i] = recover() }()
			for r := 0; r < rounds; r++ {
				// Fetch every page (reading a word nobody writes), then
				// write this node's slot of each: the homes' version
				// vectors change after their serves.
				for p := 0; p < pages; p++ {
					nd.ReadI64(p*psz + psz - 8)
				}
				for p := 0; p < pages; p++ {
					nd.WriteI64(p*psz+8*i, int64(r))
				}
				nd.Barrier(r)
				for k := 0; k < 2; k++ {
					ctr := psz + 8*(n+k) // on page 1, homed at node 1
					nd.AcquireLock(k)
					nd.WriteI64(ctr, nd.ReadI64(ctr)+1)
					nd.ReleaseLock(k)
				}
			}
			nd.Barrier(rounds)
		}()
	}
	wg.Wait()
	for i, nd := range nodes {
		nd.StopService()
		if errs[i] != nil {
			t.Fatalf("node %d panicked: %v", i, errs[i])
		}
	}

	seen := map[transport.Kind]int{}
	for _, s := range rec.sent {
		seen[s.kind]++
		if got := senderBytes(s.payload); !bytes.Equal(got, s.wire) {
			t.Fatalf("%s payload changed after it was sent:\nsent %x\nnow  %x",
				obsv.KindName(uint8(s.kind)), s.wire, got)
		}
	}
	for _, k := range []transport.Kind{KindLockReq, KindLockGrant, KindLockRelease,
		KindBarrierCheckin, KindBarrierRelease, KindPageReq, KindPageReply, KindDiffUpdate} {
		if seen[k] == 0 {
			t.Errorf("no %s was sent: the test no longer covers it", obsv.KindName(uint8(k)))
		}
	}
}

// pageReqTableLen is the length of the process-wide constant request
// table.
func pageReqTableLen() int {
	if t := pageReqs.tab.Load(); t != nil {
		return len(*t)
	}
	return 0
}

// TestPageReqConstants holds the failure-free page request to being its
// page's constant: the fetch sends the table's value. Growth from several
// goroutines at once keeps every published entry where it was (make
// tier2 runs this under -race). Decoding never reads the table: a
// received request is cut from its reader's slabs like any payload.
func TestPageReqConstants(t *testing.T) {
	const n, pages, psz = 2, 4, 256
	model := simtime.DefaultCostModel()
	nw := transport.NewNetwork(n, model)
	rec := &wireRecorder{nw: nw}
	nw.SetFabric(rec)
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(Config{
			ID: i, N: n, PageSize: psz, NumPages: pages,
			Homes: []int{0, 1, 0, 1}, Model: model,
		}, nw, simtime.NewClock(0), nil, nil)
		nodes[i].StartService()
	}
	nodes[1].PageTable().Invalidate(2) // homed at node 0
	nodes[1].ReadI64(2 * psz)
	stopAll(nodes)

	var sent *PageReq
	for _, s := range rec.sent {
		if s.kind == KindPageReq {
			sent = s.payload.(*PageReq)
		}
	}
	if sent == nil || sent.Page != 2 || sent != sharedPageReq(2) {
		t.Fatalf("fetch of page 2 sent %+v, want the table's constant %p", sent, sharedPageReq(2))
	}
	before := pageReqTableLen()
	if before < pages {
		t.Fatalf("table holds %d requests after a fetch with NumPages %d", before, pages)
	}

	// Grow from several goroutines at once, each to its own NumPages,
	// while readers take the entries already published.
	const growers = 8
	var wg sync.WaitGroup
	for g := 0; g < growers; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			numPages := before + 16*(g+1)
			if req := constPageReq(memory.PageID(numPages-1), numPages); req.Page != memory.PageID(numPages-1) {
				t.Errorf("grower %d: request for page %d names page %d", g, numPages-1, req.Page)
			}
		}()
		go func() {
			defer wg.Done()
			if req := sharedPageReq(2); req != sent {
				t.Errorf("reader %d: page 2's request moved from %p to %p", g, sent, req)
			}
		}()
	}
	wg.Wait()
	if want := before + 16*growers; pageReqTableLen() != want {
		t.Fatalf("table holds %d requests after growth to %d", pageReqTableLen(), want)
	}
	tab := *pageReqs.tab.Load()
	for p, req := range tab {
		if req.Page != memory.PageID(p) || req.VT != nil {
			t.Fatalf("entry %d is %+v", p, req)
		}
	}
	if tab[2] != sent {
		t.Errorf("growth moved page 2's request from %p to %p", sent, tab[2])
	}
}
