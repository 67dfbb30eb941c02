package core_test

import (
	"bytes"
	"sync/atomic"
	"testing"

	"sdsm/internal/bench"
	"sdsm/internal/core"
	"sdsm/internal/hlrc"
	"sdsm/internal/transport"
	"sdsm/internal/wal"
)

// codec is the wire surface of a protocol payload (tcp.Payload's halves).
type codec interface {
	AppendWire(dst []byte) []byte
	DecodeWire(b []byte, state *any) (any, error)
}

// TestSimTrafficRoundTripsThroughCodec runs every paper application on
// the sim backend and puts each request and reply it sends through the
// payload codec: the encoding is exactly the size the message was
// charged, and it decodes to a value that encodes to the same bytes. So
// what the cost model accounts is what a socket would carry, for the
// values the protocol really sends and not only generated ones.
func TestSimTrafficRoundTripsThroughCodec(t *testing.T) {
	const nodes = 4
	for _, w := range bench.Workloads(nodes, bench.ScaleSmall) {
		for _, proto := range []wal.Protocol{wal.ProtocolML, wal.ProtocolCCL} {
			t.Run(w.Name+"/"+proto.String(), func(t *testing.T) {
				cfg := w.BaseConfig(nodes)
				cfg.Protocol = proto
				var pageReplies atomic.Int64
				_, err := core.RunTapped(cfg, w.Prog, func(m transport.Message) {
					if m.Payload == nil {
						return
					}
					p, ok := m.Payload.(codec)
					if !ok {
						t.Errorf("kind %d carries %T, which has no wire codec", m.Kind, m.Payload)
						return
					}
					enc := p.AppendWire(nil)
					if len(enc) != m.Size {
						t.Errorf("%T encodes to %d bytes, charged %d", p, len(enc), m.Size)
					}
					got, err := p.DecodeWire(enc, nil)
					if err != nil {
						t.Errorf("%T: %v", p, err)
						return
					}
					if re := got.(codec).AppendWire(nil); !bytes.Equal(re, enc) {
						t.Errorf("%T re-encodes differently", p)
					}
					if _, ok := p.(*hlrc.PageReply); ok {
						pageReplies.Add(1)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				// Replies are tapped too: every run fetches pages.
				if pageReplies.Load() == 0 {
					t.Error("no page reply tapped")
				}
			})
		}
	}
}
