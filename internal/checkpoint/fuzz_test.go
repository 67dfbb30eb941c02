package checkpoint

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"sdsm/internal/hlrc"
	"sdsm/internal/memory"
	"sdsm/internal/racedetect"
	"sdsm/internal/vclock"
)

// sampleMeta is a meta block with every section populated.
func sampleMeta() *Meta {
	return &Meta{
		Op:       7,
		VT:       vclock.VC{3, 1},
		Notices:  []hlrc.Notice{{Proc: 0, Seq: 1, Pages: []memory.PageID{2}}},
		VerPages: []memory.PageID{0, 2},
		Vers:     []vclock.VC{{1, 0}, {0, 1}},
	}
}

// hugeVerCount is an encoded meta block whose version table claims
// 2^32-1 entries over a body holding two.
func hugeVerCount() []byte {
	m := sampleMeta()
	buf := m.Encode()
	at := 4 + m.VT.WireSize() + hlrc.NoticesWireSize(m.Notices)
	binary.LittleEndian.PutUint32(buf[at:], 0xffffffff)
	return buf
}

// FuzzDecodeMeta feeds DecodeMeta arbitrary bytes: it must never panic,
// and whatever it accepts must re-encode to exactly the bytes it read.
func FuzzDecodeMeta(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Meta{}).Encode())
	f.Add(sampleMeta().Encode())
	f.Add(hugeVerCount())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMeta(data)
		if err != nil {
			return
		}
		if enc := m.Encode(); !bytes.Equal(enc, data) {
			t.Fatalf("re-encoding differs from the accepted block:\n got %x\nwant %x", enc, data)
		}
	})
}

// A corrupt version-table count must fail on the entries it cannot find,
// not size the tables from the claim; trailing bytes are corrupt too.
func TestDecodeMetaCorruptCountAllocatesLittle(t *testing.T) {
	buf := hugeVerCount()
	if _, err := DecodeMeta(buf); err == nil { // also warms fmt's buffers
		t.Fatal("DecodeMeta accepted a version-table count of 2^32-1 over a two-entry body")
	}
	if _, err := DecodeMeta(append(sampleMeta().Encode(), 0)); err == nil {
		t.Fatal("DecodeMeta accepted a trailing byte")
	}
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const runs = 100
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		DecodeMeta(buf)
	}
	runtime.ReadMemStats(&m1)
	if got := (m1.TotalAlloc - m0.TotalAlloc) / runs; got > 256 {
		t.Fatalf("rejecting a corrupt version-table count allocated %d bytes per call", got)
	}
}
