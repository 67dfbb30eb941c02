package memory

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// hugeCount is a diff header claiming 2^32-1 runs over a body holding one.
func hugeCount() []byte {
	buf := diffOf(9, testRun{8, []byte{1, 2, 3, 4}}).Encode(nil)
	binary.LittleEndian.PutUint32(buf[4:], 0xffffffff)
	return buf
}

// FuzzDecodeDiff feeds DecodeDiff arbitrary bytes. Whatever it accepts
// must re-encode to exactly the bytes it consumed, and — once Validate
// has passed it for the page size — Apply must stay inside the page. The
// corpus under testdata/fuzz/FuzzDecodeDiff holds diffs Shallow/ML sent at
// ScaleSmall (the cell core's TestGoldenLogAndWireContent pins).
func FuzzDecodeDiff(f *testing.F) {
	f.Add([]byte{})
	f.Add(Diff{Page: 3}.Encode(nil))
	f.Add(diffOf(1, testRun{0, []byte{1, 2, 3, 4}}, testRun{4092, []byte{5, 6, 7, 8}}).Encode(nil))
	f.Add(diffOf(1, testRun{4094, []byte{1, 2, 3, 4}}).Encode(nil)) // decodes, fails Validate
	f.Add(hugeCount())
	f.Fuzz(func(t *testing.T, data []byte) {
		const pageSize, guard = 4096, 64
		d, rest, err := DecodeDiff(data)
		if err != nil {
			return
		}
		consumed := data[:len(data)-len(rest)]
		if enc := d.Encode(nil); !bytes.Equal(enc, consumed) || d.WireSize() != len(consumed) {
			t.Fatalf("re-encoding differs from the %d consumed bytes (WireSize %d):\n got %x\nwant %x",
				len(consumed), d.WireSize(), enc, consumed)
		}
		if page, size, err := PeekDiff(data); err != nil || page != d.Page || size != len(consumed) {
			t.Fatalf("PeekDiff = (%d, %d, %v), DecodeDiff consumed %d bytes of page %d", page, size, err, len(consumed), d.Page)
		}
		if d.Validate(pageSize) != nil {
			return
		}
		frame := bytes.Repeat([]byte{0xa5}, pageSize+2*guard)
		d.Apply(frame[guard : guard+pageSize])
		for i := 0; i < guard; i++ {
			if frame[i] != 0xa5 || frame[guard+pageSize+i] != 0xa5 {
				t.Fatalf("Apply of a validated diff wrote outside the page (guard byte %d)", i)
			}
		}
	})
}

// A corrupt run count must fail on the run headers it cannot find, not
// size an allocation from the claim.
func TestDecodeDiffCorruptCountAllocatesLittle(t *testing.T) {
	buf := hugeCount()
	if _, _, err := DecodeDiff(buf); err == nil { // also warms fmt's buffers
		t.Fatal("DecodeDiff accepted a run count of 2^32-1 over a 20-byte body")
	}
	const runs = 100
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		DecodeDiff(buf)
	}
	runtime.ReadMemStats(&m1)
	if got := (m1.TotalAlloc - m0.TotalAlloc) / runs; got > 256 {
		t.Fatalf("rejecting a corrupt run count allocated %d bytes per call", got)
	}
}
