package memory

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// leImage is the definition both CopyToF64s/CopyFromF64s files must meet:
// v's image is each value's IEEE-754 bits, little-endian, in order. The
// test runs against whichever file the build selected; `make portable`
// runs it against the other, so the two are held to the same bytes.
func leImage(v []float64) []byte {
	img := make([]byte, 8*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint64(img[8*i:], math.Float64bits(f))
	}
	return img
}

func TestF64CopiesMatchLittleEndianImage(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	special := []uint64{0x7ff0000000000001, 0xfff7ffffffffffff, 0x8000000000000000, 1, 0x800fffffffffffff, math.MaxUint64}
	for i := 0; i < 2000; i++ {
		vals := make([]float64, rng.Intn(12))
		for j := range vals {
			vals[j] = math.Float64frombits(special[rng.Intn(len(special))] ^ uint64(rng.Intn(2))<<17)
		}
		img := leImage(vals)
		// Any byte run of the image, word-aligned or not, empty included.
		off := rng.Intn(len(img) + 1)
		run := make([]byte, rng.Intn(len(img)-off+1))

		CopyFromF64s(run, vals, off)
		if !bytes.Equal(run, img[off:off+len(run)]) {
			t.Fatalf("CopyFromF64s(%d bytes at %d of %x) = %x", len(run), off, img, run)
		}

		rng.Read(run)
		want := bytes.Clone(img)
		copy(want[off:], run)
		CopyToF64s(vals, off, run)
		if got := leImage(vals); !bytes.Equal(got, want) {
			t.Fatalf("CopyToF64s(%x at %d) left image %x, want %x", run, off, got, want)
		}
	}
}

// Empty and nil slices are a no-op on either side, not a panic.
func TestF64CopiesOfNothing(t *testing.T) {
	CopyToF64s(nil, 0, nil)
	CopyFromF64s(nil, nil, 0)
	CopyToF64s([]float64{}, 0, []byte{})
	one := []float64{1}
	CopyToF64s(one, 8, nil)
	CopyFromF64s(nil, one, 8)
	if one[0] != 1 {
		t.Fatalf("an empty copy changed the value to %v", one[0])
	}
}

// A run that does not fit the image must panic, not write past it.
func TestF64CopiesOutOfRangePanic(t *testing.T) {
	for name, f := range map[string]func(){
		"to":   func() { CopyToF64s(make([]float64, 2), 12, make([]byte, 5)) },
		"from": func() { CopyFromF64s(make([]byte, 5), make([]float64, 2), 12) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a 5-byte run at offset 12 of a 16-byte image did not panic", name)
				}
			}()
			f()
		}()
	}
}
