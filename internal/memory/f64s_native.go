//go:build (386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm) && !purego

package memory

import "unsafe"

// The shared-memory image is little-endian by definition (DESIGN.md §2,
// substitution 1). On the little-endian GOARCHs listed above a
// []float64's backing store already is that image, so the bulk accessors
// move page bytes with one copy instead of decoding word by word;
// f64s_portable.go holds the loop every other build uses.

// f64Image returns v's backing store as bytes (nil for an empty v).
func f64Image(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// CopyToF64s copies src, a run of the little-endian image, over bytes
// [off, off+len(src)) of dst's image. off need not be a multiple of 8 and
// the run may begin or end inside a float64, whose other bytes are kept.
func CopyToF64s(dst []float64, off int, src []byte) {
	copy(f64Image(dst)[off:off+len(src)], src)
}

// CopyFromF64s fills dst with bytes [off, off+len(dst)) of src's
// little-endian image.
func CopyFromF64s(dst []byte, src []float64, off int) {
	copy(dst, f64Image(src)[off:off+len(dst)])
}
