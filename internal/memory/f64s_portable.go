//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm) || purego

package memory

import (
	"encoding/binary"
	"math"
)

// The portable form of f64s_native.go: big-endian hosts, GOARCHs not yet
// on that file's list, and any build with -tags purego decode and encode
// the little-endian image one float64 at a time.

// CopyToF64s copies src, a run of the little-endian image, over bytes
// [off, off+len(src)) of dst's image. off need not be a multiple of 8 and
// the run may begin or end inside a float64, whose other bytes are kept.
func CopyToF64s(dst []float64, off int, src []byte) {
	for len(src) > 0 {
		i, b := off/8, off%8
		if b == 0 && len(src) >= 8 {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src))
			src, off = src[8:], off+8
			continue
		}
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(dst[i]))
		n := copy(w[b:], src)
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
		src, off = src[n:], off+n
	}
}

// CopyFromF64s fills dst with bytes [off, off+len(dst)) of src's
// little-endian image.
func CopyFromF64s(dst []byte, src []float64, off int) {
	for len(dst) > 0 {
		i, b := off/8, off%8
		bits := math.Float64bits(src[i])
		if b == 0 && len(dst) >= 8 {
			binary.LittleEndian.PutUint64(dst, bits)
			dst, off = dst[8:], off+8
			continue
		}
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], bits)
		n := copy(dst, w[b:])
		dst, off = dst[n:], off+n
	}
}
