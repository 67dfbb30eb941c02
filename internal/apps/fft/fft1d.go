// Package fft implements the 3D-FFT workload of the paper's evaluation —
// the NAS FT kernel: a 3-D fast Fourier transform PDE solver whose
// transpose step is the classic all-to-all SDSM communication pattern.
package fft

import (
	"math"
	"math/bits"
)

// stageRoots[inv][s] is (cos, sin) of the angle ∓2π/2^s by which the
// twiddle factor advances in the stage of length 2^s, forward (inv = 0)
// and inverse (inv = 1). Built once at package init instead of on every
// Transform call; each value is math.Cos/math.Sin of the same float64
// angle, so transforms are bit-identical to evaluating them per stage.
var stageRoots = func() (t [2][bits.UintSize][2]float64) {
	for inv, sign := range [2]float64{-1, 1} {
		for s := 1; s < bits.UintSize-1; s++ {
			ang := sign * 2 * math.Pi / float64(int(1)<<s)
			t[inv][s] = [2]float64{math.Cos(ang), math.Sin(ang)}
		}
	}
	return t
}()

// Transform performs an in-place radix-2 Cooley-Tukey FFT of the complex
// sequence (re, im). len(re) must be a power of two. When inverse is
// true, the inverse transform is computed including the 1/N scaling, so
// Transform(inverse) ∘ Transform(forward) is the identity.
func Transform(re, im []float64, inverse bool) {
	n := len(re)
	if n != len(im) || n&(n-1) != 0 || n == 0 {
		panic("fft: length must be a power of two")
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	roots := &stageRoots[0] // forward: e^{-2πi k n / N}
	if inverse {
		roots = &stageRoots[1]
	}
	for s, length := 1, 2; length <= n; s, length = s+1, length<<1 {
		wr, wi := roots[s][0], roots[s][1]
		for start := 0; start < n; start += length {
			cwr, cwi := 1.0, 0.0
			half := length / 2
			for k := 0; k < half; k++ {
				a, b := start+k, start+k+half
				tr := re[b]*cwr - im[b]*cwi
				ti := re[b]*cwi + im[b]*cwr
				re[b], im[b] = re[a]-tr, im[a]-ti
				re[a], im[a] = re[a]+tr, im[a]+ti
				cwr, cwi = cwr*wr-cwi*wi, cwr*wi+cwi*wr
			}
		}
	}
	if inverse {
		inv := 1 / float64(n)
		for i := range re {
			re[i] *= inv
			im[i] *= inv
		}
	}
}

// TransformFlops estimates the floating-point operations of one
// length-n transform (the standard 5 n log2 n).
func TransformFlops(n int) float64 {
	return 5 * float64(n) * math.Log2(float64(n))
}
