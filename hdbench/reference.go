package main

import (
	"math"
	"runtime"
	"sync"

	"hdcedge/internal/tensor"
)

// The benchmark checks the program's outputs against computations of its
// own. The loops in this file use only the float model parameters (base
// and class hypervectors) and the input rows; they share no code with the
// program's kernels.

// forRows calls fn(r) for every r in [0, n), spread over GOMAXPROCS
// goroutines; it returns when all calls have returned.
func forRows(n int, fn func(r int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := w; r < n; r += workers {
				fn(r)
			}
		}(w)
	}
	wg.Wait()
}

// project computes one row's projection h = x·B in float64: h[j] is
// Σ_i x[i]·B[i, j] over the [n, d] row-major base matrix.
func project(h []float64, x, base []float32) {
	d := len(h)
	for j := range h {
		h[j] = 0
	}
	for i, xi := range x {
		xv := float64(xi)
		row := base[i*d : (i+1)*d]
		for j, b := range row {
			h[j] += xv * float64(b)
		}
	}
}

// floatLabel classifies one encoded row e = tanh(x·B) with the float
// model: the argmax over classes of Σ_j C[c, j]·e[j] (the first maximum
// wins).
func floatLabel(e []float64, classes *tensor.Tensor) int {
	k, d := classes.Shape[0], classes.Shape[1]
	best, bestScore := 0, math.Inf(-1)
	for c := 0; c < k; c++ {
		row := classes.F32[c*d : (c+1)*d]
		s := 0.0
		for j, cv := range row {
			s += float64(cv) * e[j]
		}
		if s > bestScore {
			best, bestScore = c, s
		}
	}
	return best
}

// floatLabels classifies every row of x with the float model given by its
// [n, d] base and [k, d] class matrices.
func floatLabels(x, base, classes *tensor.Tensor) []int {
	rows, n, d := x.Shape[0], x.Shape[1], base.Shape[1]
	labels := make([]int, rows)
	forRows(rows, func(r int) {
		h := make([]float64, d)
		project(h, x.F32[r*n:(r+1)*n], base.F32)
		for j, v := range h {
			h[j] = math.Tanh(v)
		}
		labels[r] = floatLabel(h, classes)
	})
	return labels
}

// packSigns packs the signs of a class hypervector the way the bipolar
// model is defined: bit j of word j/64 is set when v[j] > 0; unused tail
// bits are clear.
func packSigns(v []float32) []uint64 {
	words := make([]uint64, (len(v)+63)/64)
	for j, x := range v {
		if x > 0 {
			words[j/64] |= 1 << uint(j%64)
		}
	}
	return words
}

// binRef is the benchmark's own bipolar classification of one row.
type binRef struct {
	label int
	agree []int // per class: dimensions where the row's sign matches the class sign
	// nearZero counts projections within float32 rounding distance of
	// zero: their sign bit may legitimately differ from the reference.
	nearZero int
}

// binReference classifies every row of x by projection → sign → Hamming
// agreement → argmax against the packed class signs.
func binReference(x, base *tensor.Tensor, classWords [][]uint64) []binRef {
	rows, n, d := x.Shape[0], x.Shape[1], base.Shape[1]
	// A float32 sum of n products has error at most n·2⁻²⁴·Σ|x_i·B_ij|
	// (to first order); twice that is the near-zero band.
	eps := 2 * float64(n) * math.Ldexp(1, -24)
	refs := make([]binRef, rows)
	forRows(rows, func(r int) {
		x := x.F32[r*n : (r+1)*n]
		h := make([]float64, d)
		mag := make([]float64, d)
		project(h, x, base.F32)
		for i, xi := range x {
			xv := math.Abs(float64(xi))
			for j, b := range base.F32[i*d : (i+1)*d] {
				mag[j] += xv * math.Abs(float64(b))
			}
		}
		ref := binRef{agree: make([]int, len(classWords))}
		for j, v := range h {
			if math.Abs(v) <= eps*mag[j] {
				ref.nearZero++
			}
			for c, words := range classWords {
				if (v > 0) == (words[j/64]>>uint(j%64)&1 == 1) {
					ref.agree[c]++
				}
			}
		}
		for c, a := range ref.agree {
			if a > ref.agree[ref.label] {
				ref.label = c
			}
		}
		refs[r] = ref
	})
	return refs
}

// binLabelOK accepts a served label equal to the reference, or, for a row
// with projections in the near-zero band, any class whose agreement trails
// the reference's by at most two per such projection (one flipped bit moves
// the two agreements one step each).
func binLabelOK(ref binRef, served int) bool {
	if served == ref.label {
		return true
	}
	if served < 0 || served >= len(ref.agree) {
		return false
	}
	return ref.agree[ref.label]-ref.agree[served] <= 2*ref.nearZero
}
