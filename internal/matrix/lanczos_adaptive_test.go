package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// ringCSR builds the CSR arrays of a ring of n nodes with chords every
// stride nodes — connected, sparse, clustered spectrum.
func ringCSR(n, stride int) (rowPtr, col []int32) {
	adj := make([][]int32, n)
	link := func(i, j int) {
		adj[i] = append(adj[i], int32(j))
		adj[j] = append(adj[j], int32(i))
	}
	for i := 0; i < n; i++ {
		link(i, (i+1)%n)
	}
	for i := 0; i+stride < n; i += stride {
		link(i, i+stride)
	}
	rowPtr = make([]int32, n+1)
	for i, row := range adj {
		rowPtr[i+1] = rowPtr[i] + int32(len(row))
		col = append(col, row...)
	}
	return rowPtr, col
}

func TestWeightedLaplacianMatchesUnweighted(t *testing.T) {
	// With all weights 1 the weighted operator must be exactly the
	// unweighted one: same arithmetic, same evaluation order.
	n := 64
	rowPtr, col := ringCSR(n, 7)
	deg := make([]float64, n)
	w := make([]float64, len(col))
	for i := range w {
		w[i] = 1
	}
	for i := 0; i < n; i++ {
		deg[i] = float64(rowPtr[i+1] - rowPtr[i])
	}
	opU, err := NormalizedLaplacianCSRN(n, deg, rowPtr, col, 1)
	if err != nil {
		t.Fatal(err)
	}
	opW, err := NormalizedLaplacianWeightedCSRN(n, deg, rowPtr, col, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, n)
	a, b := make([]float64, n), make([]float64, n)
	for trial := 0; trial < 5; trial++ {
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		opU(a, x)
		opW(b, x)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: weighted op differs at %d: %g vs %g", trial, i, b[i], a[i])
			}
		}
	}
}

func TestWeightedLaplacianEigenvalues(t *testing.T) {
	// Weighted triangle: weights scale both L and D, so L_sym (and its
	// spectrum 0, 3/2, 3/2) is invariant under uniform scaling; a
	// non-uniform weighting must still yield λ_min = 0.
	rowPtr := []int32{0, 2, 4, 6}
	col := []int32{1, 2, 0, 2, 0, 1}
	w := []float64{2, 5, 2, 3, 5, 3}
	deg := []float64{7, 5, 8}
	op, err := NormalizedLaplacianWeightedCSRN(3, deg, rowPtr, col, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ws LanczosWS
	vals, _, _, err := LanczosSmallestAdaptive(&ws, op, 3, 3, rand.New(rand.NewSource(4)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]) > 1e-10 {
		t.Fatalf("smallest eigenvalue %g, want 0", vals[0])
	}
	if vals[1] < 0.1 || vals[2] > 3 {
		t.Fatalf("spectrum out of the normalized-Laplacian range: %v", vals)
	}
}

func TestWeightedLaplacianRejectsBadInput(t *testing.T) {
	rowPtr := []int32{0, 1, 2}
	col := []int32{1, 0}
	if _, err := NormalizedLaplacianWeightedCSRN(2, []float64{1, 0}, rowPtr, col, []float64{1, 1}, 1); err == nil {
		t.Fatal("zero degree accepted")
	}
	if _, err := NormalizedLaplacianWeightedCSRN(2, []float64{1, 1}, rowPtr, col, []float64{1}, 1); err == nil {
		t.Fatal("weight/col length mismatch accepted")
	}
}

func TestLanczosSmallestAdaptiveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, k := 150, 8
	a := blockLaplacian(n, 25, rng)
	wantVals, _, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	var ws LanczosWS
	vals, vecs, steps, err := LanczosSmallestAdaptive(&ws, denseOp(a), n, k, rand.New(rand.NewSource(7)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if steps <= 0 || steps > n {
		t.Fatalf("steps = %d out of range (n=%d)", steps, n)
	}
	for i := 0; i < k; i++ {
		if math.Abs(vals[i]-wantVals[i]) > 1e-6 {
			t.Fatalf("eigenvalue %d: got %g want %g", i, vals[i], wantVals[i])
		}
	}
	// Residual check ‖A·v − λ·v‖ per returned Ritz pair.
	v := make([]float64, n)
	av := make([]float64, n)
	for j := 0; j < k; j++ {
		for i := 0; i < n; i++ {
			v[i] = vecs.At(i, j)
		}
		denseOp(a)(av, v)
		res := 0.0
		for i := 0; i < n; i++ {
			d := av[i] - vals[j]*v[i]
			res += d * d
		}
		if math.Sqrt(res) > 1e-5 {
			t.Fatalf("Ritz pair %d residual %g", j, math.Sqrt(res))
		}
	}
}

// TestLanczosSmallestAdaptiveWorkerInvariance: the adaptive stop and the
// Ritz assembly must not depend on the worker count — same steps, same
// bits.
func TestLanczosSmallestAdaptiveWorkerInvariance(t *testing.T) {
	n, k := 700, 4
	rowPtr, col := ringCSR(n, 9)
	deg := make([]float64, n)
	for i := 0; i < n; i++ {
		deg[i] = float64(rowPtr[i+1] - rowPtr[i])
	}
	run := func(workers int) ([]float64, *Dense, int) {
		op, err := NormalizedLaplacianCSRN(n, deg, rowPtr, col, workers)
		if err != nil {
			t.Fatal(err)
		}
		var ws LanczosWS
		vals, vecs, steps, err := LanczosSmallestAdaptive(&ws, op, n, k, rand.New(rand.NewSource(5)), workers)
		if err != nil {
			t.Fatal(err)
		}
		return vals, vecs, steps
	}
	v1, u1, s1 := run(1)
	for _, workers := range []int{2, 4} {
		vn, un, sn := run(workers)
		if sn != s1 {
			t.Fatalf("workers=%d: %d steps, serial %d", workers, sn, s1)
		}
		for i := range v1 {
			if vn[i] != v1[i] {
				t.Fatalf("workers=%d: value[%d] = %g, serial %g", workers, i, vn[i], v1[i])
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				if un.At(i, j) != u1.At(i, j) {
					t.Fatalf("workers=%d: vector[%d,%d] = %g, serial %g", workers, i, j, un.At(i, j), u1.At(i, j))
				}
			}
		}
	}
}
