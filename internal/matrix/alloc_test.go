package matrix

import (
	"math/rand"
	"testing"
)

// ringOp builds the CSR normalized Laplacian matvec of a ring graph — the
// same operator shape the clustering flow uses for its sparse embeddings.
func ringOp(t *testing.T, n, workers int) MulVecFunc {
	t.Helper()
	deg := make([]float64, n)
	rowPtr := make([]int32, n+1)
	col := make([]int32, 0, 2*n)
	for i := 0; i < n; i++ {
		deg[i] = 2
		a, b := int32((i+n-1)%n), int32((i+1)%n)
		if a > b {
			a, b = b, a
		}
		col = append(col, a, b)
		rowPtr[i+1] = int32(len(col))
	}
	op, err := NormalizedLaplacianCSRN(n, deg, rowPtr, col, workers)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// TestMatvecAllocs pins the sparse matvec's allocation behaviour: the only
// allocation per product is the bounded worker-dispatch closure, independent
// of the operator size. The previous implementation allocated a neighbor
// buffer per row per product.
func TestMatvecAllocs(t *testing.T) {
	op := ringOp(t, 800, 1)
	dst := make([]float64, 800)
	src := make([]float64, 800)
	for i := range src {
		src[i] = float64(i%7) - 3
	}
	allocs := testing.AllocsPerRun(20, func() { op(dst, src) })
	if allocs > 2 {
		t.Fatalf("matvec allocated %.1f times per product, want ≤ 2", allocs)
	}
}

// TestLanczosStepAllocs pins the warm-workspace contract of the Lanczos
// solver: once the workspace has grown to the problem size, a full solve
// allocates only its returned values (eigenvalues, Ritz matrix) plus a
// constant-count residue — never the steps×n basis, which dominated the
// per-solve allocations before the workspace existed.
func TestLanczosStepAllocs(t *testing.T) {
	const n, k = 700, 12
	op := ringOp(t, n, 1)
	var ws LanczosWS
	// Warm run grows every buffer.
	if _, _, err := LanczosSmallestWS(&ws, op, n, k, rand.New(rand.NewSource(1)), 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := LanczosSmallestWS(&ws, op, n, k, rand.New(rand.NewSource(1)), 1); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: the returned outputs (d, e, Ritz matrix), the rand.Rand made
	// here, and a constant number of worker-dispatch closures per Lanczos
	// step — O(steps) small allocations in total, never the O(steps·n)
	// per-row buffers of the pre-workspace implementation (≈170k for this
	// size) and never the steps×n basis itself.
	steps := 10 * k
	if m := 4*k + 40; m > steps {
		steps = m
	}
	budget := float64(8*steps + 64)
	if allocs > budget {
		t.Fatalf("warm Lanczos solve allocated %.1f times, want ≤ %.0f", allocs, budget)
	}
}

// TestLanczosWSMatchesFresh pins workspace-reuse transparency: a solve on a
// twice-used workspace is bit-identical to a solve on a fresh one.
func TestLanczosWSMatchesFresh(t *testing.T) {
	const n, k = 650, 8
	op := ringOp(t, n, 1)
	fv, fvecs, err := LanczosSmallestWS(nil, op, n, k, rand.New(rand.NewSource(9)), 1)
	if err != nil {
		t.Fatal(err)
	}
	var ws LanczosWS
	// Dirty the workspace with a differently-sized solve first.
	if _, _, err := LanczosSmallestWS(&ws, ringOp(t, 300, 1), 300, 5, rand.New(rand.NewSource(2)), 1); err != nil {
		t.Fatal(err)
	}
	wv, wvecs, err := LanczosSmallestWS(&ws, op, n, k, rand.New(rand.NewSource(9)), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fv {
		if fv[i] != wv[i] {
			t.Fatalf("value %d: fresh %g reused %g", i, fv[i], wv[i])
		}
	}
	for r := 0; r < n; r++ {
		for c := 0; c < k; c++ {
			if fvecs.At(r, c) != wvecs.At(r, c) {
				t.Fatalf("vector (%d,%d): fresh %g reused %g", r, c, fvecs.At(r, c), wvecs.At(r, c))
			}
		}
	}
}
