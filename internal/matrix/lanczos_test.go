package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// denseOp wraps a Dense matrix as a MulVecFunc.
func denseOp(a *Dense) MulVecFunc {
	return func(dst, src []float64) {
		out := a.MulVec(src)
		copy(dst, out)
	}
}

// blockLaplacian builds the Laplacian of a graph of dense blocks with weak
// inter-block links — the clustered-spectrum shape Lanczos is used on here
// (well-separated smallest eigenvalues). Dense random symmetric matrices
// have gapless semicircle spectra, the known worst case for Krylov methods,
// and are deliberately not used.
func blockLaplacian(n, blockSize int, rng *rand.Rand) *Dense {
	l := NewDense(n, n)
	link := func(i, j int) {
		if i != j && l.At(i, j) == 0 {
			l.Set(i, j, -1)
			l.Set(j, i, -1)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i/blockSize == j/blockSize && rng.Float64() < 0.8 {
				link(i, j)
			}
		}
	}
	// A sparse ring of inter-block links keeps the graph connected.
	blocks := (n + blockSize - 1) / blockSize
	for b := 0; b < blocks; b++ {
		link(b*blockSize, ((b+1)%blocks)*blockSize)
	}
	for i := 0; i < n; i++ {
		deg := 0.0
		for j := 0; j < n; j++ {
			if i != j && l.At(i, j) != 0 {
				deg++
			}
		}
		l.Set(i, i, deg)
	}
	return l
}

func TestLanczosMatchesDenseOnRandomSym(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, k := 120, 6
	a := blockLaplacian(n, 20, rng)
	wantVals, _, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	vals, vecs, err := LanczosSmallestWS(nil, denseOp(a), n, k, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != k || vecs.Cols() != k {
		t.Fatalf("got %d values, want %d", len(vals), k)
	}
	for i := 0; i < k; i++ {
		if math.Abs(vals[i]-wantVals[i]) > 1e-3*(1+math.Abs(wantVals[i])) {
			t.Fatalf("λ%d = %g, dense %g", i, vals[i], wantVals[i])
		}
		// Residual ‖A·v − λ·v‖ must be small.
		v := vecs.Col(i)
		av := a.MulVec(v)
		res := 0.0
		for j := range av {
			d := av[j] - vals[i]*v[j]
			res += d * d
		}
		// Clustering-grade accuracy: k-means embeddings tolerate far
		// larger perturbations than this.
		if math.Sqrt(res) > 1e-3*(a.MaxAbs()+1) {
			t.Fatalf("pair %d residual %g", i, math.Sqrt(res))
		}
	}
}

func TestLanczosGraphLaplacianSmallestIsZero(t *testing.T) {
	// Ring graph Laplacian: λ0 = 0 with the constant eigenvector.
	n := 40
	l := NewDense(n, n)
	for i := 0; i < n; i++ {
		l.Set(i, i, 2)
		l.Set(i, (i+1)%n, -1)
		l.Set(i, (i+n-1)%n, -1)
	}
	vals, vecs, err := LanczosSmallestWS(nil, denseOp(l), n, 3, rand.New(rand.NewSource(2)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]) > 1e-8 {
		t.Fatalf("λ0 = %g, want 0", vals[0])
	}
	v0 := vecs.Col(0)
	for i := 1; i < n; i++ {
		if math.Abs(math.Abs(v0[i])-math.Abs(v0[0])) > 1e-6 {
			t.Fatalf("λ0 eigenvector not constant: %g vs %g", v0[i], v0[0])
		}
	}
}

func TestLanczosInvalidKPanics(t *testing.T) {
	a := Identity(4)
	for _, k := range []int{0, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d accepted", k)
				}
			}()
			LanczosSmallestWS(nil, denseOp(a), 4, k, rand.New(rand.NewSource(1)), 1)
		}()
	}
}

func TestLanczosDegenerateSpectrum(t *testing.T) {
	// Identity: every eigenvalue is 1. Lanczos terminates after one step
	// (invariant subspace) and must restart to deliver k pairs.
	vals, vecs, err := LanczosSmallestWS(nil, denseOp(Identity(10)), 10, 3, rand.New(rand.NewSource(3)), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if math.Abs(v-1) > 1e-8 {
			t.Fatalf("λ%d = %g, want 1", i, v)
		}
	}
	if vecs.Cols() < 1 {
		t.Fatal("no eigenvectors returned")
	}
}

func TestNormalizedLaplacianOp(t *testing.T) {
	// Triangle graph: L_sym has eigenvalues 0, 3/2, 3/2.
	adj := [][]int{{1, 2}, {0, 2}, {0, 1}}
	deg := []float64{2, 2, 2}
	op, err := NormalizedLaplacianOp(3, deg, func(i int, fn func(j int, w float64)) {
		for _, j := range adj[i] {
			fn(j, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	vals, _, err := LanczosSmallestWS(nil, op, 3, 3, rand.New(rand.NewSource(4)), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1.5, 1.5}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-8 {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
}

func TestNormalizedLaplacianOpRejectsZeroDegree(t *testing.T) {
	if _, err := NormalizedLaplacianOp(2, []float64{1, 0}, nil); err == nil {
		t.Fatal("zero degree accepted")
	}
	if _, err := NormalizedLaplacianOp(2, []float64{1}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func BenchmarkLanczos500x8(b *testing.B) {
	n := 500
	// Sparse-ish symmetric operator: ring plus random chords.
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 4)
		j := (i + 1) % n
		a.Set(i, j, -1)
		a.Set(j, i, -1)
	}
	op := denseOp(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := LanczosSmallestWS(nil, op, n, 8, rand.New(rand.NewSource(6)), 1); err != nil {
			b.Fatal(err)
		}
	}
}
