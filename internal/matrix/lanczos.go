package matrix

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
)

// MulVecFunc applies a symmetric linear operator: dst = A·src.
// dst and src never alias.
type MulVecFunc func(dst, src []float64)

// LanczosWS holds the reusable storage of a Lanczos solve: the Krylov basis
// (the dominant allocation, steps×n floats), the iteration vectors, the
// reorthogonalization projection scratch, and the tridiagonal eigenvector
// matrix. A zero LanczosWS is ready to use; buffers grow on demand and are
// retained between solves, so a caller running many solves of similar size
// (the ISC loop re-embedding the remaining network every iteration) pays the
// large allocations once instead of per iteration.
//
// A workspace must not be shared by concurrent solves. Reuse never changes
// results: every buffer is fully overwritten before it is read.
type LanczosWS struct {
	basisBuf []float64
	basis    [][]float64
	v, w     []float64
	alpha    []float64
	beta     []float64
	proj     []float64
	zBuf     []float64

	// Adaptive-solver state (LanczosSmallestAdaptive): tridiagonal scratch
	// and the selection buffers of the smallest-k extraction.
	dwork   []float64
	ework   []float64
	zwork   Dense
	selBuf  []int32
	usedBuf []bool
	resY    []float64 // assembled Ritz vector of the residual verification
	resAY   []float64 // A·y of the residual verification
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// prepare sizes the workspace for a solve of the given step bound and
// dimension and returns the basis row headers (length 0, capacity steps).
func (ws *LanczosWS) prepare(steps, n int) {
	ws.basisBuf = growFloats(ws.basisBuf, steps*n)
	if cap(ws.basis) < steps {
		ws.basis = make([][]float64, 0, steps)
	}
	ws.basis = ws.basis[:0]
	ws.v = growFloats(ws.v, n)
	ws.w = growFloats(ws.w, n)
	ws.alpha = growFloats(ws.alpha, steps)[:0]
	ws.beta = growFloats(ws.beta, steps)[:0]
	ws.proj = growFloats(ws.proj, steps)
}

// LanczosSmallestWS computes approximations to the k smallest eigenpairs
// of a symmetric n×n operator given only by matrix-vector products, using
// the Lanczos iteration with full reorthogonalization and an eigensolve of
// the tridiagonal Krylov projection.
//
// It runs min(n, max(4k+40, 10k)) Lanczos steps, which is accurate for the
// well-separated extremal spectra of clustered graph Laplacians — the use
// case here: spectral clustering of networks too large for the dense O(n³)
// solver. On gapless spectra (dense random matrices, strong expanders) the
// interior of the returned set converges only to clustering-grade accuracy.
// The returned eigenvalues ascend; the i-th column of the returned matrix
// is the Ritz vector for the i-th value. rng seeds the start vector, making
// results deterministic for a fixed source.
//
// The reorthogonalization fans its dot products out over basis vectors and
// its update over fixed-size element chunks, and the Ritz-vector assembly
// parallelizes over row chunks on a bounded worker pool (0 = package
// default); each kernel keeps a floating-point evaluation order fixed by
// the input alone, so the result is bit-identical for any worker count. The
// rng is consumed only on the calling goroutine.
//
// All iteration storage is drawn from ws (nil = allocate fresh). The
// returned values and vectors never alias the workspace, so they survive
// its next use.
func LanczosSmallestWS(ws *LanczosWS, mul MulVecFunc, n, k int, rng *rand.Rand, workers int) (values []float64, vectors *Dense, err error) {
	if k <= 0 || k > n {
		panic(fmt.Sprintf("matrix: LanczosSmallest k=%d out of (0,%d]", k, n))
	}
	if ws == nil {
		ws = &LanczosWS{}
	}
	steps := 10 * k
	if m := 4*k + 40; m > steps {
		steps = m
	}
	if steps > n {
		steps = n
	}
	// Lanczos basis (full reorthogonalization keeps it numerically
	// orthonormal; memory is steps×n, reused across solves via ws).
	ws.prepare(steps, n)
	basis := ws.basis
	alpha := ws.alpha
	beta := ws.beta // beta[i] couples basis[i] and basis[i+1]

	v := ws.v
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	normalize(v)
	w := ws.w
	for j := 0; j < steps; j++ {
		row := ws.basisBuf[j*n : (j+1)*n]
		copy(row, v)
		basis = append(basis, row)
		mul(w, v)
		a := dotVec(w, v)
		alpha = append(alpha, a)
		// w ← w − a·v − β_{j−1}·v_{j−1}
		for i := range w {
			w[i] -= a * v[i]
		}
		if j > 0 {
			b := beta[j-1]
			prev := basis[j-1]
			for i := range w {
				w[i] -= b * prev[i]
			}
		}
		// Full reorthogonalization (two classical Gram-Schmidt passes —
		// "twice is enough").
		orthogonalize(w, basis, ws.proj, workers)
		b := math.Sqrt(dotVec(w, w))
		if j == steps-1 {
			break
		}
		if b < 1e-13 {
			// Invariant subspace found: restart with a fresh random
			// direction orthogonal to the basis. The tridiagonal coupling
			// to the new block is exactly zero — recording the restart
			// vector's norm instead would corrupt the projection.
			for i := range w {
				w[i] = rng.NormFloat64()
			}
			orthogonalize(w, basis, ws.proj, workers)
			nb := math.Sqrt(dotVec(w, w))
			if nb < 1e-13 {
				// The basis spans the whole reachable space.
				break
			}
			beta = append(beta, 0)
			for i := range w {
				v[i] = w[i] / nb
			}
			continue
		}
		beta = append(beta, b)
		for i := range w {
			v[i] = w[i] / b
		}
	}
	m := len(basis)
	if k > m {
		k = m
	}
	// Eigensolve the m×m tridiagonal projection. d and e are per-call: d's
	// head is returned as the eigenvalues and must outlive the workspace.
	d := append([]float64(nil), alpha[:m]...)
	e := make([]float64, m)
	copy(e[1:], beta[:m-1])
	ws.zBuf = growFloats(ws.zBuf, m*m)
	z := &Dense{rows: m, cols: m, data: ws.zBuf}
	for i := range z.data {
		z.data[i] = 0
	}
	for i := 0; i < m; i++ {
		z.data[i*m+i] = 1
	}
	if err := tql2(z, d, e); err != nil {
		return nil, nil, fmt.Errorf("matrix: Lanczos projection eigensolve: %w", err)
	}
	sortEig(d, z)
	// Assemble the k smallest Ritz pairs. The accumulation into each output
	// element runs in ascending basis order j — the same order the naive
	// per-row triple loop uses — but iterates j outer over fixed row chunks
	// so basis rows and z rows stream contiguously instead of stride-n.
	// Chunk boundaries depend only on n, so the result is worker-count
	// independent.
	values = d[:k]
	vectors = NewDense(n, k)
	kk := k
	parallel.ForChunks(workers, n, ritzChunk, func(_, lo, hi int) {
		for j := 0; j < m; j++ {
			bj := basis[j]
			zrow := z.data[j*m : j*m+kk]
			for row := lo; row < hi; row++ {
				b := bj[row]
				vrow := vectors.data[row*kk : (row+1)*kk]
				for col, zv := range zrow {
					vrow[col] += b * zv
				}
			}
		}
	})
	return values, vectors, nil
}

// orthoChunk and ritzChunk are the fixed element-chunk sizes of the blocked
// kernels: small enough that a chunk of the target vector stays cache-
// resident while every basis row streams past it, large enough to amortize
// scheduling. Being constants, they keep chunk boundaries — and therefore
// floating-point evaluation order — independent of the worker count.
const (
	orthoChunk = 512
	ritzChunk  = 64
)

// orthogonalize removes from w its components along the (orthonormal) basis
// vectors with two classical Gram-Schmidt passes, using proj (capacity ≥
// len(basis)) as the projection scratch. Within a pass, the dot products
// against distinct basis vectors fan out across the pool (each dot is a
// fixed-order serial sum), then the update sweeps the basis in ascending
// order over fixed-size element chunks — basis rows stream contiguously
// (the stride-n per-element loop this replaces missed cache on every basis
// row) and chunk boundaries never depend on the worker count, so the result
// is bit-identical for any pool size.
func orthogonalize(w []float64, basis [][]float64, proj []float64, workers int) {
	m := len(basis)
	if m == 0 {
		return
	}
	d := proj[:m]
	for pass := 0; pass < 2; pass++ {
		parallel.For(workers, m, func(j int) { d[j] = dotVec(w, basis[j]) })
		parallel.ForChunks(workers, len(w), orthoChunk, func(_, lo, hi int) {
			for j := 0; j < m; j++ {
				dj := d[j]
				bj := basis[j][lo:hi]
				wc := w[lo:hi]
				for i := range wc {
					wc[i] -= dj * bj[i]
				}
			}
		})
	}
}

// NormalizedLaplacianOp returns the matvec of the symmetric normalized
// Laplacian L_sym = I − D^{-1/2}·W·D^{-1/2} for a weighted adjacency given
// by the neighbor iterator: forEach(i, fn) must call fn(j, w_ij) for every
// neighbor j of i. deg must hold the (positive) degrees d_i = Σ_j w_ij.
// Generalized eigenvectors of L·u = λ·D·u are D^{-1/2} times the
// eigenvectors of L_sym, with identical eigenvalues — the relationship
// spectral clustering uses.
func NormalizedLaplacianOp(n int, deg []float64, forEach func(i int, fn func(j int, w float64))) (MulVecFunc, error) {
	return NormalizedLaplacianOpN(n, deg, forEach, 1)
}

// NormalizedLaplacianOpN is NormalizedLaplacianOp with the matvec fanned out
// over rows on a bounded worker pool (0 = package default). Each dst[i] is
// an independent fixed-order accumulation, so the product is bit-identical
// for any worker count. forEach may be called concurrently for distinct
// rows and must therefore be re-entrant (read-only on shared state) and
// allocation-free if the matvec is to stay allocation-free.
func NormalizedLaplacianOpN(n int, deg []float64, forEach func(i int, fn func(j int, w float64)), workers int) (MulVecFunc, error) {
	if len(deg) != n {
		return nil, fmt.Errorf("matrix: %d degrees for n=%d", len(deg), n)
	}
	invSqrt := make([]float64, n)
	for i, d := range deg {
		if d <= 0 {
			return nil, fmt.Errorf("matrix: non-positive degree %g at %d", d, i)
		}
		invSqrt[i] = 1 / math.Sqrt(d)
	}
	return func(dst, src []float64) {
		parallel.For(workers, n, func(i int) {
			acc := 0.0
			forEach(i, func(j int, w float64) {
				acc += w * invSqrt[j] * src[j]
			})
			dst[i] = src[i] - invSqrt[i]*acc
		})
	}, nil
}

// NormalizedLaplacianCSRN is the CSR specialization of
// NormalizedLaplacianOpN for unit-weight adjacency: row i's neighbors are
// col[rowPtr[i]:rowPtr[i+1]]. Walking the index slices inline — instead of
// calling back through a neighbor iterator — keeps each row's accumulation
// free of the per-row closure the generic form costs, so a product performs
// no allocation beyond the bounded worker-dispatch residue. Accumulation
// order (ascending neighbors) and arithmetic match the generic operator
// exactly, so results are bit-identical to it.
func NormalizedLaplacianCSRN(n int, deg []float64, rowPtr, col []int32, workers int) (MulVecFunc, error) {
	if len(deg) != n {
		return nil, fmt.Errorf("matrix: %d degrees for n=%d", len(deg), n)
	}
	if len(rowPtr) != n+1 {
		return nil, fmt.Errorf("matrix: %d row pointers for n=%d", len(rowPtr), n)
	}
	invSqrt := make([]float64, n)
	for i, d := range deg {
		if d <= 0 {
			return nil, fmt.Errorf("matrix: non-positive degree %g at %d", d, i)
		}
		invSqrt[i] = 1 / math.Sqrt(d)
	}
	return func(dst, src []float64) {
		parallel.For(workers, n, func(i int) {
			acc := 0.0
			for _, j := range col[rowPtr[i]:rowPtr[i+1]] {
				acc += invSqrt[j] * src[j]
			}
			dst[i] = src[i] - invSqrt[i]*acc
		})
	}, nil
}

// NormalizedLaplacianWeightedCSRN is NormalizedLaplacianCSRN for a weighted
// adjacency: w holds the edge weights parallel to col, and deg the weighted
// degrees. The multilevel clustering engine uses it on coarse graphs, where
// an edge weight counts the fine connections it represents.
func NormalizedLaplacianWeightedCSRN(n int, deg []float64, rowPtr, col []int32, w []float64, workers int) (MulVecFunc, error) {
	if len(deg) != n {
		return nil, fmt.Errorf("matrix: %d degrees for n=%d", len(deg), n)
	}
	if len(rowPtr) != n+1 {
		return nil, fmt.Errorf("matrix: %d row pointers for n=%d", len(rowPtr), n)
	}
	if len(w) != len(col) {
		return nil, fmt.Errorf("matrix: %d edge weights for %d columns", len(w), len(col))
	}
	invSqrt := make([]float64, n)
	for i, d := range deg {
		if d <= 0 {
			return nil, fmt.Errorf("matrix: non-positive degree %g at %d", d, i)
		}
		invSqrt[i] = 1 / math.Sqrt(d)
	}
	return func(dst, src []float64) {
		parallel.For(workers, n, func(i int) {
			acc := 0.0
			lo, hi := rowPtr[i], rowPtr[i+1]
			for e := lo; e < hi; e++ {
				acc += w[e] * invSqrt[col[e]] * src[col[e]]
			}
			dst[i] = src[i] - invSqrt[i]*acc
		})
	}, nil
}

// adaptive-stop tuning of LanczosSmallestAdaptive: the first residual
// check runs once the basis can resolve k pairs with headroom, then repeats
// on a fixed cadence. Constants, so the checked step set — and therefore
// the result — depends only on (n, k) and the convergence history, never
// on workers.
const (
	adaptMinSteps   = 16 // first check at 2k+adaptMinSteps basis vectors
	adaptCheckEvery = 32
	adaptTol        = 1e-6 // β·|z| screen, relative to the spectral scale
	// adaptResTol is the verified-residual stop threshold. The β·|z| bound
	// only screens: with full reorthogonalization the recurrence carries
	// corrections the tridiagonal never sees, so the bound can undershoot
	// the true residual by orders of magnitude. A pair counts as converged
	// only when its assembled Ritz vector satisfies ‖A·y − θ·y‖ ≤
	// adaptResTol·scale — clustering-grade accuracy.
	adaptResTol = 1e-4
)

// LanczosSmallestAdaptive is LanczosSmallestWS with an early stop: from an
// rng-seeded start vector, the iteration terminates once the k smallest
// Ritz pairs pass the β_m·|z_{m,i}| screen and a verified residual check
// (clustering-grade accuracy), instead of always running the full step
// bound. steps reports the Krylov dimension reached. The checked step set
// depends only on (n, k) and the convergence history, and every kernel
// keeps LanczosSmallestWS's fixed evaluation order, so the solve is
// bit-identical for any worker count.
func LanczosSmallestAdaptive(ws *LanczosWS, mul MulVecFunc, n, k int, rng *rand.Rand, workers int) (values []float64, vectors *Dense, steps int, err error) {
	if k <= 0 || k > n {
		panic(fmt.Sprintf("matrix: LanczosSmallestAdaptive k=%d out of (0,%d]", k, n))
	}
	maxSteps := 10 * k
	if m := 4*k + 40; m > maxSteps {
		maxSteps = m
	}
	if maxSteps > n {
		maxSteps = n
	}
	ws.prepare(maxSteps, n)
	basis := ws.basis
	alpha := ws.alpha
	beta := ws.beta

	v := ws.v
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	normalize(v)

	firstCheck := 2*k + adaptMinSteps
	w := ws.w
	m := 0
	for j := 0; j < maxSteps; j++ {
		row := ws.basisBuf[j*n : (j+1)*n]
		copy(row, v)
		basis = append(basis, row)
		m = j + 1
		mul(w, v)
		a := dotVec(w, v)
		alpha = append(alpha, a)
		for i := range w {
			w[i] -= a * v[i]
		}
		if j > 0 {
			b := beta[j-1]
			prev := basis[j-1]
			for i := range w {
				w[i] -= b * prev[i]
			}
		}
		orthogonalize(w, basis, ws.proj, workers)
		b := math.Sqrt(dotVec(w, w))
		if j == maxSteps-1 {
			break
		}
		if m >= k && m >= firstCheck && (m-firstCheck)%adaptCheckEvery == 0 &&
			ws.converged(mul, basis, alpha, beta, b, k, n) {
			break
		}
		if b < 1e-13 {
			// Invariant subspace: restart orthogonally, exactly like the
			// fixed-step solver.
			for i := range w {
				w[i] = rng.NormFloat64()
			}
			orthogonalize(w, basis, ws.proj, workers)
			nb := math.Sqrt(dotVec(w, w))
			if nb < 1e-13 {
				break
			}
			beta = append(beta, 0)
			for i := range w {
				v[i] = w[i] / nb
			}
			continue
		}
		beta = append(beta, b)
		for i := range w {
			v[i] = w[i] / b
		}
	}
	if k > m {
		k = m
	}
	// Final tridiagonal eigensolve and Ritz assembly, in the chunked order
	// of LanczosSmallestWS.
	ws.dwork = growFloats(ws.dwork, m)
	ws.ework = growFloats(ws.ework, m)
	d := ws.dwork
	e := ws.ework
	copy(d, alpha[:m])
	for i := range e {
		e[i] = 0
	}
	copy(e[1:], beta[:min(m-1, len(beta))])
	z := ws.identity(m)
	if err := tql2(z, d, e); err != nil {
		return nil, nil, m, fmt.Errorf("matrix: Lanczos projection eigensolve: %w", err)
	}
	sel := ws.selectSmallest(d, k)
	values = make([]float64, k)
	for i, s := range sel {
		values[i] = d[s]
	}
	vectors = NewDense(n, k)
	out := vectors.data
	parallel.ForChunks(workers, n, ritzChunk, func(_, lo, hi int) {
		for j := 0; j < m; j++ {
			bj := basis[j]
			zrow := z.data[j*m : (j+1)*m]
			for row := lo; row < hi; row++ {
				b := bj[row]
				vrow := out[row*k : (row+1)*k]
				for col, s := range sel {
					vrow[col] += b * zrow[s]
				}
			}
		}
	})
	return values, vectors, m, nil
}

// converged decides the adaptive stop at basis size m = len(alpha) in two
// phases. First the cheap screen: eigensolve a copy of the tridiagonal
// projection and require every one of the k smallest pairs to pass the
// a-posteriori bound β_m·|z_{m,i}| ≤ adaptTol·scale (in exact arithmetic
// this IS the residual, so an unconverged basis rarely reaches phase two).
// Then the verification: assemble each candidate Ritz vector y = V·z_i and
// require the true residual ‖A·y − θ·y‖ ≤ adaptResTol·scale — the screen
// alone undershoots badly once reorthogonalization corrections (invisible
// to the tridiagonal) dominate.
// The assembly is strictly serial and mul is bit-identical for any worker
// count, so the stop decision — and therefore the solve — is too.
func (ws *LanczosWS) converged(mul MulVecFunc, basis [][]float64, alpha, beta []float64, bNext float64, k, n int) bool {
	m := len(alpha)
	ws.dwork = growFloats(ws.dwork, m)
	ws.ework = growFloats(ws.ework, m)
	d := ws.dwork
	e := ws.ework
	copy(d, alpha)
	for i := range e {
		e[i] = 0
	}
	copy(e[1:], beta[:min(m-1, len(beta))])
	z := ws.identity(m)
	if tql2(z, d, e) != nil {
		return false
	}
	sel := ws.selectSmallest(d, k)
	scale := 0.0
	for _, v := range d[:m] {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		scale = 1
	}
	for _, s := range sel {
		if bNext*math.Abs(z.data[(m-1)*m+int(s)]) > adaptTol*scale {
			return false
		}
	}
	// Screen passed: verify the true residuals.
	ws.resY = growFloats(ws.resY, n)
	ws.resAY = growFloats(ws.resAY, n)
	y, ay := ws.resY, ws.resAY
	for _, s := range sel {
		for i := range y {
			y[i] = 0
		}
		for j := 0; j < m; j++ {
			zj := z.data[j*m+int(s)]
			if zj == 0 {
				continue
			}
			bj := basis[j]
			for i := range y {
				y[i] += zj * bj[i]
			}
		}
		mul(ay, y)
		theta := d[s]
		res := 0.0
		for i := range y {
			r := ay[i] - theta*y[i]
			res += r * r
		}
		if math.Sqrt(res) > adaptResTol*scale {
			return false
		}
	}
	return true
}

// identity sizes zBuf as an m×m identity and returns a Dense header over it.
func (ws *LanczosWS) identity(m int) *Dense {
	ws.zBuf = growFloats(ws.zBuf, m*m)
	ws.zwork = Dense{rows: m, cols: m, data: ws.zBuf[:m*m]}
	z := &ws.zwork
	for i := range z.data {
		z.data[i] = 0
	}
	for i := 0; i < m; i++ {
		z.data[i*m+i] = 1
	}
	return z
}

// selectSmallest returns the indices of the k smallest entries of d in
// ascending value order (ties toward the lower index) without reordering d
// or the eigenvector matrix.
func (ws *LanczosWS) selectSmallest(d []float64, k int) []int32 {
	m := len(d)
	if cap(ws.selBuf) < k {
		ws.selBuf = make([]int32, k)
	}
	sel := ws.selBuf[:k]
	if cap(ws.usedBuf) < m {
		ws.usedBuf = make([]bool, m)
	}
	used := ws.usedBuf[:m]
	for i := range used {
		used[i] = false
	}
	for i := 0; i < k; i++ {
		best := -1
		for j := 0; j < m; j++ {
			if used[j] {
				continue
			}
			if best < 0 || d[j] < d[best] {
				best = j
			}
		}
		used[best] = true
		sel[i] = int32(best)
	}
	return sel
}

func normalize(v []float64) {
	n := math.Sqrt(dotVec(v, v))
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}

func dotVec(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
