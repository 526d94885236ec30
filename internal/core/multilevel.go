// Multilevel clustering engine: the Group Scissor-style coarsen → solve →
// uncoarsen flow that replaces the flat GCP spectral pass for large active
// networks. Heavy-edge matching contracts the cached CSR level by level down
// to a size cutoff, recursive weighted spectral bisection partitions the
// coarse graph (eigensolves of independent parts fan out over the worker
// pool), and the partition is projected back up with boundary-local
// refinement ordered by the prolonged Fiedler coordinate at every level.
//
// Determinism contract: matchings, coarse ids, bisection sweeps, and
// refinement commits are pure functions of the input graph — the only
// parallel kernels (per-part eigensolves, per-node gain scans) write
// disjoint slots and commit in fixed part/node order, so the clustering is
// bit-identical for every worker count, which TestClusterWorkerInvariance
// enforces.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// Defaults and dispatch constants of the multilevel engine.
const (
	// DefaultMultilevelCutoff is the coarse-graph size the hierarchy aims
	// for: coarsening stops once a level has at most this many nodes, and
	// ISC iterations whose active network is already at or below it run the
	// flat engine unchanged.
	DefaultMultilevelCutoff = 1024
	// DefaultCoarsenRatio is the minimum shrink a level must achieve for
	// coarsening to continue: the hierarchy stops early when a matching
	// leaves more than this fraction of the nodes.
	DefaultCoarsenRatio = 0.9
	// mlDenseBisect is the part size at or below which a bisection solves
	// the dense generalized eigenproblem; larger parts use weighted Lanczos.
	mlDenseBisect = 96
	// mlRefinePasses bounds the boundary refinement sweeps per level.
	mlRefinePasses = 2
	// lanczosSeed seeds every spectral solve's start vector (the same
	// constant the flat path has always used).
	lanczosSeed = 0x5eed
)

// EngineStats summarizes the clustering engine's work across one ISC run —
// the core-side counterpart of the obs.ClusterStats event, mirrored on
// ISCResult for programmatic access. Every counter is deterministic for any
// worker count; the timings are diagnostic only.
type EngineStats struct {
	MultilevelRounds int // ISC iterations clustered by the multilevel engine
	FlatRounds       int // ISC iterations on the flat engine (below cutoff)
	Levels           int // coarsening levels built, summed over rounds
	MaxDepth         int // deepest hierarchy of any round
	Matchings        int // pairwise heavy-edge contractions committed
	Eigensolves      int // bisection eigensolves (flat rounds are not counted)
	LanczosSteps     int // Krylov steps across the bisections' adaptive Lanczos solves
	RefineMoves      int // boundary moves applied during uncoarsening
	CoarsenTime      time.Duration
	SolveTime        time.Duration
	RefineTime       time.Duration
}

// mlOptions is the normalized multilevel configuration carried on a scratch.
type mlOptions struct {
	enabled   bool
	cutoff    int
	ratio     float64
	maxLevels int // 0 = unbounded
}

// mlScratch holds the grow-once storage of the multilevel engine: the
// hierarchy (graphs and parent maps per level), the per-level partition and
// Fiedler buffers, and the refinement scratch. One mlScratch serves every
// iteration of an ISC run.
type mlScratch struct {
	graphs   []*graph.WGraph
	parents  [][]int32
	cws      graph.CoarsenWS
	parts    [][]int32
	fiedlers [][]float64

	// refinement scratch
	partW  []int32
	gain   []float64
	target []int32
	cand   []int32

	// component scan scratch (top-level partitioning)
	visited []bool
	stack   []int32
}

func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func (ml *mlScratch) graphAt(level int) *graph.WGraph {
	for len(ml.graphs) <= level {
		ml.graphs = append(ml.graphs, &graph.WGraph{})
	}
	return ml.graphs[level]
}

func (ml *mlScratch) partFor(level, n int) []int32 {
	for len(ml.parts) <= level {
		ml.parts = append(ml.parts, nil)
	}
	ml.parts[level] = growI32(ml.parts[level], n)
	return ml.parts[level]
}

func (ml *mlScratch) fiedlerFor(level, n int) []float64 {
	for len(ml.fiedlers) <= level {
		ml.fiedlers = append(ml.fiedlers, nil)
	}
	ml.fiedlers[level] = growF64(ml.fiedlers[level], n)
	return ml.fiedlers[level]
}

// multilevelCluster partitions the remaining network's active neurons into
// clusters of at most maxSize neurons with the V-shaped multilevel flow.
func multilevelCluster(w *graph.Conn, maxSize, workers int, sc *scratch) ([]Cluster, error) {
	csr := w.SymmetrizedCSR()
	active, g2l := sc.collectActive(csr, w.N())
	if len(active) == 0 {
		return nil, nil
	}
	local := csr.RestrictTo(active, g2l, &sc.local)
	if sc.mlSc == nil {
		sc.mlSc = &mlScratch{}
	}
	ml, st := sc.mlSc, sc.stats

	// Coarsening: heavy-edge matchings until the cutoff, a stalled
	// matching, a poor shrink, or the level cap.
	t0 := time.Now()
	graph.WGraphFromCSR(local, ml.graphAt(0))
	depth := 0
	for {
		cur := ml.graphs[depth]
		if cur.N <= sc.ml.cutoff {
			break
		}
		if sc.ml.maxLevels > 0 && depth >= sc.ml.maxLevels {
			break
		}
		next := ml.graphAt(depth + 1)
		for len(ml.parents) <= depth {
			ml.parents = append(ml.parents, nil)
		}
		par, matched := graph.Coarsen(cur, maxSize, next, ml.parents[depth], &ml.cws)
		ml.parents[depth] = par
		if matched == 0 {
			break
		}
		st.Matchings += matched
		st.Levels++
		depth++
		if float64(next.N) > sc.ml.ratio*float64(cur.N) {
			break
		}
	}
	if depth > st.MaxDepth {
		st.MaxDepth = depth
	}
	st.CoarsenTime += time.Since(t0)

	// Coarse partitioning by recursive weighted spectral bisection.
	t1 := time.Now()
	top := ml.graphs[depth]
	part := ml.partFor(depth, top.N)
	fied := ml.fiedlerFor(depth, top.N)
	if err := partitionCoarse(top, maxSize, workers, part, fied, ml, st); err != nil {
		return nil, err
	}
	st.SolveTime += time.Since(t1)

	// Uncoarsening: project the partition and the Fiedler coordinates one
	// level down, then refine the boundary at that level.
	t2 := time.Now()
	for l := depth - 1; l >= 0; l-- {
		fg := ml.graphs[l]
		pf := ml.partFor(l, fg.N)
		ff := ml.fiedlerFor(l, fg.N)
		par := ml.parents[l]
		for v := 0; v < fg.N; v++ {
			pf[v] = part[par[v]]
			ff[v] = fied[par[v]]
		}
		refine(fg, pf, ff, maxSize, mlRefinePasses, workers, ml, st)
		part, fied = pf, ff
	}
	st.RefineTime += time.Since(t2)

	return groupClusters(part, active), nil
}

// groupClusters converts the level-0 partition into clusters of global
// neuron ids: parts in id order, members ascending, empties dropped.
func groupClusters(part []int32, active []int) []Cluster {
	numParts := 0
	for _, p := range part {
		if int(p) >= numParts {
			numParts = int(p) + 1
		}
	}
	counts := make([]int, numParts)
	for _, p := range part {
		counts[p]++
	}
	out := make([]Cluster, 0, numParts)
	slot := make([]int, numParts)
	for p := 0; p < numParts; p++ {
		slot[p] = -1
		if counts[p] > 0 {
			slot[p] = len(out)
			out = append(out, make(Cluster, 0, counts[p]))
		}
	}
	for v, p := range part {
		s := slot[p]
		out[s] = append(out[s], active[v])
	}
	return out
}

// splitResult is the outcome of one bisection task: either the connected
// components of a disconnected part, or the two sides of a Fiedler sweep cut
// with the per-node Fiedler coordinates for the refinement ordering.
type splitResult struct {
	nodes  []int32
	groups [][]int32
	vals   []float64 // aligned with nodes; nil when no eigensolve ran
	solves int
	steps  int
	err    error
}

// partitionCoarse partitions g into parts of node weight at most maxSize:
// connected components seed the work list, every oversized part is split by
// weighted spectral bisection, and splits of independent parts run in
// parallel with results committed in fixed part order — part ids depend only
// on g and maxSize, never on the worker count.
func partitionCoarse(g *graph.WGraph, maxSize, workers int, part []int32, fied []float64, ml *mlScratch, st *EngineStats) error {
	for i := range part {
		part[i] = -1
	}
	for i := range fied {
		fied[i] = 0
	}
	tasks := components(g, ml)
	nextID := int32(0)
	for len(tasks) > 0 {
		var over [][]int32
		for _, nodes := range tasks {
			wsum := 0
			for _, v := range nodes {
				wsum += int(g.NodeW[v])
			}
			if wsum <= maxSize {
				for _, v := range nodes {
					part[v] = nextID
				}
				nextID++
				continue
			}
			over = append(over, nodes)
		}
		if len(over) == 0 {
			break
		}
		results := parallel.Map(workers, len(over), func(i int) *splitResult {
			return splitPart(g, over[i], maxSize)
		})
		tasks = nil
		for _, r := range results {
			if r.err != nil {
				return r.err
			}
			st.Eigensolves += r.solves
			st.LanczosSteps += r.steps
			if r.vals != nil {
				for i, v := range r.nodes {
					fied[v] = r.vals[i]
				}
			}
			tasks = append(tasks, r.groups...)
		}
	}
	return nil
}

// components returns the connected components of g, each an ascending node
// list, ordered by smallest member.
func components(g *graph.WGraph, ml *mlScratch) [][]int32 {
	n := g.N
	if cap(ml.visited) < n {
		ml.visited = make([]bool, n)
	}
	visited := ml.visited[:n]
	for i := range visited {
		visited[i] = false
	}
	ml.stack = growI32(ml.stack, n)
	var out [][]int32
	for s := 0; s < n; s++ {
		if visited[s] {
			continue
		}
		stack := ml.stack[:0]
		stack = append(stack, int32(s))
		visited[s] = true
		var comp []int32
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, u := range g.Row(int(v)) {
				if !visited[u] {
					visited[u] = true
					stack = append(stack, u)
				}
			}
		}
		sort.Slice(comp, func(a, b int) bool { return comp[a] < comp[b] })
		out = append(out, comp)
	}
	return out
}

// mlSeed derives the deterministic rng seed of a bisection solve from the
// part's content alone, so the solve is a pure function of (g, nodes).
func mlSeed(nodes []int32) int64 {
	return lanczosSeed ^ int64(len(nodes))<<32 ^ int64(nodes[0])
}

// splitPart splits one oversized part. A disconnected part splits into its
// components; a connected one is cut at the weighted median of its Fiedler
// vector (dense generalized eigensolve for small parts, weighted normalized-
// Laplacian Lanczos above mlDenseBisect). Runs on worker goroutines: it
// reads only g and allocates its own scratch.
func splitPart(g *graph.WGraph, nodes []int32, maxSize int) *splitResult {
	r := &splitResult{nodes: nodes}
	m := len(nodes)
	loc := make([]int32, g.N)
	for i := range loc {
		loc[i] = -1
	}
	for i, v := range nodes {
		loc[v] = int32(i)
	}
	if comps := subComponents(g, nodes, loc); len(comps) > 1 {
		r.groups = comps
		return r
	}

	// Restrict to the part.
	rowPtr := make([]int32, m+1)
	nnz := 0
	for _, v := range nodes {
		for _, u := range g.Row(int(v)) {
			if loc[u] >= 0 {
				nnz++
			}
		}
	}
	col := make([]int32, 0, nnz)
	wts := make([]float64, 0, nnz)
	deg := make([]float64, m)
	for i, v := range nodes {
		row, roww := g.Row(int(v)), g.RowW(int(v))
		for e, u := range row {
			if loc[u] < 0 {
				continue
			}
			col = append(col, loc[u])
			wts = append(wts, roww[e])
			deg[i] += roww[e]
		}
		rowPtr[i+1] = int32(len(col))
	}

	f := make([]float64, m)
	if m <= mlDenseBisect {
		l := matrix.NewDense(m, m)
		for i := 0; i < m; i++ {
			for e := rowPtr[i]; e < rowPtr[i+1]; e++ {
				l.Set(i, int(col[e]), -wts[e])
			}
			l.Set(i, i, deg[i])
		}
		_, u, err := matrix.GeneralizedSymN(l, deg, 1)
		if err != nil {
			r.err = fmt.Errorf("core: multilevel bisection (m=%d): %w", m, err)
			return r
		}
		for i := 0; i < m; i++ {
			f[i] = u.At(i, 1)
		}
		r.solves++
	} else {
		op, err := matrix.NormalizedLaplacianWeightedCSRN(m, deg, rowPtr, col, wts, 1)
		if err != nil {
			r.err = fmt.Errorf("core: multilevel bisection (m=%d): %w", m, err)
			return r
		}
		var lws matrix.LanczosWS
		_, vecs, steps, err := matrix.LanczosSmallestAdaptive(&lws, op, m, 2, rand.New(rand.NewSource(mlSeed(nodes))), 1)
		if err != nil {
			r.err = fmt.Errorf("core: multilevel bisection (m=%d): %w", m, err)
			return r
		}
		for i := 0; i < m; i++ {
			f[i] = vecs.At(i, 1) / math.Sqrt(deg[i])
		}
		r.solves++
		r.steps = steps
	}
	r.vals = f

	// Weighted-median sweep cut in Fiedler order (ties by index, so a
	// degenerate vector degrades to a weight-balanced index cut).
	order := make([]int32, m)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if f[ia] != f[ib] {
			return f[ia] < f[ib]
		}
		return ia < ib
	})
	total := 0
	for _, v := range nodes {
		total += int(g.NodeW[v])
	}
	cut, cum := 0, 0
	for i := 0; i < m-1; i++ {
		cum += int(g.NodeW[nodes[order[i]]])
		if 2*cum >= total {
			cut = i + 1
			break
		}
	}
	if cut < 1 {
		cut = m - 1
	}
	left := make([]int32, 0, cut)
	right := make([]int32, 0, m-cut)
	for _, o := range order[:cut] {
		left = append(left, nodes[o])
	}
	for _, o := range order[cut:] {
		right = append(right, nodes[o])
	}
	sortI32(left)
	sortI32(right)
	r.groups = [][]int32{left, right}
	return r
}

// subComponents returns the connected components of the induced subgraph
// over nodes (loc maps global→part-local, -1 outside), each ascending, in
// order of smallest member. Single-component parts return one group.
func subComponents(g *graph.WGraph, nodes []int32, loc []int32) [][]int32 {
	m := len(nodes)
	visited := make([]bool, m)
	stack := make([]int32, 0, m)
	var out [][]int32
	for s := 0; s < m; s++ {
		if visited[s] {
			continue
		}
		stack = stack[:0]
		stack = append(stack, int32(s))
		visited[s] = true
		var comp []int32
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, nodes[i])
			for _, u := range g.Row(int(nodes[i])) {
				if li := loc[u]; li >= 0 && !visited[li] {
					visited[li] = true
					stack = append(stack, li)
				}
			}
		}
		sortI32(comp)
		out = append(out, comp)
	}
	return out
}

func sortI32(s []int32) {
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
}

// bestMove computes node v's best strictly-improving move: the adjacent part
// maximizing the connectivity gain (weight to the part minus weight kept in
// its own), ties toward the smaller part id. Returns (-1, 0) when no move
// improves. Reads only g and part, so gain scans fan out race-free.
func bestMove(g *graph.WGraph, part []int32, v int) (int32, float64) {
	own := part[v]
	row, roww := g.Row(v), g.RowW(v)
	wOwn := 0.0
	for e, u := range row {
		if part[u] == own {
			wOwn += roww[e]
		}
	}
	bestP, bestG := int32(-1), 0.0
	for e, u := range row {
		p := part[u]
		if p == own {
			continue
		}
		dup := false
		for e2 := 0; e2 < e; e2++ {
			if part[row[e2]] == p {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		wp := roww[e]
		for e2 := e + 1; e2 < len(row); e2++ {
			if part[row[e2]] == p {
				wp += roww[e2]
			}
		}
		gn := wp - wOwn
		if gn <= 0 {
			continue
		}
		if bestP < 0 || gn > bestG || (gn == bestG && p < bestP) {
			bestP, bestG = p, gn
		}
	}
	return bestP, bestG
}

// refine runs boundary-local passes over one level: gains are computed for
// every node in parallel (disjoint slots), candidates are ordered by (gain
// desc, prolonged Fiedler asc, id asc) on the control goroutine, and commits
// re-validate each move against the current partition and the maxSize cap —
// so the committed sequence is a pure function of the inputs. Zero
// steady-state allocations once the mlScratch has grown (the alloc pin).
func refine(g *graph.WGraph, part []int32, fied []float64, maxSize, passes, workers int, ml *mlScratch, st *EngineStats) {
	n := g.N
	numParts := 0
	for _, p := range part {
		if int(p) >= numParts {
			numParts = int(p) + 1
		}
	}
	ml.partW = growI32(ml.partW, numParts)
	partW := ml.partW
	for i := range partW {
		partW[i] = 0
	}
	for v, p := range part {
		partW[p] += g.NodeW[v]
	}
	ml.gain = growF64(ml.gain, n)
	ml.target = growI32(ml.target, n)
	ml.cand = growI32(ml.cand, n)
	gain, target := ml.gain, ml.target

	for pass := 0; pass < passes; pass++ {
		if workers <= 1 {
			for v := 0; v < n; v++ {
				target[v], gain[v] = bestMove(g, part, v)
			}
		} else {
			parallel.For(workers, n, func(v int) {
				target[v], gain[v] = bestMove(g, part, v)
			})
		}
		cand := ml.cand[:0]
		for v := 0; v < n; v++ {
			if target[v] >= 0 {
				cand = append(cand, int32(v))
			}
		}
		sortMoves(cand, gain, fied)
		moved := 0
		for _, v32 := range cand {
			v := int(v32)
			t, own := target[v], part[v]
			if int(partW[t])+int(g.NodeW[v]) > maxSize {
				continue
			}
			// Re-validate against the current partition: earlier commits in
			// this pass may have changed the neighborhood.
			row, roww := g.Row(v), g.RowW(v)
			wOwn, wT := 0.0, 0.0
			for e, u := range row {
				switch part[u] {
				case own:
					wOwn += roww[e]
				case t:
					wT += roww[e]
				}
			}
			if wT-wOwn <= 0 {
				continue
			}
			part[v] = t
			partW[t] += g.NodeW[v]
			partW[own] -= g.NodeW[v]
			moved++
		}
		st.RefineMoves += moved
		if moved == 0 {
			break
		}
	}
}

// sortMoves shellsorts the candidate nodes by (gain desc, Fiedler asc,
// id asc) — deterministic and allocation-free.
func sortMoves(cand []int32, gain, fied []float64) {
	n := len(cand)
	gap := 1
	for gap < n/3 {
		gap = 3*gap + 1
	}
	for ; gap > 0; gap /= 3 {
		for i := gap; i < n; i++ {
			c := cand[i]
			j := i
			for ; j >= gap && moveBefore(c, cand[j-gap], gain, fied); j -= gap {
				cand[j] = cand[j-gap]
			}
			cand[j] = c
		}
	}
}

// moveBefore reports whether candidate a commits before candidate b.
func moveBefore(a, b int32, gain, fied []float64) bool {
	if gain[a] != gain[b] {
		return gain[a] > gain[b]
	}
	if fied[a] != fied[b] {
		return fied[a] < fied[b]
	}
	return a < b
}
