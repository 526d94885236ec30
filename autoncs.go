// Package autoncs is an open reimplementation of AutoNCS, the EDA
// framework for large-scale hybrid neuromorphic computing systems (Wen et
// al., DAC 2015). Given a sparse neural network's binary connection matrix,
// it partitions the connections onto a library of fixed-size memristor
// crossbars plus discrete synapses via iterative spectral clustering, and
// produces a placed-and-routed physical design whose wirelength, area, and
// delay it reports.
//
// The typical flow:
//
//	net := autoncs.RandomSparseNetwork(400, 0.94, 1)
//	cfg := autoncs.DefaultConfig()
//	res, err := autoncs.Compile(net, cfg)        // the AutoNCS flow
//	base, err := autoncs.CompileFullCro(net, cfg) // max-size crossbar baseline
//	cmp := autoncs.Compare(res, base)             // Table 1 style reductions
//
// The heavy lifting lives in the internal packages (core, place, route,
// ...); this package wires them together and re-exports the types a caller
// needs.
package autoncs

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/hopfield"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/xbar"
)

// Re-exported types: the public API surface of the flow.
type (
	// Network is a square binary connection matrix over n neurons.
	Network = graph.Conn
	// Edge is one directed connection of a network.
	Edge = graph.Edge
	// Library is the set of allowed crossbar sizes.
	Library = xbar.Library
	// DeviceModel holds the substrate's geometric/electrical parameters.
	DeviceModel = xbar.DeviceModel
	// Assignment is the hybrid crossbar/synapse implementation topology.
	Assignment = xbar.Assignment
	// Crossbar is one crossbar instance of an assignment.
	Crossbar = xbar.Crossbar
	// Iteration is one recorded ISC round.
	Iteration = core.Iteration
	// Netlist is the physical-design cell/wire list.
	Netlist = netlist.Netlist
	// Placement is a legalized placement.
	Placement = place.Result
	// Routing is a routed design with congestion map.
	Routing = route.Result
	// CostReport is the evaluated physical cost (Eq. 3).
	CostReport = cost.Report
	// CostParams are the α, β, δ weights of Eq. 3.
	CostParams = cost.Params
	// PlaceOptions tunes the analytical placer.
	PlaceOptions = place.Options
	// RouteOptions tunes the grid maze router.
	RouteOptions = route.Options
	// Testbench describes one of the paper's Hopfield benchmarks.
	Testbench = hopfield.Testbench
	// HopfieldNetwork is a (sparsifiable) Hopfield associative memory.
	HopfieldNetwork = hopfield.Network
	// Pattern is a ±1 binary pattern stored in a Hopfield network.
	Pattern = hopfield.Pattern
	// Observer receives the flow's typed stage events (see Config.Observer).
	Observer = obs.Observer
	// Event is one typed observation from the compile flow; switch on the
	// obs package's concrete types to consume it.
	Event = obs.Event
	// Stage names one pipeline stage of the flow.
	Stage = obs.Stage
	// MetricsObserver is a ready-made thread-safe observer accumulating
	// event counts and per-stage wall times; its zero value is usable.
	MetricsObserver = obs.Metrics
	// MetricsSnapshot is the detached view a MetricsObserver's Snapshot
	// returns — counts, stage times, and the last summary events
	// (PlaceStats, ClusterStats).
	MetricsSnapshot = obs.MetricsSnapshot
)

// The pipeline stages, in execution order — the keys of Result.StageTimes.
const (
	StageClustering = obs.StageClustering
	StageNetlist    = obs.StageNetlist
	StagePlace      = obs.StagePlace
	StageRoute      = obs.StageRoute
	StageCost       = obs.StageCost
)

// The negotiated router's knob defaults, re-exported so callers can spell
// Config.Route values explicitly; a zero knob means the same default.
const (
	DefaultPresentFactor     = route.DefaultPresentFactor
	DefaultHistoryGain       = route.DefaultHistoryGain
	DefaultNegotiationRounds = route.DefaultNegotiationRounds
)

// Stages lists every pipeline stage in execution order, for deterministic
// iteration over Result.StageTimes.
func Stages() []Stage { return obs.Stages() }

// NewSlogObserver returns an observer rendering every event through the
// given structured logger: stage boundaries, ISC iterations, and capacity
// relaxations at Info; per-checkpoint placement progress and route batches
// at Debug.
func NewSlogObserver(l *slog.Logger) Observer { return obs.NewSlog(l) }

// MultiObserver fans events out to every non-nil observer in order.
func MultiObserver(os ...Observer) Observer { return obs.Multi(os...) }

// LoadNetwork reads a network from a file in the autoncs-net text format.
func LoadNetwork(path string) (*Network, error) { return graph.Load(path) }

// Corrupt flips the given fraction of bits of p, seeded by rng.
func Corrupt(p Pattern, fraction float64, rng *rand.Rand) Pattern {
	return hopfield.Corrupt(p, fraction, rng)
}

// Overlap returns the fraction of positions where two patterns agree.
func Overlap(a, b Pattern) float64 { return hopfield.Overlap(a, b) }

// NewNetwork returns an empty connection matrix over n neurons.
func NewNetwork(n int) *Network { return graph.NewConn(n) }

// RandomSparseNetwork returns a random symmetric network with the given
// sparsity, seeded deterministically.
func RandomSparseNetwork(n int, sparsity float64, seed int64) *Network {
	return graph.RandomSparse(n, sparsity, rand.New(rand.NewSource(seed)))
}

// DefaultLibrary returns the paper's crossbar sizes, 16..64 step 4.
func DefaultLibrary() Library { return xbar.DefaultLibrary() }

// NewLibrary builds a crossbar library from the given sizes (positive,
// deduplicated, sorted ascending).
func NewLibrary(sizes ...int) (Library, error) { return xbar.NewLibrary(sizes...) }

// Default45nm returns the calibrated 45 nm device model.
func Default45nm() DeviceModel { return xbar.Default45nm() }

// Testbenches returns the paper's three Hopfield benchmark configurations.
func Testbenches() []Testbench { return hopfield.Testbenches() }

// Config collects every knob of the flow. Use DefaultConfig and override.
type Config struct {
	// Library is the allowed crossbar size set.
	Library Library
	// Device is the substrate model used for netlist, delay, and cost.
	Device DeviceModel
	// UtilizationThreshold is ISC's stop threshold t:
	//
	//   - Zero (the zero-value default) means automatic: the average
	//     utilization of the FullCro baseline on the same network
	//     (Section 4.2: "the iteration of ISC stops when the average
	//     crossbar utilization is below that of the baseline design").
	//   - A value in (0, 1] is used as-is.
	//   - Any negative value (use DisabledThreshold for readability)
	//     requests an explicit threshold of zero, i.e. disables the
	//     utilization stopping rule entirely — the setting that a literal
	//     0 cannot express because 0 already means "auto". This mirrors
	//     SelectionQuantile, where negative likewise means "disable".
	//   - NaN and values above 1 are rejected by Compile.
	UtilizationThreshold float64
	// SelectionQuantile is the CP quantile of ISC's partial selection
	// strategy; zero means the paper's 0.75 (top 25%). Negative disables
	// partial selection (every cluster is realized each round).
	SelectionQuantile float64
	// Place tunes the analytical placer.
	Place PlaceOptions
	// Route tunes the grid router.
	Route RouteOptions
	// Cost holds the α, β, δ weights of Eq. 3.
	Cost CostParams
	// Seed drives all randomized steps (k-means seeding).
	Seed int64
	// Workers bounds the worker pool running the flow's data-parallel
	// kernels (spectral solves, k-means, CP scoring, maze-route batches).
	// Zero means runtime.NumCPU() (or the process default installed with
	// a --workers flag); negative values are rejected by Compile.
	//
	// Determinism contract: the compiled result is bit-identical for
	// every worker count — Workers=1 reproduces the serial flow exactly.
	// All parallel kernels either touch disjoint per-index state or
	// reduce partial results in an order fixed by the input alone, and
	// every random stream is consumed on a single goroutine in a fixed
	// order derived from Seed.
	Workers int
	// SkipPhysical stops after clustering: Netlist, Placement, Routing and
	// Report stay nil. Useful when only the mapping is of interest.
	SkipPhysical bool
	// Multilevel enables the multilevel clustering engine: heavy-edge-
	// matching coarsening down to MultilevelCutoff, spectral partitioning of
	// the coarse graph, and uncoarsening with boundary-local Fiedler
	// refinement; the tail at or below the cutoff runs the flat engine. Off by
	// default — the flat engine is the paper-faithful reference path whose
	// results are golden-pinned; the multilevel path trades bit-compatible
	// clusterings for near-linear scaling on large networks (its results are
	// still bit-identical for any worker count, and carry their own goldens
	// and quality gates).
	Multilevel bool
	// MultilevelCutoff is the active-neuron count at or below which an ISC
	// iteration uses the flat engine, and the size coarsening aims for. Zero
	// means core.DefaultMultilevelCutoff (1024); values below 2 are
	// rejected. Validated even when Multilevel is off, so a config is either
	// valid or not regardless of the escape hatch.
	MultilevelCutoff int
	// CoarsenRatio is the minimum shrink a coarsening level must achieve to
	// continue (coarse/fine node count). Zero means
	// core.DefaultCoarsenRatio (0.9); values outside (0,1) are rejected.
	CoarsenRatio float64
	// MultilevelLevels bounds the coarsening depth; zero means unbounded,
	// negative is rejected.
	MultilevelLevels int
	// Observer, when non-nil, receives the flow's typed stage events:
	// compile start/end, stage boundaries with wall times, per-ISC-iteration
	// records, placement λ-loop progress, and router batch/relaxation
	// counters. Observers are passive — they see values the flow computes
	// anyway and are called from the flow's single control goroutine — so
	// attaching one never changes the compiled result.
	Observer Observer
}

// DisabledThreshold is a readable UtilizationThreshold sentinel requesting
// an explicit stop threshold of zero (the utilization stopping rule is
// disabled; ISC runs until its other termination conditions fire). A plain
// 0 cannot express this because the zero value means "auto".
const DisabledThreshold = -1.0

// DefaultConfig returns the configuration used in the paper's experiments.
func DefaultConfig() Config {
	return Config{
		Library: DefaultLibrary(),
		Device:  Default45nm(),
		Place:   place.DefaultOptions(),
		Route:   route.DefaultOptions(),
		Cost:    cost.DefaultParams(),
		Seed:    1,
	}
}

// Result bundles everything the flow produces.
type Result struct {
	// Assignment is the hybrid mapping (always present).
	Assignment *Assignment
	// Trace is the per-iteration ISC record (nil for FullCro).
	Trace []Iteration
	// Netlist, Placement, Routing, Report are the physical design
	// artifacts (nil when SkipPhysical is set).
	Netlist   *Netlist
	Placement *Placement
	Routing   *Routing
	Report    *CostReport
	// StageTimes is the wall time of each executed pipeline stage, keyed
	// by the Stage constants (iterate with Stages() for a deterministic
	// order). It is diagnostic only: no golden summary includes it.
	StageTimes map[Stage]time.Duration
	// Device records the device model the netlist (and every cost figure)
	// was built with; Redesign refuses a Config carrying a different one.
	Device DeviceModel
}

// Compile runs the complete AutoNCS flow on the network: ISC clustering
// into the crossbar library, then placement, routing, and cost evaluation.
// It is CompileCtx under context.Background().
func Compile(net *Network, cfg Config) (*Result, error) {
	return CompileCtx(context.Background(), net, cfg)
}

// CompileCtx runs the complete AutoNCS flow under a context. Cancellation
// is cooperative and promptly honoured: the flow checks ctx at every ISC
// iteration, every placement λ checkpoint, and every route batch (including
// between the strides of the parallel maze searches), returning ctx.Err()
// wrapped with the stage that was cancelled. cfg.Observer — if set —
// receives the flow's typed stage events as it runs. Neither the context
// checks nor the observer perturb the result: an uncancelled CompileCtx is
// bit-identical to Compile with no observer, for every worker count.
func CompileCtx(ctx context.Context, net *Network, cfg Config) (*Result, error) {
	if err := validateInput(net, cfg); err != nil {
		return nil, err
	}
	ob := cfg.Observer
	start := time.Now()
	obs.Emit(ob, obs.CompileStart{Neurons: net.N(), Connections: net.NNZ(), Workers: cfg.Workers})
	res := &Result{Device: cfg.Device, StageTimes: make(map[Stage]time.Duration)}
	err := res.runStage(ob, StageClustering, func() error {
		iscRes, err := core.ISCCtx(ctx, net, core.ISCOptions{
			Library:              cfg.Library,
			UtilizationThreshold: resolveThreshold(net, cfg),
			SelectionQuantile:    cfg.SelectionQuantile,
			Rand:                 rand.New(rand.NewSource(cfg.Seed)),
			Workers:              cfg.Workers,
			Observer:             ob,
			Multilevel:           cfg.Multilevel,
			MultilevelCutoff:     cfg.MultilevelCutoff,
			CoarsenRatio:         cfg.CoarsenRatio,
			MultilevelLevels:     cfg.MultilevelLevels,
		})
		if err != nil {
			return fmt.Errorf("autoncs: clustering: %w", err)
		}
		res.Assignment, res.Trace = iscRes.Assignment, iscRes.Trace
		return nil
	})
	if err == nil && !cfg.SkipPhysical {
		err = res.physicalDesign(ctx, cfg)
	}
	obs.Emit(ob, obs.CompileEnd{Elapsed: time.Since(start), Err: err})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// CompileFullCro runs the paper's baseline: the network realized with
// maximum-size crossbars only (one per non-empty block), then the same
// physical design flow. It is CompileFullCroCtx under context.Background().
func CompileFullCro(net *Network, cfg Config) (*Result, error) {
	return CompileFullCroCtx(context.Background(), net, cfg)
}

// CompileFullCroCtx is CompileFullCro under a context, with the same
// cancellation and observation semantics as CompileCtx (the clustering
// stage is the FullCro block construction, which is not interruptible but
// fast).
func CompileFullCroCtx(ctx context.Context, net *Network, cfg Config) (*Result, error) {
	if err := validateInput(net, cfg); err != nil {
		return nil, err
	}
	ob := cfg.Observer
	start := time.Now()
	obs.Emit(ob, obs.CompileStart{Neurons: net.N(), Connections: net.NNZ(), Workers: cfg.Workers})
	res := &Result{Device: cfg.Device, StageTimes: make(map[Stage]time.Duration)}
	err := res.runStage(ob, StageClustering, func() error {
		res.Assignment = xbar.FullCro(net, cfg.Library)
		return nil
	})
	if err == nil && !cfg.SkipPhysical {
		err = res.physicalDesign(ctx, cfg)
	}
	obs.Emit(ob, obs.CompileEnd{Elapsed: time.Since(start), Err: err})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// resolveThreshold maps Config.UtilizationThreshold to the concrete ISC
// stop threshold: zero means automatic (the FullCro baseline's average
// utilization on the same network), negative means an explicit zero
// (utilization stopping disabled), anything else passes through.
func resolveThreshold(net *Network, cfg Config) float64 {
	switch t := cfg.UtilizationThreshold; {
	case t == 0:
		return xbar.FullCro(net, cfg.Library).AvgUtilization()
	case t < 0:
		return 0
	default:
		return t
	}
}

// runStage times f as the named pipeline stage, recording the wall time on
// res.StageTimes and emitting the stage boundary events.
func (res *Result) runStage(ob Observer, stage Stage, f func() error) error {
	if res.StageTimes == nil {
		res.StageTimes = make(map[Stage]time.Duration)
	}
	obs.Emit(ob, obs.StageStart{Stage: stage})
	t := time.Now()
	err := f()
	d := time.Since(t)
	res.StageTimes[stage] = d
	obs.Emit(ob, obs.StageEnd{Stage: stage, Elapsed: d, Err: err})
	return err
}

// validateInput rejects the degenerate configurations and inputs that used
// to surface as panics deep inside the clustering or placement stages.
func validateInput(net *Network, cfg Config) error {
	if net == nil {
		return fmt.Errorf("autoncs: nil network")
	}
	if net.N() == 0 {
		return fmt.Errorf("autoncs: empty network (0 neurons)")
	}
	if net.NNZ() == 0 {
		return fmt.Errorf("autoncs: network with %d neurons has no connections", net.N())
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("autoncs: Config.Workers = %d is negative; use 0 for runtime.NumCPU()", cfg.Workers)
	}
	if cfg.Library.Empty() {
		return fmt.Errorf("autoncs: empty crossbar library (use DefaultLibrary)")
	}
	if math.IsNaN(cfg.UtilizationThreshold) {
		return fmt.Errorf("autoncs: Config.UtilizationThreshold is NaN; use 0 for auto or DisabledThreshold to disable the stopping rule")
	}
	if cfg.UtilizationThreshold > 1 {
		return fmt.Errorf("autoncs: Config.UtilizationThreshold = %g exceeds 1; utilization is a fraction in [0,1]", cfg.UtilizationThreshold)
	}
	if math.IsNaN(cfg.SelectionQuantile) {
		return fmt.Errorf("autoncs: Config.SelectionQuantile is NaN; use 0 for the paper's 0.75 or a negative value to disable partial selection")
	}
	if cfg.SelectionQuantile > 1 {
		return fmt.Errorf("autoncs: Config.SelectionQuantile = %g exceeds 1; quantiles lie in [0,1]", cfg.SelectionQuantile)
	}
	if cfg.MultilevelCutoff != 0 && cfg.MultilevelCutoff < 2 {
		return fmt.Errorf("autoncs: Config.MultilevelCutoff = %d below 2; use 0 for the default (%d)", cfg.MultilevelCutoff, core.DefaultMultilevelCutoff)
	}
	if cfg.CoarsenRatio != 0 && (math.IsNaN(cfg.CoarsenRatio) || cfg.CoarsenRatio <= 0 || cfg.CoarsenRatio >= 1) {
		return fmt.Errorf("autoncs: Config.CoarsenRatio = %g outside (0,1); use 0 for the default (%g)", cfg.CoarsenRatio, core.DefaultCoarsenRatio)
	}
	if cfg.MultilevelLevels < 0 {
		return fmt.Errorf("autoncs: Config.MultilevelLevels = %d is negative; use 0 for unbounded", cfg.MultilevelLevels)
	}
	return nil
}

// routeOptions is cfg.Route with an unset Workers knob inheriting the
// flow-level Config.Workers and an unset Observer inheriting the flow's.
func routeOptions(cfg Config) RouteOptions {
	ro := cfg.Route
	if ro.Workers == 0 {
		ro.Workers = cfg.Workers
	}
	if ro.Observer == nil {
		ro.Observer = cfg.Observer
	}
	return ro
}

// placeOptions is cfg.Place with an unset Workers knob inheriting the
// flow-level Config.Workers and an unset Observer inheriting the flow's.
func placeOptions(cfg Config) PlaceOptions {
	po := cfg.Place
	if po.Workers == 0 {
		po.Workers = cfg.Workers
	}
	if po.Observer == nil {
		po.Observer = cfg.Observer
	}
	return po
}

// physicalDesign runs netlist → place → route → cost on res.Assignment,
// timing each stage and honouring ctx in the place and route loops.
func (res *Result) physicalDesign(ctx context.Context, cfg Config) error {
	ob := cfg.Observer
	var nl *Netlist
	if err := res.runStage(ob, StageNetlist, func() error {
		var err error
		if nl, err = netlist.Build(res.Assignment, cfg.Device); err != nil {
			return fmt.Errorf("autoncs: netlist: %w", err)
		}
		return nil
	}); err != nil {
		return err
	}
	var pl *Placement
	if err := res.runStage(ob, StagePlace, func() error {
		var err error
		if pl, err = place.PlaceCtx(ctx, nl, placeOptions(cfg)); err != nil {
			return fmt.Errorf("autoncs: placement: %w", err)
		}
		return nil
	}); err != nil {
		return err
	}
	var rt *Routing
	if err := res.runStage(ob, StageRoute, func() error {
		var err error
		if rt, err = route.RouteCtx(ctx, nl, pl, routeOptions(cfg)); err != nil {
			return fmt.Errorf("autoncs: routing: %w", err)
		}
		return nil
	}); err != nil {
		return err
	}
	var rep *CostReport
	if err := res.runStage(ob, StageCost, func() error {
		var err error
		if rep, err = cost.Evaluate(nl, pl, rt, cfg.Device, cfg.Cost); err != nil {
			return fmt.Errorf("autoncs: cost: %w", err)
		}
		return nil
	}); err != nil {
		return err
	}
	res.Netlist, res.Placement, res.Routing, res.Report = nl, pl, rt, rep
	return nil
}

// Redesign re-runs placement, routing, and cost evaluation on the result's
// existing netlist — useful after modifying it (e.g. flattening wire
// weights for an ablation). It is RedesignCtx under context.Background().
func (res *Result) Redesign(cfg Config) error {
	return res.RedesignCtx(context.Background(), cfg)
}

// RedesignCtx re-runs placement, routing, and cost evaluation on the
// result's existing netlist under a context, with the same cooperative
// cancellation points as CompileCtx's physical stages. It requires a prior
// non-SkipPhysical compile, and it refuses a cfg whose Device differs from
// the one the netlist was built with: geometry and delay constants are
// baked into the netlist at Build time, so evaluating it under another
// device silently produces inconsistent area/delay reports.
func (res *Result) RedesignCtx(ctx context.Context, cfg Config) error {
	if res.Netlist == nil {
		return fmt.Errorf("autoncs: Redesign requires an existing netlist")
	}
	if cfg.Device != res.Device {
		return fmt.Errorf("autoncs: Redesign device model differs from the %v the netlist was built with; keep cfg.Device, or re-run Compile to rebuild the netlist", res.Device)
	}
	ob := cfg.Observer
	var pl *Placement
	if err := res.runStage(ob, StagePlace, func() error {
		var err error
		if pl, err = place.PlaceCtx(ctx, res.Netlist, placeOptions(cfg)); err != nil {
			return fmt.Errorf("autoncs: placement: %w", err)
		}
		return nil
	}); err != nil {
		return err
	}
	var rt *Routing
	if err := res.runStage(ob, StageRoute, func() error {
		var err error
		if rt, err = route.RouteCtx(ctx, res.Netlist, pl, routeOptions(cfg)); err != nil {
			return fmt.Errorf("autoncs: routing: %w", err)
		}
		return nil
	}); err != nil {
		return err
	}
	var rep *CostReport
	if err := res.runStage(ob, StageCost, func() error {
		var err error
		if rep, err = cost.Evaluate(res.Netlist, pl, rt, cfg.Device, cfg.Cost); err != nil {
			return fmt.Errorf("autoncs: cost: %w", err)
		}
		return nil
	}); err != nil {
		return err
	}
	res.Placement, res.Routing, res.Report = pl, rt, rep
	return nil
}

// Comparison holds the Table 1 style reductions of a design versus a
// baseline, in percent (positive = the design is better).
type Comparison struct {
	WirelengthReduction float64
	AreaReduction       float64
	DelayReduction      float64
	CostReduction       float64
}

// Compare returns the percentage reductions of res versus base. Both
// results must carry cost reports (i.e. not compiled with SkipPhysical).
func Compare(res, base *Result) (Comparison, error) {
	if res == nil || base == nil || res.Report == nil || base.Report == nil {
		return Comparison{}, fmt.Errorf("autoncs: Compare requires cost reports on both results")
	}
	return Comparison{
		WirelengthReduction: cost.Reduction(res.Report.Wirelength, base.Report.Wirelength),
		AreaReduction:       cost.Reduction(res.Report.Area, base.Report.Area),
		DelayReduction:      cost.Reduction(res.Report.AvgDelay, base.Report.AvgDelay),
		CostReduction:       cost.Reduction(res.Report.Cost, base.Report.Cost),
	}, nil
}

// BuildTestbench trains, sparsifies, and returns the connection matrix of
// one of the paper's Hopfield testbenches (deterministic in seed).
func BuildTestbench(tb Testbench, seed int64) *Network {
	cm, _, _ := tb.Build(seed)
	return cm
}
