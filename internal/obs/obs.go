// Package obs is the passive observation layer of the compile flow: typed
// stage events that the pipeline emits as it runs, an Observer interface to
// receive them, and two ready-made observers (a slog-backed structured
// logger and a thread-safe metrics accumulator).
//
// Observers are strictly passive: they receive values that the flow has
// already computed for its own purposes and can neither mutate flow state
// nor perturb any floating-point result, so attaching one never changes a
// compile — the bit-exact any-worker-count determinism contract and the
// golden summaries hold with and without observation.
//
// Every event is delivered sequentially from the flow's single control
// goroutine (never from inside a worker pool), so an Observer implementation
// only needs internal synchronization if its own readers are concurrent.
package obs

import "time"

// Stage names one pipeline stage of the compile flow.
type Stage string

// The stages of the full AutoNCS flow, in execution order.
const (
	StageClustering Stage = "clustering"
	StageNetlist    Stage = "netlist"
	StagePlace      Stage = "place"
	StageRoute      Stage = "route"
	StageCost       Stage = "cost"
)

// Stages lists every stage in execution order, for deterministic iteration
// over per-stage maps.
func Stages() []Stage {
	return []Stage{StageClustering, StageNetlist, StagePlace, StageRoute, StageCost}
}

// Event is one typed observation from the compile flow. The concrete types
// below form a closed set; switch on them to consume.
type Event interface{ event() }

// CompileStart opens a compile: the input network and the worker knob.
type CompileStart struct {
	Neurons     int
	Connections int
	Workers     int // the Config value: 0 means the process default
}

// CompileEnd closes a compile with its total wall time; Err is non-nil when
// the flow failed (including cancellation).
type CompileEnd struct {
	Elapsed time.Duration
	Err     error
}

// StageStart marks a pipeline stage beginning.
type StageStart struct {
	Stage Stage
}

// StageEnd marks a pipeline stage finishing with its wall time; Err is
// non-nil when the stage failed.
type StageEnd struct {
	Stage   Stage
	Elapsed time.Duration
	Err     error
}

// ISCIteration records one round of the iterative spectral clustering loop:
// how many candidate clusters the round formed, the CP quartile selection
// threshold, how many crossbars were realized, and the placed-crossbar
// utilization against the stop threshold.
type ISCIteration struct {
	Index          int     // 1-based iteration number
	Clusters       int     // candidate clusters formed this round
	Placed         int     // crossbars realized this round
	QuartileCP     float64 // the CP selection threshold q
	AvgUtilization float64 // mean utilization of the crossbars placed
	Threshold      float64 // the stop threshold t the utilization is judged against
	OutlierRatio   float64 // remaining connections / total, after this round
}

// ClusterStats summarizes the clustering engine's work across one finished
// ISC run in multilevel mode: how many rounds used the multilevel
// (coarsen→solve→uncoarsen) engine vs the flat tail, the hierarchy and
// eigensolve counters, and the kernel wall times. Emitted once per ISC run,
// after the loop, and only when the multilevel engine is enabled — the
// default flat path's event stream is unchanged. The timings are diagnostic
// only; every counter is deterministic for any worker count.
type ClusterStats struct {
	MultilevelRounds int           // ISC rounds clustered by the multilevel engine
	FlatRounds       int           // ISC rounds on the flat engine (below cutoff)
	Levels           int           // coarsening levels built, summed over rounds
	MaxDepth         int           // deepest hierarchy of any round
	Matchings        int           // pairwise heavy-edge contractions committed
	Eigensolves      int           // bisection eigensolves (flat rounds are not counted)
	WarmStarts       int           // always 0; remove with the next benchmark change
	LanczosSteps     int           // Krylov steps across the bisections' adaptive Lanczos solves
	RefineMoves      int           // boundary moves applied during uncoarsening
	CoarsenTime      time.Duration // wall time building the hierarchies
	SolveTime        time.Duration // wall time in coarse partitioning
	RefineTime       time.Duration // wall time projecting + refining
}

// PlaceProgress records one progress checkpoint of the placement λ loop
// (every overlap evaluation, several per outer λ round): the outer round
// the checkpointed step belongs to, the penalty weight λ that step ran
// under, the exact weighted HPWL, and the remaining physical overlap area.
// Besides the instantaneous values it carries the best-snapshot state the
// loop is tracking — the HPWL/overlap of the best legalization-aware
// placement visited so far, which is what the loop will restore at the end.
type PlaceProgress struct {
	Outer   int     // 0-based outer λ round of the checkpointed step
	Step    int     // 1-based optimizer step within the budget
	Lambda  float64 // density penalty weight the checkpointed step used
	HPWL    float64 // exact weighted HPWL at this checkpoint, µm
	Overlap float64 // total pairwise physical overlap area, µm²
	// BestHPWL and BestOverlap describe the best proxy-quality snapshot
	// visited so far (including this checkpoint, if it is the new best).
	BestHPWL    float64
	BestOverlap float64
}

// PlaceStats summarizes one finished placement: λ rounds, the multigrid
// field-solver work of the global phase, and the candidate/accept counters
// of the swap-based detailed placement, with kernel wall times. Emitted
// once per placement, after detailed placement completes. The timings are
// diagnostic only; every counter is deterministic for any worker count.
type PlaceStats struct {
	Outer          int           // λ rounds performed (a partial round counts)
	FieldSolves    int           // Poisson field refreshes (one per step)
	VCycles        int           // multigrid V-cycles across all refreshes
	FieldSweeps    int           // red-black relaxation sweeps, all levels
	SwapCandidates int           // detailed-placement pairs evaluated
	SwapsAccepted  int           // detailed-placement swaps taken
	FieldTime      time.Duration // wall time inside the field solver
	DetailTime     time.Duration // wall time in legalization + detailed placement
}

// RouteBatch records one committed batch of the speculative maze router.
type RouteBatch struct {
	Batch     int // 1-based batch counter across the whole route
	Wires     int // wires speculatively searched in this batch
	Committed int // paths that fit and committed
	Retried   int // paths invalidated by a batch-mate, re-queued
	Failed    int // wires with no path under the current capacity
	Capacity  int // the virtual capacity the batch ran under
}

// RouteRelaxation records one capacity relaxation: the router raised the
// virtual edge capacity to re-route the wires that failed.
type RouteRelaxation struct {
	Relaxations int // total relaxations so far (1-based)
	Capacity    int // the new virtual capacity
	Pending     int // wires awaiting re-route under the new capacity
}

// RouteStats summarizes one finished routing: which engine produced the
// result, the negotiation work (rounds, rip-ups, the peak count of
// capacity-exceeding edges, per-round wall times), total maze-search heap
// expansions, and the capacity-relaxation history — the legacy engine's
// loop, or the bounded fallback a stalled negotiation degrades to. Emitted
// once per route, after the last commit, by both engines. The round timings
// are diagnostic only; every counter is deterministic for any worker count.
type RouteStats struct {
	Negotiated    bool            // the negotiated-congestion engine produced the result
	Wires         int             // wires routed
	Rounds        int             // negotiation rounds run (0 on the legacy engine)
	RipUps        int             // wires ripped up and rerouted, summed over rounds
	Expansions    int64           // heap pops across every maze search
	OverusedPeak  int             // most over-capacity edges seen after any round
	Relaxations   int             // capacity relaxations (legacy loop or fallback)
	FinalCapacity int             // virtual edge capacity the result was committed under
	RoundTimes    []time.Duration // wall time of each negotiation round
}

// CacheLookup records one content-addressed result-cache probe of the
// serving layer (cmd/autoncsd): a hit means the compile was answered from
// the store without running the flow. Emitted by the server, not by the
// compile pipeline itself — a bare CLI compile never produces one.
type CacheLookup struct {
	Key  string // lowercase-hex content address probed
	Hit  bool
	Disk bool // the hit was served by the on-disk layer
}

// PeerLookup records one fleet peer-cache probe of the serving layer: on a
// local cache miss for a key whose consistent-hash owner is a remote peer,
// the daemon asks that owner for the cached payload before admitting a
// local compile. Hit means the peer served the bytes; Err means the probe
// failed (timeout, refusal, bad response) after its retries — a healthy
// peer answering "not cached" is a miss, not an error. Like CacheLookup,
// it is a server-side event: a bare CLI compile never produces one.
type PeerLookup struct {
	Key     string // lowercase-hex content address probed
	Peer    string // base URL of the peer probed (the key's effective owner)
	Hit     bool
	Err     bool
	Elapsed time.Duration // wall time of the whole lookup, retries included
}

// RequestTiming is the serving layer's flat per-request latency record,
// emitted once per job as it reaches a terminal state: where the request's
// wall time went (admission wait, queue wait, compile run) and how it was
// answered (fresh compile, coalesced onto another submission's compile, or
// straight from the result cache). The record is deliberately flat — every
// field is a scalar — so a fleet can dump the stream into CSV and analyze
// serving latency without JSON unnesting; client.RequestTiming carries the
// same record on the wire with CSV helpers. Like CacheLookup, it is a
// server-side event: a bare CLI compile never produces one.
type RequestTiming struct {
	Job       string // job record id
	Key       string // content address, lowercase hex
	Priority  string // "interactive" or "batch"
	Coalesced bool   // answered by another submission's in-flight compile
	CacheHit  bool   // answered from the result cache, no compile involved
	State     string // terminal state: done, failed, or cancelled

	Submitted time.Time     // when the request entered the handler
	AdmitWait time.Duration // submit → admission decision (probe + lock)
	QueueWait time.Duration // admission → compile start (zero when attached mid-run)
	Run       time.Duration // compile start → terminal state
	Total     time.Duration // submit → terminal state
}

// DeltaStats summarizes one delta recompile: the structural edit that
// triggered it, how much of the previous compile each stage reused, and how
// much had to be redone. Emitted once per CompileDelta, after the flow
// finishes. Every counter is deterministic for any worker count.
type DeltaStats struct {
	// Edit set, against the base network.
	Edits          int     `json:"edits"`           // added + removed connections
	AddedEdges     int     `json:"added_edges"`     // connections present only in the edited network
	RemovedEdges   int     `json:"removed_edges"`   // connections present only in the base network
	TouchedNeurons int     `json:"touched_neurons"` // neurons incident to any edit
	EditRatio      float64 `json:"edit_ratio"`      // edits / base connections

	// Clustering reuse.
	BaseCrossbars    int     `json:"base_crossbars"`     // crossbars in the previous assignment
	KeptCrossbars    int     `json:"kept_crossbars"`     // crossbars carried over untouched
	DirtyCrossbars   int     `json:"dirty_crossbars"`    // crossbars dissolved into the residual
	NewCrossbars     int     `json:"new_crossbars"`      // crossbars the residual re-clustering produced
	ResidualConns    int     `json:"residual_conns"`     // connections re-clustered (residual network)
	ClusterReuseFrac float64 `json:"cluster_reuse_frac"` // kept / base crossbars (0 with no base crossbars)

	// Placement reuse.
	Cells          int     `json:"cells"`            // cells of the new netlist
	SeededCells    int     `json:"seeded_cells"`     // cells warm-started at their previous coordinates
	PlaceReuseFrac float64 `json:"place_reuse_frac"` // seeded / cells (0 with no cells)

	// Routing reuse.
	Wires          int     `json:"wires"`                // wires of the new netlist
	ReusedWires    int     `json:"reused_wires"`         // wires that kept their previous path through round 1
	ReroutedWires  int     `json:"rerouted_wires"`       // wires routed fresh (dirty, ripped, or fallback)
	RouteReuseFrac float64 `json:"route_reuse_frac"`     // reused / wires (0 with no wires)
	FullRoute      bool    `json:"full_route,omitempty"` // the route degraded to a from-scratch run
}

func (CompileStart) event()    {}
func (CompileEnd) event()      {}
func (StageStart) event()      {}
func (StageEnd) event()        {}
func (ISCIteration) event()    {}
func (ClusterStats) event()    {}
func (PlaceProgress) event()   {}
func (PlaceStats) event()      {}
func (RouteBatch) event()      {}
func (RouteRelaxation) event() {}
func (RouteStats) event()      {}
func (CacheLookup) event()     {}
func (PeerLookup) event()      {}
func (RequestTiming) event()   {}
func (DeltaStats) event()      {}

// Observer receives the flow's events. Implementations must not block for
// long (they run on the flow's control goroutine) and must not assume any
// call concurrency — the flow delivers events one at a time.
type Observer interface {
	Observe(Event)
}

// Emit delivers e to o, tolerating a nil observer so call sites need no
// guard.
func Emit(o Observer, e Event) {
	if o != nil {
		o.Observe(e)
	}
}

// multi fans every event out to a fixed observer list, in order.
type multi []Observer

func (m multi) Observe(e Event) {
	for _, o := range m {
		o.Observe(e)
	}
}

// Multi combines observers into one that forwards every event to each
// non-nil observer in argument order. Nil arguments are dropped; with zero
// live observers it returns nil (which Emit ignores).
func Multi(os ...Observer) Observer {
	var live multi
	for _, o := range os {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}
