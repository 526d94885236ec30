package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one recorded call into a layer's public function. Its layer is
// the part of the name before the first dot ("route.RouteCtx" → route);
// "op" spans enclose one whole benchmark op.
type span struct {
	name       string
	start, end time.Duration // since the tracer started
	parent     int           // index of the enclosing span, -1 at top level
	op         int           // op (or request) the span belongs to
	lane       int           // caller that issued it
}

// tracer keeps spans in memory; they are written once, at the end of the
// run. Safe for concurrent use by the serve workload's callers.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; a nil tracer records nothing.
func (t *tracer) begin(name string, parent, op, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, op: op, lane: lane})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// call records f as a span named name under parent.
func (t *tracer) call(name string, parent, op, lane int, f func()) {
	id := t.begin(name, parent, op, lane)
	f()
	t.end(id)
}

// selfByName sums, per span name, each span's duration minus the time its
// child spans cover. Children of one span run one after another on the
// caller's goroutine, so their durations add without overlap.
func (t *tracer) selfByName() map[string]float64 {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.name] += (s.end - s.start - child[i]).Seconds()
	}
	return out
}

// selfByLayer is selfByName summed per layer.
func (t *tracer) selfByLayer() map[string]float64 {
	out := map[string]float64{}
	for name, s := range t.selfByName() {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += s
	}
	return out
}

// opSeconds returns the duration of every top-level span named name.
func (t *tracer) opSeconds(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.parent < 0 {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// coverFrac is the share of the top-level spans named name that their child
// spans cover, 0 when there are none.
func (t *tracer) coverFrac(name string) float64 {
	var total, covered time.Duration
	for _, s := range t.spans {
		switch {
		case s.name == name && s.parent < 0:
			total += s.end - s.start
		case s.parent >= 0 && t.spans[s.parent].name == name && t.spans[s.parent].parent < 0:
			covered += s.end - s.start
		}
	}
	if total == 0 {
		return 0
	}
	return covered.Seconds() / total.Seconds()
}

// writeChrome writes the spans as Chrome trace-event JSON, which Perfetto
// and chrome://tracing open directly.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.lane + 1,
			Args: map[string]int{"op": s.op, "parent": s.parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// perLayer lists the metrics of a traced run. Every workload reports all
// of them; a layer the workload does not exercise reads 0. Times are
// seconds per op (self time unless noted); counters are per op over the
// ops every run completes, so they repeat exactly for a seed.
var perLayer = []metricDef{
	{"trace.op_s", "s", "lower", "mean op wall time in the traced run"},
	{"trace.ops_per_s", "1/s", "higher", "ops per second in the traced run; minus the untraced ops_per_s it is the tracing overhead"},
	{"trace.layer_cover_frac", "ratio", "higher", "summed layer self time / summed op wall time (serve: over the replayed delta ops)"},

	{"xbar.s", "s", "lower", "FullCro baseline for the automatic threshold"},
	{"core.s", "s", "lower", "ISC clustering self time"},
	{"core.isc_iterations", "count", "lower", "ISC rounds"},
	{"core.multilevel_rounds", "count", "lower", "rounds on the multilevel engine"},
	{"core.flat_rounds", "count", "lower", "rounds on the flat engine"},
	{"core.eigensolves", "count", "lower", "spectral solves"},
	{"core.lanczos_steps", "count", "lower", "Krylov steps"},
	{"core.warm_starts", "count", "higher", "Lanczos solves seeded from a previous basis"},
	{"core.refine_moves", "count", "lower", "boundary refinement moves"},
	{"core.crossbars", "count", "lower", "crossbars of the assignment"},
	{"core.synapses", "count", "lower", "discrete synapses of the assignment"},

	{"netlist.s", "s", "lower", "netlist build self time"},
	{"netlist.cells", "count", "lower", "cells"},
	{"netlist.wires", "count", "lower", "wires"},

	{"place.s", "s", "lower", "placement self time"},
	{"place.outer_rounds", "count", "lower", "λ rounds"},
	{"place.field_solves", "count", "lower", "Poisson field refreshes"},
	{"place.vcycles", "count", "lower", "multigrid V-cycles"},
	{"place.field_sweeps", "count", "lower", "relaxation sweeps"},
	{"place.swap_candidates", "count", "lower", "detailed-placement pairs evaluated"},
	{"place.swaps_accepted", "count", "higher", "swaps taken"},
	{"place.swap_accept_ratio", "ratio", "higher", "swaps taken / pairs evaluated"},
	{"place.hpwl_um", "um", "lower", "weighted half-perimeter wirelength"},

	{"route.s", "s", "lower", "routing self time"},
	{"route.wires", "count", "lower", "wires routed"},
	{"route.rounds", "count", "lower", "negotiation rounds"},
	{"route.ripups", "count", "lower", "wires ripped up and rerouted"},
	{"route.ripup_ratio", "ratio", "lower", "rip-ups per wire: searches wasted"},
	{"route.expansions", "count", "lower", "A* heap pops"},
	{"route.relaxations", "count", "lower", "capacity escalations"},
	{"route.final_capacity", "count", "lower", "virtual edge capacity of the result"},
	{"route.overused_peak", "count", "lower", "most over-capacity edges after a round"},

	{"cost.s", "s", "lower", "cost evaluation self time"},

	{"design.wirelength_um", "um", "lower", "routed wirelength"},
	{"design.area_um2", "um2", "lower", "placement area"},
	{"design.avg_delay_ns", "ns", "lower", "mean wire delay"},
	{"design.max_bin_usage", "wires/bin", "lower", "peak of Routing.Usage"},
	{"design.outlier_ratio", "ratio", "lower", "connections left as discrete synapses"},

	{"delta.s", "s", "lower", "CompileDeltaCtx self time"},
	{"delta.diff_s", "s", "lower", "DiffNetworks self time"},
	{"delta.cluster_s", "s", "lower", "delta clustering stage (Result.StageTimes)"},
	{"delta.place_s", "s", "lower", "delta place stage (Result.StageTimes)"},
	{"delta.route_s", "s", "lower", "delta route stage (Result.StageTimes)"},
	{"delta.edits", "count", "lower", "connections added + removed"},
	{"delta.edit_ratio", "ratio", "lower", "edits / base connections"},
	{"delta.touched_neurons", "count", "lower", "neurons incident to an edit"},
	{"delta.residual_conns", "count", "lower", "connections re-clustered"},
	{"delta.cluster_reuse_frac", "ratio", "higher", "crossbars kept"},
	{"delta.place_reuse_frac", "ratio", "higher", "cells warm-started"},
	{"delta.route_reuse_frac", "ratio", "higher", "wires that kept their path"},
	{"delta.rerouted_wires", "count", "lower", "wires routed fresh"},
	{"delta.full_routes", "count", "lower", "deltas whose route ran from scratch"},
	{"delta.drift_wl_ratio", "ratio", "lower", "chain-end wirelength / from-scratch wirelength"},

	{"artifact.encode_s", "s", "lower", "EncodeArtifact per artifact"},
	{"artifact.decode_s", "s", "lower", "DecodeArtifact per artifact"},
	{"artifact.restore_s", "s", "lower", "Artifact.Restore per artifact"},
	{"artifact.bytes", "bytes", "lower", "artifact size"},

	{"server.admit_wait_s", "s", "lower", "median admission wait (sampled /metrics last_request)"},
	{"server.queue_wait_s", "s", "lower", "median SubmittedAt→StartedAt of compiled requests"},
	{"server.run_s", "s", "lower", "median ElapsedSeconds of compiled requests"},
	{"server.admit_rounds_per_miss", "ratio", "lower", "admission batches / cache misses"},
	{"server.rejected", "count", "lower", "429/503 answers"},
	{"server.coalesced_frac", "ratio", "higher", "requests attached to an in-flight compile"},
	{"server.compiles_per_request", "ratio", "lower", "compiles run / requests"},
	{"server.delta_frac", "ratio", "higher", "requests compiled as deltas"},
	{"server.delta_fallbacks", "count", "lower", "?base= requests recompiled in full"},

	{"cache.hit_frac", "ratio", "higher", "requests answered from the result cache"},

	{"client.hit_rtt_s", "s", "lower", "median round trip of cache-hit answers"},
	{"client.coalesced_rtt_s", "s", "lower", "median round trip of coalesced answers"},
	{"client.fresh_rtt_s", "s", "lower", "median round trip of fresh compiles"},
	{"client.edit_rtt_s", "s", "lower", "median round trip of ?base= delta answers"},
	{"client.respond_s", "s", "lower", "median round trip minus server FinishedAt−SubmittedAt"},
}

// fillLayerTimes sets trace.* and the per-layer self times from the spans:
// seconds per op, with ops = the top-level spans named opName.
func (r *runner) fillLayerTimes(opName string) {
	ops := r.tr.opSeconds(opName)
	if len(ops) == 0 {
		return
	}
	total := 0.0
	for _, s := range ops {
		total += s
	}
	n := float64(len(ops))
	r.layer["trace.op_s"] = total / n
	r.layer["trace.ops_per_s"] = n / total
	r.layer["trace.layer_cover_frac"] = r.tr.coverFrac(opName)
	self := r.tr.selfByLayer()
	for layer, key := range map[string]string{
		"xbar": "xbar.s", "core": "core.s", "netlist": "netlist.s",
		"place": "place.s", "route": "route.s", "cost": "cost.s",
	} {
		r.layer[key] = self[layer] / n
	}
}
