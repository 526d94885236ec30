package main

import (
	"context"
	"fmt"
	"math/rand"

	autoncs "repro"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/xbar"
)

// Input streams: each workload draws its networks from its own stream of
// the run's seed.
const (
	streamPhysical = iota + 1
	streamCluster
	streamServe
)

// warmNetwork is the small network every warm-up compile of the physical
// and serve set-ups uses. It is fixed, not derived from the run's seed: the
// warm-up is set-up work, not a measured input, and a fixed network keeps
// setup_s from varying with the seed. It is small, so a run can afford
// enough set-ups for their median to be steady.
func warmNetwork() *autoncs.Network {
	return autoncs.RandomSparseNetwork(64, 0.9, 1)
}

// physicalConfig is the compile configuration of the physical workload: a
// full physical compile with the multilevel
// engine, cutoff and threshold fixed so that clustering stays a small share
// and place and route dominate.
func physicalConfig(r *runner) autoncs.Config {
	cfg := autoncs.DefaultConfig()
	cfg.Workers = r.workers
	cfg.Multilevel = true
	cfg.MultilevelCutoff = r.sc.physCutoff
	cfg.UtilizationThreshold = 0.04
	return cfg
}

// clusterConfig is the cluster workload's configuration: clustering only,
// multilevel engine with default cutoff, automatic threshold.
func clusterConfig(r *runner) autoncs.Config {
	cfg := autoncs.DefaultConfig()
	cfg.Workers = r.workers
	cfg.Multilevel = true
	cfg.SkipPhysical = true
	return cfg
}

// networks generates count seed-derived random sparse networks of stream.
func networks(seed int64, stream, count, n int, sparsity float64) []*autoncs.Network {
	out := make([]*autoncs.Network, count)
	for i := range out {
		out[i] = autoncs.RandomSparseNetwork(n, sparsity, subSeed(seed, int64(stream), int64(i)))
	}
	return out
}

// runPhysical: each op is a full physical compile of the next network of a
// seed-derived pool.
func runPhysical(ctx context.Context, r *runner) error {
	cfg := physicalConfig(r)
	var nets []*autoncs.Network
	err := r.setup(r.sc.setupReps, func(int) error {
		nets = networks(r.opt.seed, streamPhysical, r.sc.physPool, r.sc.physN, r.sc.physSparsity)
		return warmUp(ctx, r, cfg)
	})
	if err != nil {
		return err
	}
	return runCompiles(ctx, r, nets, cfg, r.sc.physMinOps)
}

// runCluster: each op is a cluster-only compile of the next network of a
// seed-derived pool of large networks; each set-up generates one of them.
func runCluster(ctx context.Context, r *runner) error {
	cfg := clusterConfig(r)
	nets := make([]*autoncs.Network, r.sc.clusPool)
	err := r.setup(len(nets), func(i int) error {
		nets[i] = autoncs.RandomSparseNetwork(r.sc.clusN, r.sc.clusSparsity, subSeed(r.opt.seed, streamCluster, int64(i)))
		return nil
	})
	if err != nil {
		return err
	}
	return runCompiles(ctx, r, nets, cfg, len(nets))
}

// warmUp compiles the warm-up network under cfg, so one-time costs (heap
// growth, pools) are paid in set-up rather than by the first timed op.
func warmUp(ctx context.Context, r *runner, cfg autoncs.Config) error {
	if _, err := autoncs.CompileCtx(ctx, warmNetwork(), cfg); err != nil {
		return fmt.Errorf("warm-up compile: %w", err)
	}
	return nil
}

// runCompiles drives the compile ops of the physical and cluster
// workloads, at least minOps of them, then checks every result. The
// deterministic metrics cover the first minOps ops. Untraced ops call
// CompileCtx; traced ops issue the layers' public functions one by one, and
// the first compareOps traced results are compared with CompileCtx's on the
// same input.
func runCompiles(ctx context.Context, r *runner, nets []*autoncs.Network, cfg autoncs.Config, minOps int) error {
	var outs []*autoncs.Result
	var counters []map[string]float64
	r.closedLoop(minOps, func(i int) error {
		net := nets[i%len(nets)]
		var res *autoncs.Result
		var err error
		if r.tr != nil {
			var c map[string]float64
			res, c, err = layeredCompile(ctx, r.tr, i, net, cfg)
			counters = append(counters, c)
		} else {
			res, err = autoncs.CompileCtx(ctx, net, cfg)
		}
		outs = append(outs, res)
		return err
	})

	for i, res := range outs {
		if res == nil {
			continue
		}
		net := nets[i%len(nets)]
		checkResult(r, i, net, res, cfg)
		if r.tr != nil && i < compareOps {
			if err := compareWithCompile(ctx, net, cfg, res); err != nil {
				r.fail(i, "%v", err)
			}
		}
	}

	designQuality(r, outs[:minOps])
	r.traffic["networks"] = float64(len(nets))
	r.traffic["neurons"] = float64(nets[0].N())
	r.traffic["mean_connections"] = meanConnections(nets)
	if r.tr != nil {
		r.fillLayerTimes("op")
		for k, v := range meanCounters(counters[:minOps]) {
			r.layer[k] = v
		}
		for _, k := range []string{"design.wirelength_um", "design.area_um2", "design.avg_delay_ns", "design.max_bin_usage", "design.outlier_ratio"} {
			r.layer[k] = r.quality[k]
		}
	}
	return nil
}

// compareOps is how many traced ops are compared with CompileCtx; each
// comparison costs a second compile.
const compareOps = 3

// layeredCompile runs the CompileCtx flow stage by stage through each
// layer's public function, with the options CompileCtx derives from cfg,
// recording a span around every call and the layers' counters.
func layeredCompile(ctx context.Context, tr *tracer, op int, net *autoncs.Network, cfg autoncs.Config) (*autoncs.Result, map[string]float64, error) {
	root := tr.begin("op", -1, op, 0)
	defer tr.end(root)
	c := map[string]float64{}

	thr := cfg.UtilizationThreshold
	switch {
	case thr == 0:
		tr.call("xbar.FullCro", root, op, 0, func() {
			thr = xbar.FullCro(net, cfg.Library).AvgUtilization()
		})
	case thr < 0:
		thr = 0
	}
	m := &autoncs.MetricsObserver{}
	var isc *core.ISCResult
	var err error
	tr.call("core.ISCCtx", root, op, 0, func() {
		isc, err = core.ISCCtx(ctx, net, core.ISCOptions{
			Library:              cfg.Library,
			UtilizationThreshold: thr,
			SelectionQuantile:    cfg.SelectionQuantile,
			Rand:                 rand.New(rand.NewSource(cfg.Seed)),
			Workers:              cfg.Workers,
			Observer:             m,
			Multilevel:           cfg.Multilevel,
			MultilevelCutoff:     cfg.MultilevelCutoff,
			CoarsenRatio:         cfg.CoarsenRatio,
			MultilevelLevels:     cfg.MultilevelLevels,
		})
	})
	if err != nil {
		return nil, c, fmt.Errorf("clustering: %w", err)
	}
	snap := m.Snapshot()
	cs := snap.LastClusterStats
	c["core.isc_iterations"] = float64(snap.ISCIterations)
	c["core.multilevel_rounds"] = float64(cs.MultilevelRounds)
	c["core.flat_rounds"] = float64(cs.FlatRounds)
	c["core.eigensolves"] = float64(cs.Eigensolves)
	c["core.lanczos_steps"] = float64(cs.LanczosSteps)
	c["core.warm_starts"] = float64(cs.WarmStarts)
	c["core.refine_moves"] = float64(cs.RefineMoves)
	c["core.crossbars"] = float64(len(isc.Assignment.Crossbars))
	c["core.synapses"] = float64(len(isc.Assignment.Synapses))
	res := &autoncs.Result{Assignment: isc.Assignment, Trace: isc.Trace, Device: cfg.Device}
	if cfg.SkipPhysical {
		return res, c, nil
	}

	tr.call("netlist.Build", root, op, 0, func() {
		res.Netlist, err = netlist.Build(res.Assignment, cfg.Device)
	})
	if err != nil {
		return nil, c, fmt.Errorf("netlist: %w", err)
	}
	c["netlist.cells"] = float64(len(res.Netlist.Cells))
	c["netlist.wires"] = float64(len(res.Netlist.Wires))

	po := cfg.Place
	if po.Workers == 0 {
		po.Workers = cfg.Workers
	}
	po.Observer = m
	tr.call("place.PlaceCtx", root, op, 0, func() {
		res.Placement, err = place.PlaceCtx(ctx, res.Netlist, po)
	})
	if err != nil {
		return nil, c, fmt.Errorf("placement: %w", err)
	}
	ps := m.Snapshot().LastPlaceStats
	c["place.outer_rounds"] = float64(ps.Outer)
	c["place.field_solves"] = float64(ps.FieldSolves)
	c["place.vcycles"] = float64(ps.VCycles)
	c["place.field_sweeps"] = float64(ps.FieldSweeps)
	c["place.swap_candidates"] = float64(ps.SwapCandidates)
	c["place.swaps_accepted"] = float64(ps.SwapsAccepted)
	if ps.SwapCandidates > 0 {
		c["place.swap_accept_ratio"] = float64(ps.SwapsAccepted) / float64(ps.SwapCandidates)
	}
	c["place.hpwl_um"] = res.Placement.HPWL

	ro := cfg.Route
	if ro.Workers == 0 {
		ro.Workers = cfg.Workers
	}
	ro.Observer = m
	tr.call("route.RouteCtx", root, op, 0, func() {
		res.Routing, err = route.RouteCtx(ctx, res.Netlist, res.Placement, ro)
	})
	if err != nil {
		return nil, c, fmt.Errorf("routing: %w", err)
	}
	rs := m.Snapshot().LastRouteStats
	c["route.wires"] = float64(rs.Wires)
	c["route.rounds"] = float64(rs.Rounds)
	c["route.ripups"] = float64(rs.RipUps)
	if rs.Wires > 0 {
		c["route.ripup_ratio"] = float64(rs.RipUps) / float64(rs.Wires)
	}
	c["route.expansions"] = float64(rs.Expansions)
	c["route.relaxations"] = float64(rs.Relaxations)
	c["route.final_capacity"] = float64(rs.FinalCapacity)
	c["route.overused_peak"] = float64(rs.OverusedPeak)

	tr.call("cost.Evaluate", root, op, 0, func() {
		res.Report, err = cost.Evaluate(res.Netlist, res.Placement, res.Routing, cfg.Device, cfg.Cost)
	})
	if err != nil {
		return nil, c, fmt.Errorf("cost: %w", err)
	}
	return res, c, nil
}

// compareWithCompile checks a traced result against CompileCtx on the same
// input: the cost report bit for bit, or the assignment for a cluster-only
// compile.
func compareWithCompile(ctx context.Context, net *autoncs.Network, cfg autoncs.Config, traced *autoncs.Result) error {
	ref, err := autoncs.CompileCtx(ctx, net, cfg)
	if err != nil {
		return fmt.Errorf("reference compile: %w", err)
	}
	if !cfg.SkipPhysical {
		if !sameReport(traced.Report, ref.Report) {
			return fmt.Errorf("traced report %+v differs from CompileCtx's %+v", *traced.Report, *ref.Report)
		}
		return nil
	}
	same, err := sameAssignment(traced.Assignment, ref.Assignment)
	if err != nil {
		return fmt.Errorf("encoding assignments: %w", err)
	}
	if !same {
		return fmt.Errorf("traced assignment differs from CompileCtx's")
	}
	return nil
}

// designQuality sets the deterministic quality figures: means over the
// given results, which are the ops every run completes.
func designQuality(r *runner, outs []*autoncs.Result) {
	var util, wl, area, delay, bins, outl []float64
	for _, res := range outs {
		if res == nil {
			continue
		}
		util = append(util, res.Assignment.AvgUtilization())
		outl = append(outl, res.Assignment.OutlierRatio())
		if res.Report != nil {
			wl = append(wl, res.Report.Wirelength)
			area = append(area, res.Report.Area)
			delay = append(delay, res.Report.AvgDelay)
			bins = append(bins, float64(res.Routing.MaxUsage()))
		}
	}
	r.quality["avg_utilization"] = mean(util)
	r.quality["design.outlier_ratio"] = mean(outl)
	r.quality["design.wirelength_um"] = mean(wl)
	r.quality["design.area_um2"] = mean(area)
	r.quality["design.avg_delay_ns"] = mean(delay)
	r.quality["design.max_bin_usage"] = mean(bins)
}

// meanCounters averages per-op counter maps.
func meanCounters(cs []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, c := range cs {
		for k, v := range c {
			out[k] += v / float64(len(cs))
		}
	}
	return out
}

func meanConnections(nets []*autoncs.Network) float64 {
	t := 0.0
	for _, n := range nets {
		t += float64(n.NNZ())
	}
	return t / float64(len(nets))
}
