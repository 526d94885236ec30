package main

import (
	"bytes"
	"fmt"
	"math"

	autoncs "repro"
)

// checkResult runs the output checks on one compile result and counts a
// failure against op for each check it fails.
func checkResult(r *runner, op int, net *autoncs.Network, res *autoncs.Result, cfg autoncs.Config) {
	if err := checkCoverage(net, res.Assignment); err != nil {
		r.fail(op, "%v", err)
	}
	if !cfg.SkipPhysical {
		if err := checkRouting(res, cfg.Route.Theta); err != nil {
			r.fail(op, "%v", err)
		}
	}
}

// checkBody verifies that a served payload is byte-identical to the first
// payload seen for its key, so hit, coalesced and fresh answers agree; the
// first payload of a key is remembered.
func checkBody(first map[string][]byte, key string, body []byte) error {
	prev, ok := first[key]
	if !ok {
		first[key] = body
		return nil
	}
	if !bytes.Equal(prev, body) {
		return fmt.Errorf("body for key %s differs from the first body seen for it", key)
	}
	return nil
}

// checkCoverage verifies that the assignment realizes exactly the input
// network: every connection in a crossbar or a synapse, nothing more.
func checkCoverage(net *autoncs.Network, a *autoncs.Assignment) error {
	if a == nil {
		return fmt.Errorf("result carries no assignment")
	}
	got := autoncs.BaseNetwork(a)
	if !got.Equal(net) {
		return fmt.Errorf("assignment covers %d connections over %d neurons, input has %d over %d (or they differ)",
			got.NNZ(), got.N(), net.NNZ(), net.N())
	}
	return nil
}

// checkRouting verifies every routed path: it is a run of grid bins, each
// a unit step from the last, that starts and ends in the bins holding its
// wire's two pins; and the congestion map counts exactly those paths. The
// pin bins are recomputed here from the placement and the bin width.
func checkRouting(res *autoncs.Result, theta float64) error {
	nl, pl, rt := res.Netlist, res.Placement, res.Routing
	if nl == nil || pl == nil || rt == nil {
		return fmt.Errorf("physical result lacks netlist, placement or routing")
	}
	if len(rt.Paths) != len(nl.Wires) {
		return fmt.Errorf("routing has %d paths for %d wires", len(rt.Paths), len(nl.Wires))
	}
	cols, rows := rt.Cols, rt.Rows
	if cols <= 0 || rows <= 0 || len(rt.Usage) != cols*rows {
		return fmt.Errorf("routing grid %dx%d with %d usage bins", cols, rows, len(rt.Usage))
	}
	bin := func(cell int) int {
		c := clamp(int((pl.X[cell]-pl.MinX)/theta), cols)
		r := clamp(int((pl.Y[cell]-pl.MinY)/theta), rows)
		return r*cols + c
	}
	usage := make([]int, cols*rows)
	for wi, w := range nl.Wires {
		p := rt.Paths[wi]
		if len(p) == 0 {
			return fmt.Errorf("wire %d has an empty path", wi)
		}
		for k, b := range p {
			if b < 0 || b >= cols*rows {
				return fmt.Errorf("wire %d: bin %d outside the %dx%d grid", wi, b, cols, rows)
			}
			usage[b]++
			if k > 0 {
				a := p[k-1]
				if absInt(a%cols-b%cols)+absInt(a/cols-b/cols) != 1 {
					return fmt.Errorf("wire %d: path steps from bin %d to non-adjacent bin %d", wi, a, b)
				}
			}
		}
		s, t := bin(w.From), bin(w.To)
		first, last := p[0], p[len(p)-1]
		if !(first == s && last == t) && !(first == t && last == s) {
			return fmt.Errorf("wire %d: path runs %d→%d, pins sit in bins %d and %d", wi, first, last, s, t)
		}
	}
	for i := range usage {
		if usage[i] != rt.Usage[i] {
			return fmt.Errorf("congestion map bin %d reads %d, paths cross it %d times", i, rt.Usage[i], usage[i])
		}
	}
	return nil
}

func clamp(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// sameReport reports whether two cost reports are bit-identical.
func sameReport(a, b *autoncs.CostReport) bool {
	if a == nil || b == nil {
		return a == b
	}
	return math.Float64bits(a.Wirelength) == math.Float64bits(b.Wirelength) &&
		math.Float64bits(a.Area) == math.Float64bits(b.Area) &&
		math.Float64bits(a.AvgDelay) == math.Float64bits(b.AvgDelay) &&
		math.Float64bits(a.MaxDelay) == math.Float64bits(b.MaxDelay) &&
		math.Float64bits(a.Cost) == math.Float64bits(b.Cost) &&
		a.Wires == b.Wires
}

// sameAssignment reports whether two assignments serialize identically.
func sameAssignment(a, b *autoncs.Assignment) (bool, error) {
	var x, y bytes.Buffer
	if err := a.WriteJSON(&x); err != nil {
		return false, err
	}
	if err := b.WriteJSON(&y); err != nil {
		return false, err
	}
	return bytes.Equal(x.Bytes(), y.Bytes()), nil
}
