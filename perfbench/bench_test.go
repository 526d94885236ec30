package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	autoncs "repro"
	"repro/client"
)

// toyOptions runs a workload at toy scale for a fraction of a second.
func toyOptions(t *testing.T, workload string, seed int64, trace bool) options {
	t.Helper()
	return options{
		workload: workload, seed: seed, seconds: 0.3, trace: trace,
		traceOut: filepath.Join(t.TempDir(), "trace.json"),
		sc:       toyScale(),
	}
}

// lastLine decodes the JSON summary printed as the last line of a run.
func lastLine(t *testing.T, out string) summary {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line is not the JSON summary: %v\n%s", err, out)
	}
	return s
}

// benchmarkFile is the part of BENCHMARK.json the tests compare against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricListsMatchBenchmarkFile pins the metric lists in the code to
// BENCHMARK.json, and the workload set to the one the command accepts.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	check := func(kind string, file []struct{ Name, Unit, Better string }, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(file), len(code))
		}
		for i, m := range code {
			if f := file[i]; f.Name != m.name || f.Unit != m.unit || f.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %s %s %s", kind, i, f, m.name, m.unit, m.better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not run by the command", w.Name)
		}
	}
}

// TestWorkloadsEndToEnd runs every workload untraced and traced at toy
// scale: each succeeds, passes its output checks, and emits every metric
// BENCHMARK.json names, with its unit.
func TestWorkloadsEndToEnd(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			sum, err := run(context.Background(), toyOptions(t, w.Name, 1, trace), &out)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
				t.Fatalf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s", w.Name, trace, sum.Correct, sum.Attempted, sum.Failed, out.String())
			}
			if got := lastLine(t, out.String()); !reflect.DeepEqual(got, sum) {
				t.Errorf("%s trace=%t: printed summary %+v, returned %+v", w.Name, trace, got, sum)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(sum.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics emitted, want %d", w.Name, trace, len(sum.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := sum.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w.Name, trace, m.Name, v, m.Unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.Name, m.Name, v.Value)
				}
				if !trace && !strings.Contains(out.String(), "metric "+m.Name+" ") {
					t.Errorf("%s: report does not print metric %s by name", w.Name, m.Name)
				}
			}
		}
	}
}

// TestTracedComputeLayers checks that the traced physical run splits the
// op wall time into layer self times that add up to it, and that the traced
// serve run does so for its replayed delta ops.
func TestTracedComputeLayers(t *testing.T) {
	r := newRunner(toyOptions(t, "physical", 1, true))
	if err := runPhysical(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	if c := r.layer["trace.layer_cover_frac"]; c < 0.95 || c > 1.0001 {
		t.Errorf("layer self times cover %.4f of the op wall time, want within 5%%", c)
	}
	for _, k := range []string{"core.s", "place.s", "route.s", "netlist.s", "cost.s"} {
		if r.layer[k] <= 0 {
			t.Errorf("%s = %g, want > 0", k, r.layer[k])
		}
	}

	r = newRunner(toyOptions(t, "serve", 1, true))
	if err := runServe(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	if c := r.layer["trace.layer_cover_frac"]; c < 0.95 || c > 1.0001 {
		t.Errorf("serve: delta layer self times cover %.4f of the replayed delta ops, want within 5%%", c)
	}
}

// deterministic reports whether a per-layer metric must repeat exactly for
// a seed: counters and quality, not times, and not the serve workload's
// serving counters, whose shares depend on timing.
func deterministic(name string) bool {
	if strings.HasSuffix(name, "_s") || strings.HasSuffix(name, ".s") || strings.HasPrefix(name, "trace.") {
		return false
	}
	for _, p := range []string{"server.", "cache.", "client.", "artifact."} {
		if strings.HasPrefix(name, p) {
			return false
		}
	}
	return true
}

// TestSeedDeterminism checks that a second run at the same seed reproduces
// every deterministic metric exactly, and that another seed changes them.
func TestSeedDeterminism(t *testing.T) {
	for _, w := range []string{"physical", "cluster", "serve"} {
		runOnce := func(seed int64) *runner {
			r := newRunner(toyOptions(t, w, seed, true))
			if err := workloads[w](context.Background(), r); err != nil {
				t.Fatalf("%s seed %d: %v", w, seed, err)
			}
			if len(r.failedOps) != 0 {
				t.Fatalf("%s seed %d: failures %v", w, seed, r.failures)
			}
			return r
		}
		a, b, c := runOnce(3), runOnce(3), runOnce(4)
		if !reflect.DeepEqual(a.quality, b.quality) {
			t.Errorf("%s: quality differs between runs of one seed: %v vs %v", w, a.quality, b.quality)
		}
		for _, m := range perLayer {
			if deterministic(m.name) && a.layer[m.name] != b.layer[m.name] {
				t.Errorf("%s: %s differs between runs of one seed: %g vs %g", w, m.name, a.layer[m.name], b.layer[m.name])
			}
		}
		if reflect.DeepEqual(a.quality, c.quality) {
			t.Errorf("%s: seeds 3 and 4 give the same quality %v; the seed does not reach the inputs", w, a.quality)
		}
	}
}

// toyResult compiles one toy network through the physical flow.
func toyResult(t *testing.T) (*runner, *autoncs.Network, *autoncs.Result, autoncs.Config) {
	t.Helper()
	r := newRunner(toyOptions(t, "physical", 1, false))
	cfg := physicalConfig(r)
	net := autoncs.RandomSparseNetwork(r.sc.physN, r.sc.physSparsity, 7)
	res, err := autoncs.Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(r, 0, net, res, cfg)
	if len(r.failedOps) != 0 {
		t.Fatalf("clean result fails its checks: %v", r.failures)
	}
	return r, net, res, cfg
}

// TestChecksCatchDroppedConnection drops one realized connection from the
// assignment: the coverage check must count the op as failed.
func TestChecksCatchDroppedConnection(t *testing.T) {
	r, net, res, cfg := toyResult(t)
	a := *res.Assignment
	if len(a.Synapses) > 0 {
		a.Synapses = a.Synapses[1:]
	} else {
		cbs := append([]autoncs.Crossbar(nil), a.Crossbars...)
		cbs[0].Conns = cbs[0].Conns[1:]
		a.Crossbars = cbs
	}
	bad := *res
	bad.Assignment = &a
	checkResult(r, 5, net, &bad, cfg)
	if !r.failedOps[5] {
		t.Fatal("a dropped connection passed the output checks")
	}
	if s := r.summarize(&bytes.Buffer{}); s.Correct || s.Failed != 1 {
		t.Fatalf("summary correct=%t failed=%d, want a counted failure", s.Correct, s.Failed)
	}
}

// TestChecksCatchBrokenPath corrupts routed paths three ways: a gap in
// the middle, an end moved off its pin's bin, and a stale congestion map.
func TestChecksCatchBrokenPath(t *testing.T) {
	_, _, res, cfg := toyResult(t)
	long := -1
	for i, p := range res.Routing.Paths {
		if len(p) >= 3 {
			long = i
			break
		}
	}
	if long < 0 {
		t.Fatal("no path of three bins or more to corrupt")
	}
	corrupt := map[string]func(rt *autoncs.Routing){
		"gap": func(rt *autoncs.Routing) {
			p := rt.Paths[long]
			rt.Paths[long] = append(append([]int(nil), p[:1]...), p[2:]...)
		},
		"moved end": func(rt *autoncs.Routing) {
			p := append([]int(nil), rt.Paths[long]...)
			p = p[:len(p)-1]
			rt.Paths[long] = p
		},
		"stale usage": func(rt *autoncs.Routing) {
			rt.Usage = append([]int(nil), rt.Usage...)
			rt.Usage[rt.Paths[long][0]]++
		},
	}
	for name, f := range corrupt {
		rt := *res.Routing
		rt.Paths = append([][]int(nil), res.Routing.Paths...)
		f(&rt)
		bad := *res
		bad.Routing = &rt
		if err := checkRouting(&bad, cfg.Route.Theta); err == nil {
			t.Errorf("%s: corrupted routing passed the path check", name)
		}
	}
}

// TestChecksCatchAlteredBody alters one byte of a served payload: the body
// check must reject it for the key, and the coverage check must reject a
// payload whose assignment lost a connection.
func TestChecksCatchAlteredBody(t *testing.T) {
	first := map[string][]byte{}
	body := []byte(`{"key":"k","assignment":{}}`)
	if err := checkBody(first, "k", body); err != nil {
		t.Fatal(err)
	}
	if err := checkBody(first, "k", append([]byte(nil), body...)); err != nil {
		t.Fatalf("identical body rejected: %v", err)
	}
	altered := append([]byte(nil), body...)
	altered[3] = 'x'
	if err := checkBody(first, "k", altered); err == nil {
		t.Fatal("altered body passed the byte-identity check")
	}

	_, net, res, _ := toyResult(t)
	payload := func(a *autoncs.Assignment) []byte {
		var asg bytes.Buffer
		if err := a.WriteJSON(&asg); err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(client.Result{Key: "k", Assignment: asg.Bytes()})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	answerOf := func(a *autoncs.Assignment) answer {
		return answer{sr: serveReq{net: net}, st: &client.JobStatus{Key: "k", State: client.StateDone, Result: payload(a)}}
	}
	if _, err := checkServeAnswer(answerOf(res.Assignment), map[string]bool{}); err != nil {
		t.Fatalf("clean payload rejected: %v", err)
	}
	a := *res.Assignment
	cbs := append([]autoncs.Crossbar(nil), a.Crossbars...)
	cbs[0].Conns = cbs[0].Conns[1:]
	a.Crossbars = cbs
	if _, err := checkServeAnswer(answerOf(&a), map[string]bool{}); err == nil {
		t.Fatal("payload missing a connection passed the coverage check")
	}
}
