package autoncs_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden regression files")

// goldenCase pins one seeded RandomSparseNetwork compile.
type goldenCase struct {
	Name     string
	N        int
	Sparsity float64
	Seed     int64
}

var goldenCases = []goldenCase{
	{Name: "n120_s92_seed1", N: 120, Sparsity: 0.92, Seed: 1},
	{Name: "n200_s94_seed2", N: 200, Sparsity: 0.94, Seed: 2},
	{Name: "n300_s96_seed3", N: 300, Sparsity: 0.96, Seed: 3},
	// Above lanczosCutoff: the first ISC rounds embed through the sparse
	// Lanczos solver, pinning the sparse path (restricted CSR, workspace
	// reuse, blocked kernels) that the three dense-path cases never reach.
	{Name: "n720_s985_seed4", N: 720, Sparsity: 0.985, Seed: 4},
}

// goldenSummary is the committed shape of a compile: the clustering-level
// quantities the paper's evaluation tracks. Any change here is a behaviour
// change that must be reviewed, not an accident.
type goldenSummary struct {
	Neurons          int         `json:"neurons"`
	Connections      int         `json:"connections"`
	Crossbars        int         `json:"crossbars"`
	CrossbarCells    int         `json:"crossbarCells"` // Σ size² — allocated crossbar capacity
	UsedCells        int         `json:"usedCells"`     // Σ per-crossbar mapped connections
	DiscreteSynapses int         `json:"discreteSynapses"`
	AvgUtilization   float64     `json:"avgUtilization"`
	OutlierRatio     float64     `json:"outlierRatio"`
	ISCIterations    int         `json:"iscIterations"`
	SizeHistogram    map[int]int `json:"sizeHistogram"`
}

func summarize(res *autoncs.Result, net *autoncs.Network) goldenSummary {
	a := res.Assignment
	s := goldenSummary{
		Neurons:          net.N(),
		Connections:      net.NNZ(),
		Crossbars:        len(a.Crossbars),
		DiscreteSynapses: len(a.Synapses),
		AvgUtilization:   a.AvgUtilization(),
		OutlierRatio:     a.OutlierRatio(),
		ISCIterations:    len(res.Trace),
		SizeHistogram:    a.SizeHistogram(),
	}
	for _, cb := range a.Crossbars {
		s.CrossbarCells += cb.Size * cb.Size
		s.UsedCells += len(cb.Conns)
	}
	return s
}

func compileSummary(t *testing.T, gc goldenCase, workers int) []byte {
	t.Helper()
	net := autoncs.RandomSparseNetwork(gc.N, gc.Sparsity, gc.Seed)
	cfg := autoncs.DefaultConfig()
	cfg.Seed = gc.Seed
	cfg.SkipPhysical = true
	cfg.Workers = workers
	// Observers are passive: attaching one must not move a single bit of the
	// golden summaries. Compiling every golden case with a live observer
	// enforces that here, not just in prose.
	cfg.Observer = &autoncs.MetricsObserver{}
	res, err := autoncs.Compile(net, cfg)
	if err != nil {
		t.Fatalf("compile %s (workers=%d): %v", gc.Name, workers, err)
	}
	if err := res.Assignment.Validate(net); err != nil {
		t.Fatalf("compile %s (workers=%d): invalid assignment: %v", gc.Name, workers, err)
	}
	out, err := json.MarshalIndent(summarize(res, net), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestCompileGolden locks the flow's output on three seeded networks to the
// committed golden summaries, and proves the determinism contract: the
// serial compile (Workers=1), the NumCPU pool, and an oversubscribed pool
// produce byte-identical results.
func TestCompileGolden(t *testing.T) {
	workerSet := []int{1, runtime.NumCPU(), 2 * runtime.NumCPU(), 7}
	for _, gc := range goldenCases {
		gc := gc
		t.Run(gc.Name, func(t *testing.T) {
			if autoncs.RaceEnabled && gc.N > 500 {
				t.Skip("Lanczos-path compile takes minutes under the race detector; its kernels are race-tested per package")
			}
			path := filepath.Join("testdata", "golden", gc.Name+".json")
			serial := compileSummary(t, gc, 1)
			for _, w := range workerSet[1:] {
				if got := compileSummary(t, gc, w); string(got) != string(serial) {
					t.Fatalf("Workers=%d diverged from Workers=1:\n%s\nvs\n%s", w, got, serial)
				}
			}
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, serial, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run `go test -run TestCompileGolden -update`): %v", err)
			}
			if string(want) != string(serial) {
				t.Errorf("golden mismatch for %s:\ngot:\n%s\nwant:\n%s", gc.Name, serial, want)
			}
		})
	}
}

// mlCutoff forces the multilevel engine to engage on the golden-scale nets
// (the production default of 1024 would leave all four on the flat path).
const mlCutoff = 64

func compileSummaryML(t *testing.T, gc goldenCase, workers int) ([]byte, autoncs.MetricsSnapshot) {
	t.Helper()
	net := autoncs.RandomSparseNetwork(gc.N, gc.Sparsity, gc.Seed)
	cfg := autoncs.DefaultConfig()
	cfg.Seed = gc.Seed
	cfg.SkipPhysical = true
	cfg.Workers = workers
	cfg.Multilevel = true
	cfg.MultilevelCutoff = mlCutoff
	m := &autoncs.MetricsObserver{}
	cfg.Observer = m
	res, err := autoncs.Compile(net, cfg)
	if err != nil {
		t.Fatalf("multilevel compile %s (workers=%d): %v", gc.Name, workers, err)
	}
	if err := res.Assignment.Validate(net); err != nil {
		t.Fatalf("multilevel compile %s (workers=%d): invalid assignment: %v", gc.Name, workers, err)
	}
	out, err := json.MarshalIndent(summarize(res, net), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n'), m.Snapshot()
}

// TestCompileGoldenMultilevel locks the multilevel engine's output the same
// way TestCompileGolden locks the flat engine's: byte-identical summaries
// for every worker count, pinned golden files, and — since the multilevel
// path is an approximation of the flat spectral pass — explicit quality
// accounting against the flat goldens: the outlier ratio may exceed the
// flat engine's by at most 0.10 absolute, and the cluster (crossbar) count
// must stay within [0.6, 1.4]× the flat count. (Measured: the multilevel
// engine beats the flat outlier ratio on n120 and n200 at equal crossbar
// counts, and trades ~35% fewer crossbars for ≤0.08 extra outliers on the
// larger nets.)
func TestCompileGoldenMultilevel(t *testing.T) {
	workerSet := []int{1, runtime.NumCPU(), 2 * runtime.NumCPU(), 7}
	for _, gc := range goldenCases {
		gc := gc
		t.Run(gc.Name, func(t *testing.T) {
			if autoncs.RaceEnabled && gc.N > 500 {
				t.Skip("multilevel Lanczos compile takes minutes under the race detector; its kernels are race-tested per package")
			}
			path := filepath.Join("testdata", "golden", gc.Name+"_ml.json")
			serial, snap := compileSummaryML(t, gc, 1)
			if snap.LastClusterStats.MultilevelRounds == 0 {
				t.Fatalf("multilevel engine never engaged (cutoff %d, N %d): %+v",
					mlCutoff, gc.N, snap.LastClusterStats)
			}
			for _, w := range workerSet[1:] {
				if got, _ := compileSummaryML(t, gc, w); string(got) != string(serial) {
					t.Fatalf("Workers=%d diverged from Workers=1:\n%s\nvs\n%s", w, got, serial)
				}
			}
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, serial, 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run `go test -run TestCompileGoldenMultilevel -update`): %v", err)
				}
				if string(want) != string(serial) {
					t.Errorf("golden mismatch for %s:\ngot:\n%s\nwant:\n%s", gc.Name, serial, want)
				}
			}
			// Quality gates against the flat golden.
			flatRaw, err := os.ReadFile(filepath.Join("testdata", "golden", gc.Name+".json"))
			if err != nil {
				t.Fatalf("flat golden missing: %v", err)
			}
			var flat, ml goldenSummary
			if err := json.Unmarshal(flatRaw, &flat); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(serial, &ml); err != nil {
				t.Fatal(err)
			}
			if ml.OutlierRatio > flat.OutlierRatio+0.10 {
				t.Errorf("multilevel outlier ratio %.5f, flat %.5f (tolerance +0.10)",
					ml.OutlierRatio, flat.OutlierRatio)
			}
			lo, hi := int(0.6*float64(flat.Crossbars)), int(1.4*float64(flat.Crossbars))+1
			if ml.Crossbars < lo || ml.Crossbars > hi {
				t.Errorf("multilevel produced %d crossbars, flat %d (allowed [%d,%d])",
					ml.Crossbars, flat.Crossbars, lo, hi)
			}
		})
	}
}

// TestCompilePhysicalDeterminism extends the contract through the physical
// design: place, route (batched maze router), and cost must agree exactly
// between worker counts.
func TestCompilePhysicalDeterminism(t *testing.T) {
	net := autoncs.RandomSparseNetwork(140, 0.93, 11)
	report := func(workers int) string {
		cfg := autoncs.DefaultConfig()
		cfg.Seed = 11
		cfg.Workers = workers
		res, err := autoncs.Compile(net, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return fmt.Sprintf("%.17g %.17g %.17g %.17g %d",
			res.Report.Wirelength, res.Report.Area, res.Report.AvgDelay, res.Report.Cost,
			res.Routing.MaxUsage())
	}
	serial := report(1)
	for _, w := range []int{runtime.NumCPU(), 5} {
		if got := report(w); got != serial {
			t.Fatalf("workers=%d physical design diverged: %s vs %s", w, got, serial)
		}
	}
}
