// Command perfbench is the AutoNCS benchmark. It generates every input from
// its seed, drives one workload in a closed loop through the public
// functions of each layer for a fixed time, checks every output, and prints
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (see README.md beside this file):
//
//	bash perfbench/run.sh --workload physical --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *runner) error{
	"physical": runPhysical,
	"cluster":  runCluster,
	"serve":    runServe,
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string // Chrome trace-event file written by a traced run
	sc       scale
}

// scale fixes the input sizes of every workload. fullScale is the
// benchmark; toyScale keeps the benchmark's own tests fast.
type scale struct {
	physN        int
	physSparsity float64
	physCutoff   int
	physPool     int // distinct networks the physical ops cycle through
	physMinOps   int // physical ops every run completes; deterministic metrics cover them

	clusN        int
	clusSparsity float64
	clusPool     int // distinct networks the cluster ops cycle through, one per set-up; every run compiles each

	editFrac float64 // share of a network's connections one ?base= edit changes

	serveNMin, serveNMax   int
	serveSpMin, serveSpMax float64
	serveDetRounds         int // rounds every serve run completes

	setupReps int // set-ups per run of physical and serve; setup_s is their median
}

func fullScale() scale {
	return scale{
		physN: 400, physSparsity: 0.95, physCutoff: 256, physPool: 24, physMinOps: 10,
		clusN: 10000, clusSparsity: 0.9985, clusPool: 8,
		editFrac:  0.01,
		serveNMin: 120, serveNMax: 200, serveSpMin: 0.92, serveSpMax: 0.94, serveDetRounds: 80,
		setupReps: 7,
	}
}

func toyScale() scale {
	return scale{
		physN: 120, physSparsity: 0.93, physCutoff: 48, physPool: 4, physMinOps: 2,
		clusN: 150, clusSparsity: 0.93, clusPool: 2,
		editFrac:  0.02,
		serveNMin: 60, serveNMax: 80, serveSpMin: 0.90, serveSpMax: 0.92, serveDetRounds: 10,
		setupReps: 2,
	}
}

func main() {
	opt, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	sum, err := run(context.Background(), opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !sum.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload: physical, cluster or serve")
	fs.Int64Var(&opt.seed, "seed", 1, "seed all inputs derive from")
	fs.Float64Var(&opt.seconds, "seconds", 20, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&opt.traceOut, "trace-out", "", "Chrome trace-event file of a traced run (default .bench_build/traces/<workload>-seed<n>.json)")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if _, ok := workloads[opt.workload]; !ok {
		err := fmt.Errorf("unknown workload %q (want physical, cluster or serve)", opt.workload)
		fmt.Fprintln(stderr, "perfbench:", err)
		return opt, err
	}
	if trace != 0 && trace != 1 {
		err := fmt.Errorf("--trace must be 0 or 1, got %d", trace)
		fmt.Fprintln(stderr, "perfbench:", err)
		return opt, err
	}
	if opt.seconds <= 0 {
		err := fmt.Errorf("--seconds must be positive, got %g", opt.seconds)
		fmt.Fprintln(stderr, "perfbench:", err)
		return opt, err
	}
	opt.trace = trace == 1
	opt.sc = fullScale()
	if opt.trace && opt.traceOut == "" {
		opt.traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", opt.workload, opt.seed))
	}
	return opt, nil
}

// runner carries one run's settings and everything it measures.
type runner struct {
	opt     options
	sc      scale
	workers int
	tr      *tracer // nil in untraced runs

	setupTimes []float64
	lat        []float64 // seconds per completed op
	wall       float64   // wall-clock seconds of the whole timed phase
	attempted  int
	failedOps  map[int]bool
	failures   []string

	quality map[string]float64 // deterministic design quality
	layer   map[string]float64 // per-layer metrics of a traced run
	traffic map[string]float64 // the traffic actually measured
}

func newRunner(opt options) *runner {
	r := &runner{
		opt:       opt,
		sc:        opt.sc,
		workers:   runtime.NumCPU(),
		failedOps: map[int]bool{},
		quality:   map[string]float64{},
		layer:     map[string]float64{},
		traffic:   map[string]float64{},
	}
	if opt.trace {
		r.tr = newTracer()
	}
	return r
}

// setup runs f reps times, recording each wall time; setup_s is their
// median. f(i) either redoes the whole set-up (the state of its last call
// is what the timed phase uses) or builds input i of reps alike.
func (r *runner) setup(reps int, f func(i int) error) error {
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := f(i); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setupTimes = append(r.setupTimes, time.Since(t).Seconds())
	}
	return nil
}

// fail counts op as failed (once, however many checks it fails) and keeps
// the reason for the report.
func (r *runner) fail(op int, format string, args ...any) {
	r.failedOps[op] = true
	r.failures = append(r.failures, fmt.Sprintf("op %d: ", op)+fmt.Sprintf(format, args...))
}

// closedLoop runs a single caller: op i starts when op i-1 has answered.
// It starts ops until the run's seconds have passed and at least minOps
// have completed, timing each op and the whole phase. Garbage collection
// lands where the program's allocations cause it.
func (r *runner) closedLoop(minOps int, op func(i int) error) {
	start := time.Now()
	for i := 0; !r.done(i, minOps, 1, start); i++ {
		t := time.Now()
		err := op(i)
		r.lat = append(r.lat, time.Since(t).Seconds())
		r.attempted++
		if err != nil {
			r.fail(i, "%v", err)
		}
	}
	r.wall = time.Since(start).Seconds()
}

// done reports whether a loop that has run n ops (or rounds) may stop: the
// run's seconds have passed, at least min have run, and n is a whole number
// of cycles.
func (r *runner) done(n, min, cycle int, start time.Time) bool {
	return n >= min && n%cycle == 0 && time.Since(start).Seconds() >= r.opt.seconds
}

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better, doc string
}

// endToEnd lists the metrics of an untraced run, the ones BENCHMARK.json
// bounds. Every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "median wall time of one set-up"},
	{"ops_per_s", "1/s", "higher", "completed ops / wall-clock seconds of the timed phase"},
	{"p50_s", "s", "lower", "median op latency"},
	{"tail_s", "s", "lower", "p90 of op latency, or the highest percentile with min(10, n/3) samples beyond it"},
	{"peak_rss_mb", "MiB", "lower", "peak resident memory of the benchmark process"},
	{"avg_utilization", "ratio", "higher", "mean crossbar utilization of the produced designs"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the JSON object printed as the last line of a run.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run executes one workload and writes the human-readable report followed
// by the JSON summary line to w.
func run(ctx context.Context, opt options, w io.Writer) (summary, error) {
	r := newRunner(opt)
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%t\n", opt.workload, opt.seed, opt.seconds, opt.trace)
	fmt.Fprintf(w, "provenance %s\n", provenance(r.workers))
	if err := workloads[opt.workload](ctx, r); err != nil {
		return summary{}, err
	}
	sum := r.summarize(w)
	if r.tr != nil {
		if err := r.tr.writeChrome(opt.traceOut); err != nil {
			return summary{}, err
		}
		fmt.Fprintf(w, "trace %d spans written to %s\n", len(r.tr.spans), opt.traceOut)
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return summary{}, err
	}
	fmt.Fprintln(w, string(line))
	return sum, nil
}

// summarize prints every metric with its unit and builds the summary.
func (r *runner) summarize(w io.Writer) summary {
	sum := summary{
		Attempted: r.attempted,
		Failed:    len(r.failedOps),
		Metrics:   map[string]metricValue{},
	}
	sum.Correct = sum.Failed == 0 && sum.Attempted > 0
	failFrac := 0.0
	if r.attempted > 0 {
		failFrac = float64(sum.Failed) / float64(r.attempted)
	}

	p50 := median(r.lat)
	tail, pct, beyond := tailOf(r.lat)
	opsPerS := 0.0
	if r.wall > 0 {
		opsPerS = float64(len(r.lat)) / r.wall
	}
	e2e := map[string]float64{
		"setup_s":         median(r.setupTimes),
		"ops_per_s":       opsPerS,
		"p50_s":           p50,
		"tail_s":          tail,
		"peak_rss_mb":     peakRSSMiB(),
		"avg_utilization": r.quality["avg_utilization"],
	}
	fmt.Fprintf(w, "traffic %s\n", formatMap(r.traffic))
	fmt.Fprintf(w, "ops %d attempted, %d failed, fail_frac %.4f (ratio, lower is better)\n", r.attempted, sum.Failed, failFrac)
	for _, m := range endToEnd {
		note := ""
		switch m.name {
		case "setup_s":
			note = fmt.Sprintf("; median of %d set-ups: %s", len(r.setupTimes), formatSeconds(r.setupTimes))
		case "p50_s":
			note = fmt.Sprintf("; %d samples", len(r.lat))
		case "tail_s":
			note = fmt.Sprintf("; p%.1f, %d samples beyond it, %d samples", pct, beyond, len(r.lat))
		}
		fmt.Fprintf(w, "metric %s %.6g %s (%s is better; %s%s)\n", m.name, e2e[m.name], m.unit, m.better, m.doc, note)
	}
	for _, name := range sortedKeys(r.quality) {
		fmt.Fprintf(w, "quality %s %.10g\n", name, r.quality[name])
	}
	if r.tr != nil {
		for _, m := range perLayer {
			fmt.Fprintf(w, "layer %s %.6g %s (%s)\n", m.name, r.layer[m.name], m.unit, m.doc)
		}
	}
	for i, f := range r.failures {
		if i == 20 {
			fmt.Fprintf(w, "check ... %d more failures\n", len(r.failures)-i)
			break
		}
		fmt.Fprintf(w, "check FAILED %s\n", f)
	}

	if r.tr == nil {
		for _, m := range endToEnd {
			sum.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
	} else {
		for _, m := range perLayer {
			sum.Metrics[m.name] = metricValue{r.layer[m.name], m.unit}
		}
	}
	return sum
}

// provenance describes the machine, toolchain and source of a run.
func provenance(workers int) string {
	rev, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d workers=%d go=%s commit=%s dirty=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), workers, runtime.Version(), rev, dirty)
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailOf returns the tail percentile of xs: p90 when at least ten samples
// lie beyond it, else the highest percentile with min(10, n/3) samples
// beyond it. It also returns the percentile and the count beyond it. A
// fixed p90 keeps rare slow ops from flipping the tail of long runs; in a
// short run of slow ops a third of the samples lie beyond the tail, so one
// or two unusually slow inputs cannot move it. The report says how thin
// it is.
func tailOf(xs []float64) (value, pct float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n / 3
	if k > 10 {
		k = 10
	}
	if n/10 > k {
		k = n / 10
	}
	i := n - 1 - k
	return s[i], 100 * float64(i+1) / float64(n), k
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func formatSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3g", x)
	}
	return strings.Join(parts, " ")
}

func formatMap(m map[string]float64) string {
	var b strings.Builder
	for i, k := range sortedKeys(m) {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.4g", k, m[k])
	}
	return b.String()
}

// subSeed derives an independent seed for one input stream from the run's
// seed (splitmix64 over the parts), so each workload's inputs change with
// --seed and with nothing else.
func subSeed(seed int64, parts ...int64) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x += 0x9e3779b97f4a7c15 + uint64(p)
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x = z ^ (z >> 31)
	}
	return int64(x >> 1)
}
