package autoncs

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// editNet returns a copy of net with a small localized edit: within the
// neuron window [lo, lo+span) it removes the first `removes` existing edges
// and adds the first `adds` absent (off-diagonal) pairs.
func editNet(net *Network, lo, span, removes, adds int) *Network {
	out := net.Clone()
	hi := lo + span
	for i := lo; i < hi && removes > 0; i++ {
		for j := lo; j < hi && removes > 0; j++ {
			if i != j && out.Has(i, j) {
				out.Clear(i, j)
				removes--
			}
		}
	}
	for i := lo; i < hi && adds > 0; i++ {
		for j := lo; j < hi && adds > 0; j++ {
			if i != j && !out.Has(i, j) {
				out.Set(i, j)
				adds--
			}
		}
	}
	return out
}

func placementsEqual(a, b *Placement) bool {
	if len(a.X) != len(b.X) ||
		a.MinX != b.MinX || a.MinY != b.MinY || a.MaxX != b.MaxX || a.MaxY != b.MaxY {
		return false
	}
	for i := range a.X {
		if a.X[i] != b.X[i] || a.Y[i] != b.Y[i] {
			return false
		}
	}
	return true
}

func routingsEqual(a, b *Routing) bool {
	if a.Cols != b.Cols || a.Rows != b.Rows || a.Total != b.Total ||
		len(a.Paths) != len(b.Paths) {
		return false
	}
	for i := range a.Paths {
		if len(a.Paths[i]) != len(b.Paths[i]) {
			return false
		}
		for k := range a.Paths[i] {
			if a.Paths[i][k] != b.Paths[i][k] {
				return false
			}
		}
	}
	return true
}

// TestCompileDeltaZeroEdit: a delta against an unedited network must
// reproduce the previous result bit for bit and reuse everything.
func TestCompileDeltaZeroEdit(t *testing.T) {
	net := smallNet()
	cfg := DefaultConfig()
	prev, err := Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := CompileDelta(prev, net.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Edits != 0 || stats.DirtyCrossbars != 0 || stats.NewCrossbars != 0 {
		t.Fatalf("zero edit recompiled something: %+v", stats)
	}
	if stats.ReusedWires != len(prev.Netlist.Wires) || stats.ReroutedWires != 0 {
		t.Fatalf("zero edit rerouted wires: %+v", stats)
	}
	if len(res.Assignment.Crossbars) != len(prev.Assignment.Crossbars) ||
		len(res.Assignment.Synapses) != len(prev.Assignment.Synapses) {
		t.Fatal("zero-edit assignment differs from previous")
	}
	if !placementsEqual(res.Placement, prev.Placement) {
		t.Fatal("zero-edit placement differs from previous")
	}
	if !routingsEqual(res.Routing, prev.Routing) {
		t.Fatal("zero-edit routing differs from previous")
	}
	if res.Report.Cost != prev.Report.Cost {
		t.Fatalf("zero-edit cost %g, previous %g", res.Report.Cost, prev.Report.Cost)
	}
}

// TestCompileDeltaEquivalence: a delta of a small localized edit must cover
// the edited network exactly and land within a tight quality band of the
// full compile of the same edited network.
func TestCompileDeltaEquivalence(t *testing.T) {
	// Large enough that a localized edit leaves most crossbars untouched
	// (at 120 neurons the handful of clusters covers every neuron).
	net := RandomSparseNetwork(240, 0.95, 3)
	cfg := DefaultConfig()
	prev, err := Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	edited := editNet(net, 10, 8, 2, 2)
	res, stats, err := CompileDelta(prev, edited, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(edited); err != nil {
		t.Fatalf("delta assignment invalid on edited net: %v", err)
	}
	if stats.KeptCrossbars == 0 {
		t.Fatalf("localized edit kept no crossbars: %+v", stats)
	}
	if stats.ReusedWires == 0 {
		t.Fatalf("localized edit reused no routes: %+v", stats)
	}
	full, err := Compile(edited, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Quality gates. The delta tracks the quality of the base it edits
	// (ISC is noisy enough that two full compiles of near-identical nets
	// differ substantially), so the tight bound is against prev and the
	// sanity bound against the from-scratch compile of the edited net.
	if r, p, f := res.Assignment.OutlierRatio(), prev.Assignment.OutlierRatio(), full.Assignment.OutlierRatio(); r > max(p, f)+0.02 {
		t.Fatalf("delta outlier ratio %g, prev %g, full %g", r, p, f)
	}
	if nd, np := len(res.Assignment.Crossbars), len(prev.Assignment.Crossbars); nd > np+2 {
		t.Fatalf("delta uses %d crossbars, prev %d", nd, np)
	}
	if c, p, f := res.Report.Cost, prev.Report.Cost, full.Report.Cost; c > 1.2*max(p, f) {
		t.Fatalf("delta cost %g, prev %g, full %g", c, p, f)
	}
}

// TestCompileDeltaChainDrift: an editing session chains deltas, each
// resumed from the previous delta's result. Five localized edits in
// disjoint windows must leave the final result within the same quality
// gates TestCompileDeltaEquivalence applies to a single delta, against
// the original base and against a from-scratch compile of the final net.
func TestCompileDeltaChainDrift(t *testing.T) {
	if RaceEnabled {
		t.Skip("a minute under the race detector; the single-delta tests cover the kernels")
	}
	net := RandomSparseNetwork(240, 0.95, 3)
	cfg := DefaultConfig()
	base, err := Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := base
	for k := 0; k < 5; k++ {
		net = editNet(net, 10+30*k, 8, 2, 2)
		if res, _, err = CompileDelta(res, net, cfg); err != nil {
			t.Fatalf("edit %d: %v", k+1, err)
		}
		if err := res.Assignment.Validate(net); err != nil {
			t.Fatalf("edit %d: delta assignment invalid on the edited net: %v", k+1, err)
		}
	}
	full, err := Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r, p, f := res.Assignment.OutlierRatio(), base.Assignment.OutlierRatio(), full.Assignment.OutlierRatio(); r > max(p, f)+0.02 {
		t.Fatalf("chained delta outlier ratio %g, base %g, full %g", r, p, f)
	}
	if nd, nb := len(res.Assignment.Crossbars), len(base.Assignment.Crossbars); nd > nb+2 {
		t.Fatalf("chained delta uses %d crossbars, base %d", nd, nb)
	}
	if c, p, f := res.Report.Cost, base.Report.Cost, full.Report.Cost; c > 1.2*max(p, f) {
		t.Fatalf("chained delta cost %g, base %g, full %g", c, p, f)
	}
}

// TestCompileDeltaWorkerInvariance: the delta flow keeps the determinism
// contract — bit-identical results for any worker count.
func TestCompileDeltaWorkerInvariance(t *testing.T) {
	net := RandomSparseNetwork(240, 0.95, 3)
	cfg := DefaultConfig()
	prev, err := Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	edited := editNet(net, 40, 8, 2, 2)
	var ref *Result
	for _, workers := range []int{1, 2, 4, 8} {
		c := cfg
		c.Workers = workers
		res, _, err := CompileDeltaCtx(t.Context(), prev, edited, c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !placementsEqual(res.Placement, ref.Placement) {
			t.Fatalf("workers=%d placement diverged", workers)
		}
		if !routingsEqual(res.Routing, ref.Routing) {
			t.Fatalf("workers=%d routing diverged", workers)
		}
		if res.Report.Cost != ref.Report.Cost {
			t.Fatalf("workers=%d cost %g, want %g", workers, res.Report.Cost, ref.Report.Cost)
		}
	}
}

// TestCompileDeltaRejects: the guard rails of the delta entry point.
func TestCompileDeltaRejects(t *testing.T) {
	net := smallNet()
	cfg := DefaultConfig()
	prev, err := Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := CompileDelta(nil, net, cfg); err == nil {
		t.Fatal("nil previous result accepted")
	}
	if _, _, err := CompileDelta(prev, RandomSparseNetwork(80, 0.92, 1), cfg); err == nil {
		t.Fatal("neuron-count mismatch accepted")
	}
	bad := cfg
	bad.Device.NeuronSide *= 2
	if _, _, err := CompileDelta(prev, net, bad); err == nil {
		t.Fatal("device mismatch accepted")
	}
}

// TestCompileDeltaFromSkipPhysical: a base compiled with SkipPhysical still
// delta-compiles; the physical stages simply run from scratch.
func TestCompileDeltaFromSkipPhysical(t *testing.T) {
	net := smallNet()
	scfg := DefaultConfig()
	scfg.SkipPhysical = true
	prev, err := Compile(net, scfg)
	if err != nil {
		t.Fatal(err)
	}
	edited := editNet(net, 0, 15, 3, 3)
	res, stats, err := CompileDelta(prev, edited, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement == nil || res.Routing == nil || res.Report == nil {
		t.Fatal("physical artifacts missing")
	}
	if !stats.FullRoute || stats.ReusedWires != 0 {
		t.Fatalf("SkipPhysical base should force a full route: %+v", stats)
	}
}

// TestArtifactRoundTrip: encode → decode → Restore reproduces the compile
// result exactly, and the encoding itself is byte-deterministic.
func TestArtifactRoundTrip(t *testing.T) {
	net := smallNet()
	cfg := DefaultConfig()
	res, err := Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeArtifact(res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := EncodeArtifact(res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("artifact encoding is not deterministic")
	}
	art, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if art.ConfigVector != ConfigVectorHashHex(cfg) {
		t.Fatalf("config vector %q, want %q", art.ConfigVector, ConfigVectorHashHex(cfg))
	}
	got, err := art.Restore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Assignment.Validate(net); err != nil {
		t.Fatalf("restored assignment invalid: %v", err)
	}
	if !placementsEqual(got.Placement, res.Placement) {
		t.Fatal("restored placement differs")
	}
	if !routingsEqual(got.Routing, res.Routing) {
		t.Fatal("restored routing differs")
	}
	if got.Report.Cost != res.Report.Cost || got.Report.Wirelength != res.Report.Wirelength {
		t.Fatalf("restored report %+v, want %+v", got.Report, res.Report)
	}
	for i := range got.Routing.Usage {
		if got.Routing.Usage[i] != res.Routing.Usage[i] {
			t.Fatalf("restored usage map differs at bin %d", i)
		}
	}
}

// TestArtifactDeltaChain: a delta resumed from a decoded artifact equals a
// delta resumed from the in-memory result — compiles are resumable across
// the serialization boundary.
func TestArtifactDeltaChain(t *testing.T) {
	net := smallNet()
	cfg := DefaultConfig()
	prev, err := Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeArtifact(prev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	art, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := art.Restore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	edited := editNet(net, 30, 20, 4, 4)
	fromMem, _, err := CompileDelta(prev, edited, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fromArt, _, err := CompileDelta(restored, edited, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !placementsEqual(fromMem.Placement, fromArt.Placement) {
		t.Fatal("delta from restored artifact diverged from in-memory delta (placement)")
	}
	if !routingsEqual(fromMem.Routing, fromArt.Routing) {
		t.Fatal("delta from restored artifact diverged from in-memory delta (routing)")
	}
	if fromMem.Report.Cost != fromArt.Report.Cost {
		t.Fatalf("delta cost %g from artifact, %g from memory", fromArt.Report.Cost, fromMem.Report.Cost)
	}
}

// TestArtifactSkipPhysical: SkipPhysical results round-trip with no
// physical section.
func TestArtifactSkipPhysical(t *testing.T) {
	net := smallNet()
	cfg := DefaultConfig()
	cfg.SkipPhysical = true
	res, err := Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeArtifact(res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	art, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if art.Placement != nil || art.Routing != nil {
		t.Fatal("SkipPhysical artifact carries physical sections")
	}
	got, err := art.Restore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Placement != nil || got.Routing != nil || got.Report != nil {
		t.Fatal("SkipPhysical restore produced physical artifacts")
	}
	if err := got.Assignment.Validate(net); err != nil {
		t.Fatalf("restored assignment invalid: %v", err)
	}
}

// TestDecodeArtifactRejects: malformed artifacts fail loudly.
func TestDecodeArtifactRejects(t *testing.T) {
	if _, err := DecodeArtifact([]byte(`{"format":"bogus/v9","config_vector":"x"}`)); err == nil {
		t.Fatal("bogus format accepted")
	}
	if _, err := DecodeArtifact([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
	// Neuron ids outside [0, N) would panic BaseNetwork; they are refused
	// at decode with a typed error.
	artifact := func(assignment string) []byte {
		return []byte(`{"format":"` + artifactFormat + `","config_vector":"` + strings.Repeat("0", 64) +
			`","assignment":` + assignment + `}`)
	}
	cases := []struct {
		name, assignment, field string
	}{
		{"synapse endpoint", `{"version":1,"neurons":12,"connections":1,"crossbars":[],"synapses":[[0,12]]}`, "assignment synapses[0]"},
		{"crossbar input", `{"version":1,"neurons":12,"connections":1,"crossbars":[{"size":16,"inputs":[3,12],"outputs":[3],"conns":[[3,3]]}],"synapses":[]}`, "assignment crossbars[0].inputs[1]"},
		{"negative conn", `{"version":1,"neurons":12,"connections":1,"crossbars":[{"size":16,"inputs":[3],"outputs":[3],"conns":[[3,-1]]}],"synapses":[]}`, "assignment crossbars[0].conns[0]"},
		{"too many neurons", `{"version":1,"neurons":40000,"connections":0,"crossbars":[],"synapses":[]}`, "assignment neurons"},
	}
	for _, tc := range cases {
		_, err := DecodeArtifact(artifact(tc.assignment))
		var ae *ArtifactError
		if !errors.As(err, &ae) || ae.Field != tc.field {
			t.Errorf("%s: DecodeArtifact returned %v, want an ArtifactError on %s", tc.name, err, tc.field)
		}
	}
	// The same artifact with every id in range decodes, and BaseNetwork
	// rebuilds its one connection.
	art, err := DecodeArtifact(artifact(`{"version":1,"neurons":12,"connections":1,"crossbars":[],"synapses":[[0,11]]}`))
	if err != nil {
		t.Fatal(err)
	}
	if base := BaseNetwork(art.Assignment); base.NNZ() != 1 || !base.Has(0, 11) {
		t.Fatalf("base network of the in-range artifact: %d connections", base.NNZ())
	}
}
