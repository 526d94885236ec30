package autoncs

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
)

// artifactOf compiles a small network and returns its encoded artifact.
func artifactOf(t testing.TB, cfg Config) []byte {
	t.Helper()
	res, err := Compile(RandomSparseNetwork(12, 0.8, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeArtifact(res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestArtifactRestoreRejects: Restore refuses non-finite coordinates and
// oversized routing grids with an *ArtifactError, before allocating the
// usage map.
func TestArtifactRestoreRejects(t *testing.T) {
	cfg := DefaultConfig()
	data := artifactOf(t, cfg)
	cases := []struct {
		name   string
		mutate func(*Artifact)
		field  string
	}{
		{"nan x", func(a *Artifact) { a.Placement.X[0] = math.NaN() }, "placement[0]"},
		{"inf y", func(a *Artifact) { a.Placement.Y[1] = math.Inf(-1) }, "placement[1]"},
		{"inf bound", func(a *Artifact) { a.Placement.MaxX = math.Inf(1) }, "placement bounds"},
		{"nan wire length", func(a *Artifact) { a.Routing.WireLength[0] = math.NaN() }, "wire_length[0]"},
		{"grid wider than placement", func(a *Artifact) { a.Routing.Cols *= 2 }, "routing grid"},
		{"grid overflows", func(a *Artifact) {
			a.Placement.MinX, a.Placement.MaxX = -1e300, 1e300
			a.Placement.MinY, a.Placement.MaxY = -1e300, 1e300
			a.Routing.Cols, a.Routing.Rows = math.MaxInt/2, math.MaxInt/2
		}, "routing grid"},
		{"grid over cap", func(a *Artifact) {
			a.Placement.MaxX = a.Placement.MinX + 1e9
			a.Routing.Cols = maxArtifactBins
		}, "routing grid"},
		{"routing missing", func(a *Artifact) { a.Routing = nil }, "routing"},
	}
	for _, tc := range cases {
		art, err := DecodeArtifact(data)
		if err != nil {
			t.Fatal(err)
		}
		tc.mutate(art)
		_, err = art.Restore(cfg)
		var ae *ArtifactError
		if !errors.As(err, &ae) || ae.Field != tc.field {
			t.Errorf("%s: Restore returned %v, want an ArtifactError on %s", tc.name, err, tc.field)
		}
	}
	// The same grid check guards the decode path: an encoded artifact
	// claiming a huge grid is refused without allocating it.
	huge := strings.Replace(string(data), `"cols":`, `"cols":9000000000000`, 1)
	art, err := DecodeArtifact([]byte(huge))
	if err != nil {
		t.Fatal(err)
	}
	var ae *ArtifactError
	if _, err := art.Restore(cfg); !errors.As(err, &ae) {
		t.Fatalf("encoded huge grid: Restore returned %v, want an ArtifactError", err)
	}
}

// FuzzDecodeArtifact: decoding then restoring arbitrary bytes never
// panics and never allocates past the grid cap plus a budget proportional
// to the input.
func FuzzDecodeArtifact(f *testing.F) {
	cfg := DefaultConfig()
	f.Add(artifactOf(f, cfg))
	skip := cfg
	skip.SkipPhysical = true
	f.Add(artifactOf(f, skip))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		art, err := DecodeArtifact(data)
		if err != nil {
			return
		}
		res, err := art.Restore(cfg)
		runtime.ReadMemStats(&after)
		if err == nil && res.Routing != nil && len(res.Routing.Usage) > maxArtifactBins {
			t.Fatalf("restored a %d-bin usage map, cap %d", len(res.Routing.Usage), maxArtifactBins)
		}
		if grown, budget := after.TotalAlloc-before.TotalAlloc, uint64(8*maxArtifactBins+256*len(data)+1<<20); grown > budget {
			t.Fatalf("decode+restore of %d bytes allocated %d bytes, budget %d", len(data), grown, budget)
		}
		// A delta diffs against the reconstructed network: every decoded
		// assignment must index its own neuron count without panicking.
		// Outside the budget: the network is N² bits by construction.
		if base := BaseNetwork(art.Assignment); base.N() != art.Assignment.N {
			t.Fatalf("base network has %d neurons, assignment %d", base.N(), art.Assignment.N)
		}
	})
}
