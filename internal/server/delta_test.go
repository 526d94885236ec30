package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/client"
	"repro/internal/cache"
	"repro/internal/obs"
)

// baseNet is the network smallReq compiles server-side (the daemon builds
// RandomSparseNetwork(120, 0.92, 5) from the RandomSpec).
func baseNet() *autoncs.Network {
	return autoncs.RandomSparseNetwork(120, 0.92, 5)
}

// editedNetText returns baseNet with a small localized edit (two removed,
// two added connections inside one neuron window), serialized in the
// autoncs-net text format — the shape of an interactive editing step.
func editedNetText(t *testing.T) string {
	t.Helper()
	edited := baseNet().Clone()
	removed, added := 0, 0
	for i := 10; i < 30 && removed < 2; i++ {
		for j := 10; j < 30; j++ {
			if i != j && edited.Has(i, j) {
				edited.Clear(i, j)
				removed++
				break
			}
		}
	}
	// The added edges live in a disjoint window so they cannot cancel the
	// removals back out.
	for i := 40; i < 60 && added < 2; i++ {
		for j := 40; j < 60; j++ {
			if i != j && !edited.Has(i, j) {
				edited.Set(i, j)
				added++
				break
			}
		}
	}
	if removed != 2 || added != 2 {
		t.Fatalf("edit construction removed %d added %d, want 2/2", removed, added)
	}
	var b strings.Builder
	if err := edited.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestDeltaRoundTrip is the serving contract of incremental recompiles:
// a full compile leaves an artifact behind, an edited resubmission with
// ?base= runs as a delta cached under the delta key domain, the lineage
// is bit-stable (an identical delta resubmission is a cache hit with
// identical bytes), and a further edit can chain off the delta's own key.
func TestDeltaRoundTrip(t *testing.T) {
	s, c := newTestServer(t, Options{Slots: 1})
	ctx := context.Background()

	base, err := c.CompileWait(ctx, smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if base.State != client.StateDone || base.BaseKey != "" {
		t.Fatalf("base compile: state %s base_key %q", base.State, base.BaseKey)
	}

	// The finished compile must have stored its resumable artifact.
	var bk [32]byte
	kb, err := cache.ParseKey(base.Key)
	if err != nil {
		t.Fatal(err)
	}
	bk = [32]byte(kb)
	if _, hit, _ := s.cache.GetDetail(cache.Key(client.ArtifactKey(bk))); !hit {
		t.Fatal("no artifact cached for the base compile")
	}

	editReq := client.CompileRequest{Net: editedNetText(t), Seed: 1, Base: base.Key}
	delta, err := c.CompileWait(ctx, editReq)
	if err != nil {
		t.Fatal(err)
	}
	if delta.State != client.StateDone {
		t.Fatalf("delta compile: %+v", delta)
	}
	if delta.BaseKey != base.Key {
		t.Fatalf("delta base_key %q, want %q", delta.BaseKey, base.Key)
	}
	if delta.Cached {
		t.Fatal("first delta compile claims to be cached")
	}
	// The delta is cached under the delta key domain, never the plain
	// content address of the edited network.
	plainReq := editReq
	plainReq.Base = ""
	plainKey, err := plainReq.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	wantKey := client.DeltaKey(bk, plainKey)
	if delta.Key != cache.Key(wantKey).Hex() {
		t.Fatalf("delta key %s, want DeltaKey %s", delta.Key, cache.Key(wantKey).Hex())
	}
	deltaBytes, err := c.ResultBytes(ctx, delta.ID)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Result(ctx, delta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crossbars == 0 || res.Report == nil {
		t.Fatalf("delta result incomplete: %+v", res)
	}

	// Bit-stable lineage: the identical delta resubmission hits the cache
	// under the same key with byte-identical payload.
	again, err := c.CompileWait(ctx, editReq)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Key != delta.Key || again.BaseKey != base.Key {
		t.Fatalf("delta resubmission: cached %v key %s base %s", again.Cached, again.Key, again.BaseKey)
	}
	againBytes, err := c.ResultBytes(ctx, again.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(deltaBytes, againBytes) {
		t.Fatal("cached delta bytes differ from the computed ones")
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.DeltaCompiles != 1 {
		t.Errorf("delta compiles %d, want 1", m.DeltaCompiles)
	}
	if m.DeltaFallbacks != 0 {
		t.Errorf("delta fallbacks %d, want 0", m.DeltaFallbacks)
	}
	if m.LastDelta == nil {
		t.Fatal("no last_delta in metrics")
	}
	if m.LastDelta.KeptCrossbars == 0 || m.LastDelta.EditRatio <= 0 {
		t.Errorf("last_delta reuse looks wrong: %+v", m.LastDelta)
	}

	// Chaining: the delta's own artifact can serve as the next base. The
	// same edited net against the delta it produced is a zero-edit delta —
	// still a real compile, cached under its own lineage key.
	chain, err := c.CompileWait(ctx, client.CompileRequest{Net: editedNetText(t), Seed: 1, Base: delta.Key})
	if err != nil {
		t.Fatal(err)
	}
	if chain.State != client.StateDone || chain.BaseKey != delta.Key {
		t.Fatalf("chained delta: state %s base %q", chain.State, chain.BaseKey)
	}
}

// TestDeltaConfigMismatch: a delta request under a different config vector
// than the base must be refused with the typed 409.
func TestDeltaConfigMismatch(t *testing.T) {
	_, c := newTestServer(t, Options{Slots: 1})
	ctx := context.Background()
	base, err := c.CompileWait(ctx, smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.CompileWait(ctx, client.CompileRequest{Net: editedNetText(t), Seed: 2, Base: base.Key})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != 409 || ae.Code != client.CodeBaseConfigMismatch {
		t.Fatalf("want 409 %s, got %v", client.CodeBaseConfigMismatch, err)
	}
}

// TestDeltaBaseMissing: a base key with no cached artifact is the typed
// 404.
func TestDeltaBaseMissing(t *testing.T) {
	_, c := newTestServer(t, Options{Slots: 1})
	ctx := context.Background()
	_, err := c.CompileWait(ctx, client.CompileRequest{
		Net: editedNetText(t), Seed: 1,
		Base: strings.Repeat("ab", 32),
	})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != 404 || ae.Code != client.CodeBaseArtifactMissing {
		t.Fatalf("want 404 %s, got %v", client.CodeBaseArtifactMissing, err)
	}
}

// TestDeltaBadBase: a malformed base key is a plain 400.
func TestDeltaBadBase(t *testing.T) {
	_, c := newTestServer(t, Options{Slots: 1})
	_, err := c.CompileWait(context.Background(), client.CompileRequest{Net: editedNetText(t), Seed: 1, Base: "zz"})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != 400 {
		t.Fatalf("want 400, got %v", err)
	}
}

// TestDeltaSizeMismatch: an edited network with a different neuron count
// cannot delta against the base.
func TestDeltaSizeMismatch(t *testing.T) {
	_, c := newTestServer(t, Options{Slots: 1})
	ctx := context.Background()
	base, err := c.CompileWait(ctx, smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := autoncs.RandomSparseNetwork(60, 0.92, 5).Write(&b); err != nil {
		t.Fatal(err)
	}
	_, err = c.CompileWait(ctx, client.CompileRequest{Net: b.String(), Seed: 1, Base: base.Key})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != 409 || ae.Code != client.CodeBaseSizeMismatch {
		t.Fatalf("want 409 %s, got %v", client.CodeBaseSizeMismatch, err)
	}
}

// TestDeltaEditRatioFallback: over the cutoff the submission silently runs
// as a full compile — plain key, no BaseKey, fallback counted.
func TestDeltaEditRatioFallback(t *testing.T) {
	_, c := newTestServer(t, Options{Slots: 1, DeltaMaxEditRatio: -1})
	ctx := context.Background()
	base, err := c.CompileWait(ctx, smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	editReq := client.CompileRequest{Net: editedNetText(t), Seed: 1, Base: base.Key}
	full, err := c.CompileWait(ctx, editReq)
	if err != nil {
		t.Fatal(err)
	}
	if full.State != client.StateDone || full.BaseKey != "" {
		t.Fatalf("fallback compile: state %s base_key %q", full.State, full.BaseKey)
	}
	plainReq := editReq
	plainReq.Base = ""
	plainKey, err := plainReq.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if full.Key != cache.Key(plainKey).Hex() {
		t.Fatalf("fallback key %s, want plain %s", full.Key, cache.Key(plainKey).Hex())
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.DeltaFallbacks != 1 || m.DeltaCompiles != 0 {
		t.Errorf("fallbacks %d deltas %d, want 1/0", m.DeltaFallbacks, m.DeltaCompiles)
	}
}

// TestMetricsLastDeltaKeys pins the last_delta wire schema on /metrics:
// exactly these keys, with full_route omitted when false.
func TestMetricsLastDeltaKeys(t *testing.T) {
	s, _ := newTestServer(t, Options{Slots: 1})
	want := []string{
		"edits", "added_edges", "removed_edges", "touched_neurons", "edit_ratio",
		"base_crossbars", "kept_crossbars", "dirty_crossbars", "new_crossbars", "residual_conns", "cluster_reuse_frac",
		"cells", "seeded_cells", "place_reuse_frac",
		"wires", "reused_wires", "rerouted_wires", "route_reuse_frac",
	}
	for _, full := range []bool{false, true} {
		s.metrics.Observe(obs.DeltaStats{Edits: 3, EditRatio: 0.01, FullRoute: full})
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		var body struct {
			LastDelta map[string]json.RawMessage `json:"last_delta"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		keys := append([]string(nil), want...)
		if full {
			keys = append(keys, "full_route")
		}
		got := make([]string, 0, len(body.LastDelta))
		for k := range body.LastDelta {
			got = append(got, k)
		}
		slices.Sort(keys)
		slices.Sort(got)
		if !slices.Equal(got, keys) {
			t.Errorf("full_route=%v: last_delta keys\n got %v\nwant %v", full, got, keys)
		}
	}
}
