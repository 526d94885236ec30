package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/client"
	"repro/internal/cache"
)

// trio is an in-process three-daemon fleet: every server knows the other
// two as peers over real HTTP.
type trio struct {
	srv  [3]*Server
	hs   [3]*httptest.Server
	cl   [3]*client.Client
	urls [3]string
}

// newTrio stands the fleet up. Peer URLs must be known before the servers
// start, so listeners are bound first and handed to httptest afterwards.
func newTrio(t *testing.T, tune func(*Options)) *trio {
	t.Helper()
	tr := &trio{}
	var lns [3]net.Listener
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		tr.urls[i] = "http://" + ln.Addr().String()
	}
	for i := range tr.srv {
		opts := Options{
			Slots: 1,
			Self:  tr.urls[i],
			Peers: tr.urls[:],
		}
		if tune != nil {
			tune(&opts)
		}
		s, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewUnstartedServer(s.Handler())
		hs.Listener.Close()
		hs.Listener = lns[i]
		hs.Start()
		tr.srv[i] = s
		tr.hs[i] = hs
		tr.cl[i] = client.NewWith(tr.urls[i], hs.Client())
	}
	t.Cleanup(func() {
		for i := range tr.srv {
			tr.hs[i].Close()
			tr.srv[i].Close()
		}
	})
	return tr
}

// fleetReq is a fast compile (clustering only) for fleet plumbing tests.
func fleetReq(seed int64) client.CompileRequest {
	return client.CompileRequest{
		Random:       &client.RandomSpec{N: 80, Sparsity: 0.9, Seed: 7},
		Seed:         seed,
		SkipPhysical: true,
	}
}

// seedOwnedBy searches for a request whose content address the ring
// assigns to member idx of the trio.
func (tr *trio) seedOwnedBy(t *testing.T, idx int) (int64, client.CompileRequest) {
	t.Helper()
	for seed := int64(1); seed < 1000; seed++ {
		key, err := fleetReq(seed).CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		if tr.srv[idx].fleet.Owns(key) {
			return seed, fleetReq(seed)
		}
	}
	t.Fatal("no seed in 1..999 owned by the target member (implausible)")
	return 0, client.CompileRequest{}
}

// TestFleetPeerCacheHit: a compile cached on its owning daemon is served
// to a sibling daemon through the peer cache protocol — answered as a
// cache hit with peer provenance and bit-identical bytes, never
// recompiled.
func TestFleetPeerCacheHit(t *testing.T) {
	tr := newTrio(t, nil)
	ctx := context.Background()
	_, req := tr.seedOwnedBy(t, 0) // daemon A owns the key

	first, err := tr.cl[0].CompileWait(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.State != client.StateDone || first.Cached || first.Peer != "" {
		t.Fatalf("owner compile: %+v", first)
	}
	firstBytes, err := tr.cl[0].ResultBytes(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}

	second, err := tr.cl[1].CompileWait(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if second.State != client.StateDone || !second.Cached {
		t.Fatalf("sibling submission not served from cache: %+v", second)
	}
	if second.Peer != tr.urls[0] {
		t.Fatalf("peer provenance %q, want %q", second.Peer, tr.urls[0])
	}
	if second.Key != first.Key {
		t.Fatalf("keys differ across daemons: %s vs %s", second.Key, first.Key)
	}
	secondBytes, err := tr.cl[1].ResultBytes(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(firstBytes, secondBytes) {
		t.Fatal("peer-served payload is not bit-identical to the owner's")
	}

	m, err := tr.cl[1].Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.PeerHits != 1 || m.PeerErrors != 0 {
		t.Fatalf("sibling metrics: peer_hits=%d peer_errors=%d, want 1/0", m.PeerHits, m.PeerErrors)
	}
	if m.Peers != 3 || m.PeersAlive != 3 {
		t.Fatalf("sibling metrics: peers=%d peers_alive=%d, want 3/3", m.Peers, m.PeersAlive)
	}
	if m.JobsCompleted != 0 {
		t.Fatalf("sibling ran %d compiles for a peer-served key", m.JobsCompleted)
	}

	// The write-through made the payload local: a repeat on the sibling is
	// a plain local cache hit, no second peer probe.
	third, err := tr.cl[1].CompileWait(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached || third.Peer != "" {
		t.Fatalf("repeat on sibling: %+v, want local cache hit", third)
	}
	m, err = tr.cl[1].Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.PeerHits != 1 {
		t.Fatalf("repeat re-probed the peer: peer_hits=%d", m.PeerHits)
	}
}

// TestFleetPeerMissCompilesLocally: when the owner doesn't have the key
// either, the probing daemon records a peer miss and compiles locally —
// the fleet accelerates, it never gates.
func TestFleetPeerMissCompilesLocally(t *testing.T) {
	tr := newTrio(t, nil)
	ctx := context.Background()
	_, req := tr.seedOwnedBy(t, 0)

	st, err := tr.cl[1].CompileWait(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != client.StateDone || st.Cached || st.Peer != "" {
		t.Fatalf("miss path: %+v, want a fresh local compile", st)
	}
	m, err := tr.cl[1].Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.PeerMisses != 1 || m.PeerHits != 0 || m.PeerErrors != 0 {
		t.Fatalf("metrics after miss: hits=%d misses=%d errors=%d, want 0/1/0",
			m.PeerHits, m.PeerMisses, m.PeerErrors)
	}
	if m.JobsCompleted != 1 {
		t.Fatalf("jobs_completed=%d, want 1 local compile", m.JobsCompleted)
	}
}

// TestFleetRejectsInvalidPeerPayload: a peer answering a probe with bytes
// that are not a valid payload for the key is treated as a failed lookup —
// the requester compiles locally (or, for a delta base, answers the typed
// missing-artifact 404) and never caches what the peer sent.
func TestFleetRejectsInvalidPeerPayload(t *testing.T) {
	tr := newTrio(t, nil)
	ctx := context.Background()
	garbage := []byte(`{"key":"not this one","assignment":[[`)

	// Result path: the owner holds garbage under the requested key.
	_, req := tr.seedOwnedBy(t, 0)
	key, err := req.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.srv[0].cache.Put(cache.Key(key), garbage); err != nil {
		t.Fatal(err)
	}
	st, err := tr.cl[1].CompileWait(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != client.StateDone || st.Cached || st.Peer != "" {
		t.Fatalf("requester answer: %+v, want a fresh local compile", st)
	}
	got, err := tr.cl[1].ResultBytes(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, garbage) {
		t.Fatal("requester served the peer's garbage")
	}
	if cached, ok := tr.srv[1].cache.Peek(cache.Key(key)); !ok || bytes.Equal(cached, garbage) {
		t.Fatalf("requester cache after local compile: present=%v garbage=%v", ok, bytes.Equal(cached, garbage))
	}
	m, err := tr.cl[1].Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.PeerHits != 0 || m.PeerErrors != 1 || m.JobsCompleted != 1 {
		t.Fatalf("metrics: peer_hits=%d peer_errors=%d jobs_completed=%d, want 0/1/1",
			m.PeerHits, m.PeerErrors, m.JobsCompleted)
	}

	// Artifact path: the owner of a delta base's artifact key holds garbage.
	var base [32]byte
	for i := 0; ; i++ {
		base = sha256.Sum256([]byte{byte(i), byte(i >> 8)})
		if tr.srv[0].fleet.Owns(client.ArtifactKey(base)) {
			break
		}
	}
	akey := cache.Key(client.ArtifactKey(base))
	if err := tr.srv[0].cache.Put(akey, garbage); err != nil {
		t.Fatal(err)
	}
	delta := req
	delta.Base = hex.EncodeToString(base[:])
	_, err = tr.cl[1].CompileWait(ctx, delta)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound || ae.Code != client.CodeBaseArtifactMissing {
		t.Fatalf("delta against a garbage base artifact: %v, want 404 %s", err, client.CodeBaseArtifactMissing)
	}
	if _, ok := tr.srv[1].cache.Peek(akey); ok {
		t.Fatal("requester cached the peer's garbage artifact")
	}
	if m, err = tr.cl[1].Metrics(ctx); err != nil {
		t.Fatal(err)
	}
	if m.PeerHits != 0 || m.PeerErrors != 2 {
		t.Fatalf("metrics: peer_hits=%d peer_errors=%d, want 0/2", m.PeerHits, m.PeerErrors)
	}
}

// TestFleetDeadPeerFallsBackToLocal: killing a daemon leaves the
// survivors serving — a lookup against the dead owner errors, the
// breaker takes it out of the ring (peers_alive drops), and the compile
// runs locally.
func TestFleetDeadPeerFallsBackToLocal(t *testing.T) {
	tr := newTrio(t, func(o *Options) {
		o.PeerFailureThreshold = 1
		o.PeerTimeout = 2 * time.Second
		o.PeerRecoveryInterval = time.Hour
	})
	ctx := context.Background()
	_, req := tr.seedOwnedBy(t, 0)

	// Kill daemon A outright.
	tr.hs[0].Close()
	tr.srv[0].Close()

	st, err := tr.cl[1].CompileWait(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != client.StateDone || st.Cached {
		t.Fatalf("survivor answer: %+v, want a fresh local compile", st)
	}
	m, err := tr.cl[1].Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.PeerErrors != 1 {
		t.Fatalf("peer_errors=%d, want 1", m.PeerErrors)
	}
	if m.PeersAlive != 2 || m.Peers != 3 {
		t.Fatalf("peers_alive=%d peers=%d, want 2/3", m.PeersAlive, m.Peers)
	}

	// With the dead owner out of the ring, a repeat skips it entirely:
	// no further errors accumulate, and the answer is the local cache.
	st2, err := tr.cl[1].CompileWait(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Fatalf("repeat after owner death: %+v, want local cache hit", st2)
	}
	m, err = tr.cl[1].Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.PeerErrors != 1 {
		t.Fatalf("repeat charged the dead peer again: peer_errors=%d", m.PeerErrors)
	}
}

// TestCacheEndpoint exercises the peer protocol surface directly: GET and
// HEAD /v1/cache/{key} serve the raw cached payload with the content
// address echoed in X-Autoncs-Key; misses are 404, malformed keys 400.
func TestCacheEndpoint(t *testing.T) {
	s, c := newTestServer(t, Options{Slots: 1})
	ctx := context.Background()
	st, err := c.CompileWait(ctx, fleetReq(3))
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.ResultBytes(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/v1/cache/" + st.Key)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET cache: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Autoncs-Key"); got != st.Key {
		t.Fatalf("X-Autoncs-Key %q, want %q", got, st.Key)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("cache endpoint payload differs from the result endpoint's")
	}

	head, err := http.Head(hs.URL + "/v1/cache/" + st.Key)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, head.Body) //nolint:errcheck
	head.Body.Close()
	if head.StatusCode != http.StatusOK {
		t.Fatalf("HEAD cache: %d", head.StatusCode)
	}
	if got := head.Header.Get("X-Autoncs-Key"); got != st.Key {
		t.Fatalf("HEAD X-Autoncs-Key %q, want %q", got, st.Key)
	}
	if head.ContentLength != int64(len(want)) {
		t.Fatalf("HEAD Content-Length %d, want %d", head.ContentLength, len(want))
	}

	miss, err := http.Get(hs.URL + "/v1/cache/" + "0000000000000000000000000000000000000000000000000000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, miss.Body) //nolint:errcheck
	miss.Body.Close()
	if miss.StatusCode != http.StatusNotFound {
		t.Fatalf("cache miss: %d, want 404", miss.StatusCode)
	}

	bad, err := http.Get(hs.URL + "/v1/cache/not-a-key")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, bad.Body) //nolint:errcheck
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed key: %d, want 400", bad.StatusCode)
	}
}
