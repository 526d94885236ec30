// Package server implements the autoncsd compile service: an HTTP/JSON
// API over a bounded job queue of AutoNCS compiles, backed by the
// content-addressed result cache (internal/cache) keyed by
// autoncs.CanonicalHash.
//
// Design in one paragraph: a POST materializes the request into a
// (network, config, key) spec, probes the cache — a hit answers
// immediately with the stored payload, bit-identical to what a fresh
// compile would produce — and otherwise is admitted inline under the
// server lock, which coalesces identical submissions onto one in-flight
// compile (a single-flight table keyed by the content address, see
// flight.go): the first submission of a key leads and occupies a queue
// slot, later ones attach as followers at zero queue cost, and all finish
// with the same bit-identical payload. Admitted leaders land on one of
// two priority queues (interactive jumps batch) drained by a fixed pool
// of worker goroutines. Each compile runs under a flight-owned
// context.Context with reference-counted interest: DELETE /v1/jobs/{id}
// or a disconnected ?wait=1 caller withdraws one submission, and the
// compile aborts only when the last interested waiter is gone. Drain
// stops intake, lets the queues run dry, and optionally cancels
// stragglers when its context expires — cmd/autoncsd wires SIGTERM to it.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/client"
	"repro/internal/cache"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/xbar"
)

// Options configures a Server.
type Options struct {
	// Slots is the number of compiles that run concurrently; 0 means 2.
	Slots int
	// QueueDepth bounds how many accepted leader jobs may wait for a slot
	// across both priorities; 0 means 8. A full queue rejects with 429 +
	// Retry-After. Followers attach to in-flight compiles without
	// consuming queue capacity.
	QueueDepth int
	// CompileWorkers is the worker-pool bound handed to each compile
	// (Config.Workers); 0 divides the CPUs evenly across the slots. The
	// compiled results are identical for any value.
	CompileWorkers int
	// DeltaMaxEditRatio is the edit-ratio cutoff for delta recompiles: a
	// ?base= submission whose edit set touches more than this fraction of
	// the base's connections falls back to a full compile. 0 means the
	// default (0.1); negative disables delta serving entirely (every
	// ?base= submission falls back).
	DeltaMaxEditRatio float64
	// Cache is the content-addressed result store; nil creates a default
	// in-memory store.
	Cache *cache.Store
	// Log receives request and job lifecycle lines; nil discards them.
	Log *slog.Logger

	// Self is this daemon's own base URL in the fleet (e.g.
	// "http://10.0.0.1:8080"). Empty disables fleet peering entirely; set,
	// it enables the consistent-hash peer cache protocol even with no
	// remote peers (a singleton fleet is inert but valid).
	Self string
	// Peers is the fleet membership list (base URLs). Self is added
	// automatically if absent; order and duplicate spellings do not matter.
	// Requires Self.
	Peers []string
	// PeerTimeout bounds each peer probe attempt; 0 means the fleet
	// default (2s).
	PeerTimeout time.Duration
	// PeerFailureThreshold consecutive probe failures take a peer out of
	// the ring; 0 means the fleet default (3).
	PeerFailureThreshold int
	// PeerRecoveryInterval is how long a dead peer stays out of the ring
	// before a trial probe may readmit it; 0 means the fleet default (5s).
	PeerRecoveryInterval time.Duration
}

// Server is the compile service. Use New; a Server must be shut down with
// Drain (or Close) to release its worker goroutines.
type Server struct {
	slots          int
	queueDepth     int
	compileWorkers int
	deltaMaxRatio  float64
	cache          *cache.Store
	log            *slog.Logger
	metrics        *obs.Metrics
	fleet          *fleet.Fleet // nil when Options.Self is empty
	// compileFn runs one spec; the default is compileSpec.run. Tests
	// substitute a controllable stand-in to exercise queue saturation and
	// drain deterministically.
	compileFn func(context.Context, *compileSpec, int, obs.Observer) (*autoncs.Result, error)

	baseCtx      context.Context
	baseCancel   context.CancelFunc
	qInteractive chan *job
	qBatch       chan *job
	workers      sync.WaitGroup
	start        time.Time

	mu          sync.Mutex
	draining    bool
	queuedJobs  int   // leaders admitted to either queue, not yet picked up
	admitRounds int64 // admission decisions, one lock acquisition each
	flights     map[cache.Key]*flight
	jobs        map[string]*job
	order       []string // job ids oldest-first, for record eviction
	seq         int64

	inflight       atomic.Int64
	accepted       atomic.Int64
	completed      atomic.Int64
	failed         atomic.Int64
	cancelled      atomic.Int64
	rejected       atomic.Int64
	cacheHits      atomic.Int64
	coalesced      atomic.Int64
	deltaFallbacks atomic.Int64
	lastJobSeconds atomic.Int64 // rounded up, for Retry-After estimates
}

// maxJobRecords bounds the finished-job records kept for status queries;
// results stay retrievable through the cache regardless.
const maxJobRecords = 4096

// maxRequestBody bounds a POST /v1/compile body; beyond it the request is
// answered with 413.
const maxRequestBody = 32 << 20

// drainRetryAfter is the Retry-After hint on 503s during shutdown.
const drainRetryAfter = 10 * time.Second

// New starts a Server: the worker pool is live when New returns.
func New(opts Options) (*Server, error) {
	slots := opts.Slots
	if slots == 0 {
		slots = 2
	}
	if slots < 0 {
		return nil, fmt.Errorf("server: negative slots %d", slots)
	}
	depth := opts.QueueDepth
	if depth == 0 {
		depth = 8
	}
	if depth < 0 {
		return nil, fmt.Errorf("server: negative queue depth %d", depth)
	}
	cw := opts.CompileWorkers
	if cw < 0 {
		return nil, fmt.Errorf("server: negative compile workers %d", cw)
	}
	if cw == 0 {
		cw = runtime.NumCPU() / slots
		if cw < 1 {
			cw = 1
		}
	}
	dmr := opts.DeltaMaxEditRatio
	if dmr == 0 {
		dmr = defaultDeltaMaxRatio
	}
	store := opts.Cache
	if store == nil {
		var err error
		if store, err = cache.New(cache.Options{}); err != nil {
			return nil, err
		}
	}
	log := opts.Log
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	var fl *fleet.Fleet
	if opts.Self != "" {
		var err error
		fl, err = fleet.New(fleet.Options{
			Self:             opts.Self,
			Peers:            opts.Peers,
			Timeout:          opts.PeerTimeout,
			FailureThreshold: opts.PeerFailureThreshold,
			RecoveryInterval: opts.PeerRecoveryInterval,
		})
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	} else if len(opts.Peers) > 0 {
		return nil, fmt.Errorf("server: peers configured without self")
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		slots:          slots,
		queueDepth:     depth,
		compileWorkers: cw,
		deltaMaxRatio:  dmr,
		cache:          store,
		log:            log,
		metrics:        &obs.Metrics{},
		fleet:          fl,
		baseCtx:        ctx,
		baseCancel:     cancel,
		qInteractive:   make(chan *job, depth),
		qBatch:         make(chan *job, depth),
		start:          time.Now(),
		flights:        make(map[cache.Key]*flight),
		jobs:           make(map[string]*job),
	}
	s.compileFn = func(ctx context.Context, sp *compileSpec, workers int, ob obs.Observer) (*autoncs.Result, error) {
		return sp.run(ctx, workers, ob)
	}
	s.workers.Add(slots)
	for i := 0; i < slots; i++ {
		go s.worker()
	}
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", s.handleCompile)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/results/{id}", s.handleResult)
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCache) // also matches HEAD
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Drain performs a graceful shutdown: no new work is accepted, queued and
// in-flight jobs run to completion, and the worker pool exits. If ctx
// expires first, the remaining jobs are cancelled (they terminate as
// state=cancelled through the flow's context plumbing) and Drain still
// waits for the workers to unwind before returning ctx's error. Drain is
// idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.qInteractive)
		close(s.qBatch)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	var derr error
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel()
		<-done
		derr = ctx.Err()
	}
	return derr
}

// Close is an immediate Drain: cancel everything, wait for the workers.
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx) //nolint:errcheck // the context error is the point
	s.baseCancel()
}

// worker drains the priority queues until Drain closes them.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		j, ok := s.nextJob()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// nextJob takes the next leader job, preferring interactive work without
// ever starving batch: an interactive job ready right now wins; otherwise
// whichever queue delivers first. Both channels close on Drain; their
// buffered remainders are still drained before the worker exits.
func (s *Server) nextJob() (*job, bool) {
	select {
	case j, ok := <-s.qInteractive:
		if ok {
			return j, true
		}
		j, ok = <-s.qBatch
		return j, ok
	default:
	}
	select {
	case j, ok := <-s.qInteractive:
		if ok {
			return j, true
		}
		j, ok = <-s.qBatch
		return j, ok
	case j, ok := <-s.qBatch:
		if ok {
			return j, true
		}
		j, ok = <-s.qInteractive
		return j, ok
	}
}

// runJob executes one queued leader job — and with it every follower
// attached to its flight — to a terminal state.
func (s *Server) runJob(j *job) {
	fl := j.fl
	s.mu.Lock()
	s.queuedJobs--
	if err := fl.ctx.Err(); err != nil {
		s.dropFlightLocked(fl)
		s.finishFlightLocked(fl, client.StateCancelled, nil, err, nil)
		s.mu.Unlock()
		s.log.Info("job cancelled before start", "job", j.id)
		return
	}
	fl.running = true
	fl.startedAt = time.Now()
	for _, aj := range fl.jobs {
		if !aj.terminal() {
			aj.setRunningAt(fl.startedAt)
		}
	}
	waiters := fl.waiters
	s.mu.Unlock()

	s.inflight.Add(1)
	s.log.Info("job start", "job", j.id, "key", j.spec.key.Hex(),
		"neurons", j.spec.net.N(), "priority", j.priority, "waiters", waiters)
	start := time.Now()
	res, err := s.compileFn(fl.ctx, j.spec, s.compileWorkers, s.metrics)
	elapsed := time.Since(start)
	s.inflight.Add(-1)
	// Every terminal compile — done, failed, or cancelled — updates the
	// Retry-After estimate, so it cannot go stale across a run of failures.
	s.lastJobSeconds.Store(int64(math.Ceil(elapsed.Seconds())))
	defer fl.cancel() // release the context's resources; the flow has returned

	state := client.StateDone
	var payload []byte
	var stageTimes map[string]float64
	switch {
	case err != nil:
		state = client.StateFailed
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			state = client.StateCancelled
		}
	default:
		payload, err = encodeResult(j.spec, res)
		if err != nil {
			state = client.StateFailed
			s.log.Error("job result encoding failed", "job", j.id, "err", err)
		} else {
			// Publish to the cache before dropping the flight, so a racing
			// admission finds either the flight or the payload — never
			// neither.
			if perr := s.cache.Put(j.spec.key, payload); perr != nil {
				// A cache write failure only costs future hits; the job is
				// fine.
				s.log.Warn("cache put failed", "job", j.id, "err", perr)
			}
			// Store the resumable artifact beside the result so this
			// compile can serve as a future delta's base.
			s.putArtifact(j, res)
			stageTimes = make(map[string]float64, len(res.StageTimes))
			for stage, d := range res.StageTimes {
				stageTimes[string(stage)] = d.Seconds()
			}
		}
	}

	s.mu.Lock()
	s.dropFlightLocked(fl)
	if state == client.StateDone {
		// Completed counts compiles run, not jobs answered: followers and
		// cache hits have their own counters.
		s.completed.Add(1)
	}
	s.finishFlightLocked(fl, state, payload, err, stageTimes)
	s.mu.Unlock()
	s.log.Info("job end", "job", j.id, "state", state, "elapsed", elapsed, "waiters", waiters, "err", err)
}

// handleCompile is POST /v1/compile[?wait=1].
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	submitted := time.Now()
	var req client.CompileRequest
	body := http.MaxBytesReader(w, r.Body, maxRequestBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds the %d-byte limit", mbe.Limit), 0)
			return
		}
		s.writeErr(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err), 0)
		return
	}
	// ?base=<key> is the query-parameter spelling of CompileRequest.Base.
	// Folding it in before the spec is built keeps key derivation in one
	// place (client.CompileRequest.Spec).
	if base := r.URL.Query().Get("base"); base != "" {
		if req.Base != "" && req.Base != base {
			s.writeErr(w, http.StatusBadRequest,
				fmt.Sprintf("?base=%s disagrees with the request body's base %s", base, req.Base), 0)
			return
		}
		req.Base = base
	}
	spec, err := buildSpec(req)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	wait := r.URL.Query().Get("wait") != ""
	priority, err := resolvePriority(req.Priority, wait)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	if spec.delta {
		if status, code, msg := s.resolveDelta(r.Context(), spec); status != 0 {
			s.writeErrCode(w, status, code, msg)
			return
		}
	}

	// Cache probe. A hit never consumes a queue slot: the job record is
	// born terminal.
	payload, hit, disk := s.cache.GetDetail(spec.key)
	s.metrics.Observe(obs.CacheLookup{Key: spec.key.Hex(), Hit: hit, Disk: disk})
	if hit {
		j := s.cacheHitJob(spec, priority, payload, submitted, "")
		s.log.Info("cache hit", "job", j.id, "key", spec.key.Hex(), "disk", disk)
		s.writeJSON(w, http.StatusOK, j.status(wait))
		return
	}

	// Fleet probe: a local miss for a key whose ring owner is a live remote
	// peer asks that owner before admitting a local compile. A peer hit is
	// answered exactly like a cache hit — the payload is bit-identical by
	// content addressing — and written through to the local memory LRU so
	// repeats are local. Any fleet failure falls through to a local
	// compile: peering accelerates, it never gates.
	if s.fleet != nil {
		if lk := s.findPeer(r.Context(), spec.key, validResult(spec.key)); lk != nil {
			if lk.Hit {
				j := s.cacheHitJob(spec, priority, lk.Payload, submitted, lk.Peer)
				s.log.Info("peer cache hit", "job", j.id, "key", spec.key.Hex(),
					"peer", lk.Peer, "elapsed", lk.Elapsed)
				s.writeJSON(w, http.StatusOK, j.status(wait))
				return
			}
			if lk.Err != nil {
				s.log.Warn("peer lookup failed", "key", spec.key.Hex(),
					"peer", lk.Peer, "err", lk.Err)
			}
		}
	}

	s.mu.Lock()
	s.admitRounds++
	res := s.admitLocked(spec, priority, submitted)
	s.mu.Unlock()
	switch res.kind {
	case admitRejected:
		s.writeErr(w, res.code, res.msg, res.retryAfter)
		return
	case admitCached:
		s.writeJSON(w, http.StatusOK, res.j.status(wait))
		return
	}
	j := res.j
	if !wait {
		s.writeJSON(w, http.StatusAccepted, j.status(false))
		return
	}
	select {
	case <-j.done:
		s.writeJSON(w, http.StatusOK, j.status(true))
	case <-r.Context().Done():
		// The waiting submitter vanished; its interest goes with it. The
		// compile itself aborts only when no other waiter remains.
		s.detachJob(j)
		<-j.done
	}
}

// findPeer asks the fleet for key's payload and records the lookup. A hit
// is written through to the local memory LRU only if validate accepts the
// payload; a rejected payload turns the lookup into a miss with an error,
// so the caller falls back exactly as on a miss and nothing the peer sent
// is cached or served. Returns nil when the fleet cannot help.
func (s *Server) findPeer(ctx context.Context, key cache.Key, validate func([]byte) error) *fleet.Lookup {
	lk := s.fleet.Find(ctx, [32]byte(key))
	if lk == nil {
		return nil
	}
	if lk.Hit {
		if err := validate(lk.Payload); err != nil {
			lk.Hit, lk.Payload, lk.Err = false, nil, fmt.Errorf("invalid payload: %w", err)
		} else {
			s.cache.PutMemory(key, lk.Payload)
		}
	}
	s.metrics.Observe(obs.PeerLookup{
		Key: key.Hex(), Peer: lk.Peer, Hit: lk.Hit,
		Err: lk.Err != nil, Elapsed: lk.Elapsed,
	})
	return lk
}

// validResult accepts a peer's result payload for key: a client.Result
// stamped with that key whose assignment decodes.
func validResult(key cache.Key) func([]byte) error {
	return func(payload []byte) error {
		var res client.Result
		if err := json.Unmarshal(payload, &res); err != nil {
			return err
		}
		if res.Key != key.Hex() {
			return fmt.Errorf("result key %q, want %s", res.Key, key.Hex())
		}
		_, err := xbar.ReadJSON(bytes.NewReader(res.Assignment))
		return err
	}
}

// resolvePriority maps the wire priority to the effective scheduling
// class: explicit values pass through, and an empty priority defaults to
// interactive for ?wait=1 submissions (a human is blocked on it) and
// batch for fire-and-forget ones.
func resolvePriority(p string, wait bool) (string, error) {
	switch p {
	case client.PriorityInteractive, client.PriorityBatch:
		return p, nil
	case "":
		if wait {
			return client.PriorityInteractive, nil
		}
		return client.PriorityBatch, nil
	}
	return "", fmt.Errorf("unknown priority %q (want %q or %q)",
		p, client.PriorityInteractive, client.PriorityBatch)
}

// handleJob is GET /v1/jobs/{id}. With ?wait=1 it blocks until the job
// reaches a terminal state — a passive watch, so a disconnecting watcher
// does NOT cancel the job (unlike the submitter's wait on POST).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		s.writeErr(w, http.StatusNotFound, "no such job", 0)
		return
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-j.done:
		case <-r.Context().Done():
			return
		}
	}
	s.writeJSON(w, http.StatusOK, j.status(false))
}

// handleCancel is DELETE /v1/jobs/{id}: withdraw one submission's interest
// in its compile. The record finishes cancelled immediately; the shared
// compile aborts only when this was its last interested waiter.
// Cancelling a terminal job is a no-op that reports the final state.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		s.writeErr(w, http.StatusNotFound, "no such job", 0)
		return
	}
	if !j.terminal() {
		s.log.Info("job cancel requested", "job", j.id)
		s.detachJob(j)
	}
	s.writeJSON(w, http.StatusAccepted, j.status(false))
}

// handleResult is GET /v1/results/{id}: the raw cached payload. Serving
// the stored bytes verbatim (not a re-marshal) is what makes the
// bit-identity guarantee directly observable to clients.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		s.writeErr(w, http.StatusNotFound, "no such job", 0)
		return
	}
	payload := j.resultBytes()
	if payload == nil {
		st := j.status(false)
		s.writeErr(w, http.StatusConflict, fmt.Sprintf("job is %s, not done", st.State), 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Autoncs-Key", j.spec.key.Hex())
	w.WriteHeader(http.StatusOK)
	w.Write(payload)
}

// handleCache is GET|HEAD /v1/cache/{key}: the peer cache protocol. It
// serves this daemon's own cache verbatim — raw stored payload, the
// content address echoed in X-Autoncs-Key — and never forwards: a peer
// asking here is already talking to the key's owner, and forwarding would
// let a misconfigured ring bounce a lookup around the fleet. HEAD is the
// cheap existence probe (same headers, no body). A miss is a plain 404;
// the prober treats it as "compile it yourself", not as a failure.
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	key, err := cache.ParseKey(r.PathValue("key"))
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	payload, hit, _ := s.cache.GetDetail(key)
	if !hit {
		s.writeErr(w, http.StatusNotFound, "not cached", 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Autoncs-Key", key.Hex())
	w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
	w.WriteHeader(http.StatusOK)
	if r.Method == http.MethodHead {
		return
	}
	w.Write(payload) //nolint:errcheck // a vanished prober costs nothing
}

// handleHealth is GET /healthz: 200 ok, or 503 once draining.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	h := client.Health{Status: "ok", UptimeSeconds: time.Since(s.start).Seconds()}
	code := http.StatusOK
	if draining {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, h)
}

// handleMetrics is GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.snapshotMetrics())
}

// snapshotMetrics merges the serving counters with the aggregated flow
// observer and the cache stats.
func (s *Server) snapshotMetrics() client.Metrics {
	s.mu.Lock()
	draining := s.draining
	queued := s.queuedJobs
	flights := len(s.flights)
	admitRounds := s.admitRounds
	s.mu.Unlock()
	snap := s.metrics.Snapshot()
	stageSeconds := make(map[string]float64, len(snap.StageTimes))
	for _, stage := range obs.Stages() {
		if d, ok := snap.StageTimes[stage]; ok {
			stageSeconds[string(stage)] = d.Seconds()
		}
	}
	m := client.Metrics{
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Draining:         draining,
		WorkerSlots:      s.slots,
		QueueCapacity:    s.queueDepth,
		QueueDepth:       queued,
		QueueInteractive: len(s.qInteractive),
		QueueBatch:       len(s.qBatch),
		InFlight:         int(s.inflight.Load()),
		Flights:          flights,
		AdmitRounds:      admitRounds,
		JobsAccepted:     s.accepted.Load(),
		JobsCompleted:    s.completed.Load(),
		JobsFailed:       s.failed.Load(),
		JobsCancelled:    s.cancelled.Load(),
		JobsRejected:     s.rejected.Load(),
		JobsCacheHits:    s.cacheHits.Load(),
		JobsCoalesced:    s.coalesced.Load(),
		CacheHits:        int64(snap.CacheHits),
		CacheMisses:      int64(snap.CacheMisses),
		CacheEntries:     s.cache.Len(),
		Compiles:         snap.Compiles,
		StageSeconds:     stageSeconds,
		RequestRecords:   int64(snap.RequestRecords),
		DeltaCompiles:    int64(snap.DeltaCompiles),
		DeltaFallbacks:   s.deltaFallbacks.Load(),
	}
	if snap.DeltaCompiles > 0 {
		m.LastDelta = &snap.LastDelta
	}
	m.RetryAfterSeconds = s.retryAfter().Seconds()
	if s.fleet != nil {
		fs := s.fleet.Stats()
		m.Peers = fs.Total
		m.PeersAlive = fs.Alive
		m.PeerHits = int64(snap.PeerHits)
		m.PeerMisses = int64(snap.PeerMisses)
		m.PeerErrors = int64(snap.PeerErrors)
	}
	if snap.RequestRecords > 0 {
		m.LastRequest = wireTiming(snap.LastRequest)
	}
	return m
}

// wireTiming converts the internal timing record to its wire form.
func wireTiming(t obs.RequestTiming) *client.RequestTiming {
	return &client.RequestTiming{
		Job:              t.Job,
		Key:              t.Key,
		Priority:         t.Priority,
		Coalesced:        t.Coalesced,
		CacheHit:         t.CacheHit,
		State:            t.State,
		SubmittedAt:      t.Submitted.UTC().Format(time.RFC3339Nano),
		AdmitWaitSeconds: t.AdmitWait.Seconds(),
		QueueWaitSeconds: t.QueueWait.Seconds(),
		RunSeconds:       t.Run.Seconds(),
		TotalSeconds:     t.Total.Seconds(),
	}
}

func (s *Server) jobByID(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// retryAfter estimates when a slot is likely to free: the last terminal
// compile's duration, clamped to [1s, 60s].
func (s *Server) retryAfter() time.Duration {
	secs := s.lastJobSeconds.Load()
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return time.Duration(secs) * time.Second
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		s.log.Error("encoding response", "err", err)
	}
}

func (s *Server) writeErr(w http.ResponseWriter, code int, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
	}
	s.writeJSON(w, code, errorJSON{Error: msg})
}

// writeErrCode answers with a typed error: the stable machine-readable
// code rides in the body beside the message (see the client.Code*
// constants), so clients can branch without parsing prose.
func (s *Server) writeErrCode(w http.ResponseWriter, status int, code, msg string) {
	s.writeJSON(w, status, errorJSON{Error: msg, Code: code})
}

// errorJSON is the server-side shape of the client package's error
// envelope (client.errorBody is unexported; the field layout is the wire
// contract).
type errorJSON struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}
