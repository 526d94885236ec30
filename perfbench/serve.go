package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	autoncs "repro"
	"repro/client"
	"repro/internal/cache"
	"repro/internal/server"
	"repro/internal/xbar"
)

// maxServeNeurons is the neuron bound handed to CompileRequest.Spec; the
// benchmark's networks stay far below the daemon's own limit.
const maxServeNeurons = 4096

// service is an in-process internal/server behind a loopback listener.
type service struct {
	srv   *server.Server
	store *cache.Store
	hs    *http.Server
	tr    *http.Transport
	cl    *client.Client
	done  chan struct{} // closed when the HTTP server has stopped serving
}

// startService starts a server with default options and an in-memory
// cache.
func startService() (*service, error) {
	store, err := cache.New(cache.Options{})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Options{Cache: store})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &service{srv: srv, store: store, hs: &http.Server{Handler: srv.Handler()}, tr: &http.Transport{}, done: make(chan struct{})}
	s.cl = client.NewWith("http://"+ln.Addr().String(), &http.Client{Transport: s.tr})
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// stop shuts the listener and the server down and waits for both.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	s.tr.CloseIdleConnections()
	if derr := s.srv.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

// serveReq is one planned request and the network it carries.
type serveReq struct {
	kind string // planned kind: hit, coalesced, fresh or edit
	req  client.CompileRequest
	net  *autoncs.Network
	base *autoncs.Network // the network an edit was made to
}

// answer is one request's outcome.
type answer struct {
	sr  serveReq
	st  *client.JobStatus
	err error
	rtt time.Duration
}

// netText renders a network in the autoncs-net text format.
func netText(n *autoncs.Network) string {
	var b strings.Builder
	_ = n.Write(&b) // a strings.Builder never fails
	return b.String()
}

// runServe: nproc closed-loop callers drive an in-process server with
// ?wait=1. Callers advance in lockstep rounds, so the two halves of a
// coalesced pair are sent at once; each round's requests are planned from
// the seed and the answers of earlier rounds, so the traffic a seed
// produces is the same on every run.
func runServe(ctx context.Context, r *runner) error {
	var svc *service
	warm := warmNetwork()
	err := r.setup(r.sc.setupReps, func(i int) error {
		s, err := startService()
		if err != nil {
			return err
		}
		st, err := s.cl.CompileWait(ctx, client.CompileRequest{Net: netText(warm)})
		if err == nil && st.State != client.StateDone {
			err = fmt.Errorf("job ended %s: %s", st.State, st.Error)
		}
		if err != nil {
			_ = s.stop()
			return fmt.Errorf("warm-up compile: %w", err)
		}
		if i < r.sc.setupReps-1 {
			return s.stop()
		}
		svc = s
		return nil
	})
	if err != nil {
		return err
	}
	defer func() { _ = svc.stop() }()

	m0, err := svc.cl.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("reading /metrics: %w", err)
	}
	callers := r.workers
	if callers < 2 {
		callers = 2 // a coalesced pair needs two callers
	}
	rng := rand.New(rand.NewSource(subSeed(r.opt.seed, streamServe)))
	var answered []answer // successful answers, the pool hits and edits draw from
	var all []answer
	firstBody := map[string][]byte{}
	var admitWaits []float64
	fresh := 0
	// Fresh networks take their size and sparsity from a fixed ladder, each
	// rung once per sizeSteps networks in a seeded order, so every run
	// compiles the same mix. Rung i pairs the i-th size with the i-th
	// sparsity (larger networks are sparser), so the answers' sizes, and
	// with them the hit latencies, do not depend on how a seed pairs them.
	rungN := func(i int) int { return r.sc.serveNMin + (r.sc.serveNMax-r.sc.serveNMin)*i/(sizeSteps-1) }
	var rungs []int
	freshNet := func() serveReq {
		if len(rungs) == 0 {
			rungs = rng.Perm(sizeSteps)
		}
		sp := r.sc.serveSpMin + (r.sc.serveSpMax-r.sc.serveSpMin)*float64(rungs[0])/(sizeSteps-1)
		n := rungN(rungs[0])
		rungs = rungs[1:]
		fresh++
		net := autoncs.RandomSparseNetwork(n, sp, subSeed(r.opt.seed, streamServe, int64(fresh)))
		return serveReq{kind: "fresh", req: client.CompileRequest{Net: netText(net)}, net: net}
	}
	// Hits and edits draw earlier answers by the ladder too: the rung comes
	// from a seeded order, the answer from those of that rung's size (any
	// answer while there is none). A hit's latency grows steeply with its
	// network (about 3 ms at n=120, 15 ms at n=200 on a 2-core machine) and
	// p50_s falls among the hits, so every seed repeats the same mix of
	// sizes; uniform draws from the pool moved p50_s by 0.3 of its median.
	var drawSizes []int
	drawAnswer := func() answer {
		if len(drawSizes) == 0 {
			drawSizes = rng.Perm(sizeSteps)
		}
		n := rungN(drawSizes[0])
		drawSizes = drawSizes[1:]
		var same []answer
		for _, a := range answered {
			if a.sr.net.N() == n {
				same = append(same, a)
			}
		}
		if len(same) == 0 {
			same = answered
		}
		return same[rng.Intn(len(same))]
	}

	var block [][]string // the kinds each caller sends in each round of the current block
	start := time.Now()
	for round := 0; !r.done(round, r.sc.serveDetRounds, mixRounds, start); round++ {
		if round%mixRounds == 0 {
			block = mixBlock(rng, callers)
		}
		if round == 0 {
			// The run opens with the coalesced round, so hits and edits have
			// an answer of this run to draw on. The warm-up answer is not
			// drawn on: its small network would make fast hits, and how often
			// they were drawn moved p50_s from seed to seed.
			for i, kinds := range block {
				if kinds[0] == "coalesced" {
					block[0], block[i] = block[i], block[0]
				}
			}
		}
		plan := make([]serveReq, callers)
		kinds := block[round%mixRounds]
		if kinds[0] == "coalesced" {
			sr := freshNet()
			sr.kind = "coalesced"
			for c := range plan {
				plan[c] = sr
			}
		} else {
			for c, kind := range kinds {
				switch kind {
				case "hit":
					a := drawAnswer()
					plan[c] = a.sr
					plan[c].kind = "hit"
				case "edit":
					a := drawAnswer()
					net := editNetwork(a.sr.net, rng, rng.Intn(10), r.sc.editFrac)
					plan[c] = serveReq{kind: "edit", req: client.CompileRequest{Net: netText(net), Base: a.st.Key}, net: net, base: a.sr.net}
				default:
					plan[c] = freshNet()
				}
			}
		}

		got := make([]answer, callers)
		first := len(all) // op id of caller 0's request
		var wg sync.WaitGroup
		for c := range plan {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				id := r.tr.begin("client.CompileWait", -1, first+c, c)
				ts := time.Now()
				st, err := svc.cl.CompileWait(ctx, plan[c].req)
				got[c] = answer{sr: plan[c], st: st, err: err, rtt: time.Since(ts)}
				r.tr.end(id)
			}(c)
		}
		wg.Wait()

		for c, a := range got {
			op := first + c
			r.attempted++
			r.lat = append(r.lat, a.rtt.Seconds())
			switch {
			case a.err != nil:
				r.fail(op, "%s request: %v", a.sr.kind, a.err)
				continue
			case a.st.State != client.StateDone:
				r.fail(op, "%s request ended %s: %s", a.sr.kind, a.st.State, a.st.Error)
				continue
			}
			if err := checkBody(firstBody, a.st.Key, a.st.Result); err != nil {
				r.fail(op, "%v", err)
				continue
			}
			answered = append(answered, a)
		}
		all = append(all, got...)
		if len(answered) == 0 {
			return fmt.Errorf("no request of round %d was answered: %v", round, r.failures)
		}
		if r.tr != nil {
			if m, err := svc.cl.Metrics(ctx); err == nil && m.LastRequest != nil {
				for _, a := range got {
					if a.st != nil && a.st.ID == m.LastRequest.Job {
						admitWaits = append(admitWaits, m.LastRequest.AdmitWaitSeconds)
					}
				}
			}
		}
	}
	r.wall = time.Since(start).Seconds()
	m1, err := svc.cl.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("reading /metrics: %w", err)
	}

	// Output checks: every answer's assignment covers exactly the network
	// it was asked for (checked once per distinct body; the byte check
	// above ties every other answer of a key to that body).
	checked := map[string]bool{}
	seenKey := map[string]bool{}
	var results []*client.Result // each design of the rounds every run completes, once
	for op, a := range all {
		if a.err != nil || a.st == nil || a.st.State != client.StateDone {
			continue
		}
		res, err := checkServeAnswer(a, checked)
		if err != nil {
			r.fail(op, "%v", err)
			continue
		}
		if op < r.sc.serveDetRounds*callers && !seenKey[a.st.Key] {
			seenKey[a.st.Key] = true
			results = append(results, res)
		}
	}
	serveQuality(r, results)

	kinds := map[string][]float64{}
	var queueW, runS, respond []float64
	for _, a := range all {
		if a.err != nil || a.st == nil {
			continue
		}
		k := answerKind(a.st)
		kinds[k] = append(kinds[k], a.rtt.Seconds())
		sub, err1 := time.Parse(time.RFC3339Nano, a.st.SubmittedAt)
		fin, err2 := time.Parse(time.RFC3339Nano, a.st.FinishedAt)
		if err1 == nil && err2 == nil {
			respond = append(respond, a.rtt.Seconds()-fin.Sub(sub).Seconds())
		}
		if k == "fresh" || k == "edit" {
			if started, err := time.Parse(time.RFC3339Nano, a.st.StartedAt); err == nil && err1 == nil {
				queueW = append(queueW, started.Sub(sub).Seconds())
			}
			runS = append(runS, a.st.ElapsedSeconds)
		}
	}
	n := float64(len(all))
	for _, k := range []string{"hit", "coalesced", "fresh", "edit"} {
		r.traffic[k+"_share"] = float64(len(kinds[k])) / n
	}
	r.traffic["callers"] = float64(callers)
	r.traffic["requests"] = n

	if r.tr == nil {
		return nil
	}
	if err := artifactRoundTrips(r, svc.store, all); err != nil {
		return err
	}
	if err := deltaReplays(ctx, r, svc.store, all, r.sc.serveDetRounds*callers); err != nil {
		return err
	}
	r.layer["trace.op_s"] = mean(r.tr.opSeconds("client.CompileWait"))
	if r.wall > 0 {
		r.layer["trace.ops_per_s"] = n / r.wall
	}
	r.layer["trace.layer_cover_frac"] = r.tr.coverFrac("op") // the replayed delta ops
	accepted := float64(m1.JobsAccepted - m0.JobsAccepted)
	if accepted > 0 {
		r.layer["server.coalesced_frac"] = float64(m1.JobsCoalesced-m0.JobsCoalesced) / accepted
		r.layer["server.compiles_per_request"] = float64(m1.JobsCompleted-m0.JobsCompleted) / accepted
		r.layer["server.delta_frac"] = float64(m1.DeltaCompiles-m0.DeltaCompiles) / accepted
		r.layer["cache.hit_frac"] = float64(m1.JobsCacheHits-m0.JobsCacheHits) / accepted
	}
	if misses := m1.CacheMisses - m0.CacheMisses; misses > 0 {
		r.layer["server.admit_rounds_per_miss"] = float64(m1.AdmitRounds-m0.AdmitRounds) / float64(misses)
	}
	r.layer["server.rejected"] = float64(m1.JobsRejected - m0.JobsRejected)
	r.layer["server.delta_fallbacks"] = float64(m1.DeltaFallbacks - m0.DeltaFallbacks)
	r.layer["server.admit_wait_s"] = median(admitWaits)
	r.layer["server.queue_wait_s"] = median(queueW)
	r.layer["server.run_s"] = median(runS)
	r.layer["client.hit_rtt_s"] = median(kinds["hit"])
	r.layer["client.coalesced_rtt_s"] = median(kinds["coalesced"])
	r.layer["client.fresh_rtt_s"] = median(kinds["fresh"])
	r.layer["client.edit_rtt_s"] = median(kinds["edit"])
	r.layer["client.respond_s"] = median(respond)
	if compiles := float64(m1.Compiles - m0.Compiles); compiles > 0 {
		for stage, key := range map[string]string{
			"clustering": "core.s", "netlist": "netlist.s", "place": "place.s", "route": "route.s", "cost": "cost.s",
		} {
			r.layer[key] = (m1.StageSeconds[stage] - m0.StageSeconds[stage]) / compiles
		}
	}
	for _, k := range []string{"design.wirelength_um", "design.area_um2", "design.avg_delay_ns", "design.outlier_ratio"} {
		r.layer[k] = r.quality[k]
	}
	return nil
}

// mixRounds is the length of one block of the serve schedule.
const mixRounds = 10

// sizeSteps is the number of rungs of the serve networks' size and
// sparsity ladder.
const sizeSteps = 5

// mixBlock plans one block of mixRounds rounds: the kind each caller sends
// in each round. In one round every caller sends the same fresh network (one
// compile, the other requests coalesced). In three rounds every caller
// compiles: two thirds fresh networks, one third ?base= edits. In the other
// six rounds every caller repeats an earlier answer (a cache hit). With two
// callers that is 60% repeats, 10% coalesced pairs, 20% fresh and 10%
// edits. Hits never share a round with a compile, so their latency is not
// the compile's CPU contention, and every block does the same work; the
// seed shuffles the order of rounds and of the compile kinds.
func mixBlock(rng *rand.Rand, callers int) [][]string {
	var compiles []string
	for i := 0; i < 3*callers; i++ {
		kind := "fresh"
		if i%3 == 2 {
			kind = "edit"
		}
		compiles = append(compiles, kind)
	}
	rng.Shuffle(len(compiles), func(i, j int) { compiles[i], compiles[j] = compiles[j], compiles[i] })
	rounds := make([][]string, mixRounds)
	for i := range rounds {
		rounds[i] = make([]string, callers)
		for c := range rounds[i] {
			switch {
			case i == 0:
				rounds[i][c] = "coalesced"
			case i <= 3:
				rounds[i][c] = compiles[(i-1)*callers+c]
			default:
				rounds[i][c] = "hit"
			}
		}
	}
	rng.Shuffle(len(rounds), func(i, j int) { rounds[i], rounds[j] = rounds[j], rounds[i] })
	return rounds
}

// answerKind classifies an answer from the response itself.
func answerKind(st *client.JobStatus) string {
	switch {
	case st.Cached:
		return "hit"
	case st.Coalesced:
		return "coalesced"
	case st.BaseKey != "":
		return "edit"
	default:
		return "fresh"
	}
}

// checkServeAnswer decodes an answer's payload and, once per key, checks
// that its assignment covers exactly the requested network.
func checkServeAnswer(a answer, checked map[string]bool) (*client.Result, error) {
	var res client.Result
	if err := json.Unmarshal(a.st.Result, &res); err != nil {
		return nil, fmt.Errorf("decoding result payload: %w", err)
	}
	if res.Key != a.st.Key {
		return nil, fmt.Errorf("payload key %s, job key %s", res.Key, a.st.Key)
	}
	if checked[a.st.Key] {
		return &res, nil
	}
	asg, err := xbar.ReadJSON(bytes.NewReader(res.Assignment))
	if err != nil {
		return nil, fmt.Errorf("decoding assignment: %w", err)
	}
	if err := checkCoverage(a.sr.net, asg); err != nil {
		return nil, err
	}
	checked[a.st.Key] = true
	return &res, nil
}

// serveQuality averages the design figures of the distinct designs
// answered in the rounds every run completes.
func serveQuality(r *runner, results []*client.Result) {
	var util, outl, wl, area, delay []float64
	for _, res := range results {
		util = append(util, res.AvgUtilization)
		outl = append(outl, res.OutlierRatio)
		if res.Report != nil {
			wl = append(wl, res.Report.Wirelength)
			area = append(area, res.Report.Area)
			delay = append(delay, res.Report.AvgDelay)
		}
	}
	r.quality["avg_utilization"] = mean(util)
	r.quality["design.outlier_ratio"] = mean(outl)
	r.quality["design.wirelength_um"] = mean(wl)
	r.quality["design.area_um2"] = mean(area)
	r.quality["design.avg_delay_ns"] = mean(delay)
}

// artifactRoundTrips times the artifact layer on the artifacts the server
// stored for every fresh or delta compile: DecodeArtifact and Restore (what
// a ?base= edit pays) and EncodeArtifact of the restored result (what
// every compile pays). Re-encoding must reproduce the stored bytes.
func artifactRoundTrips(r *runner, store *cache.Store, all []answer) error {
	var enc, dec, rest, size []float64
	seen := map[string]bool{}
	for op, a := range all {
		if a.err != nil || a.st == nil || a.st.State != client.StateDone || seen[a.st.Key] {
			continue
		}
		seen[a.st.Key] = true
		raw, err := hex.DecodeString(a.st.Key)
		if err != nil || len(raw) != 32 {
			r.fail(op, "answer key %q is not a sha256 hex digest", a.st.Key)
			continue
		}
		data, ok := store.Get(cache.Key(client.ArtifactKey([32]byte(raw))))
		if !ok {
			r.fail(op, "no artifact stored for key %s", a.st.Key)
			continue
		}
		spec, err := a.sr.req.Spec(maxServeNeurons)
		if err != nil {
			return fmt.Errorf("materializing request: %w", err)
		}
		var art *autoncs.Artifact
		var res *autoncs.Result
		var again []byte
		t := time.Now()
		r.tr.call("artifact.DecodeArtifact", -1, op, 0, func() { art, err = autoncs.DecodeArtifact(data) })
		dec = append(dec, time.Since(t).Seconds())
		if err == nil {
			t = time.Now()
			r.tr.call("artifact.Restore", -1, op, 0, func() { res, err = art.Restore(spec.Config) })
			rest = append(rest, time.Since(t).Seconds())
		}
		if err == nil {
			t = time.Now()
			r.tr.call("artifact.EncodeArtifact", -1, op, 0, func() { again, err = autoncs.EncodeArtifact(res, spec.Config) })
			enc = append(enc, time.Since(t).Seconds())
		}
		switch {
		case err != nil:
			r.fail(op, "artifact round trip: %v", err)
		case !bytes.Equal(again, data):
			r.fail(op, "re-encoded artifact differs from the stored one")
		}
		size = append(size, float64(len(data)))
	}
	r.layer["artifact.decode_s"] = mean(dec)
	r.layer["artifact.restore_s"] = mean(rest)
	r.layer["artifact.encode_s"] = mean(enc)
	r.layer["artifact.bytes"] = mean(size)
	return nil
}

// deltaReplays re-runs every ?base= edit the server answered as a delta,
// locally and traced: the base's stored artifact is decoded and restored,
// then DiffNetworks and CompileDeltaCtx run on the edited network. The
// local result must match the served one (assignment and wirelength) and
// pass the output checks. Counters cover the edits of the first detOps
// requests, which every run sends.
func deltaReplays(ctx context.Context, r *runner, store *cache.Store, all []answer, detOps int) error {
	var counters []map[string]float64
	var clusterS, placeS, routeS []float64
	edits := 0
	drift := false
	for op, a := range all {
		if a.err != nil || a.st == nil || a.st.State != client.StateDone || a.st.BaseKey == "" || a.st.Cached || a.st.Coalesced {
			continue
		}
		raw, err := hex.DecodeString(a.st.BaseKey)
		if err != nil || len(raw) != 32 {
			r.fail(op, "base key %q is not a sha256 hex digest", a.st.BaseKey)
			continue
		}
		data, ok := store.Get(cache.Key(client.ArtifactKey([32]byte(raw))))
		if !ok {
			r.fail(op, "no artifact stored for base key %s", a.st.BaseKey)
			continue
		}
		spec, err := a.sr.req.Spec(maxServeNeurons)
		if err != nil {
			return fmt.Errorf("materializing request: %w", err)
		}
		art, err := autoncs.DecodeArtifact(data)
		var prev *autoncs.Result
		if err == nil {
			prev, err = art.Restore(spec.Config)
		}
		if err != nil {
			r.fail(op, "restoring base artifact: %v", err)
			continue
		}
		cfg := spec.Config
		cfg.Workers = r.workers
		var res *autoncs.Result
		var st autoncs.DeltaStats
		root := r.tr.begin("op", -1, op, 0)
		r.tr.call("delta.DiffNetworks", root, op, 0, func() { _, err = autoncs.DiffNetworks(a.sr.base, a.sr.net) })
		if err == nil {
			r.tr.call("delta.CompileDeltaCtx", root, op, 0, func() { res, st, err = autoncs.CompileDeltaCtx(ctx, prev, a.sr.net, cfg) })
		}
		r.tr.end(root)
		if err != nil {
			r.fail(op, "local delta replay: %v", err)
			continue
		}
		edits++
		checkResult(r, op, a.sr.net, res, cfg)
		if err := sameAsServed(a.st.Result, res); err != nil {
			r.fail(op, "%v", err)
		}
		clusterS = append(clusterS, res.StageTimes[autoncs.StageClustering].Seconds())
		placeS = append(placeS, res.StageTimes[autoncs.StagePlace].Seconds())
		routeS = append(routeS, res.StageTimes[autoncs.StageRoute].Seconds())
		if op >= detOps {
			continue
		}
		full := 0.0
		if st.FullRoute {
			full = 1
		}
		counters = append(counters, map[string]float64{
			"delta.edits":              float64(st.Edits),
			"delta.edit_ratio":         st.EditRatio,
			"delta.touched_neurons":    float64(st.TouchedNeurons),
			"delta.residual_conns":     float64(st.ResidualConns),
			"delta.cluster_reuse_frac": st.ClusterReuseFrac,
			"delta.place_reuse_frac":   st.PlaceReuseFrac,
			"delta.route_reuse_frac":   st.RouteReuseFrac,
			"delta.rerouted_wires":     float64(st.ReroutedWires),
			"delta.full_routes":        full,
		})
		if !drift {
			// Drift: the first delta design against a from-scratch compile of
			// the same network.
			scratch, err := autoncs.CompileCtx(ctx, a.sr.net, cfg)
			if err != nil {
				return fmt.Errorf("from-scratch compile for drift: %w", err)
			}
			r.layer["delta.drift_wl_ratio"] = res.Report.Wirelength / scratch.Report.Wirelength
			drift = true
		}
	}
	for k, v := range meanCounters(counters) {
		r.layer[k] = v
	}
	if edits > 0 {
		self := r.tr.selfByName()
		r.layer["delta.s"] = self["delta.CompileDeltaCtx"] / float64(edits)
		r.layer["delta.diff_s"] = self["delta.DiffNetworks"] / float64(edits)
	}
	r.layer["delta.cluster_s"] = mean(clusterS)
	r.layer["delta.place_s"] = mean(placeS)
	r.layer["delta.route_s"] = mean(routeS)
	return nil
}

// sameAsServed checks a locally replayed result against the served payload:
// the same assignment and the same wirelength, bit for bit.
func sameAsServed(payload []byte, res *autoncs.Result) error {
	var served client.Result
	if err := json.Unmarshal(payload, &served); err != nil {
		return fmt.Errorf("decoding served payload: %w", err)
	}
	asg, err := xbar.ReadJSON(bytes.NewReader(served.Assignment))
	if err != nil {
		return fmt.Errorf("decoding served assignment: %w", err)
	}
	same, err := sameAssignment(asg, res.Assignment)
	if err != nil {
		return fmt.Errorf("encoding assignments: %w", err)
	}
	if !same {
		return fmt.Errorf("replayed delta assignment differs from the served one")
	}
	if served.Report == nil || math.Float64bits(served.Report.Wirelength) != math.Float64bits(res.Report.Wirelength) {
		return fmt.Errorf("replayed delta wirelength %g differs from the served %v", res.Report.Wirelength, served.Report)
	}
	return nil
}

// editNetwork returns prev with one localized edit of about frac of its
// connections: symmetric pairs removed inside one window of neurons and
// added inside a disjoint window. Both windows move with step, so the
// edits of a chain walk along the network.
func editNetwork(prev *autoncs.Network, rng *rand.Rand, step int, frac float64) *autoncs.Network {
	n := prev.N()
	w := n / 10
	if w < 8 {
		w = 8
	}
	pairs := int(frac*float64(prev.NNZ())) / 4 // each pair is two connections; half removed, half added
	if pairs < 1 {
		pairs = 1
	}
	remAt := (step * w) % n
	addAt := (remAt + n/2) % n
	window := func(at int, present bool) [][2]int {
		var out [][2]int
		for a := 0; a < w; a++ {
			for b := a + 1; b < w; b++ {
				i, j := (at+a)%n, (at+b)%n
				if prev.Has(i, j) == present {
					out = append(out, [2]int{i, j})
				}
			}
		}
		rng.Shuffle(len(out), func(x, y int) { out[x], out[y] = out[y], out[x] })
		if len(out) > pairs {
			out = out[:pairs]
		}
		return out
	}
	net := prev.Clone()
	for _, p := range window(remAt, true) {
		net.Clear(p[0], p[1])
		net.Clear(p[1], p[0])
	}
	for _, p := range window(addAt, false) {
		net.Set(p[0], p[1])
		net.Set(p[1], p[0])
	}
	return net
}
