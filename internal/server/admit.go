package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/client"
)

// Admission: every POST that misses the cache is admitted (or rejected)
// inline by its own handler, under s.mu — one lock acquisition per
// decision. Identical submissions meet in the single-flight table under
// that same lock, so exactly one becomes the flight leader and the rest
// attach as followers. Drain sets s.draining under s.mu, so every
// submission decided after Drain began is answered 503 and none is lost.

// admitKind is the outcome of one admission decision.
type admitKind int

const (
	admitRejected admitKind = iota // over capacity or draining; no record registered
	admitCached                    // answered from the cache at admission time
	admitLeader                    // new flight created, job queued
	admitFollower                  // attached to an existing flight
)

// admitResult is the admission decision for one submission.
type admitResult struct {
	kind       admitKind
	j          *job // registered record (nil when rejected)
	code       int  // HTTP status for rejections
	msg        string
	retryAfter time.Duration
}

// admitLocked decides one submission. Caller holds s.mu. Jobs are
// registered only here — a rejected submission never touches the job
// map, so overload rejection does no record churn.
func (s *Server) admitLocked(spec *compileSpec, priority string, submitted time.Time) admitResult {
	if s.draining {
		return admitResult{
			kind:       admitRejected,
			code:       http.StatusServiceUnavailable,
			msg:        "draining: not accepting new work",
			retryAfter: drainRetryAfter,
		}
	}
	// Late cache probe: the handler's (disk-capable) probe ran before
	// admission, and a compile of this key may have finished in between.
	// The memory layer is O(1) under its own lock, so re-checking here
	// closes the window without disk I/O. runJob publishes the payload to
	// the cache before removing the flight, so a submission never finds
	// neither.
	if payload, ok := s.cache.Peek(spec.key); ok {
		j := s.registerJobLocked(spec, priority, submitted)
		j.cached = true
		s.accepted.Add(1)
		s.cacheHits.Add(1)
		s.finishJobLocked(j, client.StateDone, payload, nil, nil)
		s.log.Info("cache hit at admission", "job", j.id, "key", spec.key.Hex())
		return admitResult{kind: admitCached, j: j}
	}
	if fl, ok := s.flights[spec.key]; ok {
		j := s.registerJobLocked(spec, priority, submitted)
		j.fl = fl
		j.follower = true
		fl.jobs = append(fl.jobs, j)
		fl.waiters++
		if fl.running {
			j.setRunningAt(fl.startedAt)
		}
		s.accepted.Add(1)
		s.coalesced.Add(1)
		s.log.Info("job coalesced", "job", j.id, "leader", fl.jobs[0].id, "key", fl.key.Hex(), "waiters", fl.waiters)
		return admitResult{kind: admitFollower, j: j}
	}
	if s.queuedJobs >= s.queueDepth {
		s.rejected.Add(1)
		return admitResult{
			kind:       admitRejected,
			code:       http.StatusTooManyRequests,
			msg:        fmt.Sprintf("queue full (%d queued, %d running)", s.queuedJobs, s.inflight.Load()),
			retryAfter: s.retryAfter(),
		}
	}
	j := s.registerJobLocked(spec, priority, submitted)
	ctx, cancel := context.WithCancel(s.baseCtx)
	fl := &flight{key: spec.key, spec: spec, ctx: ctx, cancel: cancel, jobs: []*job{j}, waiters: 1}
	j.fl = fl
	s.flights[fl.key] = fl
	s.queuedJobs++
	q := s.qInteractive
	if priority == client.PriorityBatch {
		q = s.qBatch
	}
	// Each queue channel holds queueDepth entries and queuedJobs bounds
	// their combined occupancy, so this send never blocks.
	q <- j
	s.accepted.Add(1)
	return admitResult{kind: admitLeader, j: j}
}

// registerJobLocked allocates a job record and registers it for status
// queries, evicting the oldest finished records beyond the cap. Caller
// holds s.mu.
func (s *Server) registerJobLocked(spec *compileSpec, priority string, submitted time.Time) *job {
	s.seq++
	j := &job{
		id:        fmt.Sprintf("j-%06d", s.seq),
		spec:      spec,
		priority:  priority,
		done:      make(chan struct{}),
		state:     client.StateQueued,
		submitted: submitted,
		admitted:  time.Now(),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	// Never evict an active job (an unfinished head stalls eviction, which
	// is fine — the cap is far above any plausible active set).
	for len(s.order) > maxJobRecords {
		old, ok := s.jobs[s.order[0]]
		if ok && !old.terminal() {
			break
		}
		delete(s.jobs, s.order[0])
		s.order = s.order[1:]
	}
	return j
}

// cacheHitJob registers a terminal record for a submission answered by the
// handler's cache probe (or, with peer set, by a fleet peer's cache),
// before admission.
func (s *Server) cacheHitJob(spec *compileSpec, priority string, payload []byte, submitted time.Time, peer string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.registerJobLocked(spec, priority, submitted)
	j.cached = true
	j.peer = peer
	s.accepted.Add(1)
	s.cacheHits.Add(1)
	s.finishJobLocked(j, client.StateDone, payload, nil, nil)
	return j
}
