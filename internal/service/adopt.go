package service

import (
	"sort"
	"time"

	"gps/internal/obs"
)

// Takeover, successor side. When a cluster peer dies permanently, the ring
// successor holds replicated journal records for every job the dead node
// had accepted but not finished. Adopt promotes one such record: the job is
// re-enqueued here under its original (foreign-prefixed) ID, so clients
// polling the handle they already hold keep working once reads for the dead
// prefix fall back to this node. Adoption is idempotent and single-flight
// aware: an ID already known is left alone, a spec already cached completes
// instantly, and a spec already in flight locally rides on that execution
// instead of running a second time.

// AdoptOutcome classifies what Adopt did with a replicated record.
type AdoptOutcome string

const (
	// AdoptQueued: a fresh execution was queued under the original ID.
	AdoptQueued AdoptOutcome = "queued"
	// AdoptCached: the result cache already held the spec; the job is born
	// done under the original ID with no execution.
	AdoptCached AdoptOutcome = "cached"
	// AdoptCoalesced: an identical spec is already queued or running here
	// (e.g. a client re-submitted after the owner died and re-routing landed
	// it on this node); the adopted ID rides on that execution.
	AdoptCoalesced AdoptOutcome = "coalesced"
	// AdoptExists: the ID is already registered (an earlier takeover sweep
	// adopted it); nothing to do.
	AdoptExists AdoptOutcome = "exists"
)

// Adopt promotes one replicated journal record from the dead node origin.
// The job keeps its original ID and its original trace identity (trace
// rides on the replicated submit record), so the adopted execution still
// renders in the same cross-node trace the dead node started. Fresh
// adoptions are journaled locally, so if this successor also dies its own
// journal (and replication stream) carry the job onward.
func (s *Server) Adopt(origin, id string, spec Spec, trace obs.TraceInfo) (AdoptOutcome, error) {
	canon, err := spec.Canonicalize()
	if err != nil {
		return "", err
	}
	hash := canon.Hash()
	now := time.Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", ErrShuttingDown
	}
	if _, ok := s.jobs[id]; ok {
		return AdoptExists, nil
	}

	if trace.TraceID == "" {
		// Replicas from before trace identity existed: mint one.
		trace = obs.NewJobTrace(obs.TraceContext{})
	}
	job := &Job{
		ID:          id,
		Hash:        hash,
		Node:        s.cfg.NodeID,
		Spec:        canon,
		Trace:       trace,
		State:       StateQueued,
		AdoptedFrom: origin,
		SubmittedAt: now,
		done:        make(chan struct{}),
	}

	if res, ok := s.cache.get(hash); ok {
		s.cacheHits.Inc()
		s.jobsAdopted.Inc()
		job.CacheHit = true
		job.StartedAt = now
		s.jobs[id] = job
		s.finishLocked(job, StateDone, "", res, now)
		// No execution anywhere on this node: flush the adopted identity as a
		// static span so the trace keeps its root.
		s.writeHandoffTrace(handoffTrace{
			id: id, hash: hash, kind: "adopted-cached", peer: origin,
			trace: job.Trace, state: job.State,
			submitted: now, started: now, finished: now,
		})
		s.logger.Info("adopted job served from cache", "job_id", id, "origin", origin, "hash", hash)
		return AdoptCached, nil
	}

	if leader, ok := s.inflight[hash]; ok {
		// Cross-node single-flight on the successor: the spec is already
		// executing here (a re-routed re-submit beat the takeover sweep).
		// The adopted ID becomes a rider that mirrors the leader's outcome.
		s.jobs[id] = job
		s.coalesced.Inc()
		s.jobsAdopted.Inc()
		leader.Coalesced++
		go s.finishAdoptedRider(job, leader)
		s.logger.Info("adopted job coalesced onto in-flight spec",
			"job_id", id, "origin", origin, "leader", leader.ID, "hash", hash)
		return AdoptCoalesced, nil
	}

	s.jobs[id] = job
	s.inflight[hash] = job
	// Durability first, like Submit — but an adoption that cannot be
	// journaled still proceeds: the origin is dead, so refusing would strand
	// the job entirely. The replicated copy on our own successor is the
	// remaining safety net.
	if jerr := s.cfg.Journal.record(OpSubmit, id, &job.Spec, &job.Trace, ""); jerr != nil {
		s.logger.Warn("adopted job not journaled", "job_id", id, "err", jerr)
	} else {
		job.journaled = true
	}
	select {
	case s.queue <- job:
	default:
		// The admission queue is full. Takeover work must not be rejected —
		// the clients of the dead node are owed these jobs — so run it on a
		// dedicated goroutine outside the worker pool.
		go s.runJobIsolated(job)
	}
	s.jobsAdopted.Inc()
	s.cacheMisses.Inc()
	s.logger.Info("job adopted from dead peer", "job_id", id, "origin", origin, "hash", hash)
	return AdoptQueued, nil
}

// finishAdoptedRider mirrors the leader's terminal state onto an adopted
// rider job once the leader finishes.
func (s *Server) finishAdoptedRider(job, leader *Job) {
	<-leader.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if job.State.Terminal() { // canceled while riding
		return
	}
	state := leader.State
	if state != StateDone && state != StateCanceled {
		state = StateFailed
	}
	job.StartedAt = leader.StartedAt
	s.finishLocked(job, state, leader.Err, leader.Result, time.Now())
	// The rider never executes; its identity is flushed as a static span
	// pointing at the leader that actually ran.
	s.writeHandoffTrace(handoffTrace{
		id: job.ID, hash: job.Hash, kind: "adopted-rider", peer: leader.ID,
		trace: job.Trace, state: job.State, errMsg: job.Err,
		submitted: job.SubmittedAt, started: job.StartedAt, finished: job.FinishedAt,
	})
	s.logger.Info("adopted rider finished", "job_id", job.ID, "leader", leader.ID, "state", string(job.State))
}

// PendingJobs snapshots every non-terminal job (queued, running, stolen, or
// delegated), in ID order. The cluster's replicator uses it as the full-state
// resync payload when the replication successor changes or recovers.
func (s *Server) PendingJobs() []PendingJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []PendingJob
	for _, job := range s.jobs {
		if job.State.Terminal() {
			continue
		}
		out = append(out, PendingJob{ID: job.ID, Spec: job.Spec, Trace: job.Trace, Started: job.State == StateRunning})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
