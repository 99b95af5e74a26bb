package service

import (
	"context"
	"fmt"
	"time"

	"gps/internal/obs"
	"gps/internal/report"
)

// Work stealing, victim side. An overloaded node hands one queued job to an
// idle peer (the thief): Steal checks the job out of the queue, the thief
// executes the spec on its own pool, and CompleteStolen lands the result
// back on this node — the job's waiters, journal entry, and cache commit
// all stay here, so clients polling the original handle never notice where
// the engine actually ran. A watchdog reclaims and re-enqueues the job if
// the thief dies before completing it.

// StolenJob is the work handed to a thief: enough to execute the spec
// elsewhere and address the completion back. Trace carries the victim
// job's trace position (trace_id + the victim job span as parent), so the
// thief's local execution chains under it and the two nodes' trace files
// merge into one timeline.
type StolenJob struct {
	ID    string           `json:"id"`
	Hash  string           `json:"hash"`
	Spec  Spec             `json:"spec"`
	Trace obs.TraceContext `json:"trace,omitempty"`
}

// Steal checks one queued job out to the named thief node. It reports false
// when the queue is empty (or every queued entry was already canceled).
// The job transitions to running with StolenBy set and no local executor;
// if no completion arrives within StealTimeout it is reclaimed and
// re-enqueued.
func (s *Server) Steal(thief string) (StolenJob, bool) {
	for {
		var job *Job
		select {
		case job = <-s.queue:
		default:
			return StolenJob{}, false
		}
		if job == nil { // queue closed by a drain
			return StolenJob{}, false
		}
		s.mu.Lock()
		if job.State != StateQueued { // canceled while waiting; try the next one
			s.mu.Unlock()
			continue
		}
		job.State = StateRunning
		job.StolenBy = thief
		job.StartedAt = time.Now()
		job.stealTimer = time.AfterFunc(s.cfg.StealTimeout, func() { s.reclaimStolen(job) })
		s.jobsStolen.Inc()
		s.cfg.Journal.record(OpStart, job.ID, nil, nil, "") //nolint:errcheck // informational; replay re-runs either way
		s.logger.Info("job stolen", "job_id", job.ID, "thief", thief)
		out := StolenJob{ID: job.ID, Hash: job.Hash, Spec: job.Spec, Trace: job.Trace.Context()}
		s.mu.Unlock()
		return out, true
	}
}

// CompleteStolen lands a thief's result (or failure) on the victim's job.
// Completions for unknown IDs error; completions for jobs that were
// reclaimed or canceled in the meantime are dropped silently — the job
// already has an owner for its outcome.
func (s *Server) CompleteStolen(id string, res *report.Report, errMsg string) error {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return ErrNotFound
	}
	if job.State != StateRunning || job.StolenBy == "" {
		return nil // reclaimed, canceled, or re-run locally; drop the late completion
	}
	exec := now.Sub(job.StartedAt)
	s.jobExec.Observe(exec.Seconds())
	if res != nil {
		if werr := s.cachePutFenced(job.Hash, res); werr != nil {
			s.cacheWriteErrs.Inc()
		}
		s.stealsCompleted.Inc()
		s.finishLocked(job, StateDone, "", res, now)
		s.logger.Info("stolen job done", "job_id", job.ID, "thief", job.StolenBy,
			"exec_seconds", exec.Seconds())
	} else {
		if errMsg == "" {
			errMsg = "stolen job failed on thief " + job.StolenBy
		}
		s.finishLocked(job, StateFailed, errMsg, nil, now)
		s.logger.Error("stolen job failed", "job_id", job.ID, "thief", job.StolenBy, "err", errMsg)
	}
	// The engine ran on the thief; flush the victim-side span of the trace
	// so this node's file still roots the job's identity.
	s.writeHandoffTrace(handoffTrace{
		id: job.ID, hash: job.Hash, kind: "stolen-remote-exec", peer: job.StolenBy,
		trace: job.Trace, state: job.State, errMsg: job.Err,
		submitted: job.SubmittedAt, started: job.StartedAt, finished: job.FinishedAt,
	})
	return nil
}

// DeclineStolen hands a stolen job straight back: the thief could not take
// it after all (its own admission refused the spec, or it started
// draining). The job returns to the queue immediately instead of waiting
// out the steal watchdog.
func (s *Server) DeclineStolen(id string) error {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	s.reclaimStolen(job)
	return nil
}

// reclaimStolen is the steal watchdog: a job whose thief went silent past
// StealTimeout goes back on the local queue. If the server is already
// draining (the queue may be closed), the job fails instead of re-queuing.
func (s *Server) reclaimStolen(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if job.State != StateRunning || job.StolenBy == "" {
		return // completed, canceled, or already reclaimed
	}
	thief := job.StolenBy
	s.stopStealTimerLocked(job)
	job.StolenBy = ""
	s.stealReclaims.Inc()
	if s.closed {
		s.finishLocked(job, StateFailed, fmt.Sprintf("stolen by %s, never completed, server draining", thief), nil, time.Now())
		return
	}
	job.State = StateQueued
	job.StartedAt = time.Time{}
	select {
	case s.queue <- job:
		s.logger.Warn("stolen job reclaimed", "job_id", job.ID, "thief", thief)
	default:
		// The queue refilled while the job was checked out; failing beats
		// blocking the watchdog goroutine on a saturated queue.
		s.finishLocked(job, StateFailed, fmt.Sprintf("stolen by %s, never completed, queue full on reclaim", thief), nil, time.Now())
	}
}

// JobsStolen reports how many queued jobs this node has handed to thieves.
func (s *Server) JobsStolen() uint64 { return s.jobsStolen.Value() }

// stopStealTimerLocked cancels the reclaim watchdog. Callers hold s.mu.
func (s *Server) stopStealTimerLocked(job *Job) {
	if job.stealTimer != nil {
		job.stealTimer.Stop()
		job.stealTimer = nil
	}
}

// ResultByHash serves the content-addressed cache directly: the peer
// result-fetch endpoint uses it so any node can hand out any completed
// spec's report without knowing which job produced it.
func (s *Server) ResultByHash(hash string) (*report.Report, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.get(hash)
}

// WaitResult blocks until the job reaches a terminal state (or ctx ends)
// and returns its final snapshot and report. The cluster's thief loop uses
// it to ride a locally-submitted stolen job to completion.
func (s *Server) WaitResult(ctx context.Context, id string) (Status, *report.Report, error) {
	job, err := s.jobHandle(id)
	if err != nil {
		return Status{}, nil, err
	}
	select {
	case <-job.done:
	case <-ctx.Done():
		return Status{}, nil, ctx.Err()
	}
	return s.Result(id)
}
