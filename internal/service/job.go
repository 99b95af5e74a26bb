package service

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"gps/internal/obs"
	"gps/internal/report"
)

// State is a job's lifecycle state.
type State string

// The job lifecycle: queued -> running -> done|failed, with canceled
// reachable from queued and running. Cache hits are born done.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one submitted simulation. Fields are guarded by the owning
// Server's mutex except cellsDone, which workers bump lock-free as matrix
// cells complete.
type Job struct {
	ID    string
	Hash  string
	Node  string // owning node ID; empty on a single-node daemon
	Spec  Spec
	Trace obs.TraceInfo // distributed trace identity, minted at submit

	State       State
	Err         string
	Result      *report.Report
	CacheHit    bool   // served from the content-addressed cache at submit
	Coalesced   uint64 // extra submissions that rode on this execution
	Replayed    bool   // re-enqueued from the journal after a crash
	StolenBy    string // peer node executing this job after a work steal
	AdoptedFrom string // dead peer whose replicated journal this job came from
	PeerFetched bool   // result fetched from a peer's cache, no local execution
	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time

	cellsDone  atomic.Uint64
	attempts   atomic.Uint64           // execution attempts, bumped by the retry loop
	cancel     context.CancelCauseFunc // non-nil once running locally (nil while stolen)
	stealTimer *time.Timer             // reclaim watchdog while stolen; guarded by the server mutex
	journaled  bool                    // a submit record exists, so the end gets a terminal record
	done       chan struct{}           // closed on reaching a terminal state
}

// Status is the JSON snapshot the API returns when polling a job.
type Status struct {
	ID          string         `json:"id"`
	Hash        string         `json:"hash"`
	NodeID      string         `json:"node_id,omitempty"` // node that owns the execution
	State       State          `json:"state"`
	Spec        Spec           `json:"spec"`
	CellsDone   uint64         `json:"cells_done"`
	Attempts    uint64         `json:"attempts,omitempty"` // executions incl. retries
	CacheHit    bool           `json:"cache_hit,omitempty"`
	Coalesced   uint64         `json:"coalesced,omitempty"`
	Replayed    bool           `json:"replayed,omitempty"`     // recovered from the journal
	StolenBy    string         `json:"stolen_by,omitempty"`    // peer executing this job after a steal
	AdoptedFrom string         `json:"adopted_from,omitempty"` // dead peer this job was taken over from
	PeerFetched bool           `json:"peer_fetched,omitempty"` // result served from a peer's cache
	Trace       *obs.TraceInfo `json:"trace,omitempty"`        // distributed trace identity
	Error       string         `json:"error,omitempty"`
	SubmittedAt string         `json:"submitted_at"`
	WaitSeconds float64        `json:"wait_seconds"`           // queued -> started (or now)
	WallSeconds float64        `json:"wall_seconds,omitempty"` // started -> finished (or now)
}

// snapshot renders the job under the server lock.
func (j *Job) snapshot(now time.Time) Status {
	st := Status{
		ID:          j.ID,
		Hash:        j.Hash,
		NodeID:      j.Node,
		State:       j.State,
		Spec:        j.Spec,
		CellsDone:   j.cellsDone.Load(),
		Attempts:    j.attempts.Load(),
		CacheHit:    j.CacheHit,
		Coalesced:   j.Coalesced,
		Replayed:    j.Replayed,
		StolenBy:    j.StolenBy,
		AdoptedFrom: j.AdoptedFrom,
		PeerFetched: j.PeerFetched,
		Error:       j.Err,
		SubmittedAt: j.SubmittedAt.UTC().Format(time.RFC3339Nano),
	}
	if j.Trace.TraceID != "" {
		tr := j.Trace
		st.Trace = &tr
	}
	switch {
	case j.StartedAt.IsZero():
		st.WaitSeconds = now.Sub(j.SubmittedAt).Seconds()
	default:
		st.WaitSeconds = j.StartedAt.Sub(j.SubmittedAt).Seconds()
		if j.FinishedAt.IsZero() {
			st.WallSeconds = now.Sub(j.StartedAt).Seconds()
		} else {
			st.WallSeconds = j.FinishedAt.Sub(j.StartedAt).Seconds()
		}
	}
	if st.WaitSeconds < 0 {
		st.WaitSeconds = 0
	}
	return st
}

// Done exposes the completion channel; it is closed once the job reaches a
// terminal state. Callers must not close it.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobError is the typed failure of one job attempt that panicked: the
// worker's recover fence converts the panic into this error so one poisoned
// job fails diagnosably while other jobs and workers keep running.
type JobError struct {
	ID    string
	Stack string // truncated stack captured at the panic site
	Err   error
}

func (e *JobError) Error() string {
	return fmt.Sprintf("service: job %s panicked: %v\n%s", e.ID, e.Err, e.Stack)
}

func (e *JobError) Unwrap() error { return e.Err }

// jobMaxStackBytes caps captured panic stacks so errors stay loggable.
const jobMaxStackBytes = 2048

// truncatedStack captures the current goroutine's stack, capped.
func truncatedStack() string {
	s := debug.Stack()
	if len(s) > jobMaxStackBytes {
		s = append(s[:jobMaxStackBytes], []byte("... (truncated)")...)
	}
	return string(s)
}

// panicToError normalizes a recovered panic value, preserving error values
// (and with them the retry classification of injected panics).
func panicToError(p any) error {
	if err, ok := p.(error); ok {
		return err
	}
	return fmt.Errorf("panic: %v", p)
}
