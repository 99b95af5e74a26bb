package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gps/internal/experiments"
	"gps/internal/faultinject"
	"gps/internal/obs"
	"gps/internal/report"
	"gps/internal/retry"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull is returned when admission control rejects a submission
	// because the bounded queue is saturated (HTTP 429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrShuttingDown is returned for submissions after drain began (503).
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrNotFound is returned for unknown (or pruned) job IDs (404).
	ErrNotFound = errors.New("service: no such job")
)

// errJobCanceled is the cancellation cause installed by Cancel, so the
// worker can tell a user cancel from a timeout or a server drain.
var errJobCanceled = errors.New("service: job canceled by request")

// Outcome classifies what Submit did with a spec.
type Outcome int

const (
	// OutcomeAccepted: a new job was queued for execution.
	OutcomeAccepted Outcome = iota
	// OutcomeCoalesced: an identical spec is already queued or running; the
	// submission rides on that execution (single-flight).
	OutcomeCoalesced
	// OutcomeCached: the result was served from the content-addressed cache
	// without any execution; the returned job is born done.
	OutcomeCached
)

// Config sizes a Server. Zero values take the documented defaults.
type Config struct {
	// Workers is the number of jobs executed concurrently (default 2).
	// Each job additionally fans its cells out on the experiments runner's
	// own pool, so total CPU use is Workers x runner parallelism.
	Workers int
	// QueueDepth bounds the admission queue (default 16). Submissions
	// beyond running+queued capacity get ErrQueueFull.
	QueueDepth int
	// JobTimeout caps one job's execution (default 0: unlimited). A timed
	// out job fails; its in-flight simulation cells finish and are kept in
	// the runner caches, so a resubmission resumes cheaply.
	JobTimeout time.Duration
	// CacheEntries bounds the content-addressed result cache (default 256,
	// FIFO eviction).
	CacheEntries int
	// RetainJobs bounds how many terminal jobs stay queryable (default
	// 1024, oldest pruned first) so a long-lived daemon's job store cannot
	// grow without bound.
	RetainJobs int
	// Execute runs one canonical spec. Defaults to Execute (the shared
	// experiments runner); tests substitute stubs to script timing.
	Execute ExecuteFunc

	// NodeID, when non-empty, names this node in a gpsd cluster: job IDs
	// become "<node>-j-NNNNNN" so any peer can route a read to the owning
	// node from the ID alone, and the node appears on job snapshots, logs,
	// and spans. Empty — the default — is single-node operation with the
	// classic "j-NNNNNN" IDs.
	NodeID string
	// RemoteResult, when non-nil, is consulted once per job right before
	// the first execution attempt: if any peer's content-addressed cache
	// already holds the canonical hash, the job completes with that report
	// and the engine never runs. The cluster layer wires this to
	// GET /v1/peer/results/{hash} across live peers; nil skips the lookup.
	RemoteResult func(ctx context.Context, hash string) *report.Report
	// StealTimeout bounds how long a stolen job may stay checked out to a
	// thief node before the victim reclaims and re-enqueues it (default
	// 2m). Completions arriving after the reclaim are dropped.
	StealTimeout time.Duration
	// Reconcile, when non-nil, is the resurrection handshake: it is asked
	// about every journal-recovered pending job before it is re-enqueued.
	// Returning "" replays the job locally as usual; returning a node ID
	// delegates it — the job registers as running on that peer (the cluster
	// layer drives its completion) instead of executing a second time here.
	// A node returning from the dead uses this to reconcile against the
	// successor that took its jobs over while it was gone.
	Reconcile func(p PendingJob) string

	// JobRetry schedules job-level re-execution: a job whose attempt fails
	// with a retryable error (injected faults, explicitly transient errors)
	// re-runs up to MaxAttempts times with backoff. The zero value never
	// retries. Deterministic failures are not retried regardless.
	JobRetry retry.Policy
	// Sleeper overrides the backoff sleep between job attempts (tests make
	// schedules instant). nil uses retry.Sleep.
	Sleeper retry.Sleeper
	// FaultHook threads deterministic fault injection through the worker
	// dispatch ("service.dispatch") and result-cache commit
	// ("service.cache.put") sites. nil — the production default — costs
	// one nil-check per site.
	FaultHook faultinject.Hook
	// Journal, when non-nil, makes jobs durable: submit/start/terminal
	// transitions are fsynced to it, and New re-enqueues whatever the
	// journal says was queued or running when the last process died.
	Journal *Journal

	// Logger receives structured job lifecycle records (submit, start,
	// terminal transitions, per-cell progress at debug level), all
	// correlated by job_id. nil discards them.
	Logger *slog.Logger
	// Registry, when non-nil, exposes the server's operational counters as
	// Prometheus metrics and records job wait/execution latency
	// histograms. nil — the default — costs nothing. Instruments are
	// get-or-create by name, so a registry serves one Server: New panics
	// on a registry another Server already fills.
	Registry *obs.Registry
	// TraceDir, when non-empty, writes one Perfetto-loadable span trace per
	// executed job to TraceDir/<job-id>.trace.json: the job span, one span
	// per figure/section, one per matrix cell, and the trace-build /
	// engine-replay / render phases inside each cell.
	TraceDir string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 1024
	}
	if c.Execute == nil {
		c.Execute = Execute
	}
	if c.JobRetry.MaxAttempts < 1 {
		c.JobRetry.MaxAttempts = 1
	}
	if c.Sleeper == nil {
		c.Sleeper = retry.Sleep
	}
	if c.StealTimeout <= 0 {
		c.StealTimeout = 2 * time.Minute
	}
	if c.Logger == nil {
		c.Logger = obs.Nop()
	}
	return c
}

// Metrics is the operational snapshot of /v1/metrics.
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	BusyWorkers   int     `json:"busy_workers"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`

	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsDone      uint64 `json:"jobs_done"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsCanceled  uint64 `json:"jobs_canceled"`
	JobsRejected  uint64 `json:"jobs_rejected"`
	JobsCoalesced uint64 `json:"jobs_coalesced"`

	// Resilience counters: how much the retry/fence/journal machinery
	// absorbed. JobRetries counts extra job attempts beyond the first,
	// JobPanics counts panics recovered at job scope, JobsReplayed counts
	// journal-recovered jobs re-enqueued at startup.
	JobRetries             uint64 `json:"job_retries"`
	JobPanics              uint64 `json:"job_panics"`
	JobsReplayed           uint64 `json:"jobs_replayed"`
	ResultCacheWriteErrors uint64 `json:"result_cache_write_errors"`
	JournalRecords         uint64 `json:"journal_records,omitempty"`

	// Cluster counters (zero on a single-node daemon): jobs handed to a
	// thief peer, stolen jobs completed by the thief, stolen jobs reclaimed
	// after the steal timeout, and jobs answered from a peer's cache
	// instead of executing.
	JobsStolen      uint64 `json:"jobs_stolen,omitempty"`
	StealsCompleted uint64 `json:"steals_completed,omitempty"`
	StealReclaims   uint64 `json:"steal_reclaims,omitempty"`
	JobsPeerFetched uint64 `json:"jobs_peer_fetched,omitempty"`
	JobsAdopted     uint64 `json:"jobs_adopted,omitempty"`

	ResultCacheHits    uint64 `json:"result_cache_hits"`
	ResultCacheMisses  uint64 `json:"result_cache_misses"`
	ResultCacheEntries int    `json:"result_cache_entries"`

	// JobsInFlight counts queued+running (non-terminal) jobs.
	JobsInFlight int `json:"jobs_in_flight"`

	ExecSecondsTotal float64 `json:"exec_seconds_total"`

	// Latency summaries from the RED histograms: end-to-end submit→terminal,
	// queue wait, and execution wall time. Nil until the first observation.
	JobE2E  *obs.HistSummary `json:"job_e2e,omitempty"`
	JobWait *obs.HistSummary `json:"job_wait,omitempty"`
	JobExec *obs.HistSummary `json:"job_exec,omitempty"`

	// RunnerCache exposes the memoization counters of the underlying
	// experiments runner (traces, structural replays, baselines).
	RunnerCache experiments.CacheStats `json:"runner_cache"`
	// RunnerResilience exposes the runner's cell-level fence/retry
	// counters (panics converted to CellError, cell attempts retried).
	RunnerResilience experiments.ResilienceStats `json:"runner_resilience"`
}

// Server is the simulation-as-a-service core: admission control in front of
// a bounded FIFO queue, a worker pool draining it, single-flight coalescing
// of duplicate in-flight specs, and a content-addressed result cache.
type Server struct {
	cfg   Config
	start time.Time

	baseCtx    context.Context // canceled only when a drain deadline forces abort
	baseCancel context.CancelCauseFunc
	queue      chan *Job
	wg         sync.WaitGroup
	busy       atomic.Int64

	logger   *slog.Logger
	draining atomic.Bool
	// jobWait and jobExec are latency histograms bound to cfg.Registry;
	// with no registry they are plain unregistered histograms (see
	// obs.Registry nil semantics), so the observe path never branches.
	jobWait *obs.Histogram
	jobExec *obs.Histogram
	// jobE2E measures submit→terminal for every job retiring on this node,
	// whichever path got it there (executed, cached, stolen, adopted,
	// canceled) — the cluster-wide RED latency signal.
	jobE2E *obs.Histogram

	// The lifecycle counters are registry-owned like the histograms: the
	// /metrics series and the /v1/metrics snapshot read one instrument.
	// ended holds the gpsd_jobs_total series of the three terminal states.
	submitted, rejected, coalesced, replayed *obs.Counter
	ended                                    map[State]*obs.Counter
	jobRetries, jobPanics, jobsAdopted       *obs.Counter
	jobsStolen, stealsCompleted              *obs.Counter
	stealReclaims, peerFetched               *obs.Counter
	cacheHits, cacheMisses, cacheWriteErrs   *obs.Counter

	mu       sync.Mutex
	closed   bool
	seq      uint64
	jobs     map[string]*Job
	inflight map[string]*Job // canonical hash -> queued/running job
	cache    *resultCache
	terminal []string // terminal job IDs in completion order, for pruning
}

// New builds a Server and starts its worker pool. With a journal
// configured, jobs the journal says were queued or running when the last
// process died are re-enqueued first, under their original IDs, so clients
// can keep polling the handles they already hold.
func New(cfg Config) *Server {
	if cfg.Registry.Has("gpsd_jobs_total") {
		panic("service: registry already serves another Server; its counters would be shared")
	}
	cfg = cfg.withDefaults()
	var pending []PendingJob
	if cfg.Journal != nil {
		pending = cfg.Journal.TakePending()
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	// A nil registry hands out working, unregistered instruments, so no
	// call site branches on whether metrics are exported.
	reg := cfg.Registry
	jobs := func(event string) *obs.Counter {
		return reg.Counter("gpsd_jobs_total", "Job lifecycle events by kind.", "event", event)
	}
	s := &Server{
		cfg:        cfg,
		start:      time.Now(),
		baseCtx:    ctx,
		baseCancel: cancel,
		logger:     cfg.Logger,
		jobWait:    reg.Histogram("gpsd_job_wait_seconds", "Time jobs spend queued before a worker picks them up.", nil),
		jobExec:    reg.Histogram("gpsd_job_exec_seconds", "Wall-clock execution time of finished jobs.", nil),
		jobE2E:     reg.Histogram("gpsd_job_e2e_seconds", "End-to-end submit to terminal-state latency of jobs retiring on this node.", nil),

		submitted: jobs("submitted"), rejected: jobs("rejected"), coalesced: jobs("coalesced"), replayed: jobs("replayed"),
		ended: map[State]*obs.Counter{
			StateDone: jobs("done"), StateFailed: jobs("failed"), StateCanceled: jobs("canceled"),
		},
		jobRetries: jobs("retried"), jobPanics: jobs("panicked"), jobsAdopted: jobs("adopted"),
		jobsStolen: jobs("stolen"), stealsCompleted: jobs("steal_completed"),
		stealReclaims: jobs("steal_reclaimed"), peerFetched: jobs("peer_fetched"),
		cacheHits:      reg.Counter("gpsd_result_cache_hits_total", "Submissions answered from the result cache."),
		cacheMisses:    reg.Counter("gpsd_result_cache_misses_total", "Submissions that required execution."),
		cacheWriteErrs: reg.Counter("gpsd_result_cache_write_errors_total", "Result cache commits that failed."),

		// Replayed jobs ride on extra capacity so recovery can never be
		// rejected by admission control.
		queue:    make(chan *Job, cfg.QueueDepth+len(pending)),
		jobs:     map[string]*Job{},
		inflight: map[string]*Job{},
		cache:    newResultCache(cfg.CacheEntries),
	}
	s.replayPending(pending)
	s.registerMetrics(reg)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// registerMetrics exports the state sampled at scrape time: gauges of live
// server state, the journal's record count, and the shared experiments
// runner's counters. A nil registry registers nothing.
func (s *Server) registerMetrics(reg *obs.Registry) {
	reg.GaugeFunc("gpsd_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("gpsd_workers", "Configured worker pool size.",
		func() float64 { return float64(s.cfg.Workers) })
	reg.GaugeFunc("gpsd_busy_workers", "Workers currently executing a job.",
		func() float64 { return float64(s.busy.Load()) })
	reg.GaugeFunc("gpsd_queue_depth", "Jobs waiting in the admission queue.",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("gpsd_queue_capacity", "Admission queue bound.",
		func() float64 { return float64(s.cfg.QueueDepth) })
	reg.GaugeFunc("gpsd_draining", "1 while a graceful drain is in progress.",
		func() float64 {
			if s.Draining() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("gpsd_result_cache_entries", "Resident result cache entries.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.cache.len())
		})
	// Every execution observes jobExec, so its sum is the execution total.
	reg.CounterFunc("gpsd_exec_seconds_total", "Total wall-clock seconds spent executing jobs.", s.jobExec.Sum)
	reg.CounterFunc("gpsd_journal_records_total", "Journal records appended by this process.",
		func() float64 { return float64(s.cfg.Journal.Records()) })

	// The shared experiments runner: memoization and resilience counters.
	cache := func(name, help string, f func(experiments.CacheStats) uint64) {
		reg.CounterFunc(name, help, func() float64 {
			return float64(f(experiments.Default.CacheStats()))
		})
	}
	cache("gps_runner_trace_builds_total", "Traces generated and materialized.",
		func(c experiments.CacheStats) uint64 { return c.TraceBuilds })
	cache("gps_runner_trace_hits_total", "Trace requests served from cache (one request per replay group).",
		func(c experiments.CacheStats) uint64 { return c.TraceHits })
	cache("gps_runner_trace_evictions_total", "Traces evicted to respect the budget.",
		func(c experiments.CacheStats) uint64 { return c.TraceEvictions })
	cache("gps_runner_engine_runs_total", "Structural replays executed.",
		func(c experiments.CacheStats) uint64 { return c.EngineRuns })
	cache("gps_runner_engine_hits_total", "Structural results served from cache.",
		func(c experiments.CacheStats) uint64 { return c.EngineHits })
	cache("gps_runner_baseline_runs_total", "Baseline simulations executed.",
		func(c experiments.CacheStats) uint64 { return c.BaselineRuns })
	cache("gps_runner_baseline_hits_total", "Baseline requests served from cache.",
		func(c experiments.CacheStats) uint64 { return c.BaselineHits })
	reg.GaugeFunc("gps_runner_trace_cache_bytes", "Approximate resident bytes of cached traces (compressed columnar blocks).",
		func() float64 { return float64(experiments.Default.CacheStats().TraceBytes) })
	reg.GaugeFunc("gps_runner_trace_logical_bytes", "Flat-layout bytes the resident traces would occupy uncompressed.",
		func() float64 { return float64(experiments.Default.CacheStats().TraceLogicalBytes) })
	reg.CounterFunc("gps_runner_cell_panics_total", "Matrix cells that panicked and were fenced.",
		func() float64 { return float64(experiments.Default.ResilienceStats().CellPanics) })
	reg.CounterFunc("gps_runner_cell_retries_total", "Matrix cell attempts retried after transient failures.",
		func() float64 { return float64(experiments.Default.ResilienceStats().CellRetries) })
}

// Draining reports whether a graceful shutdown is in progress (or done):
// new submissions are refused and /v1/healthz flips to "draining".
func (s *Server) Draining() bool { return s.draining.Load() }

// NodeID reports the configured cluster node identity ("" single-node).
func (s *Server) NodeID() string { return s.cfg.NodeID }

// replayPending re-enqueues journal-recovered jobs. Runs before the worker
// pool starts, so no locking is needed yet.
func (s *Server) replayPending(pending []PendingJob) {
	now := time.Now()
	for _, p := range pending {
		canon, err := p.Spec.Canonicalize()
		if err != nil {
			// The journaled spec no longer validates (e.g. a workload was
			// removed). Close it out so compaction drops it next boot.
			s.cfg.Journal.record(OpFail, p.ID, nil, nil, "replay: "+err.Error()) //nolint:errcheck // best-effort close-out
			continue
		}
		hash := canon.Hash()
		if _, ok := s.inflight[hash]; ok {
			s.cfg.Journal.record(OpCancel, p.ID, nil, nil, "replay: duplicate of recovered spec") //nolint:errcheck // best-effort close-out
			continue
		}
		if n := jobSeq(p.ID); n > s.seq {
			s.seq = n
		}
		job := &Job{
			ID:          p.ID,
			Hash:        hash,
			Node:        s.cfg.NodeID,
			Spec:        canon,
			Trace:       p.Trace,
			State:       StateQueued,
			Replayed:    true,
			SubmittedAt: now,
			journaled:   true, // compaction rewrote its submit record
			done:        make(chan struct{}),
		}
		if job.Trace.TraceID == "" {
			// Journals written before trace identity existed: mint one so the
			// replayed execution still traces end to end.
			job.Trace = obs.NewJobTrace(obs.TraceContext{})
		}
		if s.cfg.Reconcile != nil {
			if delegate := s.cfg.Reconcile(p); delegate != "" {
				// The successor adopted this job while we were dead. Register
				// it as running there — exactly the shape of a stolen job, so
				// cancel, the reclaim watchdog, and CompleteStolen all work
				// unchanged — and let the cluster's delegation watcher land
				// the successor's outcome (or reclaim on successor death).
				job.State = StateRunning
				job.StolenBy = delegate
				job.StartedAt = now
				job.stealTimer = time.AfterFunc(s.cfg.StealTimeout, func() { s.reclaimStolen(job) })
				s.jobs[job.ID] = job
				s.inflight[hash] = job
				s.replayed.Inc()
				s.logger.Info("job delegated to takeover successor",
					"job_id", job.ID, "hash", hash, "successor", delegate)
				continue
			}
		}
		s.jobs[job.ID] = job
		s.inflight[hash] = job
		s.queue <- job
		s.replayed.Inc()
		s.logger.Info("job replayed from journal", "job_id", job.ID, "hash", hash)
	}
}

// jobSeq parses the numeric suffix of a job ID ("j-000042" -> 42,
// "node1-j-000042" -> 42) so the sequence counter resumes past replayed
// IDs; malformed IDs answer 0.
func jobSeq(id string) uint64 {
	if i := strings.LastIndex(id, "j-"); i >= 0 {
		id = id[i+len("j-"):]
	}
	n, err := strconv.ParseUint(id, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// JobNode extracts the node prefix of a cluster job ID ("node1-j-000042" ->
// "node1"); single-node IDs ("j-000042") answer "". The cluster layer uses
// it to route status and result reads to the owning node.
func JobNode(id string) string {
	i := strings.LastIndex(id, "-j-")
	if i < 0 {
		return ""
	}
	return id[:i]
}

// Submit admits one spec. It returns the job snapshot to poll plus what
// happened: accepted (new execution queued), coalesced (identical spec
// already in flight — the same job serves both), or cached (the canonical
// hash hit the result cache and the job is born done, no execution).
func (s *Server) Submit(spec Spec) (Status, Outcome, error) {
	return s.SubmitTraced(spec, obs.TraceContext{})
}

// SubmitTraced is Submit under a distributed trace parent: the job's trace
// identity continues parent's trace (minting a fresh one when parent is
// zero). Coalesced and cached submissions keep the identity of the job that
// serves them — the caller can link via the snapshot's trace field.
func (s *Server) SubmitTraced(spec Spec, parent obs.TraceContext) (Status, Outcome, error) {
	canon, err := spec.Canonicalize()
	if err != nil {
		return Status{}, OutcomeAccepted, err
	}
	hash := canon.Hash()
	now := time.Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Status{}, OutcomeAccepted, ErrShuttingDown
	}

	if res, ok := s.cache.get(hash); ok {
		s.cacheHits.Inc()
		s.submitted.Inc()
		job := s.newJobLocked(canon, hash, now, parent)
		job.CacheHit = true
		job.StartedAt = now
		s.finishLocked(job, StateDone, "", res, now)
		s.logger.Info("job cached", "job_id", job.ID, "hash", hash)
		return job.snapshot(now), OutcomeCached, nil
	}

	if leader, ok := s.inflight[hash]; ok {
		leader.Coalesced++
		s.coalesced.Inc()
		s.logger.Info("job coalesced", "job_id", leader.ID, "hash", hash, "riders", leader.Coalesced)
		return leader.snapshot(now), OutcomeCoalesced, nil
	}

	job := s.newJobLocked(canon, hash, now, parent)
	select {
	case s.queue <- job:
	default:
		delete(s.jobs, job.ID)
		s.rejected.Inc()
		s.logger.Warn("job rejected: queue full", "hash", hash)
		return Status{}, OutcomeAccepted, ErrQueueFull
	}
	s.inflight[hash] = job
	if jerr := s.cfg.Journal.record(OpSubmit, job.ID, &job.Spec, &job.Trace, ""); jerr != nil {
		// Durability is the contract: a submission we cannot journal is
		// refused. The job is voided under the lock before any worker can
		// run it (workers skip non-queued jobs).
		job.State = StateCanceled
		delete(s.jobs, job.ID)
		delete(s.inflight, hash)
		s.rejected.Inc()
		return Status{}, OutcomeAccepted, jerr
	}
	job.journaled = true
	s.submitted.Inc()
	s.cacheMisses.Inc()
	s.logger.Info("job accepted", "job_id", job.ID, "hash", hash, "queue_depth", len(s.queue))
	return job.snapshot(now), OutcomeAccepted, nil
}

// newJobLocked allocates and registers a queued job with a trace identity
// minted under parent. Callers hold s.mu.
func (s *Server) newJobLocked(spec Spec, hash string, now time.Time, parent obs.TraceContext) *Job {
	s.seq++
	id := fmt.Sprintf("j-%06d", s.seq)
	if s.cfg.NodeID != "" {
		id = s.cfg.NodeID + "-" + id
	}
	job := &Job{
		ID:          id,
		Hash:        hash,
		Node:        s.cfg.NodeID,
		Spec:        spec,
		Trace:       obs.NewJobTrace(parent),
		State:       StateQueued,
		SubmittedAt: now,
		done:        make(chan struct{}),
	}
	s.jobs[job.ID] = job
	return job
}

// Job returns the snapshot of one job.
func (s *Server) Job(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return job.snapshot(time.Now()), nil
}

// Result returns the report of a done job. The error distinguishes unknown
// jobs (ErrNotFound) from jobs that exist but have no result yet (nil
// report, nil error — the caller inspects the returned status).
func (s *Server) Result(id string) (Status, *report.Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return Status{}, nil, ErrNotFound
	}
	return job.snapshot(time.Now()), job.Result, nil
}

// jobHandle returns the live job pointer; tests use it to wait on Done.
func (s *Server) jobHandle(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return job, nil
}

// Cancel requests cancellation. A queued job is retired immediately; a
// running job's context is canceled and the job reaches the canceled state
// once its current simulation cell finishes (the engine is not preempted
// mid-cell so cached partial work stays valid). Canceling a terminal job is
// a no-op. A canceled execution cancels every coalesced submission riding
// on it — they share one job.
func (s *Server) Cancel(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	now := time.Now()
	switch {
	case job.State == StateRunning && job.cancel != nil:
		s.logger.Info("cancel requested", "job_id", job.ID)
		job.cancel(errJobCanceled)
	case job.State == StateQueued:
		s.finishLocked(job, StateCanceled, errJobCanceled.Error(), nil, now)
		s.logger.Info("job canceled while queued", "job_id", job.ID)
	case job.State == StateRunning:
		// Stolen by a peer: there is no local execution to preempt. Cancel
		// the job here; the thief's late completion is dropped.
		s.finishLocked(job, StateCanceled, errJobCanceled.Error(), nil, now)
		s.logger.Info("stolen job canceled", "job_id", job.ID, "thief", job.StolenBy)
	}
	return job.snapshot(now), nil
}

// worker drains the queue until Shutdown closes it. Each job runs under a
// worker-scope recover so even a panic in the scheduling machinery fails
// one job, not the pool.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJobIsolated(job)
	}
}

// runJobIsolated is the worker's outer panic fence. The inner fence in
// executeOnce converts executor panics into per-attempt errors; this one is
// the backstop that keeps the worker goroutine alive and the job terminal
// if anything outside the executor blows up: the job fails, so waiters
// never hang on a job the pool abandoned. A job the panic left already
// terminal only gets its waiters woken.
func (s *Server) runJobIsolated(job *Job) {
	defer func() {
		if p := recover(); p != nil {
			s.jobPanics.Inc()
			s.mu.Lock()
			defer s.mu.Unlock()
			s.finishLocked(job, StateFailed, panicToError(p).Error(), nil, time.Now())
		}
	}()
	s.runJob(job)
}

// runJob executes one queued job through the configured executor, retrying
// attempts that fail with a retryable (injected or transient) error under
// the job retry policy.
func (s *Server) runJob(job *Job) {
	s.mu.Lock()
	if job.State != StateQueued { // canceled while waiting
		s.mu.Unlock()
		return
	}
	job.State = StateRunning
	job.StartedAt = time.Now()
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	job.cancel = cancel
	wait := job.StartedAt.Sub(job.SubmittedAt)
	s.mu.Unlock()
	defer cancel(nil)

	s.busy.Add(1)
	defer s.busy.Add(-1)
	if wait < 0 {
		wait = 0
	}
	s.jobWait.Observe(wait.Seconds())
	s.logger.Info("job started", "job_id", job.ID, "wait_seconds", wait.Seconds())

	// Recovery treats queued and started jobs alike, so the start record
	// is informational; its loss is harmless.
	s.cfg.Journal.record(OpStart, job.ID, nil, nil, "") //nolint:errcheck

	runCtx := ctx
	if s.cfg.JobTimeout > 0 {
		var tcancel context.CancelFunc
		runCtx, tcancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer tcancel()
	}
	logger := s.logger
	runCtx = experiments.WithCellObserver(runCtx, func(ev experiments.CellEvent) {
		if ev.Start {
			logger.Debug("cell start", "job_id", job.ID, "cell", ev.Desc)
			return
		}
		if ev.Err == nil {
			job.cellsDone.Add(1)
		}
		logger.Debug("cell done", "job_id", job.ID, "cell", ev.Desc,
			"seconds", ev.Dur.Seconds(), "err", ev.Err)
	})

	// With a trace directory configured every executed job writes its own
	// Perfetto trace. The flusher goroutine is bound to the job's context:
	// a drain-deadline abort cancels it, so the writer can never outlive
	// the job (and Close after that is a no-op).
	if s.cfg.TraceDir != "" {
		if f, err := os.Create(filepath.Join(s.cfg.TraceDir, job.ID+".trace.json")); err != nil {
			s.logger.Warn("job trace disabled", "job_id", job.ID, "err", err)
		} else {
			tracer := obs.NewTracer(runCtx, f)
			tracer.SetProcess(s.cfg.NodeID)
			runCtx = obs.WithTracer(runCtx, tracer)
			kv := []string{"hash", job.Hash}
			if s.cfg.NodeID != "" {
				kv = append(kv, "node_id", s.cfg.NodeID)
			}
			// The job span is emitted under the identity minted at submit —
			// possibly on another node, before a steal or adoption — so the
			// per-node files link into one cross-node trace.
			runCtx = obs.WithTraceContext(runCtx, obs.TraceContext{
				TraceID: job.Trace.TraceID, SpanID: job.Trace.ParentSpanID,
			})
			var jobSpan *obs.Span
			runCtx, jobSpan = obs.StartSpanWithID(runCtx, obs.CatJob, job.ID, job.Trace.SpanID, kv...)
			defer func() {
				jobSpan.End()
				if err := tracer.Close(); err != nil {
					s.logger.Warn("job trace write failed", "job_id", job.ID, "err", err)
				}
				f.Close()
			}()
		}
	}

	// In a cluster, a peer may already hold this spec's result (ownership
	// moved after a node join/leave, or a thief executed it elsewhere): one
	// lookup across live peers before the first execution attempt turns the
	// job into a fetch instead of a replay.
	if s.cfg.RemoteResult != nil {
		if res := s.cfg.RemoteResult(runCtx, job.Hash); res != nil {
			s.peerFetched.Inc()
			job.PeerFetched = true
			s.logger.Info("job result fetched from peer", "job_id", job.ID, "hash", job.Hash)
			s.finishJob(job, runCtx, res, nil)
			return
		}
	}

	var res *report.Report
	_, err := retry.Do(runCtx, s.cfg.JobRetry, s.cfg.Sleeper, nil, func(attempt int) error {
		job.attempts.Store(uint64(attempt))
		if attempt > 1 {
			s.jobRetries.Inc()
		}
		r, aerr := s.executeOnce(runCtx, job)
		if aerr != nil {
			return aerr
		}
		res = r
		return nil
	})
	s.finishJob(job, runCtx, res, err)
}

// executeOnce runs one job attempt under the inner panic fence: a
// panicking executor — or a fault-hook panic at the dispatch site — fails
// this attempt with a typed JobError instead of killing the worker. If the
// error classifies as retryable, the attempt loop in runJob re-runs it.
func (s *Server) executeOnce(ctx context.Context, job *Job) (res *report.Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.jobPanics.Inc()
			err = &JobError{ID: job.ID, Stack: truncatedStack(), Err: panicToError(p)}
		}
	}()
	if h := s.cfg.FaultHook; h != nil {
		if herr := h.Hit("service.dispatch"); herr != nil {
			return nil, herr
		}
	}
	return s.cfg.Execute(ctx, job.Spec)
}

// finishJob moves a running job to its terminal state and accounts for it.
func (s *Server) finishJob(job *Job, runCtx context.Context, res *report.Report, err error) {
	now := time.Now()
	cause := context.Cause(runCtx)

	exec := now.Sub(job.StartedAt)
	s.jobExec.Observe(exec.Seconds())

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case errors.Is(cause, errJobCanceled):
		// User cancel wins even over a result that squeaked through.
		s.finishLocked(job, StateCanceled, errJobCanceled.Error(), nil, now)
	case err == nil:
		if werr := s.cachePutFenced(job.Hash, res); werr != nil {
			// A failed cache commit degrades the result to uncached; the
			// job itself is still done and its result still served.
			s.cacheWriteErrs.Inc()
		}
		s.finishLocked(job, StateDone, "", res, now)
	case errors.Is(err, context.DeadlineExceeded):
		s.finishLocked(job, StateFailed, fmt.Sprintf("job exceeded timeout %v", s.cfg.JobTimeout), nil, now)
	case errors.Is(err, context.Canceled):
		// Server drain deadline forced the abort.
		s.finishLocked(job, StateCanceled, "canceled: "+cause.Error(), nil, now)
	default:
		s.finishLocked(job, StateFailed, err.Error(), nil, now)
	}
	switch job.State {
	case StateDone:
		s.logger.Info("job done", "job_id", job.ID,
			"exec_seconds", exec.Seconds(), "cells", job.cellsDone.Load(),
			"attempts", job.attempts.Load())
	case StateFailed:
		s.logger.Error("job failed", "job_id", job.ID,
			"exec_seconds", exec.Seconds(), "attempts", job.attempts.Load(), "err", job.Err)
	case StateCanceled:
		s.logger.Info("job canceled", "job_id", job.ID,
			"exec_seconds", exec.Seconds(), "err", job.Err)
	}
}

// cachePutFenced commits a result to the content-addressed cache through
// the fault hook ("service.cache.put" site). Both returned errors and
// panics from the commit path degrade to an uncached result rather than a
// failed job. Callers hold s.mu.
func (s *Server) cachePutFenced(hash string, res *report.Report) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = panicToError(p)
		}
	}()
	if h := s.cfg.FaultHook; h != nil {
		if herr := h.Hit("service.cache.put"); herr != nil {
			return herr
		}
	}
	s.cache.put(hash, res)
	return nil
}

// terminalOps maps each terminal state to its journal record.
var terminalOps = map[State]string{StateDone: OpDone, StateFailed: OpFail, StateCanceled: OpCancel}

// finishLocked is the one terminal transition. Every path that ends a job
// comes through here under s.mu: execution, a cache hit at submit or
// adoption, cancel, drain, a thief's completion or the steal reclaim, an
// adopted rider, and the worker's panic fence. It stops the steal
// watchdog, releases the single-flight slot the job leads, records the
// outcome, counts it, journals it, wakes the waiters and retires the job.
// Only a job with a submit record gets a terminal record: born-done cache
// hits and adopted riders never had one, and replay would drop theirs as
// unknown IDs. A job that is already terminal only has its waiters woken,
// which lets the panic fence call this unconditionally.
func (s *Server) finishLocked(job *Job, state State, errMsg string, res *report.Report, now time.Time) {
	if !job.State.Terminal() {
		s.stopStealTimerLocked(job)
		if s.inflight[job.Hash] == job {
			delete(s.inflight, job.Hash)
		}
		job.State, job.Err, job.Result, job.FinishedAt = state, errMsg, res, now
		s.ended[state].Inc()
		if job.journaled {
			s.cfg.Journal.record(terminalOps[state], job.ID, nil, nil, errMsg) //nolint:errcheck // terminal close-out; a lost record only replays the job
		}
		s.retireLocked(job)
	}
	select {
	case <-job.done:
	default:
		close(job.done)
	}
}

// retireLocked records a terminal job and prunes the oldest ones beyond the
// retention bound. It is the single observation point for the end-to-end
// latency histogram. Callers hold s.mu.
func (s *Server) retireLocked(job *Job) {
	if e2e := job.FinishedAt.Sub(job.SubmittedAt); e2e >= 0 {
		s.jobE2E.Observe(e2e.Seconds())
	}
	s.terminal = append(s.terminal, job.ID)
	for len(s.terminal) > s.cfg.RetainJobs {
		delete(s.jobs, s.terminal[0])
		s.terminal = s.terminal[1:]
	}
}

// Metrics snapshots the operational counters.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	cacheEntries := s.cache.len()
	inflight := len(s.inflight)
	s.mu.Unlock()
	m := Metrics{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.cfg.Workers,
		BusyWorkers:   int(s.busy.Load()),
		QueueDepth:    len(s.queue),
		QueueCapacity: s.cfg.QueueDepth,

		JobsSubmitted: s.submitted.Value(),
		JobsDone:      s.ended[StateDone].Value(),
		JobsFailed:    s.ended[StateFailed].Value(),
		JobsCanceled:  s.ended[StateCanceled].Value(),
		JobsRejected:  s.rejected.Value(),
		JobsCoalesced: s.coalesced.Value(),

		JobRetries:             s.jobRetries.Value(),
		JobPanics:              s.jobPanics.Value(),
		JobsReplayed:           s.replayed.Value(),
		ResultCacheWriteErrors: s.cacheWriteErrs.Value(),
		JournalRecords:         s.cfg.Journal.Records(),

		JobsStolen:      s.jobsStolen.Value(),
		StealsCompleted: s.stealsCompleted.Value(),
		StealReclaims:   s.stealReclaims.Value(),
		JobsPeerFetched: s.peerFetched.Value(),
		JobsAdopted:     s.jobsAdopted.Value(),

		ResultCacheHits:    s.cacheHits.Value(),
		ResultCacheMisses:  s.cacheMisses.Value(),
		ResultCacheEntries: cacheEntries,

		JobsInFlight: inflight,

		ExecSecondsTotal: s.jobExec.Sum(),
		RunnerCache:      experiments.Default.CacheStats(),
		RunnerResilience: experiments.Default.ResilienceStats(),
	}
	if sum := s.jobE2E.Summary(); sum.Count > 0 {
		m.JobE2E = &sum
	}
	if sum := s.jobWait.Summary(); sum.Count > 0 {
		m.JobWait = &sum
	}
	if sum := s.jobExec.Summary(); sum.Count > 0 {
		m.JobExec = &sum
	}
	return m
}

// RetryAfterSeconds estimates when a rejected submission is worth retrying:
// the queue's expected drain time given the mean execution so far, clamped
// to [1s, 300s]. With no history it answers 1.
func (s *Server) RetryAfterSeconds() int {
	executed := s.ended[StateDone].Value() + s.ended[StateFailed].Value()
	if executed == 0 {
		return 1
	}
	mean := s.jobExec.Sum() / float64(executed)
	est := mean * float64(len(s.queue)) / float64(s.cfg.Workers)
	switch {
	case est < 1:
		return 1
	case est > 300:
		return 300
	}
	return int(est + 0.5)
}

// Shutdown drains the service: new submissions are refused, queued jobs are
// canceled, and running jobs get until ctx's deadline to finish. If the
// deadline expires the jobs' contexts are canceled (they abort at the next
// cell boundary) and Shutdown reports ctx's error; a clean drain returns
// nil. Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.logger.Info("draining", "queued", len(s.queue), "busy", s.busy.Load())
		// Cancel everything still waiting; workers skip canceled jobs.
	drain:
		for {
			select {
			case job := <-s.queue:
				if job.State == StateQueued {
					s.finishLocked(job, StateCanceled, ErrShuttingDown.Error(), nil, time.Now())
				}
			default:
				break drain
			}
		}
		close(s.queue)
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		s.logger.Info("drained")
		return nil
	case <-ctx.Done():
		s.baseCancel(fmt.Errorf("drain deadline: %w", ctx.Err()))
		<-finished
		s.logger.Warn("drain deadline expired; running jobs aborted", "err", ctx.Err())
		return ctx.Err()
	}
}

// resultCache is the content-addressed result store: canonical spec hash ->
// report, bounded FIFO. Methods are not self-locking; the Server's mutex
// guards them.
type resultCache struct {
	max     int
	entries map[string]*report.Report
	order   []string
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, entries: map[string]*report.Report{}}
}

func (c *resultCache) get(hash string) (*report.Report, bool) {
	res, ok := c.entries[hash]
	return res, ok
}

func (c *resultCache) put(hash string, res *report.Report) {
	if _, ok := c.entries[hash]; ok {
		c.entries[hash] = res
		return
	}
	c.entries[hash] = res
	c.order = append(c.order, hash)
	for len(c.order) > c.max {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
}

func (c *resultCache) len() int { return len(c.entries) }
