package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"gps/internal/obs"
	"gps/internal/report"
	"gps/internal/service"
)

// Journal replication and successor takeover — the self-healing half of the
// cluster layer.
//
// Every record the local journal commits is also streamed to this node's
// ring successor (the first live node clockwise from our primary ring
// position). The successor keeps a per-origin replica store: submit records
// add entries, terminal records prune them, so at any moment the store holds
// exactly the jobs the origin had accepted but not finished. When the probe
// loop declares the origin permanently dead, the successor promotes those
// entries via service.Adopt — the jobs re-run under their original IDs, and
// the ID-prefix proxy fallback routes the dead node's clients here.
//
// The stream is synchronous when the successor is healthy: a journal commit
// does not return until the successor acknowledged the record (bounded by
// replFlushTimeout). On failure the stream degrades to a buffered outbox
// drained by the probe-interval flusher, and because a failed flush leaves
// the successor's view uncertain, the next successful flush is always a
// full-state snapshot (Reset batch built from service.PendingJobs). Snapshot
// batches replace the origin's replica state wholesale, which also scrubs
// any stale entries a lost terminal record left behind.
//
// Resurrection is handled by the same machinery in reverse: a node coming
// back up replays its journal, and for every pending job asks its successor
// (via service.Config.Reconcile) whether that job was adopted. If so, the
// job is registered locally as delegated — the stolen-job state machine,
// with the successor as thief — and a watcher goroutine lands the
// successor's outcome (or reclaims the job if the successor dies too).
// Exactly one execution wins; clients polling either node see it.

const (
	// replOutboxCap bounds the buffered outbox while the successor is
	// unreachable; overflowing collapses the backlog into a snapshot resync,
	// which is smaller (live jobs only) and idempotent.
	replOutboxCap = 4096
	// replFlushTimeout bounds one replication POST. Submits on this node
	// stall at most this long when the successor is slow; once suspicion
	// marks it dead the stream stops blocking entirely.
	replFlushTimeout = 3 * time.Second
	// delegationPollInterval spaces status polls for a job a resurrected
	// node delegated to its takeover successor.
	delegationPollInterval = 500 * time.Millisecond
	// delegationMaxMisses is how many consecutive failed polls the watcher
	// tolerates before reclaiming the delegated job to run locally.
	delegationMaxMisses = 6
)

// ReplRecord is one replicated journal record.
type ReplRecord struct {
	Op    string         `json:"op"`
	ID    string         `json:"id"`
	Spec  *service.Spec  `json:"spec,omitempty"`  // on submit
	Trace *obs.TraceInfo `json:"trace,omitempty"` // on submit: distributed trace identity
}

// ReplBatch is the wire payload of POST /v1/peer/journal: one origin's
// records, optionally replacing everything previously replicated from it.
type ReplBatch struct {
	Origin  string       `json:"origin"`
	Reset   bool         `json:"reset,omitempty"` // full snapshot: drop prior state for Origin first
	Records []ReplRecord `json:"records"`
}

// replicaJob is one not-yet-terminal job replicated from a peer.
type replicaJob struct {
	ID      string
	Spec    service.Spec
	Trace   obs.TraceInfo // original trace identity, carried into adoption
	Started bool
}

// replicaStore holds, per origin node, the jobs that origin had accepted
// but not finished as of its last replicated record.
type replicaStore struct {
	mu      sync.Mutex
	origins map[string]map[string]*replicaJob
	order   map[string][]string // per-origin submit order
}

func newReplicaStore() *replicaStore {
	return &replicaStore{
		origins: map[string]map[string]*replicaJob{},
		order:   map[string][]string{},
	}
}

// apply folds one batch into the store and reports how many records changed
// state (duplicates and records for unknown IDs don't count).
func (st *replicaStore) apply(b ReplBatch) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if b.Reset {
		st.origins[b.Origin] = map[string]*replicaJob{}
		st.order[b.Origin] = nil
	}
	jobs := st.origins[b.Origin]
	if jobs == nil {
		jobs = map[string]*replicaJob{}
		st.origins[b.Origin] = jobs
	}
	applied := 0
	for _, r := range b.Records {
		switch r.Op {
		case service.OpSubmit:
			if r.ID == "" || r.Spec == nil {
				continue
			}
			if _, ok := jobs[r.ID]; ok {
				continue
			}
			rj := &replicaJob{ID: r.ID, Spec: *r.Spec}
			if r.Trace != nil {
				rj.Trace = *r.Trace
			}
			jobs[r.ID] = rj
			st.order[b.Origin] = append(st.order[b.Origin], r.ID)
			applied++
		case service.OpStart:
			if j, ok := jobs[r.ID]; ok && !j.Started {
				j.Started = true
				applied++
			}
		case service.OpDone, service.OpFail, service.OpCancel:
			if _, ok := jobs[r.ID]; ok {
				delete(jobs, r.ID)
				applied++
			}
		}
	}
	return applied
}

// snapshot returns origin's live replica jobs in submit order.
func (st *replicaStore) snapshot(origin string) []replicaJob {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []replicaJob
	for _, id := range st.order[origin] {
		if j, ok := st.origins[origin][id]; ok {
			out = append(out, *j)
		}
	}
	return out
}

// remove drops one replica entry (after a successful adoption).
func (st *replicaStore) remove(origin, id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.origins[origin], id)
}

// jobs counts live replica entries across all origins.
func (st *replicaStore) jobs() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, m := range st.origins {
		n += len(m)
	}
	return n
}

// JournalRecord implements service.JournalSink: it is the replication
// stream's entry point, called by the journal after every local fsync. The
// record is appended to the outbox and flushed inline to the current live
// successor; the calling job submit (or terminal transition) therefore
// waits for the successor's acknowledgement while the successor is healthy,
// and proceeds immediately — record buffered — once it is not.
// The caller of JournalRecord holds the service mutex (journal commits
// happen under it), so this path must never call back into the service —
// in particular it must not build a PendingJobs snapshot. When a snapshot
// is owed, records are deliberately dropped here: the job's state is
// already registered in the service before its record commits, so the
// snapshot the background flusher captures later covers it.
func (c *Cluster) JournalRecord(op, id string, spec *service.Spec, trace *obs.TraceInfo, errStr string) {
	_ = errStr // the replica store only needs op+id+spec+trace; errors stay local
	if !c.replEnabled.Load() || c.ring.Len() <= 1 {
		return // stream off, or single-node cluster: nowhere to replicate
	}
	c.replMu.Lock()
	defer c.replMu.Unlock()
	c.replGen++
	if len(c.outbox) >= replOutboxCap {
		// A backlog this deep means the successor has been gone a while;
		// collapse to a snapshot resync, which carries only live jobs.
		c.outbox = nil
		c.needSnapshot = true
	}
	if c.needSnapshot {
		return // the pending snapshot supersedes this record
	}
	c.outbox = append(c.outbox, ReplRecord{Op: op, ID: id, Spec: spec, Trace: trace})
	c.flushReplicationLocked(context.Background(), nil)
}

// EnableReplication turns the outbound journal stream on. gpsd calls it
// when a journal is configured: without one there are no records to stream,
// and a one-shot snapshot would only go stale at the successor (terminal
// transitions would never prune it), so the stream stays off entirely —
// this node still ingests peers' streams and runs takeovers for them.
func (c *Cluster) EnableReplication() {
	c.replEnabled.Store(true)
}

// FlushReplication drains the outbox (or pushes a pending snapshot) to the
// current successor. The probe-interval flusher calls it so records buffered
// during a successor outage — and records dropped while a snapshot was owed
// — go out as soon as a successor is live again. The snapshot is captured
// from the service OUTSIDE replMu (the sink path holds the service mutex
// while waiting on replMu, so the reverse order would deadlock); the
// generation counter detects records that committed during the capture, in
// which case the possibly-stale snapshot is discarded and retried.
func (c *Cluster) FlushReplication(ctx context.Context) {
	if !c.replEnabled.Load() {
		return
	}
	for attempt := 0; attempt < 3; attempt++ {
		c.replMu.Lock()
		needSnap, gen := c.needSnapshot, c.replGen
		c.replMu.Unlock()
		var snap []service.PendingJob
		if needSnap {
			if c.local == nil {
				return // nothing to snapshot until Bind
			}
			snap = c.local.PendingJobs()
			if snap == nil {
				// An idle node owes an EMPTY snapshot: non-nil so the flush
				// recognizes it as in-hand and sends the clearing Reset.
				snap = []service.PendingJob{}
			}
		}
		c.replMu.Lock()
		if c.replGen != gen {
			// A record committed while the snapshot was being captured; it
			// might postdate the capture. Retry with a fresh one.
			c.replMu.Unlock()
			continue
		}
		c.flushReplicationLocked(ctx, snap)
		c.replMu.Unlock()
		return
	}
	// Heavy churn: give up this round, the next tick retries.
}

// flushReplicationLocked does one replication round under replMu. Holding
// the lock across the POST serializes the stream: records arrive at the
// successor in journal-commit order. snap is the pre-captured PendingJobs
// snapshot (nil when the caller cannot provide one — the inline sink path);
// a snapshot-owing flush without one simply waits for the background
// flusher.
func (c *Cluster) flushReplicationLocked(ctx context.Context, snap []service.PendingJob) {
	target := c.ring.Successor(c.self, c.live)
	if target == "" {
		return // no live successor; the backlog waits for one
	}
	if target != c.lastReplTarget {
		// New successor (first flush, or liveness moved it): it holds none
		// of our state, so start from a full snapshot.
		c.needSnapshot = true
	}
	batch := ReplBatch{Origin: c.self}
	if c.needSnapshot {
		if snap == nil {
			return // snapshot owed but not in hand: background flusher's turn
		}
		batch.Reset = true
		for _, p := range snap {
			spec := p.Spec
			rec := ReplRecord{Op: service.OpSubmit, ID: p.ID, Spec: &spec}
			if p.Trace.TraceID != "" {
				tr := p.Trace
				rec.Trace = &tr
			}
			batch.Records = append(batch.Records, rec)
			if p.Started {
				batch.Records = append(batch.Records, ReplRecord{Op: service.OpStart, ID: p.ID})
			}
		}
	} else {
		if len(c.outbox) == 0 {
			return
		}
		batch.Records = c.outbox
	}
	p, ok := c.Peer(target)
	if !ok {
		return
	}
	body, err := json.Marshal(batch)
	if err != nil {
		c.log.Warn("replication: batch marshal failed", "err", err)
		return
	}
	pctx, cancel := context.WithTimeout(ctx, replFlushTimeout)
	code, resp, err := p.client.Do(pctx, http.MethodPost, "/v1/peer/journal", body, nil)
	cancel()
	if err != nil || code != http.StatusOK {
		c.replErrs.Inc()
		// The successor's view is now uncertain (the batch may or may not
		// have landed); resync with a snapshot once a successor is live.
		c.needSnapshot = true
		c.outbox = nil
		if err != nil {
			c.suspect(p, err)
			c.log.Warn("replication: successor unreachable", "successor", target, "err", err)
		} else {
			c.log.Warn("replication: successor refused batch", "successor", target, "code", code, "body", string(resp))
		}
		return
	}
	c.replSent.Add(uint64(len(batch.Records)))
	c.lastReplTarget = target
	c.needSnapshot = false
	c.outbox = nil
}

// replicationLag reports how many committed records have not been
// acknowledged by a successor (a pending snapshot counts as the number of
// live jobs it would carry, via the outbox having been collapsed).
func (c *Cluster) replicationLag() uint64 {
	c.replMu.Lock()
	defer c.replMu.Unlock()
	n := uint64(len(c.outbox))
	if c.needSnapshot && c.lastReplTarget != "" {
		n++ // at least the snapshot itself is owed
	}
	return n
}

// ApplyReplicaBatch ingests one origin's replicated records — the handler
// side of POST /v1/peer/journal.
func (c *Cluster) ApplyReplicaBatch(b ReplBatch) error {
	if b.Origin == "" {
		return fmt.Errorf("cluster: replica batch without origin")
	}
	if b.Origin == c.self {
		return nil // echo of our own stream (stale successor view); drop
	}
	if _, ok := c.Peer(b.Origin); !ok {
		return fmt.Errorf("cluster: replica batch from unknown origin %q", b.Origin)
	}
	n := c.replicas.apply(b)
	c.replIngested.Add(uint64(n))
	return nil
}

// checkTakeovers promotes replicated jobs of every dead peer whose ring
// successor — computed over the current liveness set, so every survivor
// agrees — is this node. Adoption is idempotent (service.Adopt refuses IDs
// it already knows), so re-running the sweep every probe interval is safe;
// entries only leave the replica store once Adopt accepted them.
func (c *Cluster) checkTakeovers() {
	if c.local == nil {
		return
	}
	for _, p := range c.Peers() {
		if p.Alive() {
			continue
		}
		jobs := c.replicas.snapshot(p.ID)
		if len(jobs) == 0 {
			continue
		}
		if c.ring.Successor(p.ID, c.live) != c.self {
			continue
		}
		adopted := 0
		for _, rj := range jobs {
			start := time.Now()
			out, err := c.local.Adopt(p.ID, rj.ID, rj.Spec, rj.Trace)
			if err != nil {
				c.log.Warn("takeover: adopt failed", "origin", p.ID, "job_id", rj.ID, "err", err)
				continue // entry stays; retried next sweep
			}
			c.hopAdopt.Observe(time.Since(start).Seconds())
			c.replicas.remove(p.ID, rj.ID)
			if out != service.AdoptExists {
				adopted++
				c.takeoverJobs.Inc()
			}
		}
		if adopted > 0 {
			c.takeovers.Inc()
			c.log.Warn("takeover: promoted dead peer's replicated jobs",
				"origin", p.ID, "jobs", adopted, "outcomes", "queued/cached/coalesced")
		}
	}
}

// delegation is one journal-replayed job a resurrected node left with its
// takeover successor instead of re-running.
type delegation struct {
	id   string
	peer string
}

// Reconcile implements service.Config.Reconcile — the resurrection
// handshake. Called during journal replay for every pending job: if this
// node's ring successor already knows the job (it ran a takeover while we
// were dead), the job is delegated to it instead of re-executed here, and a
// watcher goroutine mirrors the successor's outcome onto the local job.
// Returns the successor's node ID to delegate, or "" to replay normally.
func (c *Cluster) Reconcile(p service.PendingJob) string {
	succ := c.ring.Successor(c.self, c.live)
	if succ == "" {
		return ""
	}
	peer, ok := c.Peer(succ)
	if !ok {
		return ""
	}
	ctx, cancel := context.WithTimeout(context.Background(), replFlushTimeout)
	code, body, err := peer.client.Do(ctx, http.MethodGet, "/v1/jobs/"+p.ID, nil, nil)
	cancel()
	if err != nil || code != http.StatusOK {
		return "" // successor never heard of it: normal local replay
	}
	var st service.Status
	if jerr := json.Unmarshal(body, &st); jerr != nil {
		return ""
	}
	c.addDelegation(delegation{id: p.ID, peer: succ})
	c.log.Info("replayed job delegated to takeover successor",
		"job_id", p.ID, "successor", succ, "successor_state", string(st.State))
	return succ
}

// addDelegation starts a watcher for one delegated job, or parks it until
// Start provides the cluster's run context.
func (c *Cluster) addDelegation(d delegation) {
	c.replMu.Lock()
	ctx := c.runCtx
	if ctx == nil {
		c.delegated = append(c.delegated, d)
		c.replMu.Unlock()
		return
	}
	c.replMu.Unlock()
	go c.watchDelegation(ctx, d)
}

// watchDelegation polls the successor executing a delegated job and lands
// its terminal outcome on the local job (which is registered in the
// stolen-job state: the successor is the thief). If the successor becomes
// unreachable, the job is reclaimed and re-queued locally — the steal
// machinery drops whichever completion loses the race.
func (c *Cluster) watchDelegation(ctx context.Context, d delegation) {
	p, ok := c.Peer(d.peer)
	if !ok {
		c.local.DeclineStolen(d.id) //nolint:errcheck // reclaim is best-effort
		return
	}
	t := time.NewTicker(delegationPollInterval)
	defer t.Stop()
	misses := 0
	reclaim := func(why string) {
		c.log.Warn("delegation: reclaiming job to run locally", "job_id", d.id, "successor", d.peer, "reason", why)
		c.local.DeclineStolen(d.id) //nolint:errcheck // job may have finished meanwhile
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		pctx, cancel := context.WithTimeout(ctx, replFlushTimeout)
		code, body, err := p.client.Do(pctx, http.MethodGet, "/v1/jobs/"+d.id, nil, nil)
		cancel()
		if err != nil || code != http.StatusOK {
			misses++
			if misses >= delegationMaxMisses {
				reclaim("successor unreachable")
				return
			}
			continue
		}
		misses = 0
		var st service.Status
		if jerr := json.Unmarshal(body, &st); jerr != nil {
			continue
		}
		switch st.State {
		case service.StateDone:
			rep := c.fetchResultFrom(ctx, p, st.Hash)
			if rep == nil {
				misses++
				if misses >= delegationMaxMisses {
					reclaim("result fetch failed")
					return
				}
				continue
			}
			c.local.CompleteStolen(d.id, rep, "") //nolint:errcheck // dropped if reclaimed/canceled meanwhile
			c.log.Info("delegated job completed by successor", "job_id", d.id, "successor", d.peer)
			return
		case service.StateFailed:
			c.local.CompleteStolen(d.id, nil, st.Error) //nolint:errcheck // dropped if reclaimed/canceled meanwhile
			return
		case service.StateCanceled:
			c.local.Cancel(d.id) //nolint:errcheck // mirrors the successor's cancel
			return
		}
	}
}

// fetchResultFrom pulls one completed spec's report from a specific peer's
// content-addressed cache (unlike FetchPeerResult, which asks everyone).
func (c *Cluster) fetchResultFrom(ctx context.Context, p *Peer, hash string) *report.Report {
	pctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	code, body, err := p.client.Do(pctx, http.MethodGet, "/v1/peer/results/"+hash, nil, nil)
	if err != nil || code != http.StatusOK {
		return nil
	}
	var rep report.Report
	if jerr := json.Unmarshal(body, &rep); jerr != nil {
		c.log.Warn("peer result undecodable", "peer", p.ID, "hash", hash, "err", jerr)
		return nil
	}
	return &rep
}
