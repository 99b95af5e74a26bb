package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"gps/internal/report"
	"gps/internal/service"
)

// Work stealing, thief side. The placement decision follows the
// FineServe capacity-bin shape: each node is a bin with a capacity (its
// worker pool), a used share (busy workers + queued jobs), and an overload
// threshold; CanPlace answers whether this bin can absorb one more job, and
// Place reserves the slot before the work actually arrives so concurrent
// steal rounds cannot over-commit the bin.

// Bin is one node's capacity accounting for steal/placement decisions.
type Bin struct {
	Node     string
	Capacity int // worker pool size
	Busy     int // workers mid-job
	Queued   int // jobs waiting for a worker
}

// binFromMetrics snapshots a node's bin from its service metrics.
func binFromMetrics(node string, m service.Metrics) Bin {
	return Bin{Node: node, Capacity: m.Workers, Busy: m.BusyWorkers, Queued: m.QueueDepth}
}

// Load is the bin's occupancy relative to capacity; queued work counts, so
// a saturated queue reads as load > 1.
func (b Bin) Load() float64 {
	if b.Capacity <= 0 {
		return 1
	}
	return float64(b.Busy+b.Queued) / float64(b.Capacity)
}

// CanPlace reports whether this bin can absorb one more job without
// queueing it: a strictly idle worker must exist. A thief only pulls work
// it can start immediately — stealing into a queue would just move the
// wait to a different node.
func (b Bin) CanPlace() bool {
	return b.Busy+b.Queued < b.Capacity
}

// Place reserves one slot, committing the decision before the stolen job
// lands so repeated CanPlace calls in one sweep stay truthful.
func (b *Bin) Place() { b.Busy++ }

// Overloaded reports whether the bin is worth stealing from: every worker
// busy and at least one job waiting. Stealing from a merely-busy node with
// an empty queue would yield nothing.
func (b Bin) Overloaded() bool {
	return b.Capacity > 0 && b.Busy >= b.Capacity && b.Queued > 0
}

// StealOnce runs one steal round: if the local bin has idle capacity, pick
// the most overloaded live peer (by bin load from the last probe sweep)
// and try to pull one queued job from it. The stolen spec executes through
// the local service (admission, coalescing, caching all apply) and the
// result is pushed back to the victim, which still owns the job's clients.
// It reports whether a job was stolen.
func (c *Cluster) StealOnce(ctx context.Context) bool {
	if c.local == nil {
		return false
	}
	self := binFromMetrics(c.self, c.local.Metrics())
	if !self.CanPlace() {
		return false
	}

	// Victim selection: the live peer with the heaviest bin, overloaded.
	var victim *Peer
	var victimBin Bin
	for _, p := range c.Peers() {
		if !p.Alive() {
			continue
		}
		h := p.lastHealth()
		b := Bin{Node: p.ID, Capacity: h.Workers, Busy: h.BusyWorkers, Queued: h.QueueDepth}
		if !b.Overloaded() {
			continue
		}
		if victim == nil || b.Load() > victimBin.Load() {
			victim, victimBin = p, b
		}
	}
	if victim == nil {
		return false
	}
	self.Place()

	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	start := time.Now()
	code, body, err := victim.client.Do(sctx, http.MethodPost, "/v1/peer/steal?thief="+c.self, nil, nil)
	cancel()
	if err != nil {
		c.stealErrs.Inc()
		victim.alive.Store(false)
		return false
	}
	if code != http.StatusOK {
		return false // 204: victim had nothing to give by the time we asked
	}
	var stolen service.StolenJob
	if err := json.Unmarshal(body, &stolen); err != nil {
		c.stealErrs.Inc()
		c.log.Warn("steal response undecodable", "victim", victim.ID, "err", err)
		return false
	}
	c.hopSteal.Observe(time.Since(start).Seconds())
	c.stealsThief.Inc()
	c.log.Info("stole job", "victim", victim.ID, "job_id", stolen.ID, "hash", stolen.Hash)

	go c.runStolen(ctx, victim, stolen)
	return true
}

// runStolen executes a stolen spec locally and lands the outcome back on
// the victim. The local submit continues the victim job's trace (the thief
// job becomes a child span of it), so the two nodes' trace files merge into
// one timeline. Every failure mode still attempts a completion push so the
// victim can close the job out; if the push itself fails, the victim's
// steal watchdog reclaims the job.
func (c *Cluster) runStolen(ctx context.Context, victim *Peer, stolen service.StolenJob) {
	pay := func() CompletePayload {
		st, _, err := c.local.SubmitTraced(stolen.Spec, stolen.Trace)
		if err != nil {
			// Local admission refused the spec (queue full, drain): give the
			// job back rather than fail it — the victim re-queues instantly.
			return CompletePayload{Declined: true}
		}
		fst, rep, err := c.local.WaitResult(ctx, st.ID)
		switch {
		case err != nil: // thief shutting down mid-execution
			return CompletePayload{Declined: true}
		case fst.State == service.StateCanceled:
			return CompletePayload{Declined: true}
		case fst.State != service.StateDone || rep == nil:
			msg := fst.Error
			if msg == "" {
				msg = "thief execution ended " + string(fst.State)
			}
			return CompletePayload{Error: msg}
		}
		return CompletePayload{Result: rep}
	}()

	payload, err := json.Marshal(pay)
	if err != nil {
		c.stealErrs.Inc()
		return
	}
	pctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	code, _, perr := victim.client.Do(pctx, http.MethodPost,
		"/v1/peer/jobs/"+stolen.ID+"/complete", payload, traceHeader(stolen.Trace.Traceparent()))
	if perr != nil || code != http.StatusOK {
		c.stealErrs.Inc()
		c.log.Warn("steal completion push failed", "victim", victim.ID,
			"job_id", stolen.ID, "code", code, "err", perr)
	}
}

// CompletePayload is the body of POST /v1/peer/jobs/{id}/complete: the
// report on success, the error string on a deterministic failure, or
// Declined when the thief hands the job back untouched (the victim
// re-queues it immediately).
type CompletePayload struct {
	Result   *report.Report `json:"result,omitempty"`
	Error    string         `json:"error,omitempty"`
	Declined bool           `json:"declined,omitempty"`
}
