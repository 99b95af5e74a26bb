package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gps/internal/client"
	"gps/internal/obs"
	"gps/internal/report"
	"gps/internal/service"
)

// ForwardHeader marks a request that already crossed one node boundary.
// Handlers seeing it always act locally — never forward or proxy again —
// so a stale ring view or a routing bug degrades to local handling instead
// of a forwarding loop.
const ForwardHeader = "X-GPS-Forwarded-From"

// Peer is one remote gpsd node: its static identity and address, the
// client used to reach it, and the liveness state maintained by the probe
// loop. Peers start dead and are marked alive by their first successful
// healthz probe.
type Peer struct {
	ID  string
	URL string

	client *client.Client
	alive  atomic.Bool
	fails  atomic.Int32 // consecutive failed probes / transport errors

	mu     sync.Mutex
	health client.Health // last successful healthz body, for steal decisions
}

// Alive reports the current liveness verdict. A peer flips to dead only
// after SuspicionThreshold consecutive failures, and back to alive on a
// single successful probe.
func (p *Peer) Alive() bool { return p.alive.Load() }

// Fails reports the consecutive-failure count feeding the suspicion
// threshold; zero for a healthy peer.
func (p *Peer) Fails() int { return int(p.fails.Load()) }

// Client returns the typed client for this peer.
func (p *Peer) Client() *client.Client { return p.client }

func (p *Peer) lastHealth() client.Health {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.health
}

// Local is the slice of the local service the cluster layer drives: submit
// and ride stolen work, answer peer result fetches, hand out queued jobs to
// thieves, and — for self-healing — adopt a dead peer's replicated jobs,
// snapshot pending work for replication resync, and land or reclaim
// delegated outcomes. *service.Server implements it.
type Local interface {
	SubmitTraced(spec service.Spec, parent obs.TraceContext) (service.Status, service.Outcome, error)
	WaitResult(ctx context.Context, id string) (service.Status, *report.Report, error)
	Metrics() service.Metrics
	JobsStolen() uint64
	ResultByHash(hash string) (*report.Report, bool)
	Steal(thief string) (service.StolenJob, bool)
	CompleteStolen(id string, res *report.Report, errMsg string) error
	DeclineStolen(id string) error
	Cancel(id string) (service.Status, error)
	Adopt(origin, id string, spec service.Spec, trace obs.TraceInfo) (service.AdoptOutcome, error)
	PendingJobs() []service.PendingJob
}

// Config sizes a Cluster.
type Config struct {
	// Self is this node's ID; it is always a ring member and always "live".
	Self string
	// Vnodes per node on the hash ring (default DefaultVnodes).
	Vnodes int
	// ProbeInterval spaces healthz liveness probes (default 2s).
	ProbeInterval time.Duration
	// StealInterval spaces work-steal attempts when this node has idle
	// capacity (default 1s; 0 keeps the default, negative disables the
	// steal loop).
	StealInterval time.Duration
	// SuspicionThreshold is how many consecutive probe (or transport)
	// failures a peer accumulates before it is declared dead (default 3).
	// One dropped probe therefore never flaps routing or triggers takeover.
	SuspicionThreshold int
	// Logger receives cluster lifecycle records; nil discards them.
	Logger Logger
	// Registry, when non-nil, exposes the cluster counters as Prometheus
	// series (forwards, proxied reads, peer fetches, steals, peer liveness).
	// A registry serves one Cluster: New panics on a registry another
	// Cluster already fills, since the two would share counters.
	Registry *obs.Registry
}

// Logger is the subset of slog the cluster layer needs (avoids forcing a
// logger dependency on tests).
type Logger interface {
	Info(msg string, args ...any)
	Warn(msg string, args ...any)
}

type nopLogger struct{}

func (nopLogger) Info(string, ...any) {}
func (nopLogger) Warn(string, ...any) {}

// Cluster is one node's view of the sharded service: the ring, the peer
// table, and the counters. The ring and peer set are fixed at startup
// (static peer config); only liveness changes at runtime.
type Cluster struct {
	cfg   Config
	self  string
	ring  *Ring
	local Local
	log   Logger

	mu    sync.RWMutex
	peers map[string]*Peer
	order []string // peer IDs in AddPeer order, for stable iteration

	// Registry-owned counters: /metrics and Stats read one instrument.
	forwards, forwardErrs, proxiedReads, peerFetches *obs.Counter
	stealsThief, stealErrs                           *obs.Counter

	// Per-hop latency histograms: how long one cross-node leg of a job's
	// journey takes (forward POST, steal round trip, takeover adoption).
	hopForward, hopSteal, hopAdopt *obs.Histogram

	// Replication stream state (this node as origin), guarded by replMu.
	// replMu is held across the flush POST so records reach the successor
	// in journal-commit order.
	replMu         sync.Mutex
	outbox         []ReplRecord
	needSnapshot   bool
	replGen        uint64 // bumped per sink record; detects stale snapshots
	lastReplTarget string
	runCtx         context.Context // set by Start; delegation watchers run under it
	delegated      []delegation    // parked until Start provides runCtx

	// Replica state (this node as successor) and self-healing counters.
	replEnabled                      atomic.Bool
	replicas                         *replicaStore
	replSent, replErrs, replIngested *obs.Counter
	takeovers, takeoverJobs          *obs.Counter
}

// New builds a single-member cluster around Self; AddPeer grows it. Bind
// attaches the local service before Start.
func New(cfg Config) *Cluster {
	if cfg.Registry.Has("gpsd_cluster_forwards_total") {
		panic("cluster: registry already serves another Cluster; its counters would be shared")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.StealInterval == 0 {
		cfg.StealInterval = time.Second
	}
	if cfg.SuspicionThreshold <= 0 {
		cfg.SuspicionThreshold = 3
	}
	if cfg.Logger == nil {
		cfg.Logger = nopLogger{}
	}
	c := &Cluster{
		cfg:   cfg,
		self:  cfg.Self,
		ring:  NewRing(cfg.Vnodes),
		log:   cfg.Logger,
		peers: map[string]*Peer{},
		// The first successful flush is always a snapshot: it clears any
		// stale replica state a previous incarnation of this node left at
		// the successor, and covers journal records replayed before the
		// sink was attached.
		needSnapshot: true,
		replicas:     newReplicaStore(),
	}
	c.ring.Add(cfg.Self)
	// A nil registry hands out working, unregistered instruments, so the
	// counters and hop timers are always usable.
	reg := cfg.Registry
	const hopHelp = "Latency of one cross-node hop in a job's lifecycle."
	c.hopForward = reg.Histogram("gpsd_cluster_hop_seconds", hopHelp, nil, "hop", "forward")
	c.hopSteal = reg.Histogram("gpsd_cluster_hop_seconds", hopHelp, nil, "hop", "steal")
	c.hopAdopt = reg.Histogram("gpsd_cluster_hop_seconds", hopHelp, nil, "hop", "adopt")
	c.forwards = reg.Counter("gpsd_cluster_forwards_total", "Submits forwarded to their owner node.")
	c.forwardErrs = reg.Counter("gpsd_cluster_forward_errors_total", "Forwarded submits that failed in transit.")
	c.proxiedReads = reg.Counter("gpsd_cluster_proxied_reads_total", "Status/result/cancel requests proxied to the owning node.")
	c.peerFetches = reg.Counter("gpsd_cluster_peer_fetches_total", "Results fetched from a peer's content-addressed cache.")
	c.stealsThief = reg.Counter("gpsd_cluster_steals_total", stealsHelp, "role", "thief")
	c.stealErrs = reg.Counter("gpsd_cluster_steal_errors_total", "Steal attempts that failed in transit or on the thief.")
	c.replSent = reg.Counter("gpsd_cluster_journal_replicated_total", "Journal records acknowledged by a ring successor.")
	c.replErrs = reg.Counter("gpsd_cluster_replication_errors_total", "Replication flushes that failed in transit or were refused.")
	c.replIngested = reg.Counter("gpsd_cluster_journal_ingested_total", "Replicated journal records accepted from peers.")
	c.takeovers = reg.Counter("gpsd_cluster_takeovers_total", "Takeover sweeps that promoted a dead peer's jobs.")
	c.takeoverJobs = reg.Counter("gpsd_cluster_takeover_jobs_total", "Jobs promoted from dead peers' replicated journals.")
	c.registerMetrics(reg)
	return c
}

// Self returns this node's ID.
func (c *Cluster) Self() string { return c.self }

// AddPeer registers a remote node and adds it to the ring. The peer's
// client carries the forwarding-loop guard header on every request it
// sends. Adding self or a duplicate ID is a no-op.
func (c *Cluster) AddPeer(id, url string) {
	if id == c.self {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.peers[id]; ok {
		return
	}
	p := &Peer{
		ID:  id,
		URL: url,
		client: client.New(url,
			client.WithHeader(ForwardHeader, c.self),
			client.WithHTTPClient(&http.Client{Timeout: 2 * time.Minute})),
	}
	c.peers[id] = p
	c.order = append(c.order, id)
	c.ring.Add(id)
}

// Bind attaches the local service the steal loop and peer endpoints drive.
func (c *Cluster) Bind(local Local) { c.local = local }

// Peer looks up a peer by node ID.
func (c *Cluster) Peer(id string) (*Peer, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p, ok := c.peers[id]
	return p, ok
}

// Peers returns the remote nodes in registration order.
func (c *Cluster) Peers() []*Peer {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Peer, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.peers[id])
	}
	return out
}

// PeersHealth summarizes peer liveness for /v1/healthz.
func (c *Cluster) PeersHealth() (list []client.PeerHealth, alive int) {
	for _, p := range c.Peers() {
		ph := client.PeerHealth{ID: p.ID, URL: p.URL, Alive: p.Alive(), Fails: p.Fails()}
		ph.Suspect = ph.Alive && ph.Fails > 0
		if ph.Alive {
			alive++
		}
		list = append(list, ph)
	}
	return list, alive
}

// RingSample routes n synthetic keys through Owner, showing how ownership
// is spread across live nodes right now (gpsctl cluster renders it).
func (c *Cluster) RingSample(n int) []client.RingOwner {
	out := make([]client.RingOwner, 0, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("ring-sample-%02d", i)
		out = append(out, client.RingOwner{Key: key, Owner: c.Owner(key)})
	}
	return out
}

// live reports whether a node is usable as an owner right now: self always
// is; peers must have a passing probe.
func (c *Cluster) live(node string) bool {
	if node == c.self {
		return true
	}
	p, ok := c.Peer(node)
	return ok && p.Alive()
}

// Owner routes a canonical spec hash. The raw (liveness-blind) ring owner
// is used when live; a dead owner's keys all route to its single ring
// successor — the same node that holds its replicated journal and runs the
// takeover — so re-routed re-submits and adopted jobs meet on one node and
// the local single-flight table deduplicates them. Every node that agrees
// on the liveness set routes identically.
func (c *Cluster) Owner(hash string) string {
	owner := c.ring.Owner(hash)
	if owner == "" {
		return c.self
	}
	if c.live(owner) {
		return owner
	}
	if succ := c.ring.Successor(owner, c.live); succ != "" {
		return succ
	}
	return c.self // every peer down: serve locally rather than refuse
}

// SuccessorSelf reports this node's current replication target: its ring
// successor among live nodes ("" when no peer is live).
func (c *Cluster) SuccessorSelf() string {
	return c.ring.Successor(c.self, c.live)
}

// TakeoverTarget reports which live node promotes origin's jobs if origin
// is dead — the node the ID-prefix proxy path falls back to.
func (c *Cluster) TakeoverTarget(origin string) string {
	return c.ring.Successor(origin, c.live)
}

// Stats snapshots the cluster counters for /v1/healthz.
func (c *Cluster) Stats() client.ClusterStats {
	return client.ClusterStats{
		Forwards:      c.forwards.Value(),
		ForwardErrors: c.forwardErrs.Value(),
		ProxiedReads:  c.proxiedReads.Value(),
		PeerFetches:   c.peerFetches.Value(),
		StealsThief:   c.stealsThief.Value(),
		StealsVictim:  c.victimSteals(),
		StealErrors:   c.stealErrs.Value(),

		ReplicationTarget:  c.SuccessorSelf(),
		ReplicatedRecords:  c.replSent.Value(),
		ReplicationErrors:  c.replErrs.Value(),
		ReplicationLag:     c.replicationLag(),
		ReplicaJobsHeld:    uint64(c.replicas.jobs()),
		ReplicatedIngested: c.replIngested.Value(),
		Takeovers:          c.takeovers.Value(),
		TakeoverJobs:       c.takeoverJobs.Value(),
	}
}

// victimSteals reads the local service's steal count: the victim side of a
// steal is the service handing a queued job out.
func (c *Cluster) victimSteals() uint64 {
	if c.local == nil {
		return 0
	}
	return c.local.JobsStolen()
}

const stealsHelp = "Work-steal outcomes by role."

// registerMetrics exports the state sampled at scrape time: the victim
// steal count the local service keeps, peer liveness, and replication
// progress. A nil registry registers nothing.
func (c *Cluster) registerMetrics(reg *obs.Registry) {
	reg.CounterFunc("gpsd_cluster_steals_total", stealsHelp,
		func() float64 { return float64(c.victimSteals()) }, "role", "victim")
	reg.GaugeFunc("gpsd_cluster_peers_alive", "Peers whose last healthz probe passed.",
		func() float64 { _, alive := c.PeersHealth(); return float64(alive) })
	reg.GaugeFunc("gpsd_cluster_peers_total", "Configured remote peers.",
		func() float64 { return float64(len(c.Peers())) })
	reg.GaugeFunc("gpsd_cluster_replication_lag_records", "Committed journal records not yet acknowledged by a successor.",
		func() float64 { return float64(c.replicationLag()) })
	reg.GaugeFunc("gpsd_cluster_replica_jobs", "Peers' live jobs currently replicated onto this node.",
		func() float64 { return float64(c.replicas.jobs()) })
}

// probeOne sends one healthz probe to one peer and folds the outcome into
// the suspicion state. A draining peer counts as dead for routing (it
// refuses new submissions) even though its healthz body still parses. A
// single success resets the failure streak; declaring death takes
// SuspicionThreshold consecutive failures.
func (c *Cluster) probeOne(ctx context.Context, p *Peer) {
	pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	h, err := p.client.Healthz(pctx)
	cancel()
	if err == nil && h.Status == "ok" {
		p.fails.Store(0)
		if !p.alive.Swap(true) {
			c.log.Info("peer up", "peer", p.ID, "url", p.URL)
		}
		p.mu.Lock()
		p.health = h
		p.mu.Unlock()
		return
	}
	if err == nil {
		err = fmt.Errorf("peer draining (status %q)", h.Status)
	}
	c.markFailure(p, err, false)
}

// suspect records a transport-level failure (forward, proxy, or replication
// flush) against a peer. One error never flaps routing; consecutive errors
// reach the same threshold as failed probes, so a genuinely dead owner
// stops attracting traffic before the next probe sweep confirms it.
func (c *Cluster) suspect(p *Peer, err error) {
	// The takeover sweep runs async here because suspect can fire while
	// replMu is held (a failed replication flush); checkTakeovers adopts
	// jobs, which journals, which re-enters the replication stream.
	c.markFailure(p, err, true)
}

// markFailure bumps a peer's failure streak and declares it dead at the
// suspicion threshold, triggering the takeover sweep for its replicas.
func (c *Cluster) markFailure(p *Peer, err error, asyncTakeover bool) {
	n := p.fails.Add(1)
	if int(n) < c.cfg.SuspicionThreshold {
		if p.Alive() {
			c.log.Warn("peer suspect", "peer", p.ID, "fails", n,
				"threshold", c.cfg.SuspicionThreshold, "err", err)
		}
		return
	}
	if p.alive.Swap(false) {
		c.log.Warn("peer down", "peer", p.ID, "url", p.URL, "fails", n, "err", err)
		if asyncTakeover {
			go c.checkTakeovers()
		} else {
			c.checkTakeovers()
		}
	}
}

// ProbeOnce runs one synchronous liveness sweep over every peer, then a
// takeover sweep. Tests and startup use it; steady-state probing runs on
// the per-peer jittered loops Start launches.
func (c *Cluster) ProbeOnce(ctx context.Context) {
	for _, p := range c.Peers() {
		c.probeOne(ctx, p)
	}
	c.checkTakeovers()
}

// probeSchedule derives a deterministic per-peer probe schedule: the first
// probe is offset into the interval and the period is skewed ±10%, both
// from the (self, peer) pair's ring hash, so N nodes probing each other
// never sweep in lockstep and a transient network hiccup doesn't fail every
// pair's probe in the same instant.
func probeSchedule(self, peer string, interval time.Duration) (offset, period time.Duration) {
	h := ringHash(self + "->" + peer)
	period = interval
	if interval >= 100*time.Millisecond {
		span := uint64(interval / 5) // ±10% of the interval
		period = interval - interval/10 + time.Duration(h%span)
		offset = time.Duration((h >> 32) % uint64(interval))
	}
	return offset, period
}

// Start runs the liveness, replication, and steal loops until ctx is
// canceled. The first probe sweep runs synchronously so routing has a
// liveness view before the daemon accepts traffic; after that each peer is
// probed on its own jittered schedule.
func (c *Cluster) Start(ctx context.Context) {
	c.ProbeOnce(ctx)

	// Adopt the run context and release any delegation watchers that were
	// registered during journal replay, before the loops existed.
	c.replMu.Lock()
	c.runCtx = ctx
	parked := c.delegated
	c.delegated = nil
	c.replMu.Unlock()
	for _, d := range parked {
		go c.watchDelegation(ctx, d)
	}

	for _, p := range c.Peers() {
		p := p
		go func() {
			offset, period := probeSchedule(c.self, p.ID, c.cfg.ProbeInterval)
			t := time.NewTimer(offset)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
				}
				c.probeOne(ctx, p)
				c.checkTakeovers()
				t.Reset(period)
			}
		}()
	}

	// Replication flusher: drains records buffered while no successor was
	// reachable, and pushes the initial snapshot once a successor is live.
	go func() {
		t := time.NewTicker(c.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				c.FlushReplication(ctx)
			}
		}
	}()

	if c.cfg.StealInterval > 0 && c.local != nil {
		go func() {
			t := time.NewTicker(c.cfg.StealInterval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					c.StealOnce(ctx)
				}
			}
		}()
	}
}

// traceHeader builds the header set carrying a traceparent value between
// nodes; nil when there is no trace to propagate.
func traceHeader(traceparent string) http.Header {
	if traceparent == "" {
		return nil
	}
	return http.Header{obs.TraceparentHeader: {traceparent}}
}

// ForwardSubmit relays a raw submit body to the owner node and returns its
// response verbatim (status code and body bytes), so the client sees
// exactly what the owner answered. traceparent (when non-empty) rides along
// so the owner mints the job under the submitting client's trace. The
// transport error (owner unreachable) is returned for the caller to fall
// back on.
func (c *Cluster) ForwardSubmit(ctx context.Context, owner string, body []byte, traceparent string) (int, []byte, error) {
	p, ok := c.Peer(owner)
	if !ok {
		return 0, nil, &client.APIError{StatusCode: http.StatusBadGateway, Message: "unknown owner node " + owner}
	}
	start := time.Now()
	code, resp, err := p.client.Do(ctx, http.MethodPost, "/v1/jobs", body, traceHeader(traceparent))
	if err != nil {
		c.forwardErrs.Inc()
		c.suspect(p, err) // one error raises suspicion, not a routing flap
		return 0, nil, err
	}
	c.hopForward.Observe(time.Since(start).Seconds())
	c.forwards.Inc()
	return code, resp, nil
}

// ProxyJob relays a status/result/cancel request to the node owning the
// job ID and returns its response verbatim. An incoming traceparent is
// propagated so the serving node can associate the read with the trace.
func (c *Cluster) ProxyJob(ctx context.Context, node, method, path, traceparent string) (int, []byte, error) {
	p, ok := c.Peer(node)
	if !ok {
		return 0, nil, &client.APIError{StatusCode: http.StatusBadGateway, Message: "unknown node " + node}
	}
	code, resp, err := p.client.Do(ctx, method, path, nil, traceHeader(traceparent))
	if err != nil {
		c.suspect(p, err)
		return 0, nil, err
	}
	c.proxiedReads.Inc()
	return code, resp, nil
}

// FetchPeerResult asks every live peer's content-addressed cache for a
// canonical spec hash, returning the first hit. It backs
// service.Config.RemoteResult, so it runs at most once per job execution.
func (c *Cluster) FetchPeerResult(ctx context.Context, hash string) *report.Report {
	for _, p := range c.Peers() {
		if !p.Alive() {
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		code, body, err := p.client.Do(pctx, http.MethodGet, "/v1/peer/results/"+hash, nil, nil)
		cancel()
		if err != nil || code != http.StatusOK {
			continue
		}
		var rep report.Report
		if jerr := json.Unmarshal(body, &rep); jerr != nil {
			c.log.Warn("peer result undecodable", "peer", p.ID, "hash", hash, "err", jerr)
			continue
		}
		c.peerFetches.Inc()
		c.log.Info("peer result fetched", "peer", p.ID, "hash", hash)
		return &rep
	}
	return nil
}
