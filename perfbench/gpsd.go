package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"gps/internal/client"
	"gps/internal/experiments"
	"gps/internal/httpapi"
	"gps/internal/obs"
	"gps/internal/paradigm"
	"gps/internal/report"
	"gps/internal/retry"
	"gps/internal/service"
	"gps/internal/workload"
)

// gpsd-mix: an in-process gpsd (gpsd's defaults, journal and metrics
// registry on) behind httpapi on a loopback listener, driven through
// internal/client by an open-loop generator with three traffic classes:
//
//   - hot: Poisson reads of one-cell matrix specs executed during set-up,
//     so every submit is a result-cache hit;
//   - cold: paced writes of one-cell specs with a unique seed, each needing
//     a trace build, a replay and a baseline (and a journal fsync);
//   - storm: bursts of one fresh cold spec, coalesced by single-flight.
//
// Hot and cold submits take the same service lock and share the two
// cores. At the benchmark's rates the writes leave hot latency as it is
// with no writes; fullMix says why the rates stop there.

// mixParams sizes the traffic.
type mixParams struct {
	hotSpecs   int
	hotRate    float64 // hot arrivals per second
	writeRate  float64 // write slots per second, each one execution
	stormEvery int     // every stormEvery-th write slot is a storm
	stormSize  int     // submits per storm
}

// fullMix's rates were measured, not guessed (METRICS.md has the runs):
// 150 hot reads/s give every run about 4500 hot samples, and 4 writes/s
// keep the service workers about half a core busy. Up to 4 writes/s, hot
// latency reads the same as with no writes; from 6/s its tail grows
// (p99 from ~8 ms to ~50 ms) and a slow spell of the shared host tipped
// the open loop into a backlog, so the benchmark stays at 4.
var fullMix = mixParams{hotSpecs: 8, hotRate: 150, writeRate: 4, stormEvery: 4, stormSize: 6}
var tinyMix = mixParams{hotSpecs: 2, hotRate: 20, writeRate: 3, stormEvery: 3, stormSize: 3}

// writeLimit is the goodput limit: a write job (cold or storm) counts
// toward goodput when its result is in hand within this time of its
// scheduled send. It sits at the slowest writes of the seed commit on a
// 2-core host (p90 about 0.19 s, max 0.23-0.31 s). By those latencies a
// write path twice as slow, or 100 ms more under the service lock, would
// lose a third or more of the goodput, and a host 25% slower a tenth.
const writeLimit = 250 * time.Millisecond

// drainGrace bounds how long after the last scheduled send the run waits
// for outstanding jobs; a job still unfinished then counts as failed.
const drainGrace = 60 * time.Second

type arrival struct {
	at    time.Duration
	class string // hot, cold or storm
	spec  service.Spec
}

type mixPlan struct {
	hot    []service.Spec
	events []arrival
}

func oneCell(app, kind, fabric string, seed int64) service.Spec {
	return service.Spec{
		Type:       "matrix",
		Cells:      []service.CellSpec{{App: app, Paradigm: kind, GPUs: 4, Fabric: fabric}},
		Iterations: 1,
		Seed:       seed,
	}
}

// makePlan derives the hot set and the arrival schedule from the seed.
// Reads (hot) are a Poisson process conditioned on its count (rate x
// seconds): the count is fixed and the times are uniform order statistics.
// Writes (cold specs and storms) are paced: evenly spaced slots with a
// seeded jitter of up to a fifth of the spacing, every stormEvery-th slot a
// storm. With Poisson writes, whether two executions happened to overlap
// set the tails, which then swung 2-3x between runs of the same seed.
func makePlan(seed int64, seconds float64, p mixParams) mixPlan {
	rng := rand.New(rand.NewSource(seed))
	apps := workload.Names()
	kinds := paradigm.Figure8Kinds()
	fabrics := []string{"pcie3", "pcie4", "pcie5", "pcie6"}
	var plan mixPlan
	// Hot spec i is application i with paradigm i mod 6 at every seed (the
	// seed picks fabric and trace seed), so warming the hot set, which
	// setup_s times, costs the same at every seed.
	for i := 0; i < p.hotSpecs; i++ {
		fab := fabrics[rng.Intn(len(fabrics))]
		plan.hot = append(plan.hot, oneCell(apps[i%len(apps)], kinds[i%len(kinds)].String(), fab, 1+int64(rng.Intn(1000))))
	}
	sec := func(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }
	hot := make([]time.Duration, int(math.Round(p.hotRate*seconds)))
	for i := range hot {
		hot[i] = sec(rng.Float64() * seconds)
	}
	for _, at := range hot {
		plan.events = append(plan.events, arrival{at, "hot", plan.hot[rng.Intn(len(plan.hot))]})
	}

	// Cold writes cycle through every (application, paradigm) pair in a
	// seeded order, and storm k replays pair k, so each seed offers the same
	// mix of execution costs. A storm's submits share one latency and make
	// up most cold samples: with seeded storm pairs, which pairs drew storms
	// moved cold_p50_s by a quarter between seeds.
	pairs := rng.Perm(len(apps) * len(kinds))
	// Cold seeds live far above the hot seeds and are unique per spec, so
	// no cold spec ever hits a cache.
	coldSeed := int64(1_000_000) + (seed%1000)*100_000
	spacing := 1 / p.writeRate
	colds, storms := 0, 0
	for i := 0; i < int(math.Round(p.writeRate*seconds)); i++ {
		at := sec((float64(i) + 0.5 + 0.4*(rng.Float64()-0.5)) * spacing)
		coldSeed++
		fab := fabrics[rng.Intn(len(fabrics))]
		if i%p.stormEvery != p.stormEvery/2 {
			pair := pairs[colds%len(pairs)]
			colds++
			spec := oneCell(apps[pair%len(apps)], kinds[pair/len(apps)].String(), fab, coldSeed)
			plan.events = append(plan.events, arrival{at, "cold", spec})
			continue
		}
		spec := oneCell(apps[storms%len(apps)], kinds[storms%len(kinds)].String(), fab, coldSeed)
		storms++
		for j := 0; j < p.stormSize; j++ {
			plan.events = append(plan.events, arrival{at + time.Duration(j)*2*time.Millisecond, "storm", spec})
		}
	}
	sort.SliceStable(plan.events, func(a, b int) bool { return plan.events[a].at < plan.events[b].at })
	return plan
}

// gpsdInst is one in-process gpsd: journal, service, httpapi on loopback,
// and a client limited to two connections.
type gpsdInst struct {
	dir     string // journal directory, removed by stop
	journal *service.Journal
	svc     *service.Server
	http    *http.Server
	served  chan error
	cl      *client.Client
}

// startGpsd mirrors cmd/gpsd's defaults: 2 workers, queue 16, 256 cache
// entries, 10 min job timeout, 3 attempts per job, info-level logs (to a
// discard writer), a metrics registry and a journal in a fresh directory
// under workDir. exec nil uses service.Execute.
func startGpsd(workDir string, exec service.ExecuteFunc) (*gpsdInst, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "gpsd-")
	if err != nil {
		return nil, err
	}
	journal, err := service.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	logger := obs.NewLogger(io.Discard, slog.LevelInfo, false)
	registry := obs.NewRegistry()
	experiments.SetParallelism(0)
	svc := service.New(service.Config{
		Workers:      2,
		QueueDepth:   16,
		JobTimeout:   10 * time.Minute,
		CacheEntries: 256,
		JobRetry:     retry.Policy{MaxAttempts: 3, BaseDelay: 250 * time.Millisecond, MaxDelay: 10 * time.Second, Jitter: 0.2},
		Journal:      journal,
		Logger:       logger,
		Registry:     registry,
		Execute:      exec,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Shutdown(context.Background()) //nolint:errcheck // nothing ran yet
		journal.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	g := &gpsdInst{
		dir: dir, journal: journal, svc: svc, served: make(chan error, 1),
		http: &http.Server{
			Handler:           httpapi.New(svc, httpapi.WithLogger(logger), httpapi.WithRegistry(registry)),
			ReadHeaderTimeout: 10 * time.Second,
		},
	}
	go func() { g.served <- g.http.Serve(ln) }()
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	g.cl = client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: tr, Timeout: 2 * time.Minute}))
	return g, nil
}

// warm submits every hot spec and waits until each is cached.
func (g *gpsdInst) warm(ctx context.Context, hot []service.Spec) error {
	var ids []string
	for _, spec := range hot {
		sr, err := g.cl.Submit(ctx, spec)
		if err != nil {
			return fmt.Errorf("warm hot set: %w", err)
		}
		ids = append(ids, sr.ID)
	}
	for _, id := range ids {
		st, _, err := g.svc.WaitResult(ctx, id)
		if err != nil {
			return fmt.Errorf("warm hot set: %w", err)
		}
		if st.State != service.StateDone {
			return fmt.Errorf("warm hot set: job %s ended %s: %s", id, st.State, st.Error)
		}
	}
	return nil
}

func (g *gpsdInst) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := g.http.Shutdown(ctx)
	if serr := <-g.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := g.svc.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	if jerr := g.journal.Close(); jerr != nil && err == nil {
		err = jerr
	}
	if rerr := os.RemoveAll(g.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// gpsdSetupProbe is gpsd-mix's set-up in a fresh process: server and
// journal start plus warming the hot set.
func gpsdSetupProbe(cfg config) (func(), error) {
	plan := makePlan(cfg.seed, cfg.seconds, mixFor(cfg))
	g, err := startGpsd(cfg.outDir, nil)
	if err != nil {
		return nil, err
	}
	teardown := func() { g.stop() } //nolint:errcheck // the probe's result is already printed
	if err := g.warm(context.Background(), plan.hot); err != nil {
		teardown()
		return nil, err
	}
	return teardown, nil
}

func mixFor(cfg config) mixParams {
	mix := fullMix
	if cfg.tiny {
		mix = tinyMix
	}
	if cfg.writeRate >= 0 {
		mix.writeRate = cfg.writeRate
	}
	return mix
}

// jobRec is what the client observed for one arrival.
type jobRec struct {
	class         string
	outcome       string  // accepted, coalesced, cached; "" when refused or failed
	ok            bool    // done, with a body that passed the gate
	mismatch      string  // why the gate rejected the body
	latency       float64 // scheduled send -> result body in hand
	lag           float64 // actual send - scheduled send
	submit, fetch float64 // client-observed HTTP round trips
	wait, exec    float64 // Status.WaitSeconds/WallSeconds of executed jobs
	bodyBytes     int
}

// gpsdPass is one server lifetime: set-up, the schedule, shutdown.
type gpsdPass struct {
	setup      float64
	jobs       []jobRec
	window     float64 // first scheduled send -> last result
	cpu        float64
	m0, m1     service.Metrics
	mem0, mem1 memSnap
	hotEvicted int
	windowAt   int64     // recorder time at the first scheduled send
	calib      []float64 // calibration times: before, between segments, after
	paused     float64   // seconds the schedule stood still for calibrations
	calibCPU   float64   // this process's CPU seconds during those pauses
}

// calibSegment is how much of the schedule plays between two host-speed
// calibrations. At each boundary the pass lets the jobs in flight finish,
// calibrates, and shifts the rest of the schedule by the pause, so no job
// sees the calibration and the calibration sees no job. The calibrations'
// own CPU time and allocations are taken out of the pass's counters. The
// light open loop calibrates with one copy of the kernel (hostspeed.go).
const calibSegment = 10 * time.Second

// runPass starts a server, warms it, plays the schedule and shuts down.
// exec nil uses service.Execute; rec (may be nil) receives client spans.
func runPass(cfg config, plan mixPlan, gate *bodyGate, exec service.ExecuteFunc, rec *recorder, counts *layerCounts) (*gpsdPass, error) {
	experiments.Default.ResetCaches()
	ctx := context.Background()
	t0 := time.Now()
	g, err := startGpsd(cfg.outDir, exec)
	if err != nil {
		return nil, err
	}
	if err := g.warm(ctx, plan.hot); err != nil {
		g.stop() //nolint:errcheck // the warm-up error is the one to report
		return nil, err
	}
	p := &gpsdPass{setup: time.Since(t0).Seconds(), jobs: make([]jobRec, len(plan.events))}
	runtime.GC()
	p.calib = append(p.calib, calibrate(1), calibrate(1))
	if counts != nil {
		counts.reset()
	}
	if rec != nil {
		p.windowAt = rec.now()
	}
	p.m0, p.mem0 = g.svc.Metrics(), readMem()
	cpu0 := cpuSeconds()

	var gateMu sync.Mutex
	dctx, cancel := context.WithTimeout(ctx, time.Duration(cfg.seconds*float64(time.Second))+drainGrace)
	defer cancel()
	start := time.Now().Add(5 * time.Millisecond)
	var last time.Time
	var lastMu sync.Mutex
	var wg sync.WaitGroup
	var paused time.Duration // schedule shift from the calibrations so far
	var calibCPU float64
	var calibMem memSnap
	boundary := calibSegment
	for i, a := range plan.events {
		if a.at >= boundary {
			t := time.Now()
			wg.Wait()
			// Collect the segment's garbage now, on the pass's account, so
			// no GC of this process runs beside the calibration child.
			runtime.GC()
			c0, m0 := cpuSeconds(), readMem()
			p.calib = append(p.calib, calibrate(1), calibrate(1))
			c1, m1 := cpuSeconds(), readMem()
			calibCPU += c1 - c0
			calibMem.allocBytes += m1.allocBytes - m0.allocBytes
			calibMem.allocs += m1.allocs - m0.allocs
			calibMem.gcs += m1.gcs - m0.gcs
			calibMem.pauseNs += m1.pauseNs - m0.pauseNs
			paused += time.Since(t) // the schedule's clock stood still
			boundary += calibSegment
		}
		due := start.Add(paused + a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			jr := playJob(dctx, g, a, due, rec.newTask("bench.job", fmt.Sprintf("job/%d", i)), gate, &gateMu)
			p.jobs[i] = jr
			lastMu.Lock()
			if now := time.Now(); now.After(last) {
				last = now
			}
			lastMu.Unlock()
		}(i, a, due)
	}
	wg.Wait()
	if last.IsZero() {
		last = time.Now()
	}
	p.window = (last.Sub(start) - paused).Seconds()
	p.cpu = cpuSeconds() - cpu0 - calibCPU
	p.paused, p.calibCPU = paused.Seconds(), calibCPU
	p.m1, p.mem1 = g.svc.Metrics(), readMem()
	p.mem1.allocBytes -= calibMem.allocBytes
	p.mem1.allocs -= calibMem.allocs
	p.mem1.gcs -= calibMem.gcs
	p.mem1.pauseNs -= calibMem.pauseNs
	for hash := range gate.refs {
		if _, ok := g.svc.ResultByHash(hash); !ok {
			p.hotEvicted++
		}
	}
	runtime.GC()
	p.calib = append(p.calib, calibrate(1), calibrate(1))
	if err := g.stop(); err != nil {
		return nil, fmt.Errorf("gpsd shutdown: %w", err)
	}
	return p, nil
}

// playJob submits one arrival, waits for its terminal state and fetches
// the result body, checking it with the gate.
func playJob(ctx context.Context, g *gpsdInst, a arrival, due time.Time, tk *task, gate *bodyGate, gateMu *sync.Mutex) jobRec {
	jr := jobRec{class: a.class, lag: time.Since(due).Seconds()}
	defer tk.finish()
	var sr client.SubmitResult
	var err error
	t := time.Now()
	tk.do("httpapi.submit", func() { sr, err = g.cl.Submit(ctx, a.spec) })
	jr.submit = time.Since(t).Seconds()
	if err != nil {
		return jr
	}
	jr.outcome = sr.Outcome
	st := sr.Status
	if !st.State.Terminal() {
		// Terminal-state notification comes from the in-process service,
		// so the latency is not quantized by a client poll interval.
		tk.do("service.wait", func() { st, _, err = g.svc.WaitResult(ctx, sr.ID) })
		if err != nil {
			return jr
		}
	}
	if st.State != service.StateDone {
		return jr
	}
	if sr.Outcome == "accepted" {
		jr.wait, jr.exec = st.WaitSeconds, st.WallSeconds
	}
	var code int
	var body []byte
	t = time.Now()
	tk.do("httpapi.result", func() {
		code, body, err = g.cl.Do(ctx, http.MethodGet, "/v1/jobs/"+sr.ID+"/result", nil, nil)
	})
	jr.fetch = time.Since(t).Seconds()
	jr.latency = time.Since(due).Seconds()
	if err != nil || code != http.StatusOK {
		return jr
	}
	jr.bodyBytes = len(body)
	gateMu.Lock()
	gerr := gate.check(st.Hash, body)
	gateMu.Unlock()
	if gerr != nil {
		jr.mismatch = gerr.Error()
		return jr
	}
	jr.ok = true
	return jr
}

// hotReferences executes every hot spec with service.Execute on a cold
// runner; the hot results the server returns must carry the same tables.
func hotReferences(hot []service.Spec) (map[string][]report.Table, error) {
	experiments.Default.ResetCaches()
	experiments.SetParallelism(0)
	refs := map[string][]report.Table{}
	for _, spec := range hot {
		canon, err := spec.Canonicalize()
		if err != nil {
			return nil, err
		}
		rep, err := service.Execute(context.Background(), canon)
		if err != nil {
			return nil, fmt.Errorf("reference for hot spec: %w", err)
		}
		refs[canon.Hash()] = rep.Tables
	}
	return refs, nil
}

func runGpsd(cfg config) (*result, error) {
	res := newResult()
	mix := mixFor(cfg)
	plan := makePlan(cfg.seed, cfg.seconds, mix)
	refs, err := hotReferences(plan.hot)
	if err != nil {
		return nil, err
	}
	var setupSamples, setupCalib []float64
	if !cfg.trace {
		if setupSamples, setupCalib, err = measureSetup(cfg); err != nil {
			return nil, err
		}
	}
	unique := map[string]bool{}
	for _, a := range plan.events {
		canon, err := a.spec.Canonicalize()
		if err != nil {
			return nil, err
		}
		unique[canon.Hash()] = true
	}
	res.notef("schedule: %d arrivals over %.0fs (hot %.0f/s Poisson over %d specs; %.1f paced writes/s, every %dth a storm of %d), %d distinct specs vs a %d-entry result cache",
		len(plan.events), cfg.seconds, mix.hotRate, mix.hotSpecs, mix.writeRate, mix.stormEvery, mix.stormSize, len(unique), 256)

	p, err := runPass(cfg, plan, newBodyGate(refs), nil, nil, nil)
	if err != nil {
		return nil, err
	}
	f := speedFactor(p.calib)
	rawWall := p.m1.ExecSecondsTotal - p.m0.ExecSecondsTotal
	res.notef("calibration pauses %.3fs, this process's CPU during them %.3fs", p.paused, p.calibCPU)
	res.notef("calibration %v s; host speed factor %.4f (reference %.3fs): raw worker exec %.4fs cpu %.4fs, at reference speed %.4fs and %.4fs",
		fmtSeconds(p.calib), f, calibRef, rawWall, p.cpu, rawWall*f, p.cpu*f)
	judgePass(res, p)
	if len(setupSamples) == 0 {
		setupSamples = []float64{p.setup}
	}

	var hot, cold, writes []float64
	good := 0
	for _, j := range p.jobs {
		lat := j.latency
		if !j.ok {
			lat = cfg.seconds + drainGrace.Seconds() // a failed job misses every limit
		}
		if j.class != "hot" {
			writes = append(writes, lat)
			if lat*f <= writeLimit.Seconds() {
				good++
			}
		}
		if j.outcome == "cached" || (!j.ok && j.class == "hot") {
			hot = append(hot, lat)
		} else {
			cold = append(cold, lat)
		}
	}
	res.notef("hot = cache-hit jobs, cold = executed or coalesced jobs, timed from scheduled send to result body; goodput = write jobs done within %v at reference speed per scheduled second",
		writeLimit)
	res.notef("latency: hot p50 %.4fs p90 %.4fs p99 %.4fs over %d jobs; write p50 %.4fs p90 %.4fs max %.4fs over %d jobs",
		quantile(hot, 0.5), quantile(hot, 0.9), quantile(hot, 0.99), len(hot),
		quantile(writes, 0.5), quantile(writes, 0.9), quantile(writes, 1), len(writes))
	setLatencies(res, cfg.trace, hot, cold, f)

	if cfg.trace {
		res.set("bench.host_speed", f, len(p.calib))
		res.set("bench.raw_wall_s", rawWall, 1)
		res.set("bench.raw_cpu_s", p.cpu, 1)
		rec := newRecorder()
		var counts layerCounts
		pt, err := runPass(cfg, plan, newBodyGate(refs), tracedExecute(rec, &counts), rec, &counts)
		if err != nil {
			return nil, err
		}
		judgePass(res, pt)
		gpsdLayers(res, p, pt, rec, &counts)
		return res, writeSpans(cfg, rec, res)
	}
	setSetup(res, setupSamples, setupCalib, f)
	// The window is the schedule's length plus the last job's latency, a
	// constant of the schedule, so wall_s is the host wall time the
	// service's workers spent executing the write work. Both times are
	// scaled to the reference host speed (hostspeed.go).
	res.set("wall_s", rawWall*f, int(p.m1.JobsSubmitted-p.m0.JobsSubmitted-(p.m1.ResultCacheHits-p.m0.ResultCacheHits)))
	res.set("cpu_s", p.cpu*f, 1)
	res.set("peak_rss_mb", peakRSSMB(), 1)
	res.set("goodput_jobs_per_s", float64(good)/cfg.seconds, len(writes))
	return res, nil
}

// judgePass counts a pass's arrivals and failures into the result.
func judgePass(res *result, p *gpsdPass) {
	res.attempted += len(p.jobs)
	bad := 0
	for _, j := range p.jobs {
		if !j.ok {
			bad++
			if j.mismatch != "" {
				res.fail(0, "%s", j.mismatch)
			}
		}
	}
	if bad > 0 {
		res.fail(bad, "%d of %d jobs failed, were refused or returned a wrong body", bad, len(p.jobs))
	}
	res.notef("hot set evicted from the result cache during the run: %d specs", p.hotEvicted)
	if p.hotEvicted > 0 {
		res.fail(0, "hot set evicted: the schedule is too large for the result cache")
	}
}

// gpsdLayers reports gpsd-mix's per-layer metrics: service and httpapi from
// the untraced pass p, the simulator layers from the traced pass pt.
func gpsdLayers(res *result, p, pt *gpsdPass, rec *recorder, counts *layerCounts) {
	exec := aggregate(rec.spans, func(root *span) bool {
		return root.name == "service.execute" && root.start >= pt.windowAt
	})
	reportLayers(res, exec, counts)
	// Unattributed is defined as the rest of the workers' busy time, so only
	// executor spans outlasting that busy time can fail this check.
	busy := pt.m1.ExecSecondsTotal - pt.m0.ExecSecondsTotal
	unattributed := busy - exec.layerSum()
	res.set("bench.unattributed_s", unattributed, 1)
	res.notef("accounting: layers %.4fs + unattributed %.4fs = service worker busy %.4fs (unattributed %.2f%%: executor glue, journal fsync, result-cache commit)",
		exec.layerSum(), unattributed, busy, 100*ratio(unattributed, busy))
	if exec.rootTotal > busy+1e-3 || unattributed < 0 {
		res.fail(0, "accounting: executor spans %.4fs exceed service worker busy time %.4fs", exec.rootTotal, busy)
	}
	client := aggregate(rec.spans, func(root *span) bool { return root.name == "bench.job" })
	res.notef("client side: httpapi %.3fs, service wait %.3fs over %d jobs", client.self["httpapi"], client.self["service"], client.calls["httpapi.submit"])

	m0, m1 := p.m0, p.m1
	cacheHits := m1.ResultCacheHits - m0.ResultCacheHits
	res.set("service.accepted", float64(m1.JobsSubmitted-m0.JobsSubmitted-cacheHits), 1)
	res.set("service.cache_hits", float64(cacheHits), 1)
	res.set("service.coalesced", float64(m1.JobsCoalesced-m0.JobsCoalesced), 1)
	res.set("service.rejected", float64(m1.JobsRejected-m0.JobsRejected), 1)
	res.set("service.journal_records", float64(m1.JournalRecords-m0.JournalRecords), 1)
	var waits, execs, submits, fetches, lags []float64
	var bodyBytes int
	for _, j := range p.jobs {
		if j.outcome == "accepted" && j.ok {
			waits = append(waits, j.wait)
			execs = append(execs, j.exec)
		}
		submits = append(submits, j.submit)
		if j.ok {
			fetches = append(fetches, j.fetch)
		}
		lags = append(lags, j.lag)
		bodyBytes += j.bodyBytes
	}
	res.set("service.queue_wait_p50_s", quantile(waits, 0.5), len(waits))
	res.set("service.queue_wait_p99_s", quantile(waits, 0.99), len(waits))
	res.set("service.exec_p50_s", quantile(execs, 0.5), len(execs))
	res.set("service.exec_p99_s", quantile(execs, 0.99), len(execs))
	res.set("httpapi.submit_p50_s", quantile(submits, 0.5), len(submits))
	res.set("httpapi.submit_p99_s", quantile(submits, 0.99), len(submits))
	res.set("httpapi.result_p99_s", quantile(fetches, 0.99), len(fetches))
	res.set("httpapi.result_mb", float64(bodyBytes)/1e6, len(fetches))
	res.set("bench.lag_p99_s", quantile(lags, 0.99), len(lags))
	res.set("bench.trace_overhead_frac", pt.cpu/p.cpu-1, 1)

	rc0, rc1 := m0.RunnerCache, m1.RunnerCache
	th, eh, bh := rc1.TraceHits-rc0.TraceHits, rc1.EngineHits-rc0.EngineHits, rc1.BaselineHits-rc0.BaselineHits
	hits := th + eh + bh
	lookups := hits + (rc1.TraceBuilds - rc0.TraceBuilds) + (rc1.EngineRuns - rc0.EngineRuns) + (rc1.BaselineRuns - rc0.BaselineRuns)
	res.set("experiments.trace_hits", float64(th), 1)
	res.set("experiments.engine_hits", float64(eh), 1)
	res.set("experiments.baseline_runs", float64(rc1.BaselineRuns-rc0.BaselineRuns), 1)
	res.set("experiments.memo_hit_ratio", ratio(float64(hits), float64(lookups)), int(lookups))
	// The service installs its own cell observer, so per-cell times are
	// not visible from outside; the pool's idle share comes from its busy
	// time.
	res.set("experiments.p50_cell_s", 0, 0)
	res.set("experiments.max_cell_s", 0, 0)
	pbusy := m1.ExecSecondsTotal - m0.ExecSecondsTotal
	res.set("experiments.pool_idle_frac", 1-pbusy/(2*p.window), 1)
	res.setRuntime(p.mem0, p.mem1)
	res.notef("untraced cpu %.3fs, traced cpu %.3fs; untraced window %.3fs", p.cpu, pt.cpu, p.window)
}
