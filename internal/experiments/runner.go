package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gps/internal/engine"
	"gps/internal/interconnect"
	"gps/internal/obs"
	"gps/internal/paradigm"
	"gps/internal/timing"
	"gps/internal/trace"
	"gps/internal/workload"
)

// The experiment suite is an embarrassingly parallel matrix of independent
// (app x paradigm x fabric x GPU-count) simulations, and most cells agree on
// the trace they replay and on the single-GPU baseline they normalize
// against. Runner exploits both facts in two stages. First it plans the
// matrix's uncached structural replays and groups them by trace: each group
// is one pool task that builds (or fetches) its trace once and replays it
// once for every paradigm in the group (engine.RunFused), so the trace front
// end is paid per trace, not per paradigm. Then each cell only prices its
// fabric, on the same pool, with results assembled in deterministic cell
// order (parallel output is byte-identical to serial). Three memoizing
// caches make sure every trace is built once, every structural replay runs
// once (the engine never sees the fabric, so fabric sweeps share it), and
// every baseline is simulated once per configuration. Cells share only
// immutable state — the Recorded trace, the structural Result and the
// Fabric description — and each structural key gets its own paradigm
// Model, so runs are race-free by construction.

// Cell is one independent experiment: app's trace replayed under Kind on
// GPUs devices, priced on Fab.
type Cell struct {
	App  string
	Kind paradigm.Kind
	GPUs int
	Fab  *interconnect.Fabric
	Opt  Options
	Cfg  paradigm.Config
	// Packet prices transfer windows with the packet-level fabric engine
	// instead of the fluid model (gpsim -packet).
	Packet bool
}

// CellResult pairs a cell with its timing report and structural result.
type CellResult struct {
	Cell   Cell
	Report *timing.Report
	Result *engine.Result
}

// CacheStats reports the memoization counters of a Runner. The experiment
// regression tests assert on these: within one Runner every trace must be
// built exactly once per (app, workload.Config) and every baseline simulated
// exactly once per (app, Options, paradigm.Config).
type CacheStats struct {
	TraceBuilds uint64 // traces generated and materialized
	// TraceHits counts trace requests served from cache. A trace is
	// requested once per replay group (one fused replay of every uncached
	// paradigm on it), not once per cell or paradigm, so a cold matrix
	// whose traces are each built once has no hits at all.
	TraceHits      uint64
	TraceEvictions uint64 // traces dropped to respect the memory budget
	TraceBytes     uint64 // approximate bytes of resident cached traces (compressed)
	// TraceLogicalBytes is what the resident traces would occupy in the flat
	// 24 B/record layout: TraceLogicalBytes / TraceBytes is the columnar
	// compression ratio of the cache.
	TraceLogicalBytes uint64
	EngineRuns        uint64 // structural replays executed
	EngineHits        uint64 // structural results served from cache
	BaselineRuns      uint64 // single-GPU baseline simulations executed
	BaselineHits      uint64 // baseline requests served from cache
}

type traceKey struct {
	app string
	cfg workload.Config
}

type traceEntry struct {
	once    sync.Once
	rec     *trace.Recorded
	err     error
	cost    uint64 // approximate resident bytes once built
	logical uint64 // flat 24 B/record equivalent bytes
	lastUse uint64 // monotone tick for LRU eviction
}

type baselineKey struct {
	app  string
	wcfg workload.Config // normalized single-GPU workload config
	pcfg paradigm.Config
}

type baselineEntry struct {
	once sync.Once
	cell Cell         // the single-GPU infinite-fabric cell it prices
	res  *resultEntry // cell's structural replay
	val  float64
	err  error
}

// resultKey identifies one structural replay. The structural engine knows
// nothing about the interconnect — fabrics only enter at timing — so cells
// that differ solely in fabric or packet engine (the Figure 12/13 sweeps,
// ExtendedFabrics) share one engine.Run.
type resultKey struct {
	app  string
	wcfg workload.Config
	kind paradigm.Kind
	pcfg paradigm.Config
}

// resultEntry is one structural key's cached replay. Its group fills res
// or err; read them only after r.replay(ctx, group) returns.
type resultEntry struct {
	group *replayGroup
	kind  paradigm.Kind
	pcfg  paradigm.Config
	res   *engine.Result
	err   error
}

// replayGroup is the set of structural keys one fused replay of a trace
// fills. Whoever needs an entry first — the group's pool task, or a cell
// of another matrix that shares the key — runs the replay; the rest wait.
type replayGroup struct {
	once    sync.Once
	trace   traceKey
	entries []*resultEntry
}

// describe names the group's span: the trace it replays.
func (g *replayGroup) describe() string {
	return fmt.Sprintf("replay/%s/%dgpu", g.trace.app, g.trace.cfg.NumGPUs)
}

// replayPlan collects the replay groups of the keys a matrix is the first
// to request.
type replayPlan struct {
	groups  []*replayGroup
	byTrace map[traceKey]*replayGroup
}

// Runner executes experiment matrices on a worker pool over a shared
// trace/baseline cache. The zero value is not usable; call NewRunner.
type Runner struct {
	workers int64 // 0 means GOMAXPROCS, resolved at use

	resilienceState // panic fences, cell retry policy, fault hook

	mu        sync.Mutex
	tick      uint64
	traces    map[traceKey]*traceEntry
	results   map[resultKey]*resultEntry
	baselines map[baselineKey]*baselineEntry
	resident  uint64 // sum of built trace costs
	logical   uint64 // sum of built traces' flat-equivalent bytes
	budget    uint64 // eviction threshold for resident

	traceBuilds    atomic.Uint64
	traceHits      atomic.Uint64
	traceEvictions atomic.Uint64
	engineRuns     atomic.Uint64
	engineHits     atomic.Uint64
	baselineRuns   atomic.Uint64
	baselineHits   atomic.Uint64
}

// DefaultTraceBudget bounds the resident size of a Runner's trace cache
// (approximate bytes). The hot 4-GPU default-config traces are reused by
// nearly every figure and stay resident; one-figure traces (16-GPU scaling,
// doubled-scale page study) are evicted least-recently-used once the budget
// is exceeded.
const DefaultTraceBudget = 4 << 30

// NewRunner builds a runner with the given worker count; workers <= 0 means
// GOMAXPROCS.
func NewRunner(workers int) *Runner {
	r := &Runner{
		traces:    map[traceKey]*traceEntry{},
		results:   map[resultKey]*resultEntry{},
		baselines: map[baselineKey]*baselineEntry{},
		budget:    DefaultTraceBudget,
	}
	r.cellRetry = DefaultCellRetry
	r.SetWorkers(workers)
	return r
}

// Default is the package-wide runner the FigureN/sensitivity functions use.
// gpsbench -parallel adjusts its worker count via SetParallelism.
var Default = NewRunner(0)

// SetParallelism sets the worker count of the package default runner;
// n <= 0 restores the GOMAXPROCS default.
func SetParallelism(n int) { Default.SetWorkers(n) }

// Parallelism returns the resolved worker count of the default runner.
func Parallelism() int { return Default.Workers() }

// Shards is always 1: every structural replay runs serially on one cell
// worker, and parallelism comes only from the runner's cell pool. The name
// stays because reports keep their "shards":1 key and the perfbench harness
// calls it.
func Shards() int { return 1 }

// SetWorkers sets the pool size; n <= 0 means GOMAXPROCS.
func (r *Runner) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	atomic.StoreInt64(&r.workers, int64(n))
}

// Workers returns the resolved pool size.
func (r *Runner) Workers() int {
	n := int(atomic.LoadInt64(&r.workers))
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return n
}

// SetTraceBudget adjusts the approximate byte budget of the trace cache.
func (r *Runner) SetTraceBudget(bytes uint64) {
	r.mu.Lock()
	r.budget = bytes
	r.evictLocked(traceKey{})
	r.mu.Unlock()
}

// CacheStats snapshots the memoization counters.
func (r *Runner) CacheStats() CacheStats {
	r.mu.Lock()
	resident := r.resident
	logical := r.logical
	r.mu.Unlock()
	return CacheStats{
		TraceBuilds:       r.traceBuilds.Load(),
		TraceHits:         r.traceHits.Load(),
		TraceEvictions:    r.traceEvictions.Load(),
		TraceBytes:        resident,
		TraceLogicalBytes: logical,
		EngineRuns:        r.engineRuns.Load(),
		EngineHits:        r.engineHits.Load(),
		BaselineRuns:      r.baselineRuns.Load(),
		BaselineHits:      r.baselineHits.Load(),
	}
}

// ResetCaches drops all cached traces, structural results and baselines and
// zeroes the counters.
func (r *Runner) ResetCaches() {
	r.mu.Lock()
	r.traces = map[traceKey]*traceEntry{}
	r.results = map[resultKey]*resultEntry{}
	r.baselines = map[baselineKey]*baselineEntry{}
	r.resident = 0
	r.logical = 0
	r.mu.Unlock()
	r.traceBuilds.Store(0)
	r.traceHits.Store(0)
	r.traceEvictions.Store(0)
	r.engineRuns.Store(0)
	r.engineHits.Store(0)
	r.baselineRuns.Store(0)
	r.baselineHits.Store(0)
}

// accessBytes is unsafe.Sizeof(trace.Access{}): the per-record cost of the
// flat array-of-structs layout, used as the logical-size baseline.
const accessBytes = 24

// traceCost approximates the resident heap bytes of a materialized trace.
// Kernels count their compressed block bytes, so the cache budget admits
// far more traces than the flat layout would.
func traceCost(rec *trace.Recorded) uint64 {
	var cost uint64 = 4 << 10
	for i := range rec.Ph {
		cost += 1 << 10
		for k := range rec.Ph[i].Kernels {
			cost += 256 + rec.Ph[i].Kernels[k].Col.ResidentBytes()
		}
	}
	return cost
}

// traceLogical is the flat-layout size of a trace's access streams: the
// bytes the cache would hold without columnar compression.
func traceLogical(rec *trace.Recorded) uint64 {
	var b uint64
	for i := range rec.Ph {
		for k := range rec.Ph[i].Kernels {
			b += uint64(rec.Ph[i].Kernels[k].NumAccesses()) * accessBytes
		}
	}
	return b
}

// Trace returns the materialized trace for (app, cfg), building it at most
// once per configuration and sharing the immutable result across goroutines.
func (r *Runner) Trace(app string, cfg workload.Config) (*trace.Recorded, error) {
	return r.traceCtx(context.Background(), app, cfg)
}

// traceCtx is Trace with the caller's context, so a build that happens
// under a traced cell records a trace-build phase span.
func (r *Runner) traceCtx(ctx context.Context, app string, cfg workload.Config) (*trace.Recorded, error) {
	key := traceKey{app: app, cfg: cfg}
	r.mu.Lock()
	r.tick++
	e := r.traces[key]
	if e == nil {
		e = &traceEntry{lastUse: r.tick}
		r.traces[key] = e
	} else {
		e.lastUse = r.tick
		r.traceHits.Add(1)
	}
	r.mu.Unlock()

	e.once.Do(func() {
		defer recoverInto(&e.err)
		_, span := obs.StartSpan(ctx, obs.CatPhase, "trace-build", "app", app)
		defer span.End()
		spec, err := workload.ByName(app)
		if err != nil {
			e.err = err
			return
		}
		rec := trace.Collect(spec.Build(cfg))
		cost, logical := traceCost(rec), traceLogical(rec)
		r.traceBuilds.Add(1)
		// Publish under r.mu: other workers' evictLocked reads every
		// entry's rec and cost, and a zero cost marks one still building.
		r.mu.Lock()
		e.rec, e.cost, e.logical = rec, cost, logical
		r.resident += e.cost
		r.logical += e.logical
		r.evictLocked(key)
		r.mu.Unlock()
	})
	return e.rec, e.err
}

// evictLocked brings the cache back under budget by dropping the
// least-recently-used entries other than keep; a dropped trace is rebuilt
// on its next request. Replays already holding it finish on their own
// reference. Callers hold r.mu.
func (r *Runner) evictLocked(keep traceKey) {
	for r.resident > r.budget && len(r.traces) > 1 {
		var victimKey traceKey
		var victim *traceEntry
		for k, e := range r.traces {
			if k == keep || e.cost == 0 { // cost 0: still building
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victimKey, victim = k, e
			}
		}
		if victim == nil {
			return
		}
		delete(r.traces, victimKey)
		r.resident -= victim.cost
		r.logical -= victim.logical
		r.traceEvictions.Add(1)
	}
}

// planLocked returns the result entry of key. A key nobody requested yet
// gets a new entry in the plan's replay group for its trace; a known key
// counts as an engine hit, whether its replay is done or still running.
// Callers hold r.mu.
func (r *Runner) planLocked(p *replayPlan, key resultKey) *resultEntry {
	if e := r.results[key]; e != nil {
		r.engineHits.Add(1)
		return e
	}
	tk := traceKey{app: key.app, cfg: key.wcfg}
	g := p.byTrace[tk]
	if g == nil {
		if p.byTrace == nil {
			p.byTrace = map[traceKey]*replayGroup{}
		}
		g = &replayGroup{trace: tk}
		p.byTrace[tk] = g
		p.groups = append(p.groups, g)
	}
	e := &resultEntry{group: g, kind: key.kind, pcfg: key.pcfg}
	g.entries = append(g.entries, e)
	r.results[key] = e
	return e
}

// planBaselineLocked returns the baseline entry of (app, opt, pcfg),
// planning its single-GPU replay if the baseline is new. Callers hold r.mu.
func (r *Runner) planBaselineLocked(p *replayPlan, app string, opt Options, pcfg paradigm.Config) *baselineEntry {
	opt = opt.withDefaults()
	key := baselineKey{app: app, wcfg: opt.workloadConfig(1), pcfg: pcfg}
	if e := r.baselines[key]; e != nil {
		r.baselineHits.Add(1)
		return e
	}
	c := Cell{App: app, Kind: paradigm.KindInfinite, GPUs: 1, Fab: interconnect.Infinite(1), Opt: opt, Cfg: pcfg}
	e := &baselineEntry{cell: c, res: r.planLocked(p, c.resultKey())}
	r.baselines[key] = e
	return e
}

// resultKey is the structural replay the cell prices.
func (c Cell) resultKey() resultKey {
	opt := c.Opt.withDefaults()
	return resultKey{app: c.App, wcfg: opt.workloadConfig(c.GPUs), kind: c.Kind, pcfg: c.Cfg}
}

// replayGroups runs the plan's groups on the worker pool in descending
// order of entry count (models per group), ties in plan order. The count
// is not a cost estimate: a group's replay time also scales with its
// trace's length and GPU count, so a long group can start late.
// A group's failure is stored on its entries, not returned: it surfaces on
// every cell that needs one of them, under that cell's index and
// description. Group tasks emit no CellEvents and skip the fault hook,
// which both count cells; under a tracer each gets a cell-category span.
func (r *Runner) replayGroups(ctx context.Context, groups []*replayGroup) {
	sort.SliceStable(groups, func(a, b int) bool {
		return len(groups[a].entries) > len(groups[b].entries)
	})
	r.pool(ctx, len(groups), func(i int) error {
		gctx, span := obs.StartSpanTrack(ctx, obs.CatCell, groups[i].describe())
		r.replay(gctx, groups[i])
		span.End()
		return nil
	})
}

// replay fills every entry of g with one fused replay of its trace, at most
// once; concurrent callers wait for the one run. A failure — a trace build
// or replay error, or a panic inside a replay — is
// recorded on every entry still without a result, so later requests for
// the key fail the same way instead of reading an empty entry.
func (r *Runner) replay(ctx context.Context, g *replayGroup) {
	g.once.Do(func() {
		if err := r.replayOnce(ctx, g); err != nil {
			for _, e := range g.entries {
				if e.res == nil && e.err == nil {
					e.err = err
				}
			}
		}
	})
}

// replayOnce builds a model per entry and replays the group's trace once
// through all of them. An entry whose model cannot be built gets its own
// error; the others still replay.
func (r *Runner) replayOnce(ctx context.Context, g *replayGroup) (err error) {
	defer recoverInto(&err)
	prog, err := r.traceCtx(ctx, g.trace.app, g.trace.cfg)
	if err != nil {
		return err
	}
	var models []engine.Model
	var live []*resultEntry
	var names []string
	for _, e := range g.entries {
		m, err := paradigm.New(e.kind, prog, e.pcfg)
		if err != nil {
			e.err = err
			continue
		}
		models = append(models, m)
		live = append(live, e)
		names = append(names, e.kind.String())
	}
	if len(models) == 0 {
		return nil
	}
	sctx, span := obs.StartSpan(ctx, obs.CatPhase, "engine-replay",
		"app", g.trace.app, "paradigms", strings.Join(names, ","))
	defer span.End()
	for i, res := range engine.RunFused(prog, models, enginePhaseSpans(sctx)) {
		live[i].res = res
	}
	r.engineRuns.Add(uint64(len(live)))
	return nil
}

// result returns e's structural result, replaying its group first if no
// one has yet. The result is immutable downstream: timing.Simulate and the
// figure assemblies only read it, so one result safely prices any number of
// fabrics.
func (r *Runner) result(ctx context.Context, e *resultEntry) (*engine.Result, error) {
	r.replay(ctx, e.group)
	return e.res, e.err
}

// enginePhaseSpans returns a PhaseObserver that records one engine-phase
// span per replay phase on the enclosing span's track, or nil when ctx
// carries no tracer — the nil keeps the replay loop's per-phase cost at a
// single nil check.
func enginePhaseSpans(ctx context.Context) engine.PhaseObserver {
	if obs.TracerFrom(ctx) == nil {
		return nil
	}
	return &phaseSpanObserver{ctx: ctx}
}

// phaseSpanObserver is used inside one engine.RunFused call, which
// replays phases serially, so the single current-span field needs no lock.
type phaseSpanObserver struct {
	ctx  context.Context
	span *obs.Span
}

func (o *phaseSpanObserver) PhaseStart(index, kernels int) {
	_, o.span = obs.StartSpan(o.ctx, obs.CatEnginePhase,
		"phase-"+strconv.Itoa(index), "kernels", strconv.Itoa(kernels))
}

func (o *phaseSpanObserver) PhaseEnd(int) {
	o.span.End()
	o.span = nil
}

// cellObserverKey carries an optional per-cell callback in a Context; see
// WithCellObserver.
type cellObserverKey struct{}

// CellEvent is one cell lifecycle notification: a Start event when the cell
// is issued to a worker, and a completion event (Start false) carrying the
// measured wall time and the cell's error, if any. The pair gives observers
// real durations instead of just completion ticks.
type CellEvent struct {
	Index int           // position in the issued work sequence
	Desc  string        // cell description (app/paradigm/gpus/fabric) when known
	Start bool          // true at issue, false at completion
	Dur   time.Duration // wall time; zero on Start events
	Err   error         // the cell's failure; nil on Start events and successes
}

// CellObserver receives CellEvents; it must be safe for concurrent use.
type CellObserver func(CellEvent)

// WithCellObserver returns a context whose matrix runs call fn at the start
// and completion of every cell. The gpsd job scheduler uses it for live
// progress and per-cell slog records; fn must be safe for concurrent use.
func WithCellObserver(ctx context.Context, fn CellObserver) context.Context {
	return context.WithValue(ctx, cellObserverKey{}, fn)
}

// cellObserver extracts the observer installed by WithCellObserver, or nil.
func cellObserver(ctx context.Context) CellObserver {
	fn, _ := ctx.Value(cellObserverKey{}).(CellObserver)
	return fn
}

// RunCell executes one cell through the caches: the trace and the structural
// result are shared and immutable, only the (cheap) timing pass runs per
// fabric.
func (r *Runner) RunCell(c Cell) (*timing.Report, *engine.Result, error) {
	return r.runCell(context.Background(), c)
}

// runCell is RunCell under the caller's context: the cell is a matrix of
// one, so its structural key is planned like any matrix's (a replay group
// of one, run inline if the key is new), then the timing pass records a
// render phase span.
func (r *Runner) runCell(ctx context.Context, c Cell) (*timing.Report, *engine.Result, error) {
	var p replayPlan
	r.mu.Lock()
	e := r.planLocked(&p, c.resultKey())
	r.mu.Unlock()
	return r.price(ctx, c, e)
}

// price runs the timing pass of c over its structural entry e.
func (r *Runner) price(ctx context.Context, c Cell, e *resultEntry) (*timing.Report, *engine.Result, error) {
	res, err := r.result(ctx, e)
	if err != nil {
		return nil, nil, err
	}
	tcfg := timing.DefaultConfig(c.Fab)
	if c.Cfg.PageBytes != 0 {
		tcfg.PageBytes = c.Cfg.PageBytes
	}
	tcfg.UsePacketSim = c.Packet
	_, span := obs.StartSpan(ctx, obs.CatPhase, "render")
	rep := timing.Simulate(res, tcfg)
	span.End()
	return rep, res, nil
}

// Baseline returns the single-GPU steady-state runtime of app (no
// interconnect at all), simulating it at most once per (app, workload
// config, paradigm config).
func (r *Runner) Baseline(app string, opt Options, pcfg paradigm.Config) (float64, error) {
	var p replayPlan
	r.mu.Lock()
	e := r.planBaselineLocked(&p, app, opt, pcfg)
	r.mu.Unlock()
	return r.baseline(context.Background(), e)
}

// baseline prices e's cell once and caches its steady-state runtime. A
// panic is stored as the entry's error, so the baseline never reads as a
// successful zero.
func (r *Runner) baseline(ctx context.Context, e *baselineEntry) (float64, error) {
	e.once.Do(func() {
		defer recoverInto(&e.err)
		rep, _, err := r.price(ctx, e.cell, e.res)
		if err != nil {
			e.err = err
			return
		}
		e.val = rep.SteadyTotal()
		r.baselineRuns.Add(1)
	})
	return e.val, e.err
}

// Speedup runs app under kind on fab and returns time(1 GPU)/time(kind),
// reusing the cached baseline.
func (r *Runner) Speedup(app string, kind paradigm.Kind, gpus int, fab *interconnect.Fabric,
	opt Options, pcfg paradigm.Config) (float64, error) {
	base, err := r.Baseline(app, opt, pcfg)
	if err != nil {
		return 0, err
	}
	rep, _, err := r.RunCell(Cell{App: app, Kind: kind, GPUs: gpus, Fab: fab, Opt: opt, Cfg: pcfg})
	if err != nil {
		return 0, err
	}
	return speedupOf(base, rep), nil
}

// parallelFor is the undescribed, context-free form of parallelForDesc:
// fn(i) runs for 0..n-1 with anonymous cell labels. Tests and simple
// fan-outs use it; matrix code paths prefer parallelForDesc so errors,
// spans and observer events name the configuration that produced them.
func (r *Runner) parallelFor(ctx context.Context, n int, fn func(int) error) error {
	return r.parallelForDesc(ctx, n, nil, func(_ context.Context, i int) error {
		return fn(i)
	})
}

// parallelForDesc runs fn(ctx, 0..n-1) on the worker pool, with an optional
// desc(i) used to label CellErrors, observer events and spans. Every index
// runs even if another fails; the error of the lowest failing index is
// returned, so behavior is identical at any worker count. Cancellation is
// checked before each index is issued: once ctx is done no further indices
// start, and the cancellation error is reported from the first index that
// was not issued, preserving the lowest-index error convention.
//
// Each index runs under the panic fence and the cell retry policy: a
// panicking index fails with a typed CellError (other indices keep
// running), and attempts that fail with a retryable error re-run with
// backoff before the index is declared failed. When a tracer or cell
// observer rides on ctx, every index is bracketed by a span on its own
// track and by Start/completion CellEvents; with neither installed the
// instrumentation costs two context lookups per matrix.
func (r *Runner) parallelForDesc(ctx context.Context, n int, desc func(int) string, fn func(context.Context, int) error) error {
	observe := cellObserver(ctx)
	tracing := obs.TracerFrom(ctx) != nil
	return r.pool(ctx, n, func(i int) error {
		if !tracing && observe == nil {
			return r.runCellResilient(ctx, i, desc, fn)
		}
		d := "cell"
		if desc != nil {
			d = desc(i)
		}
		if observe != nil {
			observe(CellEvent{Index: i, Desc: d, Start: true})
		}
		cctx, span := obs.StartSpanTrack(ctx, obs.CatCell, d, "index", strconv.Itoa(i))
		start := time.Now()
		err := r.runCellResilient(cctx, i, desc, fn)
		span.End()
		if observe != nil {
			observe(CellEvent{Index: i, Desc: d, Dur: time.Since(start), Err: err})
		}
		return err
	})
}

// pool runs step(0..n-1) on up to Workers() goroutines, issuing indices in
// order, and returns the error of the lowest failing index. Once ctx is
// done no further index starts; each index not issued fails with ctx's
// error.
func (r *Runner) pool(ctx context.Context, n int, step func(int) error) error {
	run := func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return step(i)
	}
	workers := r.Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if err := run(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		errIdx   = n
		firstErr error
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := run(i); err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// RunCellCtx is RunCell with an early-out on an already-canceled context.
// The simulation itself is not interruptible — cancellation is honored at
// cell granularity, which keeps results immutable and cacheable.
func (r *Runner) RunCellCtx(ctx context.Context, c Cell) (*timing.Report, *engine.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return r.runCell(ctx, c)
}

// describe renders the cell for error messages and journal entries.
func (c Cell) describe() string {
	fab := "nofabric"
	if c.Fab != nil {
		fab = c.Fab.Name()
	}
	return fmt.Sprintf("%s/%s/%dgpu/%s", c.App, c.Kind, c.GPUs, fab)
}

// RunMatrix executes the cells across the worker pool and returns their
// results in cell order, so assembled tables are byte-identical to a serial
// run. Canceling ctx stops issuing cells promptly; in-flight cells finish.
// A cell that panics or fails poisons only this matrix: the failure comes
// back as a typed *CellError naming the cell, and other cells (and other
// matrices on the same runner) keep running.
func (r *Runner) RunMatrix(ctx context.Context, cells []Cell) ([]CellResult, error) {
	_, results, err := r.RunMatrixWithBaselines(ctx, nil, Options{}, paradigm.Config{}, cells)
	return results, err
}

// RunMatrixWithBaselines executes the cells and, on the same worker pool,
// resolves the single-GPU baselines for apps under (opt, pcfg). It runs in
// two stages: first one fused replay per trace fills every structural key
// the matrix is the first to need (baselines included), then the baselines
// and cells price their fabrics, baselines first. Indices, errors and
// CellEvents refer to the second stage: baselines are 0..len(apps)-1, cells
// follow.
func (r *Runner) RunMatrixWithBaselines(ctx context.Context, apps []string, opt Options,
	pcfg paradigm.Config, cells []Cell) (map[string]float64, []CellResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	var p replayPlan
	baseEntries := make([]*baselineEntry, len(apps))
	entries := make([]*resultEntry, len(cells))
	r.mu.Lock()
	for i, app := range apps {
		baseEntries[i] = r.planBaselineLocked(&p, app, opt, pcfg)
	}
	for i := range cells {
		entries[i] = r.planLocked(&p, cells[i].resultKey())
	}
	r.mu.Unlock()
	r.replayGroups(ctx, p.groups)

	bases := make([]float64, len(apps))
	results := make([]CellResult, len(cells))
	desc := func(i int) string {
		if i < len(apps) {
			return "baseline/" + apps[i]
		}
		return cells[i-len(apps)].describe()
	}
	err := r.parallelForDesc(ctx, len(apps)+len(cells), desc, func(ctx context.Context, i int) error {
		if i < len(apps) {
			b, err := r.baseline(ctx, baseEntries[i])
			if err != nil {
				return err
			}
			bases[i] = b
			return nil
		}
		j := i - len(apps)
		rep, res, err := r.price(ctx, cells[j], entries[j])
		if err != nil {
			return err
		}
		results[j] = CellResult{Cell: cells[j], Report: rep, Result: res}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	m := make(map[string]float64, len(apps))
	for i, app := range apps {
		m[app] = bases[i]
	}
	return m, results, nil
}
