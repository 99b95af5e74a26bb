package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
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
// against. Runner exploits both facts: a worker pool executes cells across
// goroutines with results assembled in deterministic cell order (parallel
// output is byte-identical to serial), while three memoizing caches make
// sure every trace is built once, every structural replay runs once (the
// engine never sees the fabric, so fabric sweeps share it), and every
// baseline is simulated once per configuration. Cells share only immutable
// state — the Recorded trace, the structural Result and the Fabric
// description — and each gets its own paradigm Model, so runs are race-free
// by construction.

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
	TraceBuilds    uint64 // traces generated and materialized
	TraceHits      uint64 // trace requests served from cache
	TraceEvictions uint64 // traces dropped to respect the memory budget
	TraceBytes     uint64 // approximate bytes of resident cached traces (compressed)
	// TraceLogicalBytes is what the resident traces would occupy in the flat
	// 24 B/record layout: TraceLogicalBytes / TraceBytes is the columnar
	// compression ratio of the cache.
	TraceLogicalBytes uint64
	TraceSpills       uint64 // traces whose blocks moved to the spill file under budget pressure
	TraceSpillBytes   uint64 // compressed bytes written to the spill file
	SpillBlockReads   uint64 // block reads served from the spill file during replay
	SpillReadBytes    uint64 // bytes read back from the spill file
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
	spilled bool   // blocks moved to the runner's spill file
	lastUse uint64 // monotone tick for LRU eviction
}

type baselineKey struct {
	app  string
	wcfg workload.Config // normalized single-GPU workload config
	pcfg paradigm.Config
}

type baselineEntry struct {
	once sync.Once
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

type resultEntry struct {
	once sync.Once
	res  *engine.Result
	err  error
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
	budget    uint64 // spill/eviction threshold for resident

	// spill is the shared anonymous temp file trace blocks move to under
	// budget pressure, created lazily on the first spill. It is never closed
	// explicitly: evicted traces may still be replaying from it, the file is
	// already unlinked, and the fd is reclaimed with the Runner.
	spill       *trace.SpillFile
	spillBroken bool // spill file creation failed; fall back to eviction

	traceBuilds    atomic.Uint64
	traceHits      atomic.Uint64
	traceEvictions atomic.Uint64
	traceSpills    atomic.Uint64
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
	sf := r.spill
	r.mu.Unlock()
	cs := CacheStats{
		TraceBuilds:       r.traceBuilds.Load(),
		TraceHits:         r.traceHits.Load(),
		TraceEvictions:    r.traceEvictions.Load(),
		TraceBytes:        resident,
		TraceLogicalBytes: logical,
		TraceSpills:       r.traceSpills.Load(),
		EngineRuns:        r.engineRuns.Load(),
		EngineHits:        r.engineHits.Load(),
		BaselineRuns:      r.baselineRuns.Load(),
		BaselineHits:      r.baselineHits.Load(),
	}
	if sf != nil {
		cs.TraceSpillBytes = uint64(sf.Size())
		cs.SpillBlockReads = sf.Reads()
		cs.SpillReadBytes = sf.ReadBytes()
	}
	return cs
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
	// Drop the spill file reference: dropped traces may still be replaying
	// from it, so the fd is left to the garbage collector rather than closed.
	r.spill = nil
	r.spillBroken = false
	r.mu.Unlock()
	r.traceBuilds.Store(0)
	r.traceHits.Store(0)
	r.traceEvictions.Store(0)
	r.traceSpills.Store(0)
	r.engineRuns.Store(0)
	r.engineHits.Store(0)
	r.baselineRuns.Store(0)
	r.baselineHits.Store(0)
}

// accessBytes is unsafe.Sizeof(trace.Access{}): the per-record cost of the
// flat array-of-structs layout, used as the logical-size baseline.
const accessBytes = 24

// traceCost approximates the resident heap bytes of a materialized trace.
// Columnar kernels count their compressed block bytes — or just their block
// index once spilled — so the cache budget admits far more traces than the
// flat layout would.
func traceCost(rec *trace.Recorded) uint64 {
	var cost uint64 = 4 << 10
	for i := range rec.Ph {
		cost += 1 << 10
		for k := range rec.Ph[i].Kernels {
			kn := &rec.Ph[i].Kernels[k]
			cost += 256
			if kn.Col != nil {
				cost += kn.Col.ResidentBytes()
			} else {
				cost += uint64(len(kn.Accesses)) * accessBytes
			}
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
		_, span := obs.StartSpan(ctx, obs.CatPhase, "trace-build", "app", app)
		defer span.End()
		spec, err := workload.ByName(app)
		if err != nil {
			e.err = err
			return
		}
		e.rec = trace.Collect(spec.Build(cfg))
		e.cost = traceCost(e.rec)
		e.logical = traceLogical(e.rec)
		r.traceBuilds.Add(1)
		r.mu.Lock()
		r.resident += e.cost
		r.logical += e.logical
		r.evictLocked(key)
		r.mu.Unlock()
	})
	return e.rec, e.err
}

// evictLocked brings the cache back under budget in two passes. Pass 1
// spills: the least-recently-used entries with resident columnar blocks
// (including the entry just inserted — under a tiny budget even the newest
// trace belongs on disk) move their blocks to the shared spill file, keeping
// the trace cached and replayable at a fraction of the cost. Pass 2 evicts:
// if spilling every candidate still leaves the cache over budget (flat
// traces, the per-trace index overhead, or a broken spill file), the LRU
// entries other than keep are dropped entirely and must be rebuilt on the
// next request. Callers hold r.mu.
func (r *Runner) evictLocked(keep traceKey) {
	for r.resident > r.budget {
		var victim *traceEntry
		for _, e := range r.traces {
			if e.cost == 0 || e.spilled || e.rec == nil { // cost 0: still building
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			break
		}
		victim.spilled = true
		sf := r.spillFileLocked()
		if sf == nil {
			break // no spill tier available: eviction only
		}
		freed, err := victim.rec.Spill(sf)
		if freed > 0 {
			r.traceSpills.Add(1)
		}
		// Recompute rather than trust freed: a partial spill (write error)
		// leaves some kernels resident, and the recompute prices exactly
		// what stayed on the heap.
		newCost := traceCost(victim.rec)
		r.resident += newCost
		r.resident -= victim.cost
		victim.cost = newCost
		_ = err // unreadable spilled blocks surface as cell errors at replay
	}
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

// spillFileLocked lazily creates the runner's shared spill file; nil means
// the spill tier is unavailable (creation failed once; do not retry per
// victim). Callers hold r.mu.
func (r *Runner) spillFileLocked() *trace.SpillFile {
	if r.spill == nil && !r.spillBroken {
		sf, err := trace.NewSpillFile("")
		if err != nil {
			r.spillBroken = true
		} else {
			r.spill = sf
		}
	}
	return r.spill
}

// structural returns the engine.Result of replaying (app, wcfg) under
// (kind, pcfg), running the replay at most once per key. The result is
// immutable downstream: timing.Simulate and the figure assemblies only read
// it, so one result safely prices any number of fabrics.
func (r *Runner) structural(ctx context.Context, app string, wcfg workload.Config, kind paradigm.Kind,
	pcfg paradigm.Config) (*engine.Result, error) {
	key := resultKey{app: app, wcfg: wcfg, kind: kind, pcfg: pcfg}
	r.mu.Lock()
	e := r.results[key]
	if e == nil {
		e = &resultEntry{}
		r.results[key] = e
	} else {
		r.engineHits.Add(1)
	}
	r.mu.Unlock()

	e.once.Do(func() {
		prog, err := r.traceCtx(ctx, app, wcfg)
		if err != nil {
			e.err = err
			return
		}
		model, err := paradigm.New(kind, prog, pcfg)
		if err != nil {
			e.err = err
			return
		}
		sctx, span := obs.StartSpan(ctx, obs.CatPhase, "engine-replay",
			"app", app, "paradigm", kind.String())
		e.res = engine.RunObserved(prog, model, enginePhaseSpans(sctx))
		span.End()
		r.engineRuns.Add(1)
	})
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

// phaseSpanObserver is used inside one engine.RunObserved call, which
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

// runCell is RunCell under the caller's context: the timing pass records a
// render phase span, and a trace build or structural replay triggered by
// this cell records its phase spans too.
func (r *Runner) runCell(ctx context.Context, c Cell) (*timing.Report, *engine.Result, error) {
	opt := c.Opt.withDefaults()
	res, err := r.structural(ctx, c.App, opt.workloadConfig(c.GPUs), c.Kind, c.Cfg)
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
	return r.baselineCtx(context.Background(), app, opt, pcfg)
}

func (r *Runner) baselineCtx(ctx context.Context, app string, opt Options, pcfg paradigm.Config) (float64, error) {
	opt = opt.withDefaults()
	key := baselineKey{app: app, wcfg: opt.workloadConfig(1), pcfg: pcfg}
	r.mu.Lock()
	e := r.baselines[key]
	if e == nil {
		e = &baselineEntry{}
		r.baselines[key] = e
	} else {
		r.baselineHits.Add(1)
	}
	r.mu.Unlock()

	e.once.Do(func() {
		rep, _, err := r.runCell(ctx, Cell{
			App: app, Kind: paradigm.KindInfinite, GPUs: 1,
			Fab: interconnect.Infinite(1), Opt: opt, Cfg: pcfg,
		})
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
	step := func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
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
	}
	workers := r.Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if err := step(i); err != nil && firstErr == nil {
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
				if err := step(i); err != nil {
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
	results := make([]CellResult, len(cells))
	desc := func(i int) string { return cells[i].describe() }
	err := r.parallelForDesc(ctx, len(cells), desc, func(ctx context.Context, i int) error {
		rep, res, err := r.runCell(ctx, cells[i])
		if err != nil {
			return err
		}
		results[i] = CellResult{Cell: cells[i], Report: rep, Result: res}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// RunMatrixWithBaselines executes the cells and, on the same worker pool,
// resolves the single-GPU baselines for apps under (opt, pcfg). Baseline
// jobs are scheduled first so the normalization runs overlap the matrix.
func (r *Runner) RunMatrixWithBaselines(ctx context.Context, apps []string, opt Options,
	pcfg paradigm.Config, cells []Cell) (map[string]float64, []CellResult, error) {
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
			b, err := r.baselineCtx(ctx, apps[i], opt, pcfg)
			if err != nil {
				return err
			}
			bases[i] = b
			return nil
		}
		j := i - len(apps)
		rep, res, err := r.runCell(ctx, cells[j])
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
