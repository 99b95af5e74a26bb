package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"gps/internal/experiments"
	"gps/internal/interconnect"
	"gps/internal/paradigm"
	"gps/internal/stats"
	"gps/internal/workload"
)

// matrixDef describes one experiments figure twice over: as the
// experiments function the untraced run calls, and as the cell matrix the
// traced run drives layer by layer. Both must render the same table.
type matrixDef struct {
	figure  func(context.Context, experiments.Options) (*stats.Table, error)
	ref     string // table at seed 1, default size
	title   string
	colName string
	apps    []string
	rows    []matrixRow
	// paper is the GPS speedup the paper reports for row paperRow.
	paperRow, paperWhat string
	paper               float64
}

type matrixRow struct {
	label string
	gpus  int
	fab   *interconnect.Fabric // fabric of every paradigm except infiniteBW
}

func suiteDef(name string) matrixDef {
	switch name {
	case "paper-4gpu":
		d := matrixDef{
			figure:   experiments.Figure13,
			ref:      refFigure13,
			title:    "Figure 13: sensitivity to interconnect bandwidth (geomean 4-GPU speedup)",
			colName:  "interconnect",
			apps:     workload.Names(),
			paperRow: "PCIe 4.0", paperWhat: "4-GPU geomean on PCIe 4.0", paper: 3.0,
		}
		for _, gen := range []interconnect.PCIeGen{interconnect.PCIe3, interconnect.PCIe4, interconnect.PCIe5, interconnect.PCIe6} {
			label := gen.String()
			if gen == interconnect.PCIe6 {
				label += " (projected)"
			}
			d.rows = append(d.rows, matrixRow{label: label, gpus: 4, fab: interconnect.PCIeTree(4, gen)})
		}
		return d
	default: // hier-scale
		d := matrixDef{
			figure:   experiments.FigureHierarchy,
			ref:      refHier,
			title:    "Hierarchical scaling: 16/32/64 GPUs on multi-level NVSwitch (geomean speedup over 1 GPU)",
			colName:  "gpus",
			apps:     []string{"jacobi", "pagerank", "als", "hit"},
			paperRow: "16", paperWhat: "16-GPU geomean", paper: 7.9,
		}
		for _, g := range []int{16, 32, 64} {
			d.rows = append(d.rows, matrixRow{label: strconv.Itoa(g), gpus: g,
				fab: interconnect.HierarchicalNVSwitch(g, 8, interconnect.NVLink3Bandwidth, 2)})
		}
		return d
	}
}

// cells is the matrix size including one baseline per app.
func (d matrixDef) cells() int {
	return len(d.rows)*len(paradigm.Figure8Kinds())*len(d.apps) + len(d.apps)
}

func suiteOptions(cfg config) experiments.Options {
	opt := experiments.Options{Seed: cfg.seed}
	if cfg.tiny {
		opt.Iterations = 1
	}
	return opt
}

// suiteSetup is everything a suite run does before its first timed call:
// resolve the matrix, its workloads and fabrics, and size the runner.
func suiteSetup(cfg config) (func(), error) {
	d := suiteDef(cfg.workload)
	for _, app := range d.apps {
		if _, err := workload.ByName(app); err != nil {
			return nil, err
		}
	}
	experiments.Default.ResetCaches()
	experiments.Default.SetWorkers(workers)
	return func() {}, nil
}

// warmRenders is how many times each pass re-renders the figure from the
// warm caches. One re-render takes about 10 ms on 2 cores, and its median
// cell latency moves by up to 2x from one 10 ms window to the next on a
// shared host, so the hot median pools many windows spread over the run.
const warmRenders = 30

// figurePass is one cold regeneration of the figure through the
// experiments runner, followed by warmRenders re-renders on the same runner.
type figurePass struct {
	text       string
	wall, cpu  float64
	calib      float64         // calibration kernel time taken just before the pass
	cold, hot  []time.Duration // per-cell latencies from the cell observer
	busy       time.Duration   // summed cold cell time: the pool's busy time
	cache      experiments.CacheStats
	before     memSnap
	after      memSnap
	warmText   string // the first re-render's table
	warmDiffer int    // later re-renders whose table differs from warmText
	cellErrors int
}

// runFigure regenerates the figure from a cold runner with a cell observer
// attached, then renders it again warmRenders times from the warm caches.
func runFigure(ctx context.Context, d matrixDef, opt experiments.Options) (figurePass, error) {
	var p figurePass
	experiments.Default.ResetCaches()
	runtime.GC()
	p.calib = calibrate(workers)
	var mu sync.Mutex
	var lat *[]time.Duration
	observe := func(ev experiments.CellEvent) {
		if ev.Start {
			return
		}
		mu.Lock()
		*lat = append(*lat, ev.Dur)
		if ev.Err != nil {
			p.cellErrors++
		}
		mu.Unlock()
	}
	octx := experiments.WithCellObserver(ctx, observe)

	lat = &p.cold
	p.before = readMem()
	c0, t0 := cpuSeconds(), time.Now()
	tb, err := d.figure(octx, opt)
	p.wall, p.cpu = time.Since(t0).Seconds(), cpuSeconds()-c0
	p.after = readMem()
	if err != nil {
		return p, err
	}
	p.text = tb.String()
	p.cache = experiments.Default.CacheStats()
	for _, c := range p.cold {
		p.busy += c
	}

	mu.Lock()
	lat = &p.hot
	mu.Unlock()
	runtime.GC() // the cold pass's garbage is not the warm path's cost
	for i := 0; i < warmRenders; i++ {
		warm, err := d.figure(octx, opt)
		if err != nil {
			return p, err
		}
		if text := warm.String(); i == 0 {
			p.warmText = text
		} else if text != p.warmText {
			p.warmDiffer++
		}
	}
	return p, nil
}

func runSuite(cfg config) (*result, error) {
	res := newResult()
	d := suiteDef(cfg.workload)
	opt := suiteOptions(cfg)
	ctx := context.Background()

	var setupSamples, setupCalib []float64
	if !cfg.trace {
		var err error
		if setupSamples, setupCalib, err = measureSetup(cfg); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	if _, err := suiteSetup(cfg); err != nil {
		return nil, err
	}
	if len(setupSamples) == 0 {
		setupSamples = []float64{time.Since(t0).Seconds()}
	}

	// want is the table every pass must render: the reference at the
	// reference seed and size, else the first pass's own table.
	want := ""
	if cfg.seed == 1 && !cfg.tiny {
		want = d.ref
	}
	first := true
	gate := func(label, text string) {
		if first {
			first = false
			sum := digest(text)
			res.notef("table sha256 %s (seed %d)", sum, cfg.seed)
			if cfg.expectDigest != "" && sum != cfg.expectDigest {
				res.fail(d.cells(), "%s: table sha256 %s, expected %s", label, sum, cfg.expectDigest)
			}
		}
		if want == "" {
			want = text
		}
		checkTable(res, label, text, want, d.cells())
	}

	var passes []figurePass
	start := time.Now()
	for len(passes) == 0 || time.Since(start).Seconds() < cfg.seconds {
		p, err := runFigure(ctx, d, opt)
		res.attempted += d.cells() * (1 + warmRenders)
		if err != nil {
			res.fail(d.cells(), "figure failed: %v", err)
			break
		}
		if p.cellErrors > 0 {
			res.fail(p.cellErrors, "%d cells failed", p.cellErrors)
		}
		if p.warmDiffer > 0 {
			res.fail(p.warmDiffer*d.cells(), "pass %d: %d warm re-renders differ from the first", len(passes)+1, p.warmDiffer)
		}
		gate(fmt.Sprintf("pass %d cold", len(passes)+1), p.text)
		gate(fmt.Sprintf("pass %d warm", len(passes)+1), p.warmText)
		passes = append(passes, p)
	}
	if len(passes) == 0 {
		return res, nil
	}
	if want == d.ref {
		res.notef("table equals the BENCH_10.json reference (seed 1)")
	}
	paperComparison(res, passes[0].text, d.paperRow, d.paperWhat, d.paper)

	var walls, cpus, calibs, cold, hot []float64
	for _, p := range passes {
		walls = append(walls, p.wall)
		cpus = append(cpus, p.cpu)
		calibs = append(calibs, p.calib)
		cold = append(cold, durations(p.cold)...)
		hot = append(hot, durations(p.hot)...)
	}
	n := len(passes)
	res.notef("pass walls %v s, cpu %v s, calibration %v s", fmtSeconds(walls), fmtSeconds(cpus), fmtSeconds(calibs))
	f := speedFactor(calibs)
	rawWall, rawCPU := median(walls), median(cpus)
	res.notef("host speed factor %.4f (calibration reference %.3fs): raw wall %.4fs cpu %.4fs, at reference speed wall %.4fs cpu %.4fs",
		f, calibRef, rawWall, rawCPU, rawWall*f, rawCPU*f)
	res.notef("hot = cells of the warm re-renders (memo caches only), cold = cells of the cold regeneration; goodput = cold cells per wall second at reference speed, i.e. a constant over wall_s")
	setLatencies(res, cfg.trace, hot, cold, f)
	if cfg.trace {
		res.set("bench.host_speed", f, n)
		res.set("bench.raw_wall_s", rawWall, n)
		res.set("bench.raw_cpu_s", rawCPU, n)
		return res, suiteTraced(cfg, d, opt, passes, rawWall, res, gate)
	}
	setSetup(res, setupSamples, setupCalib, f)
	res.set("wall_s", rawWall*f, n)
	res.set("cpu_s", rawCPU*f, n)
	res.set("peak_rss_mb", peakRSSMB(), 1)
	// A fixed cell count over the pass's wall time: for the suite
	// workloads goodput carries no signal apart from wall_s.
	res.set("goodput_jobs_per_s", float64(d.cells())/(rawWall*f), n)
	return res, nil
}

// suiteTraced drives the figure's layers directly with spans, checks the
// rendered table against the untraced pass, and reports per-layer metrics.
func suiteTraced(cfg config, d matrixDef, opt experiments.Options, passes []figurePass, untracedWall float64,
	res *result, gate func(label, text string)) error {
	p := passes[0]
	rec := newRecorder()
	var counts layerCounts
	t0 := time.Now()
	dr, err := driveMatrix(d, opt, rec, &counts)
	tracedWall := time.Since(t0).Seconds()
	res.attempted += d.cells()
	if err != nil {
		res.fail(d.cells(), "traced pass failed: %v", err)
		return nil
	}
	gate("traced pass", dr.text)

	lt := aggregate(rec.spans, nil)
	reportLayers(res, lt, &counts)
	checkAccounting(res, lt, dr.busy.Seconds())
	res.set("bench.trace_overhead_frac", tracedWall/untracedWall-1, len(passes))
	res.set("bench.lag_p99_s", 0, 0) // closed loop: nothing is scheduled

	cs := p.cache
	res.set("experiments.trace_hits", float64(cs.TraceHits), 1)
	res.set("experiments.engine_hits", float64(cs.EngineHits), 1)
	res.set("experiments.baseline_runs", float64(cs.BaselineRuns), 1)
	hits := cs.TraceHits + cs.EngineHits + cs.BaselineHits
	lookups := hits + cs.TraceBuilds + cs.EngineRuns + cs.BaselineRuns
	res.set("experiments.memo_hit_ratio", float64(hits)/float64(lookups), int(lookups))
	cold := durations(p.cold)
	res.set("experiments.p50_cell_s", quantile(cold, 0.5), len(cold))
	res.set("experiments.max_cell_s", quantile(cold, 1), len(cold))
	res.set("experiments.pool_idle_frac", 1-p.busy.Seconds()/(float64(workers)*p.wall), len(cold))
	res.setRuntime(p.before, p.after)
	for _, m := range perLayer {
		if strings.HasPrefix(m.name, "service.") || strings.HasPrefix(m.name, "httpapi.") {
			res.set(m.name, 0, 0) // service and httpapi do not run in this workload
		}
	}
	res.notef("untraced wall %.3fs (median of %d), traced wall %.3fs", untracedWall, len(passes), tracedWall)
	return writeSpans(cfg, rec, res)
}

// reportLayers turns span self times and work counts into the per-layer
// metrics shared by every workload.
func reportLayers(res *result, lt layerTimes, c *layerCounts) {
	res.set("workload.build_s", lt.self["workload"], lt.calls["workload.build"])
	res.set("workload.builds", float64(c.builds), 1)
	res.set("workload.accesses", float64(c.builtAccesses), 1)
	res.set("trace.decode_s", lt.self["trace"], lt.calls["trace.decode"])
	logicalMB := float64(c.decodedAccesses) * 24 / 1e6 // 24 B per flat trace.Access
	res.set("trace.decode_mb_per_s", ratio(logicalMB, lt.self["trace"]), lt.calls["trace.decode"])
	res.set("trace.compressed_mb", float64(c.compressedBytes)/1e6, 1)
	res.set("trace.logical_mb", float64(c.builtAccesses)*24/1e6, 1)
	res.set("paradigm.new_s", lt.self["paradigm"], lt.calls["paradigm.new"]+lt.calls["paradigm.new.umhints"])
	res.set("paradigm.new_s.umhints", lt.byName["paradigm.new.umhints"], lt.calls["paradigm.new.umhints"])
	res.set("engine.replay_s", lt.self["engine"], int(c.replays))
	res.set("engine.replays", float64(c.replays), 1)
	res.set("engine.accesses_per_s", ratio(float64(c.replayAccesses), lt.self["engine"]), int(c.replays))
	for _, k := range replayKind {
		name := "engine.run." + k
		res.set("engine.replay_s."+k, lt.byName[name], lt.calls[name])
	}
	res.set("timing.simulate_s", lt.self["timing"], lt.calls["timing.simulate"])
	res.set("timing.calls", float64(lt.calls["timing.simulate"]), 1)
	res.set("timing.max_call_s", lt.maxCall["timing.simulate"], lt.calls["timing.simulate"])
	res.set("bench.unattributed_s", lt.unattributed, 1)
	res.set("bench.layer_self_s", lt.layerSum(), 1)
	shares := lt.shares()
	line := "layer self-time shares:"
	for _, l := range []string{"workload", "trace", "paradigm", "engine", "timing", "service", "httpapi"} {
		if s, ok := lt.self[l]; ok {
			line += fmt.Sprintf(" %s %.3fs (%.1f%%)", l, s, 100*shares[l])
		}
	}
	res.notef("%s; unattributed %.3fs", line, lt.unattributed)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkAccounting requires the layers' self time plus the unattributed
// time to equal the busy time the worker pool observed with its own clock.
// Self times over a span tree add up to its roots' durations, and the
// pool's timer brackets the same closure as each root span, so the
// equality holds by construction: the check catches span bookkeeping bugs
// (an unclosed span, a child outside its parent, a task without a root
// span), not work done outside the pool's tasks.
func checkAccounting(res *result, lt layerTimes, busy float64) {
	got := lt.layerSum() + lt.unattributed
	tol := 1e-3 + 1e-3*busy
	res.notef("accounting: layers %.4fs + unattributed %.4fs = %.4fs; pool busy %.4fs (unattributed %.2f%%)",
		lt.layerSum(), lt.unattributed, got, busy, 100*ratio(lt.unattributed, busy))
	if d := got - busy; d > tol || d < -tol {
		res.fail(0, "accounting: span time %.4fs != pool busy time %.4fs", got, busy)
	}
}

// writeSpans writes the traced run's span file.
func writeSpans(cfg config, rec *recorder, res *result) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.trace.json", cfg.workload, cfg.seed))
	if err := writePerfetto(path, rec.spans); err != nil {
		return err
	}
	res.notef("spans: %d written to %s", len(rec.spans), path)
	return nil
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}
