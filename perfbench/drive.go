package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gps/internal/engine"
	"gps/internal/experiments"
	"gps/internal/interconnect"
	"gps/internal/paradigm"
	"gps/internal/report"
	"gps/internal/service"
	"gps/internal/stats"
	"gps/internal/timing"
	"gps/internal/trace"
	"gps/internal/workload"
)

// The traced runs drive the simulator's layers directly, one span per call
// into a layer's public function: workload generation and trace.Collect,
// Kernel.EachBlock decode, paradigm.New, engine.Run and timing.Simulate.
// The helpers below are those calls; the suite driver and the traced gpsd
// executor compose them the way the experiments runner does.

// layerCounts is the work the directly driven layers did.
type layerCounts struct {
	mu                      sync.Mutex
	builds, builtAccesses   int64
	decodedAccesses         int64
	compressedBytes         uint64
	replays, replayAccesses int64
}

func (c *layerCounts) reset() {
	c.mu.Lock()
	c.builds, c.builtAccesses, c.decodedAccesses, c.compressedBytes = 0, 0, 0, 0
	c.replays, c.replayAccesses = 0, 0
	c.mu.Unlock()
}

// replayKind maps a paradigm to its engine.replay_s.<kind> metric suffix.
var replayKind = map[paradigm.Kind]string{
	paradigm.KindUM: "um", paradigm.KindUMHints: "umhints", paradigm.KindRDL: "rdl",
	paradigm.KindMemcpy: "memcpy", paradigm.KindGPS: "gps", paradigm.KindInfinite: "infinite",
}

// buildTrace generates app's trace and decodes it once.
func buildTrace(tk *task, c *layerCounts, app string, wcfg workload.Config) (*trace.Recorded, error) {
	spec, err := workload.ByName(app)
	if err != nil {
		return nil, err
	}
	var rt *trace.Recorded
	tk.do("workload.build", func() { rt = trace.Collect(spec.Build(wcfg)) })
	var decoded int64
	tk.do("trace.decode", func() { decoded, err = decodeAll(rt) })
	if err != nil {
		return nil, fmt.Errorf("decode %s: %w", app, err)
	}
	n, comp := traceSize(rt)
	c.mu.Lock()
	c.builds++
	c.builtAccesses += n
	c.decodedAccesses += decoded
	c.compressedBytes += comp
	c.mu.Unlock()
	return rt, nil
}

// replay builds kind's model over prog and runs the structural replay.
func replay(tk *task, c *layerCounts, prog *trace.Recorded, kind paradigm.Kind, pcfg paradigm.Config) (*engine.Result, error) {
	name := "paradigm.new"
	if kind == paradigm.KindUMHints {
		name += ".umhints" // UM+hints runs engine.ScanSharing at construction
	}
	var model engine.Model
	var err error
	tk.do(name, func() { model, err = paradigm.New(kind, prog, pcfg) })
	if err != nil {
		return nil, err
	}
	var res *engine.Result
	tk.do("engine.run."+replayKind[kind], func() { res = engine.Run(prog, model) })
	n, _ := traceSize(prog)
	c.mu.Lock()
	c.replays++
	c.replayAccesses += n
	c.mu.Unlock()
	return res, nil
}

// price runs the timing pass of one structural result on fab.
func price(tk *task, res *engine.Result, fab *interconnect.Fabric, pcfg paradigm.Config) *timing.Report {
	tcfg := timing.DefaultConfig(fab)
	if pcfg.PageBytes != 0 {
		tcfg.PageBytes = pcfg.PageBytes
	}
	var rep *timing.Report
	tk.do("timing.simulate", func() { rep = timing.Simulate(res, tcfg) })
	return rep
}

// decodeAll decodes every block of every kernel once, as a replay would,
// and returns the number of accesses decoded.
func decodeAll(rt *trace.Recorded) (int64, error) {
	var dec trace.BlockDecoder
	var n int64
	for pi := range rt.Ph {
		for ki := range rt.Ph[pi].Kernels {
			err := rt.Ph[pi].Kernels[ki].EachBlock(&dec, func(a []trace.Access) bool {
				n += int64(len(a))
				return true
			})
			if err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// traceSize returns a trace's access count and compressed block bytes.
func traceSize(rt *trace.Recorded) (int64, uint64) {
	var n int64
	var comp uint64
	for pi := range rt.Ph {
		for ki := range rt.Ph[pi].Kernels {
			k := &rt.Ph[pi].Kernels[ki]
			n += int64(k.NumAccesses())
			if k.Col != nil {
				comp += k.Col.CompressedBytes()
			}
		}
	}
	return n, comp
}

func workloadConfig(opt experiments.Options, gpus int) workload.Config {
	if opt.Iterations == 0 {
		opt.Iterations = 4
	}
	if opt.Scale == 0 {
		opt.Scale = 1
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	return workload.Config{NumGPUs: gpus, Iterations: opt.Iterations, Scale: opt.Scale, Seed: opt.Seed}
}

// runPool runs fn(0..n-1) on workers goroutines, issuing indexes in order
// like the experiments runner, and returns the summed task time measured
// by the pool's own clock.
func runPool(n int, fn func(int) error) (time.Duration, error) {
	var next, busy atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t0 := time.Now()
				if err := fn(i); err != nil {
					firstErr.CompareAndSwap(nil, err)
				}
				busy.Add(int64(time.Since(t0)))
			}
		}()
	}
	wg.Wait()
	err, _ := firstErr.Load().(error)
	return time.Duration(busy.Load()), err
}

// structKey is one structural replay, the unit the runner memoizes. It
// prices one cell per fabric in fabs; a nil fabric marks the single-GPU
// baseline, priced with no interconnect.
type structKey struct {
	app  string
	gpus int
	kind paradigm.Kind
	fabs []*interconnect.Fabric

	steady []float64 // steady-state simulated seconds, one per fabric
	priced int       // cells the table assembly has consumed
}

type driveResult struct {
	text string
	busy time.Duration
}

// driveMatrix builds each trace once, replays each structural key once and
// prices each cell, on a pool of workers tasks, then assembles the figure's
// table exactly as the experiments figure function does.
func driveMatrix(d matrixDef, opt experiments.Options, rec *recorder, c *layerCounts) (driveResult, error) {
	var dr driveResult
	kinds := paradigm.Figure8Kinds()
	type traceKey struct {
		app  string
		gpus int
	}
	var tkeys []traceKey
	traceIdx := map[traceKey]int{}
	addTrace := func(k traceKey) {
		if _, ok := traceIdx[k]; !ok {
			traceIdx[k] = len(tkeys)
			tkeys = append(tkeys, k)
		}
	}
	type keyID struct {
		app  string
		gpus int
		kind paradigm.Kind
	}
	var skeys []*structKey
	byKey := map[keyID]*structKey{}
	for _, app := range d.apps {
		addTrace(traceKey{app, 1})
		skeys = append(skeys, &structKey{app: app, gpus: 1, kind: paradigm.KindInfinite, fabs: []*interconnect.Fabric{nil}})
	}
	for _, row := range d.rows {
		for _, k := range kinds {
			for _, app := range d.apps {
				addTrace(traceKey{app, row.gpus})
				fab := row.fab
				if k == paradigm.KindInfinite {
					fab = interconnect.Infinite(row.gpus)
				}
				id := keyID{app, row.gpus, k}
				sk := byKey[id]
				if sk == nil {
					sk = &structKey{app: app, gpus: row.gpus, kind: k}
					byKey[id] = sk
					skeys = append(skeys, sk)
				}
				sk.fabs = append(sk.fabs, fab)
			}
		}
	}

	traces := make([]*trace.Recorded, len(tkeys))
	busy, err := runPool(len(tkeys), func(i int) error {
		k := tkeys[i]
		tk := rec.newTask("bench.task", fmt.Sprintf("trace/%s/%dgpu", k.app, k.gpus))
		defer tk.finish()
		rt, err := buildTrace(tk, c, k.app, workloadConfig(opt, k.gpus))
		traces[i] = rt
		return err
	})
	if err != nil {
		return dr, err
	}

	pcfg := paradigm.DefaultConfig()
	busy2, err := runPool(len(skeys), func(i int) error {
		sk := skeys[i]
		tk := rec.newTask("bench.task", fmt.Sprintf("%s/%s/%dgpu", sk.app, sk.kind, sk.gpus))
		defer tk.finish()
		res, err := replay(tk, c, traces[traceIdx[traceKey{sk.app, sk.gpus}]], sk.kind, pcfg)
		if err != nil {
			return err
		}
		sk.steady = make([]float64, len(sk.fabs))
		for j, fab := range sk.fabs {
			if fab == nil {
				fab = interconnect.Infinite(1)
			}
			sk.steady[j] = price(tk, res, fab, pcfg).SteadyTotal()
		}
		return nil
	})
	if err != nil {
		return dr, err
	}
	dr.busy = busy + busy2

	bases := map[string]float64{}
	for i, app := range d.apps {
		bases[app] = skeys[i].steady[0]
	}
	cols := make([]string, len(kinds))
	for i, k := range kinds {
		cols[i] = k.String()
	}
	tb := stats.NewTable(d.title, d.colName, cols...)
	for _, row := range d.rows {
		vals := make([]float64, len(kinds))
		for i, k := range kinds {
			var speedups []float64
			for _, app := range d.apps {
				sk := byKey[keyID{app, row.gpus, k}]
				speedups = append(speedups, stats.Speedup(bases[app], sk.steady[sk.priced]))
				sk.priced++
			}
			vals[i] = stats.GeoMean(speedups)
		}
		tb.AddRow(row.label, vals...)
	}
	dr.text = tb.String()
	return dr, nil
}

// tracedExecute is a gpsd executor that runs matrix specs (the only kind
// gpsd-mix submits) by driving the layers directly under a service.execute
// span, rendering the same table as service.Execute.
func tracedExecute(rec *recorder, c *layerCounts) service.ExecuteFunc {
	return func(_ context.Context, spec service.Spec) (*report.Report, error) {
		if spec.Type != "matrix" {
			return nil, fmt.Errorf("traced executor: %s specs are not part of gpsd-mix", spec.Type)
		}
		start := time.Now()
		tk := rec.newTask("service.execute", spec.Hash()[:12])
		defer tk.finish()
		opt := experiments.Options{Iterations: spec.Iterations, Scale: spec.Scale, Seed: spec.Seed}
		pcfg := paradigm.DefaultConfig()
		tb := stats.NewTable("Custom matrix", "cell", "total ms", "steady ms", "speedup", "fabric MB")
		tb.Fmt = "%10.3f"
		for _, cs := range spec.Cells {
			kind, err := paradigm.KindByName(cs.Paradigm)
			if err != nil {
				return nil, err
			}
			fab, err := interconnect.ByName(cs.Fabric, cs.GPUs)
			if err != nil {
				return nil, err
			}
			rep, res, err := driveCell(tk, c, cs.App, kind, cs.GPUs, fab, opt, pcfg)
			if err != nil {
				return nil, err
			}
			base, _, err := driveCell(tk, c, cs.App, paradigm.KindInfinite, 1, interconnect.Infinite(1), opt, pcfg)
			if err != nil {
				return nil, err
			}
			tb.AddRow(fmt.Sprintf("%s/%s/%dgpu/%s", cs.App, cs.Paradigm, cs.GPUs, cs.Fabric),
				rep.Total*1e3, rep.SteadyTotal()*1e3,
				stats.Speedup(base.SteadyTotal(), rep.SteadyTotal()),
				float64(res.InterconnectBytes(res.Meta.ProfilePhases))/1e6)
		}
		out := &report.Report{ParallelWorkers: experiments.Parallelism(), Shards: experiments.Shards()}
		out.AddTable("matrix", tb.String())
		out.Sections = []report.Section{{Name: "matrix", Seconds: time.Since(start).Seconds()}}
		out.TotalSeconds = time.Since(start).Seconds()
		return out, nil
	}
}

// driveCell builds, replays and prices one cell from scratch.
func driveCell(tk *task, c *layerCounts, app string, kind paradigm.Kind, gpus int,
	fab *interconnect.Fabric, opt experiments.Options, pcfg paradigm.Config) (*timing.Report, *engine.Result, error) {
	rt, err := buildTrace(tk, c, app, workloadConfig(opt, gpus))
	if err != nil {
		return nil, nil, err
	}
	res, err := replay(tk, c, rt, kind, pcfg)
	if err != nil {
		return nil, nil, err
	}
	return price(tk, res, fab, pcfg), res, nil
}
