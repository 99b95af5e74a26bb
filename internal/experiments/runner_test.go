package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"gps/internal/paradigm"
)

// TestRunnerCacheCounters is the memoization regression test: within one
// Runner, a trace is built exactly once per (app, workload config) and a
// baseline simulated exactly once per (app, options, paradigm config), no
// matter how many cells ask for them.
func TestRunnerCacheCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	r := NewRunner(4)
	opt := quick()
	kinds := []paradigm.Kind{paradigm.KindGPS, paradigm.KindUM, paradigm.KindMemcpy}
	for _, k := range kinds {
		if _, err := r.Speedup("jacobi", k, 4, MainFabric(4), opt, paradigm.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	}
	s := r.CacheStats()
	// Two distinct workload configs: the 1-GPU baseline trace and the 4-GPU
	// matrix trace. Everything else must be a hit.
	if s.TraceBuilds != 2 {
		t.Errorf("TraceBuilds = %d, want 2 (one per workload config)", s.TraceBuilds)
	}
	if want := uint64(len(kinds) - 1); s.TraceHits != want {
		t.Errorf("TraceHits = %d, want %d", s.TraceHits, want)
	}
	if s.BaselineRuns != 1 {
		t.Errorf("BaselineRuns = %d, want 1", s.BaselineRuns)
	}
	// One structural replay per kind plus the single baseline replay.
	if want := uint64(len(kinds) + 1); s.EngineRuns != want {
		t.Errorf("EngineRuns = %d, want %d", s.EngineRuns, want)
	}
	if want := uint64(len(kinds) - 1); s.BaselineHits != want {
		t.Errorf("BaselineHits = %d, want %d", s.BaselineHits, want)
	}
	if s.TraceBytes == 0 {
		t.Error("TraceBytes = 0, want resident traces accounted")
	}
}

// TestRunnerBaselineMatrixCounters drives the same assertion through the
// batched entry point the figures use.
func TestRunnerBaselineMatrixCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	r := NewRunner(4)
	opt := quick()
	apps := []string{"jacobi", "sssp"}
	var cells []Cell
	for _, app := range apps {
		for _, k := range []paradigm.Kind{paradigm.KindGPS, paradigm.KindRDL} {
			cells = append(cells, Cell{App: app, Kind: k, GPUs: 4, Fab: MainFabric(4), Opt: opt, Cfg: paradigm.DefaultConfig()})
		}
	}
	bases, results, err := r.RunMatrixWithBaselines(context.Background(), apps, opt, paradigm.DefaultConfig(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(bases) != len(apps) || len(results) != len(cells) {
		t.Fatalf("got %d bases / %d results, want %d / %d", len(bases), len(results), len(apps), len(cells))
	}
	s := r.CacheStats()
	// Per app: one 1-GPU trace and one 4-GPU trace.
	if want := uint64(2 * len(apps)); s.TraceBuilds != want {
		t.Errorf("TraceBuilds = %d, want %d", s.TraceBuilds, want)
	}
	if want := uint64(len(apps)); s.BaselineRuns != want {
		t.Errorf("BaselineRuns = %d, want %d", s.BaselineRuns, want)
	}
	// One replay per distinct (app, kind) key plus one per baseline.
	if want := uint64(len(cells) + len(apps)); s.EngineRuns != want {
		t.Errorf("EngineRuns = %d, want %d", s.EngineRuns, want)
	}
	// Each trace is requested once, by its replay group, and built then.
	if s.TraceHits != 0 {
		t.Errorf("TraceHits = %d, want 0 (one request per replay group)", s.TraceHits)
	}

	// A warm re-run is pure pricing: no replay, no trace build or lookup.
	if _, _, err := r.RunMatrixWithBaselines(context.Background(), apps, opt, paradigm.DefaultConfig(), cells); err != nil {
		t.Fatal(err)
	}
	if w := r.CacheStats(); w.EngineRuns != s.EngineRuns || w.TraceBuilds != s.TraceBuilds || w.TraceHits != s.TraceHits {
		t.Errorf("warm re-run replayed or built: before %+v, after %+v", s, w)
	}
}

// TestRunnerMixedConfigsReplayOnce: a matrix whose cells mix paradigm
// configs (the Figure 14 queue sizes) on one trace builds that trace once
// and decodes it once. The runner requests a trace once per replay group,
// so one build and no hits mean all three keys replayed in one fused pass.
func TestRunnerMixedConfigsReplayOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	opt := quick()
	small := paradigm.DefaultConfig()
	small.WriteQueueEntries = 4
	cell := func(k paradigm.Kind, cfg paradigm.Config) Cell {
		return Cell{App: "jacobi", Kind: k, GPUs: 4, Fab: MainFabric(4), Opt: opt, Cfg: cfg}
	}
	r := NewRunner(2)
	if _, err := r.RunMatrix(context.Background(), []Cell{
		cell(paradigm.KindGPS, paradigm.DefaultConfig()),
		cell(paradigm.KindGPS, small),
		cell(paradigm.KindRDL, paradigm.DefaultConfig()),
	}); err != nil {
		t.Fatal(err)
	}
	if s := r.CacheStats(); s.TraceBuilds != 1 || s.TraceHits != 0 || s.EngineRuns != 3 {
		t.Errorf("mixed configs: %d trace builds / %d trace hits / %d engine runs, want 1 / 0 / 3",
			s.TraceBuilds, s.TraceHits, s.EngineRuns)
	}
}

// TestConcurrentMatricesShareReplays: matrices running at once on one
// runner with overlapping cells (as gpsd jobs do) replay each structural key
// exactly once between them — whichever reaches a shared key's replay group
// first runs it, the other waits — and both get the serial results.
func TestConcurrentMatricesShareReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	opt := quick()
	var cells []Cell
	for _, k := range []paradigm.Kind{paradigm.KindGPS, paradigm.KindRDL, paradigm.KindUM} {
		cells = append(cells, Cell{App: "jacobi", Kind: k, GPUs: 2, Fab: MainFabric(2), Opt: opt, Cfg: paradigm.DefaultConfig()})
	}
	want, err := NewRunner(1).RunMatrix(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(2)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Rotate the cells so the matrices plan their keys in different
			// orders.
			rot := append(append([]Cell{}, cells[i%len(cells):]...), cells[:i%len(cells)]...)
			got, err := r.RunMatrix(context.Background(), rot)
			if err != nil {
				t.Errorf("matrix %d: %v", i, err)
				return
			}
			for j, cr := range got {
				w := want[(i+j)%len(cells)]
				if cr.Report.Total != w.Report.Total || !reflect.DeepEqual(cr.Result, w.Result) {
					t.Errorf("matrix %d cell %s differs from the serial run", i, cr.Cell.describe())
				}
			}
		}(i)
	}
	wg.Wait()
	if s := r.CacheStats(); s.EngineRuns != uint64(len(cells)) || s.TraceBuilds != 1 {
		t.Errorf("%d engine runs / %d trace builds, want %d / 1", s.EngineRuns, s.TraceBuilds, len(cells))
	}
}

// TestRunnerTraceEviction forces the budget below one trace's footprint and
// checks the LRU path runs without disturbing results.
func TestRunnerTraceEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	r := NewRunner(2)
	r.SetTraceBudget(1) // evict everything but the entry in use
	opt := quick()
	for _, app := range []string{"jacobi", "sssp", "jacobi"} {
		if _, err := r.Trace(app, opt.withDefaults().workloadConfig(4)); err != nil {
			t.Fatal(err)
		}
	}
	s := r.CacheStats()
	if s.TraceEvictions == 0 {
		t.Errorf("TraceEvictions = 0, want eviction under a 1-byte budget (stats %+v)", s)
	}
	// The second jacobi request rebuilds after eviction: 3 builds, 0 hits.
	if s.TraceBuilds != 3 {
		t.Errorf("TraceBuilds = %d, want 3 (rebuild after eviction)", s.TraceBuilds)
	}
}

// TestParallelForLowestError checks error determinism: whichever worker
// count, the reported error is the one from the lowest failing index.
func TestParallelForLowestError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		r := NewRunner(workers)
		err := r.parallelFor(context.Background(), 16, func(i int) error {
			if i == 11 || i == 3 {
				return fmt.Errorf("cell %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 3 failed" {
			t.Errorf("workers=%d: err = %v, want cell 3 failed", workers, err)
		}
	}
	if err := NewRunner(4).parallelFor(context.Background(), 4, func(int) error { return nil }); err != nil {
		t.Errorf("all-ok parallelFor returned %v", err)
	}
	want := errors.New("x")
	if err := NewRunner(4).parallelFor(context.Background(), 1, func(int) error { return want }); err != want {
		t.Errorf("single-job parallelFor returned %v", err)
	}
}

// TestFigure8ParallelDeterminism renders Figure 8 serially and on 2- and
// 8-worker pools with cold caches each time: the tables must be
// byte-identical. Run under -race this also exercises concurrent trace
// builds and cache sharing.
func TestFigure8ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full paradigm sweep")
	}
	prev := Default.Workers()
	defer SetParallelism(prev)
	render := func(workers int) string {
		SetParallelism(workers)
		Default.ResetCaches()
		tb, err := Figure8(context.Background(), quick())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return tb.String()
	}
	serial := render(1)
	for _, workers := range []int{2, 8} {
		if got := render(workers); got != serial {
			t.Errorf("workers=%d output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				workers, serial, got)
		}
	}
}

// TestFigure13ParallelDeterminism repeats the determinism check on the
// interconnect-generation sweep, whose matrix spans several fabrics and
// trace configurations.
func TestFigure13ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full generation sweep")
	}
	prev := Default.Workers()
	defer SetParallelism(prev)
	render := func(workers int) string {
		SetParallelism(workers)
		Default.ResetCaches()
		tb, err := Figure13(context.Background(), quick())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return tb.String()
	}
	serial := render(1)
	if got := render(4); got != serial {
		t.Errorf("4-worker output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, got)
	}
}

// TestRunMatrixPreCanceled: a canceled context stops the matrix before any
// cell is issued — no traces built, no replays run.
func TestRunMatrixPreCanceled(t *testing.T) {
	r := NewRunner(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cells := []Cell{{App: "jacobi", Kind: paradigm.KindGPS, GPUs: 2, Fab: MainFabric(2), Opt: quick(), Cfg: paradigm.DefaultConfig()}}
	if _, err := r.RunMatrix(ctx, cells); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunMatrix on canceled ctx = %v, want context.Canceled", err)
	}
	if s := r.CacheStats(); s.TraceBuilds != 0 || s.EngineRuns != 0 {
		t.Errorf("canceled matrix still simulated: %+v", s)
	}
	if _, _, err := r.RunCellCtx(ctx, cells[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCellCtx on canceled ctx = %v, want context.Canceled", err)
	}
}

// TestParallelForCancellation: canceling mid-flight stops further indices
// from being issued and surfaces the context error.
func TestParallelForCancellation(t *testing.T) {
	r := NewRunner(1) // serial: deterministic issue order
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	err := r.parallelFor(ctx, 100, func(i int) error {
		ran++
		if i == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parallelFor after cancel = %v, want context.Canceled", err)
	}
	if ran != 3 {
		t.Errorf("ran %d cells after cancel at index 2, want 3", ran)
	}
}

// TestCellObserverCounts: the context observer fires a start event and a
// completion event for every cell, which is how the service reports job
// progress and per-cell timing.
func TestCellObserverCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	r := NewRunner(2)
	opt := quick()
	cells := []Cell{
		{App: "jacobi", Kind: paradigm.KindGPS, GPUs: 2, Fab: MainFabric(2), Opt: opt, Cfg: paradigm.DefaultConfig()},
		{App: "jacobi", Kind: paradigm.KindMemcpy, GPUs: 2, Fab: MainFabric(2), Opt: opt, Cfg: paradigm.DefaultConfig()},
	}
	var starts, done atomic.Uint64
	var mu sync.Mutex
	open := map[int]bool{} // started, not yet completed
	ctx := WithCellObserver(context.Background(), func(ev CellEvent) {
		if ev.Desc == "" || ev.Desc == "cell" {
			t.Errorf("event %+v has no cell description", ev)
		}
		mu.Lock()
		defer mu.Unlock()
		if ev.Start {
			starts.Add(1)
			open[ev.Index] = true
			return
		}
		if !open[ev.Index] {
			t.Errorf("completion for cell %d without a start event", ev.Index)
		}
		delete(open, ev.Index)
		if ev.Err == nil && ev.Dur <= 0 {
			t.Errorf("completed cell %d reported non-positive duration %v", ev.Index, ev.Dur)
		}
		done.Add(1)
	})
	if _, err := r.RunMatrix(ctx, cells); err != nil {
		t.Fatal(err)
	}
	if starts.Load() != uint64(len(cells)) || done.Load() != uint64(len(cells)) {
		t.Errorf("observer fired %d starts / %d completions, want %d of each",
			starts.Load(), done.Load(), len(cells))
	}
	if len(open) != 0 {
		t.Errorf("%d cells started but never completed", len(open))
	}
}
