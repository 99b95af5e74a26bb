package engine_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"gps/internal/engine"
	"gps/internal/paradigm"
	"gps/internal/trace"
	"gps/internal/workload"
)

// TestRunShardedMatchesRun proves that concurrent cells over one shared
// trace replay exactly as a lone sequential Run does. The runner's cell pool
// is the simulator's only parallelism, and its trace cache hands the same
// Program to every cell that needs it, so any shared mutable state in the
// trace or a paradigm would surface here as a divergence (or under -race as
// a data race). The test keeps the name it had when it checked intra-cell
// sharded replay; "shards" now counts the concurrent replays of the cell.
// Results are compared with reflect.DeepEqual, which covers every profile
// counter, hit rate, and histogram.
func TestRunShardedMatchesRun(t *testing.T) {
	cfg := workload.Config{NumGPUs: 4, Iterations: 1, Scale: 1, Seed: 1}
	for _, app := range []string{"jacobi", "pagerank"} {
		spec, err := workload.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		prog := spec.Build(cfg)
		for _, kind := range paradigm.Kinds() {
			want := runOnce(t, prog, kind)
			for _, shards := range []int{2, 3, 8} {
				t.Run(fmt.Sprintf("%s/%s/shards=%d", app, kind, shards), func(t *testing.T) {
					for i, got := range runConcurrently(t, prog, kind, shards) {
						if !reflect.DeepEqual(want, got) {
							t.Errorf("concurrent replay %d diverges from sequential\nseq: %+v\ngot: %+v", i, want, got)
						}
					}
				})
			}
		}
	}
}

func runOnce(t *testing.T, prog trace.Program, kind paradigm.Kind) *engine.Result {
	t.Helper()
	model, err := paradigm.New(kind, prog, paradigm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return engine.Run(prog, model)
}

// runConcurrently replays prog n times at once, each replay with its own
// model, the way n runner workers replay n cells that share a cached trace.
func runConcurrently(t *testing.T, prog trace.Program, kind paradigm.Kind, n int) []*engine.Result {
	t.Helper()
	models := make([]engine.Model, n)
	for i := range models {
		m, err := paradigm.New(kind, prog, paradigm.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
	}
	results := make([]*engine.Result, n)
	var wg sync.WaitGroup
	for i := range models {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = engine.Run(prog, models[i])
		}(i)
	}
	wg.Wait()
	return results
}

// TestRunFusedMatchesRun proves that one fused replay of every paradigm
// equals each paradigm's lone Run, and that two fused replays running at
// once over one shared Program (as two runner workers replaying two groups
// of a cached trace) do too.
func TestRunFusedMatchesRun(t *testing.T) {
	cfg := workload.Config{NumGPUs: 4, Iterations: 1, Scale: 1, Seed: 1}
	kinds := paradigm.Kinds()
	for _, app := range []string{"jacobi", "pagerank"} {
		spec, err := workload.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		prog := trace.Collect(spec.Build(cfg))
		want := make([]*engine.Result, len(kinds))
		for i, kind := range kinds {
			want[i] = runOnce(t, prog, kind)
		}
		t.Run(app+"/columnar", func(t *testing.T) {
			check := func(label string, got []*engine.Result) {
				for i, kind := range kinds {
					if !reflect.DeepEqual(want[i], got[i]) {
						t.Errorf("%s: %s diverges from its lone Run\nrun:   %+v\nfused: %+v", label, kind, want[i], got[i])
					}
				}
			}
			check("fused", engine.RunFused(prog, newModels(t, prog, kinds), nil))
			got := make([][]*engine.Result, 2)
			models := [][]engine.Model{newModels(t, prog, kinds), newModels(t, prog, kinds)}
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i] = engine.RunFused(prog, models[i], nil)
				}(i)
			}
			wg.Wait()
			for i := range got {
				check(fmt.Sprintf("concurrent fused %d", i), got[i])
			}
		})
	}
}

func newModels(t *testing.T, prog trace.Program, kinds []paradigm.Kind) []engine.Model {
	t.Helper()
	models := make([]engine.Model, len(kinds))
	for i, kind := range kinds {
		m, err := paradigm.New(kind, prog, paradigm.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
	}
	return models
}
