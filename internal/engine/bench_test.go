package engine_test

import (
	"fmt"
	"testing"

	"gps/internal/engine"
	"gps/internal/paradigm"
	"gps/internal/trace"
	"gps/internal/workload"
)

// benchConfig keeps the traces small enough that one engine.Run iteration
// is a few milliseconds: these benchmarks exist to profile the per-access
// hot path, not the experiment matrix.
var benchConfig = workload.Config{NumGPUs: 4, Iterations: 2, Scale: 1, Seed: 1}

// BenchmarkEngineRun replays a quick Jacobi (peer-to-peer halos),
// Pagerank (many-to-many atomics) and ALS (44% of its lines from scattered
// instructions, the per-lane path) trace through every headline paradigm.
// The traces are collected first, as the runner's trace cache holds them,
// so trace generation stays out of the timing.
func BenchmarkEngineRun(b *testing.B) {
	for _, app := range []string{"jacobi", "pagerank", "als"} {
		spec, err := workload.ByName(app)
		if err != nil {
			b.Fatal(err)
		}
		prog := trace.Collect(spec.Build(benchConfig))
		for _, kind := range paradigm.Figure8Kinds() {
			b.Run(fmt.Sprintf("%s/%s", app, kind), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m, err := paradigm.New(kind, prog, paradigm.DefaultConfig())
					if err != nil {
						b.Fatal(err)
					}
					engine.Run(prog, m)
				}
			})
		}
	}
}

// BenchmarkEngineRunFused replays the six Figure 8 paradigms over one
// columnar trace, as the experiment runner's trace cache holds it: once in
// a single fused pass ("fused") and once as six separate passes
// ("separate"). Their ratio is what fusing saves in the trace front end.
func BenchmarkEngineRunFused(b *testing.B) {
	kinds := paradigm.Figure8Kinds()
	for _, app := range []string{"jacobi", "pagerank"} {
		spec, err := workload.ByName(app)
		if err != nil {
			b.Fatal(err)
		}
		prog := trace.Collect(spec.Build(benchConfig))
		models := func() []engine.Model {
			ms := make([]engine.Model, len(kinds))
			for i, kind := range kinds {
				m, err := paradigm.New(kind, prog, paradigm.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				ms[i] = m
			}
			return ms
		}
		b.Run(app+"/fused", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				engine.RunFused(prog, models(), nil)
			}
		})
		b.Run(app+"/separate", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, m := range models() {
					engine.Run(prog, m)
				}
			}
		})
	}
}

func BenchmarkScanSharing(b *testing.B) {
	spec, err := workload.ByName("jacobi")
	if err != nil {
		b.Fatal(err)
	}
	prog := trace.Collect(spec.Build(benchConfig))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		engine.ScanSharing(prog, prog.Meta().ProfilePhases, 64<<10)
	}
}
