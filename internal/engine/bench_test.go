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

// BenchmarkEngineRun replays a quick Jacobi (peer-to-peer halos) and
// Pagerank (many-to-many atomics) trace through every headline paradigm.
func BenchmarkEngineRun(b *testing.B) {
	for _, app := range []string{"jacobi", "pagerank"} {
		spec, err := workload.ByName(app)
		if err != nil {
			b.Fatal(err)
		}
		prog := spec.Build(benchConfig)
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

// BenchmarkEngineRunStorage pits the two trace storage forms against each
// other on the same materialized program (mirroring the runner's trace
// cache): flat []Access replay versus columnar block decode. The columnar
// variant is what production replay now runs; the flat variant is the old
// layout kept for comparison.
func BenchmarkEngineRunStorage(b *testing.B) {
	spec, err := workload.ByName("jacobi")
	if err != nil {
		b.Fatal(err)
	}
	columnar := trace.Collect(spec.Build(benchConfig))
	flat := trace.Flatten(columnar)
	for _, v := range []struct {
		name string
		prog trace.Program
	}{{"columnar", columnar}, {"flat", flat}} {
		b.Run("jacobi/gps/"+v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := paradigm.New(paradigm.KindGPS, v.prog, paradigm.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				engine.Run(v.prog, m)
			}
		})
	}
}

func BenchmarkScanSharing(b *testing.B) {
	spec, err := workload.ByName("jacobi")
	if err != nil {
		b.Fatal(err)
	}
	prog := spec.Build(benchConfig)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		engine.ScanSharing(prog, prog.Meta().ProfilePhases, 64<<10)
	}
}
