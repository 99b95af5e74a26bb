package workload

import (
	"testing"

	"gps/internal/trace"
)

// BenchmarkWorkloadBuild measures trace generation and encoding for one
// application at the Figure 13 4-GPU configuration: every phase is built
// and every kernel's column store sealed, as the experiments runner does on
// a trace-cache miss.
func BenchmarkWorkloadBuild(b *testing.B) {
	cfg := Config{NumGPUs: 4, Iterations: 4, Scale: 1, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var records int
		NewJacobi(cfg).Phases(func(ph *trace.Phase) bool {
			for ki := range ph.Kernels {
				records += ph.Kernels[ki].NumAccesses()
			}
			return true
		})
		if records == 0 {
			b.Fatal("empty trace")
		}
	}
}
