package paradigm

import (
	"testing"

	"gps/internal/engine"
	"gps/internal/trace"
	"gps/internal/workload"
)

// lineCounter counts the lines (fences excluded) the engine presents.
type lineCounter struct{ lines uint64 }

func (c *lineCounter) Name() string                     { return "lines" }
func (c *lineCounter) BeginPhase(int, []engine.Profile) {}
func (c *lineCounter) EndPhase(int)                     {}
func (c *lineCounter) Finish(*engine.Result)            {}
func (c *lineCounter) Access(_ int, b *engine.Batch) {
	for _, s := range b.Spans {
		c.lines += uint64(s.N)
	}
}

// BenchmarkGPSReplay replays the eight Table 2 applications at 4 GPUs (the
// Figure 13 configuration) through a fresh GPS model each, and reports the
// replay rate in trace lines per second.
func BenchmarkGPSReplay(b *testing.B) {
	var progs []trace.Program
	var counter lineCounter
	for _, spec := range workload.Catalog() {
		prog := trace.Collect(spec.Build(workload.Config{NumGPUs: 4, Iterations: 4, Scale: 1, Seed: 1}))
		engine.Run(prog, &counter)
		progs = append(progs, prog)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			m, err := New(KindGPS, prog, DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			engine.RunFused(prog, []engine.Model{m}, nil)
		}
	}
	b.ReportMetric(float64(counter.lines)*float64(b.N)/b.Elapsed().Seconds(), "lines/s")
}
