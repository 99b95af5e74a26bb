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
func (c *lineCounter) PageBytes() uint64                { return 0 }
func (c *lineCounter) BeginPhase(int, []engine.Profile) {}
func (c *lineCounter) EndPhase(int)                     {}
func (c *lineCounter) Finish(*engine.Result)            {}
func (c *lineCounter) Access(_ int, b *engine.Batch) {
	for _, s := range b.Spans {
		c.lines += uint64(s.N)
	}
}

// table2Progs builds the eight Table 2 applications at 4 GPUs (the Figure
// 13 configuration) and counts the trace lines they present.
func table2Progs() ([]trace.Program, uint64) {
	var progs []trace.Program
	var counter lineCounter
	for _, spec := range workload.Catalog() {
		prog := trace.Collect(spec.Build(workload.Config{NumGPUs: 4, Iterations: 4, Scale: 1, Seed: 1}))
		engine.Run(prog, &counter)
		progs = append(progs, prog)
	}
	return progs, counter.lines
}

// BenchmarkGPSReplay replays the eight Table 2 applications at 4 GPUs
// through a fresh GPS model each, and reports the replay rate in trace lines
// per second.
func BenchmarkGPSReplay(b *testing.B) {
	benchReplay(b, []Kind{KindGPS})
}

// BenchmarkFigure13Replay replays the eight Table 2 applications at 4 GPUs
// through the six Figure 8 paradigms fused in one replay per application,
// as the experiment runner does for Figure 13, and reports trace lines per
// second.
func BenchmarkFigure13Replay(b *testing.B) {
	benchReplay(b, Figure8Kinds())
}

func benchReplay(b *testing.B, kinds []Kind) {
	progs, lines := table2Progs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			var models []engine.Model
			for _, kind := range kinds {
				m, err := New(kind, prog, DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				models = append(models, m)
			}
			engine.RunFused(prog, models, nil)
		}
	}
	b.ReportMetric(float64(lines)*float64(b.N)/b.Elapsed().Seconds(), "lines/s")
}
