package experiments

import (
	"context"
	"fmt"

	"gps/internal/engine"
	"gps/internal/gpu"
	"gps/internal/stats"
	"gps/internal/trace"
	"gps/internal/workload"
)

// ValidateL2 replays each application's per-GPU local access stream through
// the structural L2 cache simulator (internal/gpu) at 1 and 4 GPUs and
// reports the measured hit rates next to the analytic trace.L2Model values
// the timing simulator uses. The paper's Section 7.1 observation — EQWP's
// L2 hit rate rising from 55% to 68% at 4 GPUs because the aggregate cache
// capacity grows — must emerge structurally from nothing but cache geometry
// and the access stream.
func ValidateL2(ctx context.Context, opt Options) (*stats.Table, error) {
	opt = opt.withDefaults()
	tb := stats.NewTable(
		"L2 model validation: structural (cache sim) vs analytic hit rates (%)",
		"app", "sim @1GPU", "sim @4GPU", "model @1GPU", "model @4GPU")
	tb.Fmt = "%6.1f"
	specs := workload.Catalog()
	type l2Row struct {
		sim1, sim4 float64
		l2         trace.L2Model
	}
	rows := make([]l2Row, len(specs))
	// Each (app, GPU count) replay is independent; fan them out on the
	// runner's pool. The traces come from the shared cache, so the 1- and
	// 4-GPU replays reuse what the figures already built.
	desc := func(i int) string {
		gpus := 1 + 3*(i%2)
		return fmt.Sprintf("l2/%s/%dgpu", specs[i/2].Name, gpus)
	}
	err := Default.parallelForDesc(ctx, 2*len(specs), desc, func(ctx context.Context, i int) error {
		row := &rows[i/2]
		if i%2 == 1 {
			sim4, _, err := simulateL2(ctx, specs[i/2], opt, 4)
			row.sim4 = sim4
			return err
		}
		// The model column is read from the 1-GPU trace the replay used.
		sim1, l2, err := simulateL2(ctx, specs[i/2], opt, 1)
		row.sim1, row.l2 = sim1, l2
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, spec := range specs {
		r := rows[i]
		tb.AddRow(spec.Name, r.sim1*100, r.sim4*100, r.l2.HitRate(1)*100, r.l2.HitRate(4)*100)
	}
	return tb, nil
}

// simulateL2 replays the recorded shared-region accesses of every GPU
// through a private V100 L2 each and returns the mean hit rate, along with
// the analytic L2 model the same trace carries. Only the steady-state
// phases count (caches warm during the profiling iteration).
func simulateL2(ctx context.Context, spec workload.Spec, opt Options, gpus int) (float64, trace.L2Model, error) {
	prog, err := Default.traceCtx(ctx, spec.Name, opt.workloadConfig(gpus))
	if err != nil {
		return 0, trace.L2Model{}, err
	}
	meta := prog.Meta()
	paths := make([]*gpu.MemoryPath, gpus)
	for g := range paths {
		paths[g] = gpu.NewMemoryPath(g, gpu.V100L2())
	}
	// The L2 walks the spans line by line, so their page cut is immaterial:
	// the largest modeled page cuts least.
	exp := engine.NewExpander(engine.NewRegionTable(meta.Regions), 2<<20)
	var spans []engine.Span
	var dec trace.BlockDecoder
	for pi := range prog.Ph {
		ph := &prog.Ph[pi]
		if ph.Index == meta.ProfilePhases {
			// Steady state begins: measure from here.
			for _, p := range paths {
				p.L2.ResetStats()
			}
		}
		for ki := range ph.Kernels {
			k := &ph.Kernels[ki]
			path := paths[k.GPU]
			for bi := 0; bi < k.Col.NumBlocks(); bi++ {
				runs, err := dec.DecodeRuns(k.Col, bi)
				if err != nil {
					return 0, meta.L2, fmt.Errorf("experiments: %s: %w", spec.Name, err)
				}
				spans = spans[:0]
				for _, r := range runs {
					spans = exp.AppendSpans(spans, r)
				}
				for _, s := range spans {
					for i := uint32(0); i < s.N; i++ {
						line := s.Line + uint64(i)*engine.LineBytes
						if s.IsWrite() {
							path.Store(line)
						} else {
							path.Load(line)
						}
					}
				}
			}
		}
	}
	var sum float64
	for _, p := range paths {
		s := p.L2.Stats()
		if s.Hits+s.Misses == 0 {
			return 0, meta.L2, fmt.Errorf("experiments: %s GPU %d had no accesses", spec.Name, p.GPU)
		}
		sum += s.HitRate()
	}
	return sum / float64(gpus), meta.L2, nil
}
