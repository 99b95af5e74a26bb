package paradigm

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gps/internal/engine"
	"gps/internal/trace"
)

// lineSplitter forwards every batch to its model re-split into one-line
// spans, each marked shared or not as its piece is: the line-at-a-time
// replay the span models must reproduce.
type lineSplitter struct {
	engine.Model
	b engine.Batch
}

func (s *lineSplitter) Access(gpu int, b *engine.Batch) {
	s.b.Spans = s.b.Spans[:0]
	for _, sp := range b.Spans {
		if sp.N == 0 {
			s.b.Spans = append(s.b.Spans, sp)
		}
		for i := uint32(0); i < sp.N; i++ {
			s.b.Spans = append(s.b.Spans, engine.Span{Line: sp.Line + uint64(i)*lineBytes, N: 1, Op: sp.Op, Scope: sp.Scope, Shared: sp.Shared})
		}
	}
	s.Model.Access(gpu, &s.b)
}

// spanLine is one line (or fence, with line 0) a GPU presented in a phase.
type spanLine struct {
	phase, gpu int
	op         trace.Op
	scope      trace.Scope
	line       uint64
}

// lineRecorder lists the lines of every batch it sees, in order.
type lineRecorder struct {
	phase int
	lines []spanLine
}

func (r *lineRecorder) Name() string                         { return "recorder" }
func (r *lineRecorder) PageBytes() uint64                    { return 0 }
func (r *lineRecorder) BeginPhase(i int, _ []engine.Profile) { r.phase = i }
func (r *lineRecorder) EndPhase(int)                         {}
func (r *lineRecorder) Finish(*engine.Result)                {}
func (r *lineRecorder) Access(gpu int, b *engine.Batch) {
	for _, s := range b.Spans {
		if s.N == 0 {
			r.lines = append(r.lines, spanLine{r.phase, gpu, s.Op, s.Scope, 0})
		}
		for i := uint32(0); i < s.N; i++ {
			r.lines = append(r.lines, spanLine{r.phase, gpu, s.Op, s.Scope, s.Line + uint64(i)*lineBytes})
		}
	}
}

// laneExpansion is the reference coalescer: every lane's bytes map to
// lines, and the instruction presents each distinct line once, in lane
// order. A fence presents no line.
func laneExpansion(a trace.Access) []uint64 {
	var out []uint64
	add := func(line uint64) {
		for _, l := range out {
			if l == line {
				return
			}
		}
		out = append(out, line)
	}
	for lane := uint64(0); lane < uint64(a.Threads) && a.Op != trace.OpFence; lane++ {
		switch a.Pattern {
		case trace.PatContiguous:
			lo := a.Addr + lane*uint64(a.ElemBytes)
			for l := lo &^ (lineBytes - 1); l <= (lo+uint64(a.ElemBytes)-1)&^(lineBytes-1); l += lineBytes {
				add(l)
			}
		case trace.PatStrided:
			add((a.Addr + lane*uint64(a.Stride)) &^ (lineBytes - 1))
		case trace.PatScattered:
			h := mix32(a.Seed + uint32(lane)*0x9e3779b9)
			add(a.Addr&^(lineBytes-1) + uint64(h)%uint64(a.Stride)*lineBytes)
		}
	}
	return out
}

// mix32 is the coalescer's scattered-lane mixer (splitmix32).
func mix32(x uint32) uint32 {
	x += 0x9e3779b9
	x ^= x >> 16
	x *= 0x21f0aaad
	x ^= x >> 15
	x *= 0x735a2d97
	x ^= x >> 15
	return x
}

// splitProgram builds a small trace from seed: 1-4 GPUs, three phases of
// one kernel per GPU, shared regions whose sizes are not page multiples, a
// private region and an unmapped slot. Kernels mix ops, scopes, fences and
// all three patterns; contiguous runs start near page and region ends so
// they cross them. Kernels are built with AppendRun, as the workload
// generators do.
func splitProgram(seed int64, gpus int) *trace.Recorded {
	rng := rand.New(rand.NewSource(seed))
	regions := []trace.Region{
		{Name: "a", Kind: trace.RegionShared, Base: 1 << 33, Size: uint64(1<<20 + rng.Intn(3<<20))},
		{Name: "p", Kind: trace.RegionPrivate, Base: 2 << 33, Size: 1 << 20},
		{Name: "b", Kind: trace.RegionShared, Base: 3 << 33, Size: uint64(1 + rng.Intn(300<<10))},
	}
	// addr picks a line-aligned address near a page or region boundary of
	// one of the slots (slot 4 is unmapped).
	addr := func() uint64 {
		slot := uint64(1 + rng.Intn(4))
		var end uint64 = 1 << 20
		if slot != 4 && slot != 2 {
			end = regions[slot-1].Size
		}
		switch rng.Intn(3) {
		case 0: // a region end
		case 1: // a 4 KB, 64 KB or 2 MB page end
			end = uint64(1+rng.Intn(16)) << []uint{12, 16, 21}[rng.Intn(3)]
		default:
			end = uint64(rng.Int63n(int64(end) + 1))
		}
		off := end &^ (lineBytes - 1)
		off -= min(off, uint64(rng.Intn(80))*lineBytes)
		return slot<<33 + off
	}
	ops := []trace.Op{trace.OpLoad, trace.OpLoad, trace.OpStore, trace.OpAtomic}
	rec := &trace.Recorded{M: trace.Meta{Name: "split", NumGPUs: gpus, Regions: regions, ProfilePhases: 1}}
	for p := 0; p < 3; p++ {
		ph := trace.Phase{Index: p}
		for g := 0; g < gpus; g++ {
			var enc trace.ColumnEncoder
			for i := rng.Intn(12); i >= 0; i-- {
				a := trace.Access{
					Op: ops[rng.Intn(len(ops))], Scope: trace.Scope(rng.Intn(4)),
					Threads: 32, ElemBytes: 4, Addr: addr(),
				}
				n, step := 1+rng.Intn(200), uint64(128)
				switch rng.Intn(9) {
				case 0: // two lines per record, tiling
					a.ElemBytes, step = 8, 256
				case 1: // unaligned: records overlap by a line
					a.Addr += 64
				case 2: // several records per line
					a.Threads, step = 8, 32
				case 3: // sub-line strides merge lanes
					a.Pattern, a.Stride = trace.PatStrided, uint32(rng.Intn(8193))
					a.Threads = uint8(1 + rng.Intn(32))
				case 4: // small windows repeat lines
					a.Pattern, a.Stride = trace.PatScattered, uint32(1+rng.Intn([]int{64, 3000}[rng.Intn(2)]))
					for ; n > 0; n-- {
						a.Seed = rng.Uint32()
						enc.Append(a)
					}
				case 5:
					a.Op, a.Addr, step = trace.OpFence, 0, 0
					n = 1 + rng.Intn(3)
				}
				enc.AppendRun(a, n, step)
			}
			ph.Kernels = append(ph.Kernels, trace.Kernel{GPU: g, Name: fmt.Sprintf("k%d", g), Col: enc.Finish()})
		}
		rec.Ph = append(rec.Ph, ph)
	}
	return rec
}

// FuzzSpanSplit checks the span replay against the line-at-a-time one on
// generated traces. The engine's line sequence must equal the reference
// per-lane expansion of every record, and every paradigm at 4 KB, 64 KB and
// 2 MB pages must produce the same Result from the engine's batches as from
// the same batches re-split into one-line spans, both when all page sizes
// replay in one fused group and when each replays in a group of its own.
func FuzzSpanSplit(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		prog := splitProgram(seed, 1+int(shape%4))

		var want []spanLine
		var dec trace.BlockDecoder
		for _, ph := range prog.Ph {
			for _, k := range ph.Kernels {
				if err := k.EachBlock(&dec, func(accs []trace.Access) bool {
					for _, a := range accs {
						if a.Op == trace.OpFence {
							want = append(want, spanLine{ph.Index, k.GPU, a.Op, a.Scope, 0})
						}
						for _, l := range laneExpansion(a) {
							want = append(want, spanLine{ph.Index, k.GPU, a.Op, a.Scope, l})
						}
					}
					return true
				}); err != nil {
					t.Fatal(err)
				}
			}
		}

		// The mixed group's spans are cut at 4 KB pages for every model, so
		// each page size also replays in a group of its own, where the 64 KB
		// and 2 MB models see pieces of their own size.
		pages := []uint64{4 << 10, 64 << 10, 2 << 20}
		rec := &lineRecorder{}
		mixed := []engine.Model{rec}
		own := make([][]engine.Model, len(pages))
		var names []string
		for pi, page := range pages {
			cfg := DefaultConfig()
			cfg.PageBytes = page
			for _, kind := range Kinds() {
				for _, group := range []*[]engine.Model{&mixed, &own[pi]} {
					spans, err := New(kind, prog, cfg)
					if err != nil {
						t.Fatal(err)
					}
					lines, err := New(kind, prog, cfg)
					if err != nil {
						t.Fatal(err)
					}
					*group = append(*group, spans, &lineSplitter{Model: lines})
				}
				names = append(names, fmt.Sprintf("%s@%dKB", kind, page>>10))
			}
		}
		res := engine.RunFused(prog, mixed, nil)[1:]
		for pi := range pages {
			res = append(res, engine.RunFused(prog, own[pi], nil)...)
		}

		// Kernels run one per GPU, so per (phase, GPU) the engine's order
		// is program order.
		got := map[[2]int][]spanLine{}
		for _, l := range rec.lines {
			got[[2]int{l.phase, l.gpu}] = append(got[[2]int{l.phase, l.gpu}], l)
		}
		exp := map[[2]int][]spanLine{}
		for _, l := range want {
			exp[[2]int{l.phase, l.gpu}] = append(exp[[2]int{l.phase, l.gpu}], l)
		}
		if !reflect.DeepEqual(got, exp) {
			t.Fatalf("engine line sequence (%d lines) differs from the lane expansion (%d lines)", len(rec.lines), len(want))
		}
		for i := 0; i < len(res); i += 2 {
			group, name := "mixed", names[i/2%len(names)]
			if i >= 2*len(names) {
				group = "own"
			}
			if a, b := res[i], res[i+1]; !reflect.DeepEqual(a, b) {
				t.Errorf("%s in the %s group: span replay differs from one-line spans\nspans: %+v\nlines: %+v", name, group, a, b)
			}
		}
	})
}
