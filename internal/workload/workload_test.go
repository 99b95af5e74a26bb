package workload

import (
	"reflect"
	"testing"

	"gps/internal/trace"
)

func smallCfg(gpus int) Config {
	return Config{NumGPUs: gpus, Iterations: 2, Scale: 1, Seed: 1}
}

// kernelAccesses decodes k's whole access stream.
func kernelAccesses(t testing.TB, k *trace.Kernel) []trace.Access {
	t.Helper()
	var out []trace.Access
	var dec trace.BlockDecoder
	if err := k.EachBlock(&dec, func(accs []trace.Access) bool {
		out = append(out, accs...)
		return true
	}); err != nil {
		t.Fatalf("kernel %s: %v", k.Name, err)
	}
	return out
}

func TestCatalogMatchesTable2(t *testing.T) {
	specs := Catalog()
	if len(specs) != 8 {
		t.Fatalf("catalog has %d apps, want 8", len(specs))
	}
	wantPattern := map[string]string{
		"jacobi":    "Peer-to-peer",
		"pagerank":  "Peer-to-peer",
		"sssp":      "Many-to-many",
		"als":       "All-to-all",
		"ct":        "All-to-all",
		"eqwp":      "Peer-to-peer",
		"diffusion": "Peer-to-peer",
		"hit":       "Peer-to-peer",
	}
	for _, s := range specs {
		if s.Pattern != wantPattern[s.Name] {
			t.Errorf("%s pattern = %q, want %q", s.Name, s.Pattern, wantPattern[s.Name])
		}
		if s.Description == "" || s.Build == nil {
			t.Errorf("%s incomplete spec", s.Name)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("jacobi")
	if err != nil || s.Name != "jacobi" {
		t.Fatalf("ByName(jacobi) = %v, %v", s, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if len(Names()) != 8 {
		t.Fatal("Names() wrong length")
	}
}

func TestEveryAppProducesValidTraces(t *testing.T) {
	for _, spec := range Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			p := spec.Build(smallCfg(4))
			meta := p.Meta()
			if err := meta.Validate(); err != nil {
				t.Fatalf("meta invalid: %v", err)
			}
			if meta.NumGPUs != 4 {
				t.Fatalf("NumGPUs = %d", meta.NumGPUs)
			}
			if meta.ProfilePhases <= 0 {
				t.Fatal("profiling phases must be positive")
			}
			if meta.WorkingSetPerGPU == 0 {
				t.Fatal("working set unset")
			}
			phases := 0
			kernels := 0
			p.Phases(func(ph *trace.Phase) bool {
				if ph.Index != phases {
					t.Fatalf("phase index %d out of order (want %d)", ph.Index, phases)
				}
				phases++
				kernels += len(ph.Kernels)
				gpusSeen := map[int]bool{}
				for _, k := range ph.Kernels {
					if k.GPU < 0 || k.GPU >= 4 {
						t.Fatalf("kernel on GPU %d", k.GPU)
					}
					if gpusSeen[k.GPU] && spec.Name != "" {
						// Multiple kernels per GPU per phase are allowed, but
						// each generator here emits one.
						t.Fatalf("duplicate kernel for GPU %d in phase %d", k.GPU, ph.Index)
					}
					gpusSeen[k.GPU] = true
					if k.ComputeOps == 0 {
						t.Fatalf("kernel %s has no compute", k.Name)
					}
					if k.NumAccesses() == 0 {
						t.Fatalf("kernel %s has no accesses", k.Name)
					}
					for _, a := range kernelAccesses(t, &k) {
						if err := a.Validate(); err != nil {
							t.Fatalf("invalid access: %v", err)
						}
						if a.Op != trace.OpFence && meta.RegionOf(a.Addr) == nil {
							t.Fatalf("%s: access at %#x outside all regions", k.Name, a.Addr)
						}
					}
				}
				return true
			})
			if phases < meta.ProfilePhases+2 {
				t.Fatalf("only %d phases generated", phases)
			}
			if kernels == 0 {
				t.Fatal("no kernels generated")
			}
		})
	}
}

func TestTracesAreDeterministic(t *testing.T) {
	for _, spec := range Catalog() {
		a := trace.Collect(spec.Build(smallCfg(2)))
		b := trace.Collect(spec.Build(smallCfg(2)))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two builds with the same config differ", spec.Name)
		}
	}
}

func TestStrongScalingPreservesTotalWork(t *testing.T) {
	// Strong scaling fixes the problem size: total written bytes must be
	// (approximately) independent of GPU count. Read bytes may grow for the
	// all-to-all applications (every GPU reads the full shared structure),
	// but never beyond N-fold.
	writeBytes := func(p trace.Program) (w, r uint64) {
		p.Phases(func(ph *trace.Phase) bool {
			for _, k := range ph.Kernels {
				for _, a := range kernelAccesses(t, &k) {
					if a.IsWrite() {
						w += a.Bytes()
					} else if a.Op == trace.OpLoad {
						r += a.Bytes()
					}
				}
			}
			return true
		})
		return w, r
	}
	for _, spec := range Catalog() {
		w1, r1 := writeBytes(spec.Build(Config{NumGPUs: 1, Iterations: 2, Scale: 1, Seed: 1}))
		w4, r4 := writeBytes(spec.Build(smallCfg(4)))
		if lo, hi := float64(w1)*0.85, float64(w1)*1.2; float64(w4) < lo || float64(w4) > hi {
			t.Errorf("%s: written bytes at 4 GPUs = %d vs 1 GPU = %d (work not conserved)",
				spec.Name, w4, w1)
		}
		if float64(r4) > float64(r1)*4.2 {
			t.Errorf("%s: read bytes at 4 GPUs = %d vs 1 GPU = %d (beyond N-fold)",
				spec.Name, r4, r1)
		}
	}
}

func TestAtomicsDominateGraphAndALSSharedWrites(t *testing.T) {
	// Section 7.4: Pagerank, SSSP and ALS predominantly issue atomics, so
	// their write-queue hit rate is 0%.
	for _, name := range []string{"pagerank", "sssp", "als"} {
		spec, _ := ByName(name)
		s := trace.Summarize(spec.Build(smallCfg(4)))
		if s.Atomics == 0 {
			t.Errorf("%s: no atomics in trace", name)
		}
	}
	// Stencils use plain stores only.
	for _, name := range []string{"jacobi", "eqwp", "diffusion", "hit", "ct"} {
		spec, _ := ByName(name)
		s := trace.Summarize(spec.Build(smallCfg(4)))
		if s.Atomics != 0 {
			t.Errorf("%s: unexpected atomics", name)
		}
	}
}

func TestJacobiSingleVisitStores(t *testing.T) {
	// Jacobi writes every destination line exactly once per phase: the basis
	// for its 0% write-queue hit rate.
	p := NewJacobi(smallCfg(2))
	p.Phases(func(ph *trace.Phase) bool {
		for _, k := range ph.Kernels {
			seen := map[uint64]bool{}
			for _, a := range kernelAccesses(t, &k) {
				if a.Op != trace.OpStore {
					continue
				}
				line := a.Addr / LineBytes
				if seen[line] {
					t.Fatalf("phase %d: line %#x written twice", ph.Index, line)
				}
				seen[line] = true
			}
		}
		return ph.Index < 2
	})
}

func TestMultiPassStoresRevisitWithinBlock(t *testing.T) {
	// EQWP writes each line `passes` times with revisit distance blockLines.
	p := NewEQWP(smallCfg(2))
	var firstKernel *trace.Kernel
	p.Phases(func(ph *trace.Phase) bool {
		firstKernel = &ph.Kernels[0]
		return false
	})
	counts := map[uint64]int{}
	var gaps []int
	lastPos := map[uint64]int{}
	pos := 0
	for _, a := range kernelAccesses(t, firstKernel) {
		if a.Op != trace.OpStore {
			continue
		}
		line := a.Addr / LineBytes
		counts[line]++
		if p, ok := lastPos[line]; ok {
			gaps = append(gaps, pos-p)
		}
		lastPos[line] = pos
		pos++
	}
	twice := 0
	for _, c := range counts {
		if c == 2 {
			twice++
		}
	}
	if twice == 0 {
		t.Fatal("no line written twice")
	}
	if len(gaps) == 0 {
		t.Fatal("no revisits")
	}
	for _, g := range gaps {
		if g > 416 {
			t.Fatalf("revisit gap %d exceeds the largest block size", g)
		}
	}
}

func TestSlabPartitioning(t *testing.T) {
	total := uint64(1000 * LineBytes)
	var sum uint64
	prevEnd := uint64(0)
	for g := 0; g < 7; g++ {
		off, size := slab(total, 7, g)
		if off != prevEnd {
			t.Fatalf("slab %d not contiguous: off %d, want %d", g, off, prevEnd)
		}
		if size%LineBytes != 0 {
			t.Fatalf("slab %d not line aligned", g)
		}
		prevEnd = off + size
		sum += size
	}
	if sum != total {
		t.Fatalf("slabs sum to %d, want %d", sum, total)
	}
}

func TestSingleGPUTraceHasOnlyLocalSharing(t *testing.T) {
	// At 1 GPU there is exactly one kernel per phase and no halo reads
	// outside the region.
	p := NewJacobi(Config{NumGPUs: 1, Iterations: 1, Scale: 1, Seed: 1})
	p.Phases(func(ph *trace.Phase) bool {
		if len(ph.Kernels) != 1 {
			t.Fatalf("phase %d has %d kernels", ph.Index, len(ph.Kernels))
		}
		return true
	})
}

func TestScaleGrowsTrace(t *testing.T) {
	small := trace.Summarize(NewJacobi(Config{NumGPUs: 2, Iterations: 1, Scale: 1, Seed: 1}))
	big := trace.Summarize(NewJacobi(Config{NumGPUs: 2, Iterations: 1, Scale: 2, Seed: 1}))
	if big.Bytes <= small.Bytes {
		t.Fatal("Scale=2 did not grow the trace")
	}
}

func TestDedupSorted(t *testing.T) {
	got := dedupSorted([]int{3, 1, 3, 2, 1})
	if !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("dedupSorted = %v", got)
	}
}

func TestControlCatalogValidTraces(t *testing.T) {
	for _, spec := range ControlCatalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			p := spec.Build(smallCfg(4))
			meta := p.Meta()
			if err := meta.Validate(); err != nil {
				t.Fatalf("meta invalid: %v", err)
			}
			phases := 0
			p.Phases(func(ph *trace.Phase) bool {
				phases++
				for _, k := range ph.Kernels {
					if k.ComputeOps == 0 || k.NumAccesses() == 0 {
						t.Fatalf("kernel %s incomplete", k.Name)
					}
					for _, a := range kernelAccesses(t, &k) {
						if err := a.Validate(); err != nil {
							t.Fatal(err)
						}
						if meta.RegionOf(a.Addr) == nil {
							t.Fatalf("access outside regions at %#x", a.Addr)
						}
					}
				}
				return true
			})
			if phases < 3 {
				t.Fatalf("only %d phases", phases)
			}
		})
	}
}

func TestControlAppsAreComputeBound(t *testing.T) {
	// The control apps must be decisively compute-bound: flops per traced
	// byte far above the machine's flops:bandwidth ratio (~15).
	for _, spec := range ControlCatalog() {
		p := spec.Build(smallCfg(4))
		var ops, bytes uint64
		p.Phases(func(ph *trace.Phase) bool {
			for _, k := range ph.Kernels {
				ops += k.ComputeOps
				for _, a := range kernelAccesses(t, &k) {
					bytes += a.Bytes()
				}
			}
			return true
		})
		if intensity := float64(ops) / float64(bytes); intensity < 1000 {
			t.Errorf("%s: intensity %.0f flops/byte, want compute-bound", spec.Name, intensity)
		}
	}
}

func TestByNameFindsControlApps(t *testing.T) {
	if _, err := ByName("matmul"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nbody"); err != nil {
		t.Fatal(err)
	}
}

func TestScatteredAccessesHaveSegmentLocality(t *testing.T) {
	// Consecutive scattered warp instructions must share a narrow segment
	// (destination-sorted edges): this is what keeps the 32-entry GPS-TLB
	// near 100% (Section 7.4).
	kb := newKernel(0, "k", 1)
	window := uint64(6 << 20)
	kb.scattered(trace.OpAtomic, 0, window, 120, 1)
	k := kb.build()
	accs := kernelAccesses(t, &k)
	if len(accs) != 120 {
		t.Fatalf("emitted %d instructions", len(accs))
	}
	segs := map[uint64]bool{}
	changes := 0
	prev := uint64(1 << 62)
	for _, a := range accs {
		seg := a.Addr / scatterSegmentBytes
		segs[seg] = true
		if seg != prev {
			changes++
		}
		prev = seg
		if uint64(a.Stride)*LineBytes > scatterSegmentBytes+LineBytes {
			t.Fatalf("scatter window %d lines exceeds a segment", a.Stride)
		}
	}
	// All 12 segments covered, but only ~12 transitions (not 120).
	if len(segs) != 12 {
		t.Fatalf("covered %d segments, want 12", len(segs))
	}
	if changes > 14 {
		t.Fatalf("%d segment changes for 120 instrs: locality lost", changes)
	}
}
