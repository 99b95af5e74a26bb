package timing

import (
	"testing"

	"gps/internal/engine"
	"gps/internal/interconnect"
	"gps/internal/paradigm"
	"gps/internal/trace"
	"gps/internal/workload"
)

func timeApp(t *testing.T, name string, kind paradigm.Kind, gpus int, fab *interconnect.Fabric) float64 {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog := spec.Build(workload.Config{NumGPUs: gpus, Iterations: 2, Scale: 1, Seed: 1})
	m, err := paradigm.New(kind, prog, paradigm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := engine.Run(prog, m)
	rep := Simulate(res, DefaultConfig(fab))
	if rep.Total <= 0 || rep.SteadyTotal() <= 0 {
		t.Fatalf("%s/%v: non-positive total time", name, kind)
	}
	return rep.SteadyTotal()
}

func TestSyntheticPhasePricing(t *testing.T) {
	// Hand-built result: one phase, two GPUs, known quantities.
	res := &engine.Result{Meta: trace.Meta{NumGPUs: 2}}
	p0 := engine.NewProfile(0, 2)
	p0.ComputeOps = 4.9e9 // 1 ms at 4.9 TFLOPs effective
	p1 := engine.NewProfile(1, 2)
	p1.ComputeOps = 4.9e9
	p1.Push[0] = 16e6 // 1 ms on PCIe 3.0
	res.Phases = []engine.PhaseRecord{{Index: 0, Profiles: []engine.Profile{p0, p1}}}

	cfg := DefaultConfig(interconnect.PCIeTree(2, interconnect.PCIe3))
	cfg.PhaseOverhead = 0
	rep := Simulate(res, cfg)
	// Push (1 ms) fully overlaps the 1 ms kernels: total ~1 ms.
	if rep.Total < 0.9e-3 || rep.Total > 1.2e-3 {
		t.Fatalf("total = %v, want ~1ms (push hidden under compute)", rep.Total)
	}
	if rep.PushWait > 0.1e-3 {
		t.Fatalf("push wait %v should be ~0", rep.PushWait)
	}

	// Triple the push: now it cannot hide.
	res.Phases[0].Profiles[1].Push[0] = 48e6
	rep = Simulate(res, cfg)
	if rep.Total < 2.8e-3 || rep.Total > 3.3e-3 {
		t.Fatalf("total = %v, want ~3ms (push bound)", rep.Total)
	}
	if rep.PushWait < 1.5e-3 {
		t.Fatalf("push wait %v should dominate", rep.PushWait)
	}
}

func TestBulkSerializesAfterKernels(t *testing.T) {
	res := &engine.Result{Meta: trace.Meta{NumGPUs: 2}}
	p0 := engine.NewProfile(0, 2)
	p0.ComputeOps = 4.9e9
	p0.Bulk[1] = 16e6 // 1 ms bulk after the kernel
	p1 := engine.NewProfile(1, 2)
	res.Phases = []engine.PhaseRecord{{Index: 0, Profiles: []engine.Profile{p0, p1}}}
	cfg := DefaultConfig(interconnect.PCIeTree(2, interconnect.PCIe3))
	cfg.PhaseOverhead = 0
	rep := Simulate(res, cfg)
	if rep.Total < 1.9e-3 || rep.Total > 2.2e-3 {
		t.Fatalf("total = %v, want ~2ms (no overlap for bulk)", rep.Total)
	}
	if rep.BulkTime < 0.9e-3 {
		t.Fatalf("bulk time %v, want ~1ms", rep.BulkTime)
	}
}

func TestFaultsSerialize(t *testing.T) {
	res := &engine.Result{Meta: trace.Meta{NumGPUs: 2}}
	p0 := engine.NewProfile(0, 2)
	p0.Faults = 100
	p1 := engine.NewProfile(1, 2)
	p1.Faults = 50 // faults serialize system-wide through the host driver
	res.Phases = []engine.PhaseRecord{{Index: 0, Profiles: []engine.Profile{p0, p1}}}
	cfg := DefaultConfig(interconnect.PCIeTree(2, interconnect.PCIe3))
	cfg.PhaseOverhead = 0
	want := 150 * cfg.Machine.GPU.PageFaultLatency
	rep := Simulate(res, cfg)
	if rep.Total < want*0.99 || rep.Total > want*1.01 {
		t.Fatalf("total = %v, want ~%v of fault serialization", rep.Total, want)
	}
}

func TestInfiniteFabricElidesTransfers(t *testing.T) {
	res := &engine.Result{Meta: trace.Meta{NumGPUs: 2}}
	p0 := engine.NewProfile(0, 2)
	p0.ComputeOps = 4.9e9
	p0.Push[1] = 1e12
	p0.Bulk[1] = 1e12
	p1 := engine.NewProfile(1, 2)
	res.Phases = []engine.PhaseRecord{{Index: 0, Profiles: []engine.Profile{p0, p1}}}
	cfg := DefaultConfig(interconnect.Infinite(2))
	cfg.PhaseOverhead = 0
	rep := Simulate(res, cfg)
	if rep.Total > 1.1e-3 {
		t.Fatalf("total = %v, transfers should be free on the ideal fabric", rep.Total)
	}
}

func TestGPSBeatsSingleGPUOnJacobi(t *testing.T) {
	fab1 := interconnect.Infinite(1)
	t1 := timeApp(t, "jacobi", paradigm.KindGPS, 1, fab1)
	fab4 := interconnect.PCIeTree(4, interconnect.PCIe4)
	t4 := timeApp(t, "jacobi", paradigm.KindGPS, 4, fab4)
	speedup := t1 / t4
	if speedup < 2.0 {
		t.Fatalf("GPS jacobi 4-GPU speedup = %.2f, want > 2", speedup)
	}
}

func TestParadigmOrderingOnJacobi(t *testing.T) {
	fab := interconnect.PCIeTree(4, interconnect.PCIe4)
	gps := timeApp(t, "jacobi", paradigm.KindGPS, 4, fab)
	um := timeApp(t, "jacobi", paradigm.KindUM, 4, fab)
	mc := timeApp(t, "jacobi", paradigm.KindMemcpy, 4, fab)
	inf := timeApp(t, "jacobi", paradigm.KindInfinite, 4, interconnect.Infinite(4))
	if gps >= um {
		t.Fatalf("GPS (%v) should beat UM (%v)", gps, um)
	}
	if gps >= mc {
		t.Fatalf("GPS (%v) should beat memcpy (%v)", gps, mc)
	}
	if inf > gps {
		t.Fatalf("infinite BW (%v) must lower-bound GPS (%v)", inf, gps)
	}
}

func TestHigherBandwidthNeverHurts(t *testing.T) {
	t3 := timeApp(t, "ct", paradigm.KindGPS, 4, interconnect.PCIeTree(4, interconnect.PCIe3))
	t6 := timeApp(t, "ct", paradigm.KindGPS, 4, interconnect.PCIeTree(4, interconnect.PCIe6))
	if t6 > t3*1.001 {
		t.Fatalf("PCIe6 (%v) slower than PCIe3 (%v)", t6, t3)
	}
}

// runApp replays one application structurally at 4 GPUs for timing tests.
func runApp(tb testing.TB, name string, kind paradigm.Kind, iters int) *engine.Result {
	tb.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	prog := spec.Build(workload.Config{NumGPUs: 4, Iterations: iters, Scale: 1, Seed: 1})
	m, err := paradigm.New(kind, prog, paradigm.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return engine.Run(prog, m)
}

// TestSimulateAllocs: Simulate's allocations are per call, not per phase
// or per flow, so a longer trace of the same app allocates no more.
func TestSimulateAllocs(t *testing.T) {
	cfg := DefaultConfig(interconnect.PCIeTree(4, interconnect.PCIe4))
	for _, kind := range []paradigm.Kind{paradigm.KindGPS, paradigm.KindUM} {
		short, long := runApp(t, "jacobi", kind, 2), runApp(t, "jacobi", kind, 6)
		if len(long.Phases) <= len(short.Phases) {
			t.Fatalf("%v: %d phases at 6 iterations, %d at 2", kind, len(long.Phases), len(short.Phases))
		}
		a := testing.AllocsPerRun(5, func() { Simulate(short, cfg) })
		b := testing.AllocsPerRun(5, func() { Simulate(long, cfg) })
		if a != b {
			t.Fatalf("%v: Simulate allocates %v objects for %d phases, %v for %d",
				kind, a, len(short.Phases), b, len(long.Phases))
		}
	}
}

// BenchmarkSimulate prices the eight Table 2 applications at 4 GPUs on
// PCIe 4.0 under GPS and UM; the structural results are built once.
func BenchmarkSimulate(b *testing.B) {
	cfg := DefaultConfig(interconnect.PCIeTree(4, interconnect.PCIe4))
	var results []*engine.Result
	for _, spec := range workload.Catalog() {
		for _, kind := range []paradigm.Kind{paradigm.KindGPS, paradigm.KindUM} {
			results = append(results, runApp(b, spec.Name, kind, 2))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, res := range results {
			benchSink = Simulate(res, cfg).Total
		}
	}
}
