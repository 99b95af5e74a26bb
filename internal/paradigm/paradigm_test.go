package paradigm

import (
	"runtime"
	"testing"

	"gps/internal/engine"
	"gps/internal/trace"
	"gps/internal/workload"
)

func runApp(t *testing.T, name string, kind Kind, gpus int) *engine.Result {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog := spec.Build(workload.Config{NumGPUs: gpus, Iterations: 2, Scale: 1, Seed: 1})
	m, err := New(kind, prog, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return engine.Run(prog, m)
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindUM: "UM", KindUMHints: "UM+hints", KindRDL: "RDL",
		KindMemcpy: "memcpy", KindGPS: "GPS", KindGPSNoSub: "GPS-nosub",
		KindInfinite: "infiniteBW",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if len(Figure8Kinds()) != 6 {
		t.Fatal("Figure 8 compares six paradigms")
	}
}

func TestGPSJacobiSubscriberDistribution(t *testing.T) {
	res := runApp(t, "jacobi", KindGPS, 4)
	if res.SubscriberHist == nil {
		t.Fatal("GPS run produced no subscriber histogram")
	}
	h := res.SubscriberHist
	// Jacobi: interior pages downgrade to one subscriber; halo pages keep
	// exactly two (each boundary is shared with one neighbor). Figure 9:
	// "applications like Jacobi require only one remote subscriber for most
	// pages because of how the algorithm performs boundary exchange".
	if h[2] == 0 {
		t.Fatalf("no 2-subscriber halo pages: %v", h)
	}
	if h[1] <= h[2] {
		t.Fatalf("interior (1-sub) pages should dominate: %v", h)
	}
	if h[3] != 0 || h[4] != 0 {
		t.Fatalf("jacobi should have no 3- or 4-subscriber pages: %v", h)
	}
}

func TestGPSAllToAllAppsKeepFullSubscription(t *testing.T) {
	// ALS and CT: the majority of shared pages are subscribed by all GPUs
	// (the Figure 11 exceptions).
	for _, name := range []string{"als", "ct"} {
		res := runApp(t, name, KindGPS, 4)
		h := res.SubscriberHist
		total, all4 := 0, 0
		for k, c := range h {
			total += c
			if k == 4 {
				all4 += c
			}
		}
		if total == 0 || float64(all4)/float64(total) < 0.5 {
			t.Errorf("%s: all-subscriber fraction too low: %v", name, h)
		}
	}
}

func TestGPSPushesOnlyToSubscribers(t *testing.T) {
	resSub := runApp(t, "jacobi", KindGPS, 4)
	resAll := runApp(t, "jacobi", KindGPSNoSub, 4)
	post := resSub.Meta.ProfilePhases
	sub := resSub.InterconnectBytes(post)
	all := resAll.InterconnectBytes(post)
	if sub == 0 || all == 0 {
		t.Fatal("no traffic measured")
	}
	// Subscription tracking must slash Jacobi's broadcast traffic: only
	// halo pages have remote subscribers.
	if float64(sub) > 0.25*float64(all) {
		t.Fatalf("subscription saved too little: %d vs %d bytes", sub, all)
	}
}

func TestGPSSubscriptionSavesLittleForAllToAll(t *testing.T) {
	resSub := runApp(t, "als", KindGPS, 4)
	resAll := runApp(t, "als", KindGPSNoSub, 4)
	post := resSub.Meta.ProfilePhases
	sub := resSub.InterconnectBytes(post)
	all := resAll.InterconnectBytes(post)
	if float64(sub) < 0.7*float64(all) {
		t.Fatalf("ALS is all-to-all; subscription should barely help: %d vs %d", sub, all)
	}
}

func TestWriteQueueHitRatesMatchSection74(t *testing.T) {
	zeroApps := []string{"jacobi", "pagerank", "sssp", "als"}
	for _, name := range zeroApps {
		res := runApp(t, name, KindGPS, 4)
		for g, hr := range res.WriteQueueHitRate {
			if hr > 0.01 {
				t.Errorf("%s GPU%d write queue hit rate = %.3f, want ~0", name, g, hr)
			}
		}
	}
	positiveApps := []string{"ct", "eqwp", "diffusion", "hit"}
	for _, name := range positiveApps {
		res := runApp(t, name, KindGPS, 4)
		for g, hr := range res.WriteQueueHitRate {
			if hr < 0.2 {
				t.Errorf("%s GPU%d write queue hit rate = %.3f, want substantial", name, g, hr)
			}
		}
	}
}

func TestGPSTLBHitRateNearPerfectAt32Entries(t *testing.T) {
	// Section 7.4: "the GPS-TLB hit rate approaches 100% at just 32 entries".
	for _, name := range []string{"jacobi", "eqwp", "ct"} {
		res := runApp(t, name, KindGPS, 4)
		for g, hr := range res.GPSTLBHitRate {
			if hr < 0.95 {
				t.Errorf("%s GPU%d GPS-TLB hit rate = %.3f, want ~1", name, g, hr)
			}
		}
	}
}

func TestUMFaultsAndThrashing(t *testing.T) {
	res := runApp(t, "pagerank", KindUM, 4)
	if res.TotalFaults() == 0 {
		t.Fatal("UM run took no faults")
	}
	// Interleaved atomics from all GPUs must thrash pages: migrations far
	// exceed the page count.
	if res.InterconnectBytes(0) == 0 {
		t.Fatal("UM moved no pages")
	}
	// Single GPU: everything is local after first touch.
	res1 := runApp(t, "pagerank", KindUM, 1)
	if res1.InterconnectBytes(0) != 0 {
		t.Fatal("single-GPU UM should move nothing")
	}
}

func TestRDLLoadsFromLastWriter(t *testing.T) {
	res := runApp(t, "jacobi", KindRDL, 4)
	var remoteReads, pushes uint64
	for _, ph := range res.Phases {
		for _, p := range ph.Profiles {
			for _, b := range p.RemoteRead {
				remoteReads += b
			}
			for _, b := range p.Push {
				pushes += b
			}
		}
	}
	if remoteReads == 0 {
		t.Fatal("RDL produced no remote reads (halo loads must cross)")
	}
	if pushes != 0 {
		t.Fatal("RDL must not push stores remotely")
	}
}

func TestMemcpyBroadcastsDirtyPagesAtBarriers(t *testing.T) {
	res := runApp(t, "jacobi", KindMemcpy, 4)
	meta := res.Meta
	var sharedBytes uint64
	for _, r := range meta.Regions {
		if r.Kind == trace.RegionShared {
			sharedBytes += r.Size
		}
	}
	// Jacobi dirties exactly one of its two ping-pong arrays per phase;
	// every dirty page crosses to each of the 3 peers once.
	wantPerPhase := sharedBytes / 2 * 3
	for _, ph := range res.Phases {
		var bulk uint64
		for _, p := range ph.Profiles {
			for _, b := range p.Bulk {
				bulk += b
			}
		}
		if bulk != wantPerPhase {
			t.Fatalf("phase %d bulk = %d, want %d", ph.Index, bulk, wantPerPhase)
		}
		// And no demand traffic during kernels.
		for _, p := range ph.Profiles {
			for _, b := range p.RemoteRead {
				if b != 0 {
					t.Fatal("memcpy kernels must be fully local")
				}
			}
		}
	}
}

func TestInfiniteBWMovesNothing(t *testing.T) {
	res := runApp(t, "eqwp", KindInfinite, 4)
	if res.InterconnectBytes(0) != 0 {
		t.Fatal("infinite-BW paradigm should elide all transfers")
	}
}

func TestTrafficComparisonFigure10Shape(t *testing.T) {
	// GPS with subscription must move less data than UM for the
	// thrash-prone graph apps, and less than memcpy for Jacobi.
	post := func(r *engine.Result) uint64 { return r.InterconnectBytes(r.Meta.ProfilePhases) }
	umPR := post(runApp(t, "pagerank", KindUM, 4))
	gpsPR := post(runApp(t, "pagerank", KindGPS, 4))
	if gpsPR >= umPR {
		t.Errorf("pagerank: GPS traffic %d should undercut UM %d", gpsPR, umPR)
	}
	memJac := post(runApp(t, "jacobi", KindMemcpy, 4))
	gpsJac := post(runApp(t, "jacobi", KindGPS, 4))
	if float64(gpsJac) > 0.5*float64(memJac) {
		t.Errorf("jacobi: GPS traffic %d should be far below memcpy %d", gpsJac, memJac)
	}
	umJac := post(runApp(t, "jacobi", KindUM, 4))
	if umJac >= memJac {
		t.Errorf("jacobi: UM traffic %d should undercut memcpy %d (Section 7.2)", umJac, memJac)
	}
}

func TestUMHintsAvoidsFaults(t *testing.T) {
	res := runApp(t, "jacobi", KindUMHints, 4)
	if res.TotalFaults() != 0 {
		t.Fatal("hints paradigm should not fault")
	}
	// But collapses of read-duplicated pages must occur across iterations.
	var shootdowns int
	for _, ph := range res.Phases {
		for _, p := range ph.Profiles {
			shootdowns += p.Shootdowns
		}
	}
	if shootdowns == 0 {
		t.Fatal("writing read-duplicated halo pages must trigger shootdowns")
	}
}

func TestComputeOpsAccountedOncePerPhase(t *testing.T) {
	spec, _ := workload.ByName("jacobi")
	prog := spec.Build(workload.Config{NumGPUs: 2, Iterations: 1, Scale: 1, Seed: 1})
	m, err := New(KindGPS, prog, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := engine.Run(prog, m)
	var kernelOps uint64
	prog.Phases(func(ph *trace.Phase) bool {
		for _, k := range ph.Kernels {
			kernelOps += k.ComputeOps
		}
		return true
	})
	var profOps uint64
	for _, ph := range res.Phases {
		for _, p := range ph.Profiles {
			profOps += p.ComputeOps
		}
	}
	if kernelOps != profOps {
		t.Fatalf("compute ops %d != kernel total %d", profOps, kernelOps)
	}
}

func TestNewRejectsUnknownKind(t *testing.T) {
	spec, _ := workload.ByName("jacobi")
	prog := spec.Build(workload.Config{NumGPUs: 2, Iterations: 1})
	if _, err := New(Kind(99), prog, DefaultConfig()); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestNewBoundsRegionAddresses: a decoded trace file controls region bases,
// and the models index regions by 8 GB slot in a slice sized by the highest
// one, so New must reject a region beyond the virtual address space before
// allocating anything sized by it (a base of 1<<56 cost 64 MB, 1<<62 cost
// 4 GiB). A region ending exactly at the 49-bit limit is accepted.
func TestNewBoundsRegionAddresses(t *testing.T) {
	meta := func(base uint64) *trace.Recorded {
		return &trace.Recorded{M: trace.Meta{Name: "far", NumGPUs: 2, Regions: []trace.Region{
			{Name: "far", Kind: trace.RegionShared, Base: base, Size: 1 << 20},
		}}}
	}
	for _, base := range []uint64{1 << 56, 1 << 62} {
		for _, kind := range Kinds() {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := New(kind, meta(base), DefaultConfig())
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s: region at %#x accepted", kind, base)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("%s: rejecting a region at %#x allocated %d bytes", kind, base, grew)
			}
		}
	}
	if _, err := New(KindUM, meta(1<<49-1<<33), DefaultConfig()); err != nil {
		t.Fatalf("region in the top 8 GB slot rejected: %v", err)
	}
}
