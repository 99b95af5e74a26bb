package gps

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"
)

// buildEveryMethodProgram records a 4-GPU program that uses every
// KernelBuilder method: unaligned contiguous loads and stores that span
// several trace blocks, multi-pass stores whose tiles do not divide the
// range, scattered loads and atomics, and sys-scoped fences, over an
// automatic, a manual and a pinned buffer.
func buildEveryMethodProgram(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(Config{GPUs: 4, Interconnect: PCIe4})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := sys.MallocGPS("grid", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	halo, err := sys.MallocGPSManual("halo", 256<<10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := sys.Malloc("scratch", 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TrackingStart(); err != nil {
		t.Fatal(err)
	}
	per := uint64(1 << 20)
	for it := 0; it < 3; it++ {
		var ks []*KernelBuilder
		for dev := 0; dev < 4; dev++ {
			own := uint64(dev) * per
			next := uint64((dev+1)%4) * per
			k := sys.NewKernel(dev, "sweep").
				Compute(2e7).
				LocalStream(64<<10).
				Load(grid, own, per).
				Load(grid, next+64, 5000).
				StoreMultiPass(grid, own, per/2, 3, 100).
				Store(grid, own+per/2, per/2-1000).
				LoadScatter(grid, 0, 4<<20, 300, uint32(7*dev+it)).
				AtomicScatter(halo, 0, 256<<10, 50, uint32(dev)).
				FenceSys()
			if dev == 2 {
				k.Store(scratch, 128, 64<<10).Load(scratch, 0, 1<<20)
			}
			if dev < 2 {
				k.Load(halo, uint64(dev)*(128<<10), 128<<10).FenceSys()
			}
			ks = append(ks, k)
		}
		if err := sys.Launch(ks...); err != nil {
			t.Fatal(err)
		}
		if it == 0 {
			if err := sys.TrackingStop(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sys
}

// resultDigest is the sha256 of a Result's JSON rendering.
func resultDigest(t *testing.T, res *Result) string {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestSystemResultsGolden pins the Result of one program built through
// every KernelBuilder method under every paradigm. The digests were
// recorded when the builders appended flat access slices; the columnar
// builders must reproduce them byte for byte.
func TestSystemResultsGolden(t *testing.T) {
	want := map[Paradigm]string{
		ParadigmUM:              "89fe8e1c4a5e9f2014c1f2a66e2013c9c3ffcf788db2f739a7ab9ed1697ec2b5",
		ParadigmUMHints:         "5c04c5691cf79cc829c44c44ed25b6b2bf90f62f2ce69ba237957098e41d79c7",
		ParadigmRDL:             "4dbb2000a3a672dcaf894fae1802c0ede3aac20d459168bbaf5c16d2339c0577",
		ParadigmMemcpy:          "2ed6e33da8678a775b307cecb67b5f00acb21019b1d76157750bbfbbe6dc592d",
		ParadigmMemcpyAsync:     "07c9065ed3ed2cf0ea9d542cccb740c908879a4339ff4f0842a2101e14c2411e",
		ParadigmGPS:             "59997b6eeee8de93e6fce5ec09a6ec6c4c5384c6172ded530e155ec492e4ca4e",
		ParadigmGPSNoSub:        "29f831a3800b196b0448bac2ffb8e2be35e7cbf422b776dcb4d723c38104dfc7",
		ParadigmGPSUnsubDefault: "deec2e43856aa027487fb3974d2ace3a4b12b76d5dfe09f7ee32213ceee7e97a",
		ParadigmInfinite:        "3c940a6fe44ff42300d77757cec3ab23d6260ce950a1d32dad441794960fb627",
	}
	sys := buildEveryMethodProgram(t)
	for _, p := range Paradigms() {
		res, err := sys.RunWith(p, PCIe4)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if got := resultDigest(t, res); got != want[p] {
			t.Errorf("%s: result digest %s, want %s", p, got, want[p])
		}
	}
}

// TestLaunchFailureLeavesBuildersIntact checks that a Launch rejected on
// its second builder leaves the first one as it was: both still take
// accesses, and launching them again gives the same Result as a clean
// launch.
func TestLaunchFailureLeavesBuildersIntact(t *testing.T) {
	run := func(failFirst bool) *Result {
		sys, _ := NewSystem(Config{GPUs: 2})
		buf, _ := sys.MallocGPS("b", 1<<20)
		k0 := sys.NewKernel(0, "k0").Load(buf, 0, 1<<20).Store(buf, 0, 512<<10)
		k1 := sys.NewKernel(1, "k1")
		if failFirst {
			if err := sys.Launch(k0, k1); err == nil {
				t.Fatal("empty kernel accepted")
			}
		}
		k0.FenceSys()
		k1.Load(buf, 512<<10, 512<<10).Store(buf, 512<<10, 512<<10)
		if err := sys.Launch(k0, k1); err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if got, want := run(true), run(false); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a failed launch: %v, want %v", got, want)
	}
}

// TestRelaunchReplaysSameKernel checks that launching a builder twice runs
// the same accesses twice, like launching two identical builders, and that
// a launched builder takes no further accesses.
func TestRelaunchReplaysSameKernel(t *testing.T) {
	run := func(relaunch bool) *Result {
		sys, _ := NewSystem(Config{GPUs: 2})
		buf, _ := sys.MallocGPS("b", 1<<20)
		build := func() *KernelBuilder {
			return sys.NewKernel(0, "k").Load(buf, 0, 1<<20).Store(buf, 0, 1<<20).FenceSys()
		}
		k := build()
		for i := 0; i < 2; i++ {
			if !relaunch && i > 0 {
				k = build()
			}
			if err := sys.Launch(k, sys.NewKernel(1, "r").Load(buf, 0, 256<<10)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if got, want := run(true), run(false); !reflect.DeepEqual(got, want) {
		t.Fatalf("relaunched builder: %v, want %v", got, want)
	}
	// Accesses added after the launch are rejected, not silently dropped.
	sys, _ := NewSystem(Config{GPUs: 1})
	buf, _ := sys.MallocGPS("b", 1<<20)
	k := sys.NewKernel(0, "k").Load(buf, 0, 128)
	if err := sys.Launch(k); err != nil {
		t.Fatal(err)
	}
	if err := sys.Launch(k.Store(buf, 0, 128)); err == nil {
		t.Fatal("accesses added after the launch accepted")
	}
}
