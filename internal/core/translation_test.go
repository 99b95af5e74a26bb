package core

import (
	"math/rand"
	"reflect"
	"testing"

	"gps/internal/memsys"
)

func newTransUnit(gpu int, table *memsys.GPSPageTable) *TranslationUnit {
	return NewTranslationUnit(gpu, 32, 8, table)
}

func TestTranslationFansOutToRemoteSubscribersOnly(t *testing.T) {
	geom := testGeom()
	table := memsys.NewGPSPageTable(geom, 4)
	table.Subscribe(0, 0, 10)
	table.Subscribe(0, 1, 11)
	table.Subscribe(0, 3, 13)

	u := newTransUnit(0, table)
	if got, want := u.Process(geom.VPNOf(128), 1), memsys.SetOf(1, 3); got != want {
		t.Fatalf("destinations = %v, want %v", got, want)
	}
	if got := u.Stats().Packets; got != 2 {
		t.Fatalf("packets = %d, want 2 (GPUs 1 and 3)", got)
	}
}

func TestTranslationTLBCaching(t *testing.T) {
	geom := testGeom()
	table := memsys.NewGPSPageTable(geom, 2)
	table.Subscribe(0, 0, 1)
	table.Subscribe(0, 1, 2)

	u := newTransUnit(0, table)
	for _, line := range []memsys.VAddr{0, 128, 256} { // one page
		u.Process(geom.VPNOf(line), 1)
	}

	s := u.Stats()
	if s.TLBMisses != 1 || s.TLBHits != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", s.TLBHits, s.TLBMisses)
	}
	if s.WalkVisits == 0 {
		t.Fatal("miss should charge walk visits")
	}
	if got := s.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("HitRate = %v", got)
	}
}

func TestTranslationUnmappedPageDropsBlock(t *testing.T) {
	table := memsys.NewGPSPageTable(testGeom(), 2)
	u := newTransUnit(0, table)
	if got := u.Process(0, 1); !got.Empty() {
		t.Fatalf("unmapped page replicated to %v", got)
	}
	if u.Stats().Unmapped != 1 {
		t.Fatalf("Unmapped = %d, want 1", u.Stats().Unmapped)
	}
}

func TestTranslationInvalidate(t *testing.T) {
	geom := testGeom()
	table := memsys.NewGPSPageTable(geom, 2)
	table.Subscribe(0, 0, 1)
	table.Subscribe(0, 1, 2)
	u := newTransUnit(0, table)
	u.Process(0, 1)

	// Rewrite the table: GPU1 unsubscribes, page collapses away.
	table.Drop(0)
	u.InvalidateTLB(0)
	if got := u.Process(0, 1); !got.Empty() || u.Stats().Unmapped != 1 {
		t.Fatal("stale TLB served after invalidate")
	}
}

func TestTranslationGPSTLBSmallButSufficient(t *testing.T) {
	// Section 7.4: the GPS-TLB hit rate approaches 100% at just 32 entries
	// because it only services GPS-heap stores. Emulate a working set of 16
	// hot pages revisited in streaming order.
	geom := testGeom()
	table := memsys.NewGPSPageTable(geom, 2)
	for vpn := memsys.VPN(0); vpn < 16; vpn++ {
		table.Subscribe(vpn, 0, memsys.PPN(vpn))
		table.Subscribe(vpn, 1, memsys.PPN(vpn+100))
	}
	u := newTransUnit(0, table)
	for rep := 0; rep < 100; rep++ {
		for vpn := memsys.VPN(0); vpn < 16; vpn++ {
			u.Process(vpn, 1)
		}
	}
	if hr := u.Stats().HitRate(); hr < 0.98 {
		t.Fatalf("32-entry GPS-TLB hit rate = %v, want ~1.0", hr)
	}
}

// TestTranslationRunEquivalence holds one Process call per run of
// same-page drained lines to one call per line. Random drain sequences over
// a few pages, some never mapped, interleave with GPS-TLB invalidations and
// with subscribe, unsubscribe and drop rewrites of the GPS page table (each
// followed by the shootdown the manager's remap hook performs). The run
// path settles its pending run before every such change, as the GPS model
// does. Both units must end with equal stats, equal bytes per destination
// and an identical GPS-TLB.
func TestTranslationRunEquivalence(t *testing.T) {
	const gpus, pages = 4, 6
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		geom := testGeom()
		table := memsys.NewGPSPageTable(geom, gpus)
		// Reserve keeps the entries the GPS-TLBs cache in place; the last
		// page starts unmapped.
		table.Reserve(0, pages*geom.PageBytes)
		for vpn := memsys.VPN(0); vpn < pages-1; vpn++ {
			for g := 0; g < gpus; g++ {
				if g == 0 || rng.Intn(2) == 0 {
					table.Subscribe(vpn, g, memsys.PPN(int(vpn)*gpus+g))
				}
			}
		}
		// A 2-way, 4-entry GPS-TLB over 6 pages also exercises evictions.
		runU, lineU := NewTranslationUnit(1, 4, 2, table), NewTranslationUnit(1, 4, 2, table)
		runBytes, lineBytes := make([]uint64, gpus), make([]uint64, gpus)
		charge := func(bytes []uint64, set memsys.SubscriberSet, n uint64) {
			set.ForEach(func(dst int) { bytes[dst] += n * 128 })
		}
		var run struct {
			vpn memsys.VPN
			n   uint64
		}
		settle := func() {
			if run.n > 0 {
				charge(runBytes, runU.Process(run.vpn, run.n), run.n)
				run.n = 0
			}
		}
		for step := 0; step < 400; step++ {
			vpn := memsys.VPN(rng.Intn(pages))
			switch op := rng.Intn(20); {
			case op < 16: // a drained line of page vpn, often the last one's
				if op < 10 && run.n > 0 {
					vpn = run.vpn
				}
				charge(lineBytes, lineU.Process(vpn, 1), 1)
				if run.n == 0 || vpn != run.vpn {
					settle()
					run.vpn = vpn
				}
				run.n++
			case op < 17:
				settle()
				runU.InvalidateTLB(vpn)
				lineU.InvalidateTLB(vpn)
			default:
				settle()
				g := rng.Intn(gpus)
				switch {
				case op == 17:
					table.Subscribe(vpn, g, memsys.PPN(100+int(vpn)*gpus+g))
				case op == 18:
					table.Unsubscribe(vpn, g) // refusing the last subscriber is fine
				default:
					table.Drop(vpn)
				}
				runU.InvalidateTLB(vpn)
				lineU.InvalidateTLB(vpn)
			}
		}
		settle()
		if runU.Stats() != lineU.Stats() {
			t.Fatalf("seed %d: run stats %+v, line stats %+v", seed, runU.Stats(), lineU.Stats())
		}
		if !reflect.DeepEqual(runBytes, lineBytes) {
			t.Fatalf("seed %d: run bytes %v, line bytes %v", seed, runBytes, lineBytes)
		}
		if !reflect.DeepEqual(runU.tlb, lineU.tlb) {
			t.Fatalf("seed %d: GPS-TLB state differs", seed)
		}
	}
}
