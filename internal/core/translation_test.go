package core

import (
	"math/rand"
	"reflect"
	"testing"

	"gps/internal/memsys"
)

func newTransUnit(gpu int, m *Manager) *TranslationUnit {
	return NewTranslationUnit(gpu, 32, 8, m)
}

func TestTranslationFansOutToRemoteSubscribersOnly(t *testing.T) {
	geom := testGeom()
	m := newTestManager(t, 4)
	if err := m.AllocGPS(0, page, memsys.SetOf(0, 1, 3), false); err != nil {
		t.Fatal(err)
	}
	u := newTransUnit(0, m)
	if got, want := u.Process(geom.VPNOf(128), 1), memsys.SetOf(1, 3); got != want {
		t.Fatalf("destinations = %v, want %v", got, want)
	}
	if got := u.Stats().Packets; got != 2 {
		t.Fatalf("packets = %d, want 2 (GPUs 1 and 3)", got)
	}
}

func TestTranslationTLBCaching(t *testing.T) {
	geom := testGeom()
	m := newTestManager(t, 2)
	if err := m.AllocGPS(0, page, memsys.AllGPUs(2), false); err != nil {
		t.Fatal(err)
	}
	u := newTransUnit(0, m)
	for _, line := range []memsys.VAddr{0, 128, 256} { // one page
		u.Process(geom.VPNOf(line), 1)
	}

	s := u.Stats()
	if s.TLBMisses != 1 || s.TLBHits != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", s.TLBHits, s.TLBMisses)
	}
	if got := s.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("HitRate = %v", got)
	}
}

func TestTranslationUnmappedPageDropsBlock(t *testing.T) {
	m := newTestManager(t, 2)
	if err := m.AllocPinned(page, page, 1); err != nil {
		t.Fatal(err)
	}
	u := newTransUnit(0, m)
	for vpn := memsys.VPN(0); vpn < 2; vpn++ { // unallocated, then pinned
		if got := u.Process(vpn, 1); !got.Empty() {
			t.Fatalf("page %d replicated to %v", vpn, got)
		}
	}
	if u.Stats().Unmapped != 2 {
		t.Fatalf("Unmapped = %d, want 2", u.Stats().Unmapped)
	}
}

func TestTranslationInvalidate(t *testing.T) {
	m := newTestManager(t, 2)
	if err := m.AllocGPS(0, page, memsys.AllGPUs(2), false); err != nil {
		t.Fatal(err)
	}
	u := newTransUnit(0, m)
	m.SetRemapHook(u.InvalidateTLB)
	u.Process(0, 1)

	// GPU1 unsubscribes: the page downgrades to a single copy, and the
	// remap hook drops the cached subscriber set.
	if err := m.Unsubscribe(1, 0, page); err != nil {
		t.Fatal(err)
	}
	if got := u.Process(0, 1); !got.Empty() || u.Stats().Unmapped != 1 {
		t.Fatal("stale TLB served after invalidate")
	}
}

func TestTranslationGPSTLBSmallButSufficient(t *testing.T) {
	// Section 7.4: the GPS-TLB hit rate approaches 100% at just 32 entries
	// because it only services GPS-heap stores. Emulate a working set of 16
	// hot pages revisited in streaming order.
	m := newTestManager(t, 2)
	if err := m.AllocGPS(0, 16*page, memsys.AllGPUs(2), false); err != nil {
		t.Fatal(err)
	}
	u := newTransUnit(0, m)
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
// a few pages, one never allocated and one pinned, interleave with GPS-TLB
// invalidations and with subscribe, unsubscribe and collapse calls on the
// manager, whose remap hook shoots both units down. The run path settles
// its pending run before every such call, as the GPS model does. Both
// units must end with equal stats, equal bytes per destination and an
// identical GPS-TLB.
func TestTranslationRunEquivalence(t *testing.T) {
	const gpus, pages = 4, 6
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newTestManager(t, gpus)
		// The last page is never allocated and the one before it is pinned.
		for vpn := memsys.VPN(0); vpn < pages-2; vpn++ {
			subs := memsys.SetOf(0)
			for g := 1; g < gpus; g++ {
				if rng.Intn(4) != 0 {
					subs = subs.Add(g)
				}
			}
			if err := m.AllocGPS(memsys.VAddr(vpn)*page, page, subs, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.AllocPinned((pages-2)*page, page, 0); err != nil {
			t.Fatal(err)
		}
		// A 2-way, 4-entry GPS-TLB over 6 pages also exercises evictions.
		runU, lineU := NewTranslationUnit(1, 4, 2, m), NewTranslationUnit(1, 4, 2, m)
		m.SetRemapHook(func(vpn memsys.VPN) {
			runU.InvalidateTLB(vpn)
			lineU.InvalidateTLB(vpn)
		})
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
				// Refused calls (a collapsed page, the last subscriber)
				// are fine: they change nothing.
				settle()
				g, va := rng.Intn(gpus), memsys.VAddr(vpn)*page
				switch {
				case op == 17:
					m.Subscribe(g, va, page)
				case op == 18:
					m.Unsubscribe(g, va, page)
				case rng.Intn(8) == 0:
					m.CollapseSysScoped(g, vpn)
				}
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
