package memsys

import (
	"math/rand"
	"testing"
)

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB[int](32, 8)
	if _, ok := tlb.Lookup(1); ok {
		t.Fatal("empty TLB hit")
	}
	tlb.Fill(1, 42)
	got, ok := tlb.Lookup(1)
	if !ok || got != 42 {
		t.Fatalf("Lookup = (%d, %v)", got, ok)
	}
	if tlb.hits != 1 || tlb.misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", tlb.hits, tlb.misses)
	}
	if tlb.HitRate() != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", tlb.HitRate())
	}
}

func TestTLBLRUWithinSet(t *testing.T) {
	// 4 entries, 4 ways: one set, pure LRU.
	tlb := NewTLB[int](4, 4)
	for v := VPN(0); v < 4; v++ {
		tlb.Fill(v, int(v))
	}
	tlb.Lookup(0) // refresh 0; LRU is now 1
	tlb.Fill(9, 9)
	if _, ok := tlb.Lookup(1); ok {
		t.Fatal("LRU entry 1 should have been evicted")
	}
	for _, v := range []VPN{0, 2, 3, 9} {
		if _, ok := tlb.Lookup(v); !ok {
			t.Fatalf("entry %d should survive", v)
		}
	}
}

func TestTLBSetIndexing(t *testing.T) {
	// 8 entries, 2 ways = 4 sets. VPNs 0,4,8 map to set 0.
	tlb := NewTLB[int](8, 2)
	tlb.Fill(0, 0)
	tlb.Fill(4, 4)
	tlb.Fill(8, 8) // evicts LRU of set 0 = vpn 0
	if _, ok := tlb.Lookup(0); ok {
		t.Fatal("set-conflict victim should be evicted")
	}
	// Other sets are unaffected.
	tlb.Fill(1, 1)
	if _, ok := tlb.Lookup(1); !ok {
		t.Fatal("set 1 entry missing")
	}
}

func TestTLBFillExistingUpdates(t *testing.T) {
	tlb := NewTLB[int](4, 4)
	tlb.Fill(3, 30)
	tlb.Fill(3, 31)
	got, ok := tlb.Lookup(3)
	if !ok || got != 31 {
		t.Fatalf("Lookup = (%d, %v), want 31", got, ok)
	}
}

func TestTLBInvalidate(t *testing.T) {
	tlb := NewTLB[int](8, 2)
	tlb.Fill(1, 1)
	tlb.Fill(2, 2)
	if !tlb.Invalidate(1) {
		t.Fatal("Invalidate present entry returned false")
	}
	if tlb.Invalidate(1) {
		t.Fatal("Invalidate absent entry returned true")
	}
	if _, ok := tlb.Lookup(1); ok {
		t.Fatal("Lookup hit an invalidated entry")
	}
	if _, ok := tlb.Lookup(2); !ok {
		t.Fatal("Invalidate dropped another entry")
	}
}

func TestTLBBadGeometryPanics(t *testing.T) {
	for _, geom := range [][2]int{{0, 1}, {8, 0}, {10, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("geometry %v should panic", geom)
				}
			}()
			NewTLB[int](geom[0], geom[1])
		}()
	}
}

// Property: a fully-associative TLB of size n under any access sequence has
// the same hit/miss behavior as a reference LRU model.
func TestTLBMatchesLRUModel(t *testing.T) {
	const n = 8
	tlb := NewTLB[int](n, n)
	var model []VPN // front = MRU
	refLookup := func(v VPN) bool {
		for i, x := range model {
			if x == v {
				model = append(model[:i], model[i+1:]...)
				model = append([]VPN{v}, model...)
				return true
			}
		}
		return false
	}
	refFill := func(v VPN) {
		if refLookup(v) {
			return
		}
		if len(model) == n {
			model = model[:n-1]
		}
		model = append([]VPN{v}, model...)
	}
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 20000; step++ {
		v := VPN(rng.Intn(24))
		_, hit := tlb.Lookup(v)
		refHit := refLookup(v)
		if hit != refHit {
			t.Fatalf("step %d: vpn %d hit=%v model=%v", step, v, hit, refHit)
		}
		if !hit {
			tlb.Fill(v, int(v))
			refFill(v)
		}
	}
}

func BenchmarkTLBLookup(b *testing.B) {
	// The payload is the conventional TLB's: an owner GPU and the GPS bit.
	type mapping struct {
		owner uint8
		gps   bool
	}
	tlb := NewTLB[mapping](4096, 16)
	for v := VPN(0); v < 4096; v++ {
		tlb.Fill(v, mapping{owner: uint8(v % 4), gps: v%2 == 0})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tlb.Lookup(VPN(i & 8191))
	}
}

// TestTLBLookupNEquivalence: LookupN(v, n) leaves the hit and miss
// counters, the clock and every way's (valid, vpn, lastUse) exactly as n
// Lookup(v) calls do, on hits and misses alike, across set/way geometries
// (including a non-power-of-two set count), with fills and shootdowns
// interleaved.
func TestTLBLookupNEquivalence(t *testing.T) {
	for _, g := range []struct{ entries, ways int }{{4, 4}, {8, 2}, {12, 4}, {32, 1}, {64, 8}} {
		rng := rand.New(rand.NewSource(int64(g.entries*100 + g.ways)))
		one, many := NewTLB[int](g.entries, g.ways), NewTLB[int](g.entries, g.ways)
		for step := 0; step < 5000; step++ {
			v := VPN(rng.Intn(3 * g.entries))
			switch rng.Intn(5) {
			case 0:
				one.Fill(v, int(v))
				many.Fill(v, int(v))
			case 1:
				one.Invalidate(v)
				many.Invalidate(v)
			default:
				n := 1 + rng.Intn(8)
				var want int
				var wantOK bool
				for i := 0; i < n; i++ {
					want, wantOK = one.Lookup(v)
				}
				if got, ok := many.LookupN(v, uint64(n)); got != want || ok != wantOK {
					t.Fatalf("%d/%d step %d: LookupN(%d, %d) = (%d, %v), want (%d, %v)",
						g.entries, g.ways, step, v, n, got, ok, want, wantOK)
				}
			}
			if one.hits != many.hits || one.misses != many.misses || one.clock != many.clock {
				t.Fatalf("%d/%d step %d: hits/misses/clock %d/%d/%d, want %d/%d/%d", g.entries, g.ways, step,
					many.hits, many.misses, many.clock, one.hits, one.misses, one.clock)
			}
			for s := range one.sets {
				for w, e := range one.sets[s] {
					if f := many.sets[s][w]; f.valid != e.valid || f.vpn != e.vpn || f.lastUse != e.lastUse {
						t.Fatalf("%d/%d step %d: set %d way %d = %+v, want %+v", g.entries, g.ways, step, s, w, f, e)
					}
				}
			}
		}
	}
}
