package memsys

import (
	"math/rand"
	"testing"
)

// TestPageMapMatchesMapReference drives a PageMap and a plain map[vpn]T
// through the same random operation stream and requires identical behavior:
// the slab backing is an implementation detail, not a semantic change.
func TestPageMapMatchesMapReference(t *testing.T) {
	const pageBytes = 64 << 10
	rng := rand.New(rand.NewSource(42))
	pm := NewPageMap[uint32](pageBytes)
	ref := map[uint64]uint32{}

	// VPNs drawn from a few 8 GB slots, with region-like clustering near the
	// slot base plus occasional far offsets to force slab growth.
	randVPN := func() uint64 {
		slot := uint64(1 + rng.Intn(4))
		off := uint64(rng.Intn(2048))
		if rng.Intn(10) == 0 {
			off = uint64(rng.Intn(1 << 17))
		}
		return slot<<(RegionSlotShift-16) + off // 64 KB pages: 2^17 pages/slot
	}

	for op := 0; op < 200000; op++ {
		vpn := randVPN()
		switch rng.Intn(4) {
		case 0: // write
			v := rng.Uint32() | 1 // nonzero: zero means absent
			*pm.At(vpn) = v
			ref[vpn] = v
		case 1: // read through At (allocates, must see zero or last write)
			if got, want := *pm.At(vpn), ref[vpn]; got != want {
				t.Fatalf("At(%#x) = %d, want %d", vpn, got, want)
			}
		case 2: // read through Peek (never allocates)
			p := pm.Peek(vpn)
			if p == nil {
				if v, ok := ref[vpn]; ok && v != 0 {
					t.Fatalf("Peek(%#x) = nil, want %d", vpn, v)
				}
			} else if *p != ref[vpn] {
				t.Fatalf("Peek(%#x) = %d, want %d", vpn, *p, ref[vpn])
			}
		case 3: // delete = zero the entry
			if p := pm.Peek(vpn); p != nil {
				*p = 0
			}
			delete(ref, vpn)
		}
	}

	// ForEach must visit every live entry exactly once, ascending.
	seen := map[uint64]uint32{}
	lastVPN := uint64(0)
	first := true
	pm.ForEach(func(vpn uint64, v *uint32) {
		if !first && vpn <= lastVPN {
			t.Fatalf("ForEach order regressed: %#x after %#x", vpn, lastVPN)
		}
		first, lastVPN = false, vpn
		if *v != 0 {
			seen[vpn] = *v
		}
	})
	for vpn, v := range ref {
		if v != 0 && seen[vpn] != v {
			t.Fatalf("ForEach missed %#x=%d (got %d)", vpn, v, seen[vpn])
		}
	}
	for vpn, v := range seen {
		if ref[vpn] != v {
			t.Fatalf("ForEach produced ghost entry %#x=%d", vpn, v)
		}
	}
}

func TestPageMapReserveKeepsPointersStable(t *testing.T) {
	pm := NewPageMap[uint64](64 << 10)
	first := uint64(3) << (RegionSlotShift - 16)
	pm.Reserve(first, 10000)
	p := pm.At(first)
	*p = 7
	for off := uint64(0); off < 10000; off++ {
		*pm.At(first + off) = off
	}
	if p != pm.At(first) {
		t.Fatal("At after Reserve moved a reserved entry")
	}
}

func TestPageMapRejectsBadPageSize(t *testing.T) {
	for _, bad := range []uint64{0, 3, 48 << 10, 16 << 30} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPageMap(%d) did not panic", bad)
				}
			}()
			NewPageMap[int](bad)
		}()
	}
}
