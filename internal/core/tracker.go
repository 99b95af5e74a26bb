package core

import (
	"fmt"

	"gps/internal/memsys"
)

// AccessTracker is the GPS access tracking unit (Section 5.2): during the
// profiling phase it maintains, per GPU, a DRAM-resident bitmap with one bit
// per page of the GPS address space. Last-level TLB misses to GPS pages set
// the bit for the missing page. The driver reads the bitmaps at
// cuGPSTrackingStop() to decide unsubscriptions.
type AccessTracker struct {
	geom     memsys.Geometry
	baseVPN  memsys.VPN
	pages    uint64
	bitmaps  [][]uint64 // [gpu][word]
	active   bool
	recorded uint64
}

// NewAccessTracker covers the GPS address range [base, base+size) for
// numGPUs GPUs. Tracking starts disabled.
func NewAccessTracker(geom memsys.Geometry, base memsys.VAddr, size uint64, numGPUs int) *AccessTracker {
	if size == 0 {
		panic("core: tracker over empty range")
	}
	first := geom.VPNOf(base)
	last := geom.VPNOf(base + memsys.VAddr(size-1))
	pages := uint64(last-first) + 1
	words := (pages + 63) / 64
	bitmaps := make([][]uint64, numGPUs)
	for g := range bitmaps {
		bitmaps[g] = make([]uint64, words)
	}
	return &AccessTracker{geom: geom, baseVPN: first, pages: pages, bitmaps: bitmaps}
}

// BitmapBytes returns the DRAM footprint of one GPU's bitmap. (The paper:
// tracking a 32 GB range at 64 KB pages costs 64 KB of DRAM.)
func (t *AccessTracker) BitmapBytes() uint64 { return (t.pages + 7) / 8 }

// Start enables recording, clearing previous contents
// (cuGPSTrackingStart()).
func (t *AccessTracker) Start() {
	for _, bm := range t.bitmaps {
		for i := range bm {
			bm[i] = 0
		}
	}
	t.recorded = 0
	t.active = true
}

// Stop disables recording (cuGPSTrackingStop()).
func (t *AccessTracker) Stop() { t.active = false }

// Active reports whether a profiling phase is underway.
func (t *AccessTracker) Active() bool { return t.active }

// Recorded returns the number of bitmap set operations performed, a proxy
// for the (low) DRAM bandwidth the unit consumes.
func (t *AccessTracker) Recorded() uint64 { return t.recorded }

// RecordTLBMiss notes that gpu missed its last-level TLB on vpn. Misses
// outside the tracked range or while tracking is disabled are ignored, which
// mirrors the hardware: the unit only snoops misses tagged as GPS-range.
func (t *AccessTracker) RecordTLBMiss(gpu int, vpn memsys.VPN) {
	if !t.active || vpn < t.baseVPN || uint64(vpn-t.baseVPN) >= t.pages {
		return
	}
	if gpu < 0 || gpu >= len(t.bitmaps) {
		panic(fmt.Sprintf("core: tracker GPU %d out of range", gpu))
	}
	idx := uint64(vpn - t.baseVPN)
	word, bit := idx/64, idx%64
	if t.bitmaps[gpu][word]&(1<<bit) == 0 {
		t.bitmaps[gpu][word] |= 1 << bit
		t.recorded++
	}
}

// Touched reports whether gpu accessed vpn during the last profiling phase.
func (t *AccessTracker) Touched(gpu int, vpn memsys.VPN) bool {
	if vpn < t.baseVPN || uint64(vpn-t.baseVPN) >= t.pages {
		return false
	}
	idx := uint64(vpn - t.baseVPN)
	return t.bitmaps[gpu][idx/64]&(1<<(idx%64)) != 0
}

// TouchedBy returns the set of GPUs that accessed vpn during profiling.
func (t *AccessTracker) TouchedBy(vpn memsys.VPN) memsys.SubscriberSet {
	var s memsys.SubscriberSet
	for g := range t.bitmaps {
		if t.Touched(g, vpn) {
			s = s.Add(g)
		}
	}
	return s
}
