package paradigm

import (
	"gps/internal/engine"
	"gps/internal/memsys"
	"gps/internal/trace"
)

// hintsModel is Unified Memory with the hand-tuned hints of Section 6:
// each shared page's preferred location is its dominant writer (derived
// from the first iteration, standing in for the expert programmer's
// knowledge); remote GPUs are marked accessed-by, so their reads and writes
// proceed remotely at line granularity without faults; and before use, a
// reader prefetches remote pages it consumes, duplicating them locally.
// Because UM cannot keep write-shared pages replicated, the next write to a
// duplicated page collapses it back to the preferred location with a TLB
// shootdown — the cost Section 7.1 highlights.
type hintsModel struct {
	base
	regions *engine.RegionTable // for the prefetch block's clip
	pages   *memsys.PageMap[hintsPage]
}

// hintsPage is one page's hint state, slab-packed.
type hintsPage struct {
	home uint8  // preferred location + 1; 0 = not yet decided
	dup  uint64 // bitmask of GPUs holding read duplicates
}

// prefetchBlockBytes is the granularity of the modeled cudaMemPrefetchAsync
// calls: prefetching page-by-page would require per-page tuning the paper
// deems impractical ("more fine-grained prefetching hints are required to
// avoid over-fetching pages needlessly" — the diffusion observation), so
// the hints variant prefetches 512 KB blocks around each consumed page.
const prefetchBlockBytes = 512 << 10

func newUMHints(meta trace.Meta, cfg Config, sharing map[uint64]*engine.Sharing) *hintsModel {
	m := &hintsModel{base: newBase("UM+hints", meta, cfg), regions: engine.NewRegionTable(meta.Regions)}
	m.pages = memsys.NewPageMap[hintsPage](m.pageBytes)
	// ScanSharing works at cfg.PageBytes granularity already.
	for vpn, s := range sharing {
		if w := s.DominantWriter(); w >= 0 {
			m.pages.At(vpn).home = uint8(w + 1)
		}
	}
	return m
}

// homeOf resolves the page's preferred location, defaulting pages never
// written in the scanned iteration to their first toucher.
func (m *hintsModel) homeOf(p *hintsPage, toucher int) int {
	if p.home == 0 {
		p.home = uint8(toucher + 1)
	}
	return int(p.home) - 1
}

func (m *hintsModel) Access(gpu int, b *engine.Batch) {
	prof := &m.profiles[gpu]
	for _, s := range b.Spans {
		bytes := uint64(s.N) * lineBytes
		if !s.Shared {
			prof.LocalBytes += bytes
			continue
		}
		p := m.pages.At(s.Line >> m.vpnShift)
		h := m.homeOf(p, gpu)
		switch s.Op {
		case trace.OpLoad:
			if h != gpu && p.dup&(1<<gpu) == 0 {
				// Prefetch hint: duplicate the surrounding block before use.
				// The coarse copy over-fetches when only part of the block is
				// consumed. The block always holds this page, so the rest of
				// the piece reads the fresh duplicate.
				m.prefetchBlock(gpu, s.Line, m.regions.Lookup(s.Line))
			}
			prof.LocalBytes += bytes
		case trace.OpStore, trace.OpAtomic:
			if p.dup != 0 {
				// Writing a read-duplicated page collapses it back to the
				// preferred location: TLB shootdown on the writer's critical
				// path (Section 2.1).
				p.dup = 0
				prof.Shootdowns++
			}
			if h == gpu {
				prof.LocalBytes += bytes
			} else {
				// accessed-by: remote store to the preferred location; does
				// not stall the writer.
				prof.Push[h] += bytes
			}
		}
	}
}

// prefetchBlock duplicates the 512 KB block containing line onto gpu,
// clipped to the enclosing region r, charging the bulk transfer to the
// sending preferred locations.
func (m *hintsModel) prefetchBlock(gpu int, line uint64, r *trace.Region) {
	blockLo := line &^ (prefetchBlockBytes - 1)
	blockHi := blockLo + prefetchBlockBytes
	if blockLo < r.Base {
		blockLo = r.Base
	}
	if blockHi > r.Base+r.Size {
		blockHi = r.Base + r.Size
	}
	for va := blockLo; va < blockHi; va += m.pageBytes {
		p := m.pages.At(va >> m.vpnShift)
		if p.dup&(1<<gpu) != 0 {
			continue
		}
		h := m.homeOf(p, gpu)
		p.dup |= 1 << gpu
		if h != gpu {
			m.profiles[h].Bulk[gpu] += m.pageBytes
		}
	}
}

func (m *hintsModel) EndPhase(int) {}

func (m *hintsModel) Finish(*engine.Result) {}
