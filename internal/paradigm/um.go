package paradigm

import (
	"gps/internal/engine"
	"gps/internal/memsys"
	"gps/internal/trace"
)

// umModel is baseline Unified Memory without hints: a single address space
// with fault-based page migration. Every access to a page resident on
// another GPU faults, stalls the accessor for the fault round trip, and
// migrates the whole page. Pages shared read-write by several GPUs thrash
// back and forth, which is exactly the pathology Section 7.1 reports.
//
// Like the production UM driver, the model detects thrashing: after a page
// has migrated thrashLimit times within one phase, it is pinned where it is
// and remote GPUs access it at line granularity over the interconnect
// instead of faulting (CUDA's documented thrash mitigation). Without this,
// interleaved atomics would serialize faults without bound, far beyond the
// slowdowns real UM exhibits.
type umModel struct {
	base
	pages *memsys.PageMap[umPage]
	epoch uint32
}

// umPage is one page's residency and thrash state, slab-packed. The thrash
// fields are per phase: instead of sweeping them at every barrier, they are
// reset lazily when the stamp doesn't match the current epoch.
type umPage struct {
	owner  uint8 // resident GPU + 1; 0 = not yet populated
	thrash uint8 // migrations this phase
	pinned bool  // thrash-mitigated: accessed remotely, no more migration
	stamp  uint32
}

// thrashLimit is the per-phase migration budget before a page is pinned.
const thrashLimit = 2

func newUM(meta trace.Meta, cfg Config) *umModel {
	m := &umModel{base: newBase("UM", meta, cfg)}
	m.pages = memsys.NewPageMap[umPage](m.pageBytes)
	return m
}

func (m *umModel) Access(gpu int, b *engine.Batch) {
	prof := &m.profiles[gpu]
	for _, s := range b.Spans {
		bytes := uint64(s.N) * lineBytes
		if !s.Shared {
			prof.LocalBytes += bytes
			continue
		}
		p := m.pages.At(s.Line >> m.vpnShift)
		if p.stamp != m.epoch {
			p.thrash, p.pinned, p.stamp = 0, false, m.epoch
		}
		// The piece's first line decides; once it has populated or
		// migrated the page, the rest of the piece is local.
		switch {
		case p.owner == 0:
			// First touch: populate on the accessor (a minor fault with no
			// data movement).
			p.owner = uint8(gpu + 1)
			prof.Faults++
			prof.LocalBytes += bytes
		case int(p.owner) == gpu+1:
			prof.LocalBytes += bytes
		case p.pinned:
			// Thrash-mitigated: access the lines remotely without migrating.
			owner := int(p.owner) - 1
			if s.IsWrite() {
				prof.Push[owner] += bytes
			} else {
				prof.RemoteRead[owner] += bytes
				prof.RemoteReadLines += uint64(s.N)
			}
		default:
			// Fault + migrate the page to the accessor.
			prof.Faults++
			prof.RemoteRead[int(p.owner)-1] += m.pageBytes
			p.owner = uint8(gpu + 1)
			prof.LocalBytes += bytes
			p.thrash++
			if p.thrash >= thrashLimit {
				p.pinned = true
			}
		}
	}
}

func (m *umModel) EndPhase(int) {
	// Thrash detection state is periodic in the driver; bumping the epoch
	// invalidates every page's per-phase state without a sweep.
	m.epoch++
}

func (m *umModel) Finish(*engine.Result) {}
