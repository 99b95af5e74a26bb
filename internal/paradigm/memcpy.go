package paradigm

import (
	"gps/internal/engine"
	"gps/internal/memsys"
	"gps/internal/trace"
)

// memcpyModel duplicates every shared data structure on every GPU and
// broadcasts it with cudaMemcpy at each synchronization barrier (Section
// 6). All kernel accesses are local; the cost is bulk-synchronous transfer
// time with zero compute overlap, and bandwidth wasted copying data to GPUs
// that never touch it (the Figure 10 normalization baseline: all shared
// data crosses to each GPU once per barrier).
//
// With elideTransfers set, the same model becomes the infinite-bandwidth
// upper bound: the paper obtains it "by eliding the data transfer time from
// the memcpy variant".
type memcpyModel struct {
	base
	elideTransfers bool
	pipelined      bool // overlap broadcasts with compute (expert double buffering)
	pages          *memsys.PageMap[memcpyPage]
	dirty          []uint64 // pages written this phase, in first-write order
	epoch          uint32
}

// memcpyPage records the page's last writer this phase; the stamp marks
// membership in the current phase's dirty list.
type memcpyPage struct {
	writer uint8 // last writer this phase + 1
	stamp  uint32
}

func newMemcpy(meta trace.Meta, cfg Config, elideTransfers bool) *memcpyModel {
	name := "memcpy"
	if elideTransfers {
		name = "infiniteBW"
	}
	m := &memcpyModel{
		base:           newBase(name, meta, cfg),
		elideTransfers: elideTransfers,
	}
	m.pages = memsys.NewPageMap[memcpyPage](m.pageBytes)
	m.epoch = 1 // distinct from the zero value of fresh pages
	return m
}

// newMemcpyAsync is the expert double-buffered variant of Section 2.1:
// cudaMemcpy transfers pipelined against compute ("implementing pipeline
// parallelism requires significant programmer effort"). The broadcast
// volume is identical to plain memcpy; only its overlap differs.
func newMemcpyAsync(meta trace.Meta, cfg Config) *memcpyModel {
	m := newMemcpy(meta, cfg, false)
	m.name = "memcpy-async"
	m.pipelined = true
	return m
}

func (m *memcpyModel) Access(gpu int, b *engine.Batch) {
	m.profiles[gpu].LocalBytes += b.Lines * lineBytes // every structure is mirrored locally
	if m.elideTransfers {
		return // infinite bandwidth never broadcasts, so it tracks no writes
	}
	for _, s := range b.Spans {
		if !s.IsWrite() || !s.Shared {
			continue // only shared data is broadcast
		}
		vpn := s.Line >> m.vpnShift
		p := m.pages.At(vpn)
		if p.stamp != m.epoch {
			p.stamp = m.epoch
			m.dirty = append(m.dirty, vpn)
		}
		p.writer = uint8(gpu + 1)
	}
}

func (m *memcpyModel) EndPhase(int) {
	if m.n > 1 && !m.elideTransfers {
		// Barrier: broadcast every page written this phase from its writer
		// to every other GPU, keeping all mirrors coherent before the next
		// kernels launch.
		for _, vpn := range m.dirty {
			src := int(m.pages.Peek(vpn).writer) - 1
			for dst := 0; dst < m.n; dst++ {
				if dst == src {
					continue
				}
				if m.pipelined {
					// Double buffering: the copy overlaps compute and only
					// has to finish by the next barrier.
					m.profiles[src].Push[dst] += m.pageBytes
				} else {
					m.profiles[src].Bulk[dst] += m.pageBytes
				}
			}
		}
	}
	m.dirty = m.dirty[:0]
	m.epoch++
}

// PageBytes is 0 for infiniteBW, which reads neither pages nor regions.
func (m *memcpyModel) PageBytes() uint64 {
	if m.elideTransfers {
		return 0
	}
	return m.pageBytes
}

// LinesOnly is true for infiniteBW, which reads only each batch's line
// count, so a lone infiniteBW replay builds no spans.
func (m *memcpyModel) LinesOnly() bool { return m.elideTransfers }

func (m *memcpyModel) Finish(*engine.Result) {}
