package paradigm

import (
	"gps/internal/engine"
	"gps/internal/memsys"
	"gps/internal/trace"
)

// rdlModel is Remote Demand Loads (Section 6): the converse of GPS. Every
// GPU keeps a local copy of shared data, stores are performed locally, and
// loads are issued to the GPU that most recently wrote the page. The model
// represents an expert programmer who tracks writers per page exactly (the
// paper grants the same oracle by tracking the latest writer inside the
// simulator). Remote loads sit on the critical path, which is RDL's
// weakness; repeated reads of the same remote line re-cross the
// interconnect every time (the ALS pathology of Section 7.2).
type rdlModel struct {
	base
	lastWriter *memsys.PageMap[uint8] // vpn -> most recent writer + 1; 0 = never written
}

func newRDL(meta trace.Meta, cfg Config) *rdlModel {
	m := &rdlModel{base: newBase("RDL", meta, cfg)}
	m.lastWriter = memsys.NewPageMap[uint8](m.pageBytes)
	return m
}

func (m *rdlModel) Access(gpu int, b *engine.Batch) {
	prof := &m.profiles[gpu]
	lastSlot, lastVPN := ^uint64(0), ^uint64(0)
	var region *trace.Region
	var p *uint8
	for i := range b.Accs {
		a := &b.Accs[i]
		if a.Op == trace.OpFence {
			continue
		}
		for _, line := range b.LinesOf(i) {
			if slot := line >> memsys.RegionSlotShift; slot != lastSlot {
				lastSlot = slot
				region = m.regions.SlotRegion(slot)
			}
			if region == nil || region.Kind != trace.RegionShared ||
				line < region.Base || line-region.Base >= region.Size {
				prof.LocalBytes += lineBytes
				continue
			}
			if vpn := line >> m.vpnShift; vpn != lastVPN {
				lastVPN = vpn
				p = m.lastWriter.At(vpn)
			}
			switch a.Op {
			case trace.OpLoad:
				if lw := *p; lw == 0 || int(lw) == gpu+1 {
					prof.LocalBytes += lineBytes
				} else {
					prof.RemoteRead[int(lw)-1] += lineBytes
					prof.RemoteReadLines++
				}
			case trace.OpStore, trace.OpAtomic:
				prof.LocalBytes += lineBytes
				*p = uint8(gpu + 1)
			}
		}
	}
}

func (m *rdlModel) EndPhase(int) {}

func (m *rdlModel) Finish(*engine.Result) {}
