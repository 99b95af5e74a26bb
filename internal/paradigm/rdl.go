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
	for _, s := range b.Spans {
		bytes := uint64(s.N) * lineBytes
		if !s.Shared {
			prof.LocalBytes += bytes
			continue
		}
		p := m.lastWriter.At(s.Line >> m.vpnShift)
		switch s.Op {
		case trace.OpLoad:
			if lw := *p; lw == 0 || int(lw) == gpu+1 {
				prof.LocalBytes += bytes
			} else {
				prof.RemoteRead[int(lw)-1] += bytes
				prof.RemoteReadLines += uint64(s.N)
			}
		case trace.OpStore, trace.OpAtomic:
			prof.LocalBytes += bytes
			*p = uint8(gpu + 1)
		}
	}
}

func (m *rdlModel) EndPhase(int) {}

func (m *rdlModel) Finish(*engine.Result) {}
