// Package timing is the performance half of the simulator: it prices the
// per-phase traffic profiles produced by internal/engine on a machine
// description (internal/gpuconf) and an interconnect fabric
// (internal/interconnect), producing end-to-end execution times.
//
// Within each phase, concurrent transfers contend for links under max-min
// fair sharing solved by progressive filling; kernel compute, local DRAM
// traffic, demand-read stalls, page-fault serialization and barrier-window
// bulk copies compose exactly as the paradigms dictate (overlap for
// proactive GPS pushes, strict serialization for memcpy and faults).
package timing

import (
	"math"

	"gps/internal/interconnect"
)

// flowKind tags what a transfer gates.
type flowKind uint8

const (
	flowDemand flowKind = iota // gates its destination GPU's kernel end
	flowPush                   // gates the phase barrier
	flowBulk                   // barrier-window transfer
)

// flow is one (src GPU -> dst GPU) transfer within a window.
type flow struct {
	kind   flowKind
	src    int
	dst    int
	bytes  float64
	cap    float64 // per-flow rate cap in bytes/s; +Inf if none
	finish float64 // completion time relative to window start (output)
}

// flowState is one active flow during progressive filling.
type flowState struct {
	f         *flow
	remaining float64
	path      []interconnect.LinkID
	rate      float64
	frozen    bool
}

// solveWindow assigns each flow its completion time under progressive
// max-min fair sharing of the fabric's links, respecting per-flow caps.
// All flows start at t=0. Returns the time the last flow finishes.
func solveWindow(flows []*flow, fab *interconnect.Fabric) float64 {
	active := make([]*flowState, 0, len(flows))
	for _, f := range flows {
		if f.bytes <= 0 || f.src == f.dst {
			f.finish = 0
			continue
		}
		st := &flowState{f: f, remaining: f.bytes}
		if !fab.Ideal() {
			st.path = fab.Path(f.src, f.dst)
		}
		active = append(active, st)
	}

	now := 0.0
	for len(active) > 0 {
		assignRates(active, fab)
		dt := math.Inf(1)
		for _, st := range active {
			if st.rate > 0 {
				if t := st.remaining / st.rate; t < dt {
					dt = t
				}
			}
		}
		if math.IsInf(dt, 1) {
			panic("timing: stalled flow set")
		}
		now += dt
		next := active[:0]
		for _, st := range active {
			st.remaining -= st.rate * dt
			if st.remaining <= 1e-3 { // sub-byte residue
				st.f.finish = now
			} else {
				next = append(next, st)
			}
		}
		active = next
	}
	return now
}

// assignRates computes max-min fair rates for the active flows by water
// filling: repeatedly find the most constrained resource (a link's equal
// share or a flow's own cap), freeze the flows it limits, and recurse on
// the remaining capacity.
func assignRates(active []*flowState, fab *interconnect.Fabric) {
	linkRem := map[interconnect.LinkID]float64{}
	linkFlows := map[interconnect.LinkID]int{}
	unfrozen := 0
	for _, st := range active {
		st.frozen = false
		st.rate = 0
		unfrozen++
		for _, l := range st.path {
			if _, ok := linkRem[l]; !ok {
				linkRem[l] = fab.Link(l).Bandwidth
			}
			linkFlows[l]++
		}
	}

	for unfrozen > 0 {
		// Most constrained link share; ties go to the lowest link ID, so the
		// freeze order, and with it the float rounding, does not depend on
		// map iteration order.
		bottleneck := interconnect.LinkID(-1)
		minShare := math.Inf(1)
		for l, n := range linkFlows {
			if n == 0 {
				continue
			}
			if share := linkRem[l] / float64(n); share < minShare || share == minShare && l < bottleneck {
				minShare, bottleneck = share, l
			}
		}
		// Most constrained flow cap.
		var capFlow *flowState
		minCap := math.Inf(1)
		for _, st := range active {
			if !st.frozen && st.f.cap < minCap {
				minCap, capFlow = st.f.cap, st
			}
		}

		freeze := func(st *flowState, rate float64) {
			st.frozen = true
			st.rate = rate
			unfrozen--
			for _, l := range st.path {
				linkRem[l] -= rate
				if linkRem[l] < 0 {
					linkRem[l] = 0
				}
				linkFlows[l]--
			}
		}

		switch {
		case capFlow != nil && minCap <= minShare:
			freeze(capFlow, minCap)
		case bottleneck >= 0 && !math.IsInf(minShare, 1):
			for _, st := range active {
				if st.frozen {
					continue
				}
				for _, l := range st.path {
					if l == bottleneck {
						freeze(st, minShare)
						break
					}
				}
			}
		default:
			// Remaining flows cross no finite resource (ideal fabric, no
			// cap): they complete instantaneously — model with a huge rate.
			for _, st := range active {
				if !st.frozen {
					freeze(st, 1e30)
				}
			}
		}
	}
}
