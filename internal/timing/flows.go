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
//
// The fluid solver keeps its state dense: per-link remaining capacity and
// unfrozen-flow counts are slices indexed by LinkID, sized once per
// Simulate call and reused across every window and event of that call.
// One rate assignment builds each touched link's member list (the flows
// crossing it, in active order) and the order of the finite-cap flows
// once; each freeze step after that costs O(touched links) to find the
// bottleneck plus the work of freezing its members. Two tie rules fix the
// freeze order, and with it the last bit of every finish time: among links
// of equal share the lowest LinkID is the bottleneck, and among flows of
// equal cap the earliest in active order freezes first.
package timing

import (
	"cmp"
	"math"
	"slices"

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
	f         int32 // index into the window's flows
	frozen    bool
	cap       float64
	remaining float64
	rate      float64
	path      []interconnect.LinkID
}

// solver is the scratch of the fluid model for one fabric. It lives for
// one Simulate call and is reused across that call's windows.
type solver struct {
	fab *interconnect.Fabric

	// Indexed by LinkID. linkFlows counts the unfrozen flows crossing each
	// link; every entry is back to 0 once a rate assignment has frozen all
	// flows, so the next assignment starts clean.
	linkRem   []float64
	linkFlows []int32
	memberLo  []int32 // members[memberLo[l]:memberHi[l]] cross link l
	memberHi  []int32
	touched   []interconnect.LinkID // links of the active flows, ascending
	active    []flowState
	members   []int32 // active indices, grouped by link
	capOrder  []int32 // active indices with a finite cap, by cap then index
	unfrozen  int
}

func newSolver(fab *interconnect.Fabric) *solver {
	n := fab.NumLinks()
	return &solver{
		fab:       fab,
		linkRem:   make([]float64, n),
		linkFlows: make([]int32, n),
		memberLo:  make([]int32, n),
		memberHi:  make([]int32, n),
	}
}

// solve assigns each flow its completion time under progressive max-min
// fair sharing of the fabric's links, respecting per-flow caps. All flows
// start at t=0. Returns the time the last flow finishes.
func (s *solver) solve(flows []flow) float64 {
	s.active = s.active[:0]
	for i := range flows {
		f := &flows[i]
		if f.bytes <= 0 || f.src == f.dst {
			f.finish = 0
			continue
		}
		st := flowState{f: int32(i), cap: f.cap, remaining: f.bytes}
		if !s.fab.Ideal() {
			st.path = s.fab.Path(f.src, f.dst)
		}
		s.active = append(s.active, st)
	}

	now := 0.0
	for len(s.active) > 0 {
		s.assignRates()
		dt := math.Inf(1)
		for i := range s.active {
			st := &s.active[i]
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
		next := s.active[:0]
		for _, st := range s.active {
			st.remaining -= st.rate * dt
			if st.remaining <= 1e-3 { // sub-byte residue
				flows[st.f].finish = now
			} else {
				next = append(next, st)
			}
		}
		s.active = next
	}
	return now
}

// assignRates computes max-min fair rates for the active flows by water
// filling: repeatedly find the most constrained resource (a link's equal
// share or a flow's own cap), freeze the flows it limits, and recurse on
// the remaining capacity.
func (s *solver) assignRates() {
	s.touched = s.touched[:0]
	s.capOrder = s.capOrder[:0]
	for i := range s.active {
		st := &s.active[i]
		st.frozen = false
		st.rate = 0
		if st.cap < math.Inf(1) {
			s.capOrder = append(s.capOrder, int32(i))
		}
		for _, l := range st.path {
			if s.linkFlows[l] == 0 {
				s.touched = append(s.touched, l)
			}
			s.linkFlows[l]++
		}
	}
	s.unfrozen = len(s.active)
	slices.Sort(s.touched)

	// Member lists: one CSR over the touched links, filled in active order.
	off := int32(0)
	for _, l := range s.touched {
		s.linkRem[l] = s.fab.Link(l).Bandwidth
		s.memberLo[l], s.memberHi[l] = off, off
		off += s.linkFlows[l]
	}
	s.members = slices.Grow(s.members[:0], int(off))[:off]
	for i := range s.active {
		for _, l := range s.active[i].path {
			s.members[s.memberHi[l]] = int32(i)
			s.memberHi[l]++
		}
	}

	// Cap order: a stable sort keeps equal caps in active order, so the
	// cursor's first unfrozen entry is the first strict minimum of a scan.
	slices.SortStableFunc(s.capOrder, func(a, b int32) int {
		return cmp.Compare(s.active[a].cap, s.active[b].cap)
	})
	cursor := 0

	for s.unfrozen > 0 {
		// Most constrained link share; the ascending walk keeps the first
		// strict minimum, so ties go to the lowest link ID.
		bottleneck := interconnect.LinkID(-1)
		minShare := math.Inf(1)
		for _, l := range s.touched {
			n := s.linkFlows[l]
			if n == 0 {
				continue
			}
			if share := s.linkRem[l] / float64(n); share < minShare {
				minShare, bottleneck = share, l
			}
		}
		// Most constrained flow cap.
		for cursor < len(s.capOrder) && s.active[s.capOrder[cursor]].frozen {
			cursor++
		}
		capFlow := -1
		minCap := math.Inf(1)
		if cursor < len(s.capOrder) {
			capFlow = int(s.capOrder[cursor])
			minCap = s.active[capFlow].cap
		}

		switch {
		case capFlow >= 0 && minCap <= minShare:
			s.freeze(capFlow, minCap)
		case bottleneck >= 0 && !math.IsInf(minShare, 1):
			for _, i := range s.members[s.memberLo[bottleneck]:s.memberHi[bottleneck]] {
				if !s.active[i].frozen {
					s.freeze(int(i), minShare)
				}
			}
		default:
			// Remaining flows cross no finite resource (ideal fabric, no
			// cap): they complete instantaneously — model with a huge rate.
			for i := range s.active {
				if !s.active[i].frozen {
					s.freeze(i, 1e30)
				}
			}
		}
	}
}

// freeze fixes active flow i at rate and takes it off its links.
func (s *solver) freeze(i int, rate float64) {
	st := &s.active[i]
	st.frozen = true
	st.rate = rate
	s.unfrozen--
	for _, l := range st.path {
		rem := s.linkRem[l] - rate
		if rem < 0 {
			rem = 0
		}
		s.linkRem[l] = rem
		s.linkFlows[l]--
	}
}
