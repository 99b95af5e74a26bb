package timing

import (
	"math"

	"gps/internal/interconnect"
	"gps/internal/sim"
)

// PacketSim is the high-fidelity alternative to the fluid max-min model:
// transfers are chopped into packets that traverse their path's links
// store-and-forward, one packet occupying one link at a time, scheduled on
// the discrete-event core. It exists to cross-validate solveWindow — for
// bandwidth-bound transfer sets the two models must agree closely, while
// for tiny transfers the packet model exposes per-hop latency the fluid
// model rounds away. (Building trust in a fast model against a slower,
// more literal one is the methodology of the simulator papers this work
// builds on.)
type PacketSim struct {
	eng         *sim.Engine
	fab         *interconnect.Fabric
	packetBytes float64
	linkFreeAt  []sim.Time // indexed by LinkID
}

// Transfer is one src->dst flow to simulate.
type Transfer struct {
	Src, Dst int
	Bytes    float64
	Start    sim.Time
	// Finish is the simulated completion time (output).
	Finish sim.Time
}

// NewPacketSim builds a packet simulator over fab with the given packet
// size (0 means 4 KB, a typical interconnect max payload).
func NewPacketSim(fab *interconnect.Fabric, packetBytes float64) *PacketSim {
	if packetBytes <= 0 {
		packetBytes = 4 << 10
	}
	return &PacketSim{
		eng:         sim.NewEngine(),
		fab:         fab,
		packetBytes: packetBytes,
		linkFreeAt:  make([]sim.Time, fab.NumLinks()),
	}
}

// Run simulates all transfers and fills in their Finish times, returning
// the time the last one completed.
func (ps *PacketSim) Run(transfers []*Transfer) sim.Time {
	ps.eng.Reset()
	clear(ps.linkFreeAt)
	for _, tr := range transfers {
		tr := tr
		if tr.Bytes <= 0 || tr.Src == tr.Dst || ps.fab.Ideal() {
			tr.Finish = tr.Start
			continue
		}
		ps.eng.Schedule(tr.Start, func() { ps.inject(tr) })
	}
	end := ps.eng.Run()
	return end
}

// inject launches a transfer's packets at its source. Injection is
// self-paced: packet p+1 is offered to the first link only once packet p
// has finished serializing there, so concurrent transfers interleave at
// packet granularity (approximating the fair sharing real link arbiters
// provide) instead of convoying whole transfers.
func (ps *PacketSim) inject(tr *Transfer) {
	path := ps.fab.Path(tr.Src, tr.Dst)
	packets := int(math.Ceil(tr.Bytes / ps.packetBytes))
	remaining := packets
	done := func() {
		remaining--
		if remaining == 0 {
			tr.Finish = ps.eng.Now()
		}
	}
	var send func(p int)
	send = func(p int) {
		bytes := ps.packetBytes
		if p == packets-1 {
			bytes = tr.Bytes - float64(packets-1)*ps.packetBytes
		}
		freeAgain := ps.book(tr, path, 0, bytes, ps.eng.Now(), done)
		if p+1 < packets {
			ps.eng.Schedule(freeAgain, func() { send(p + 1) })
		}
	}
	send(0)
}

// book reserves path[idx] for one packet as soon as the link frees,
// schedules the downstream hops, and returns the time the first link frees
// again (the moment the next packet of the same transfer may be offered).
func (ps *PacketSim) book(tr *Transfer, path []interconnect.LinkID, idx int,
	bytes float64, ready sim.Time, done func()) sim.Time {
	if idx == len(path) {
		if ps.eng.Now() >= ready {
			done()
		} else {
			ps.eng.Schedule(ready, done)
		}
		return ready
	}
	id := path[idx]
	link := ps.fab.Link(id)
	depart := ready
	if free := ps.linkFreeAt[id]; free > depart {
		depart = free
	}
	ser := sim.Duration(bytes / link.Bandwidth)
	ps.linkFreeAt[id] = depart + ser
	arrive := depart + ser + sim.Duration(link.Latency)
	ps.eng.Schedule(arrive, func() {
		ps.book(tr, path, idx+1, bytes, arrive, done)
	})
	return depart + ser
}

// solveWindowPacket is the packet-level counterpart of solveWindow: it
// fills each flow's finish time via the store-and-forward simulator, then
// applies the per-flow rate caps (MLP budgets) the packet model does not
// carry natively.
func solveWindowPacket(flows []flow, fab *interconnect.Fabric, packetBytes float64) float64 {
	transfers := make([]*Transfer, len(flows))
	for i, f := range flows {
		transfers[i] = &Transfer{Src: f.src, Dst: f.dst, Bytes: f.bytes}
	}
	NewPacketSim(fab, packetBytes).Run(transfers)
	end := 0.0
	for i := range flows {
		f := &flows[i]
		finish := float64(transfers[i].Finish)
		if !math.IsInf(f.cap, 1) && f.cap > 0 {
			if capped := f.bytes / f.cap; capped > finish {
				finish = capped
			}
		}
		f.finish = finish
		if finish > end {
			end = finish
		}
	}
	return end
}

// FluidMakespan prices the same transfer set with the fluid max-min model,
// for cross-validation against the packet simulator.
func FluidMakespan(transfers []*Transfer, fab *interconnect.Fabric) float64 {
	flows := make([]flow, len(transfers))
	for i, tr := range transfers {
		flows[i] = flow{src: tr.Src, dst: tr.Dst, bytes: tr.Bytes, cap: math.Inf(1)}
	}
	return newSolver(fab).solve(flows)
}
