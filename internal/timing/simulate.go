package timing

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"gps/internal/engine"
	"gps/internal/gpuconf"
	"gps/internal/interconnect"
)

// Config parameterizes the timing model.
type Config struct {
	Machine gpuconf.Config
	Fabric  *interconnect.Fabric

	// ComputeEfficiency is the fraction of peak arithmetic throughput
	// sustained by kernels (captures issue stalls, divergence, occupancy).
	ComputeEfficiency float64
	// DemandOverlap is the fraction of demand-read stall time the GPU hides
	// under compute via multithreading; the remainder stalls the kernel.
	// The paper: remote loads "often stall thread execution beyond the
	// GPU's ability to mitigate those stalls via multi-threading".
	DemandOverlap float64
	// PhaseOverhead is the fixed serial cost per phase (kernel launches +
	// multi-GPU barrier). It bounds strong scaling even with infinite
	// bandwidth, which is why the paper's upper bound is ~3.2x, not 4x.
	PhaseOverhead float64
	// PageBytes is the translation granularity of the run, used to price
	// TLB pressure: the paper reports GPUs take ~1.4 last-level TLB misses
	// per thousand cycles at 64 KB pages (Section 5.2); smaller pages
	// multiply the miss rate by the page-count ratio. 0 means the machine
	// default.
	PageBytes uint64
	// WalkConcurrency is the number of page walks the MMU services in
	// parallel; it converts the miss rate into stall time.
	WalkConcurrency int
	// UsePacketSim prices transfer windows with the packet-level
	// store-and-forward simulator instead of the fluid max-min model —
	// slower but more literal, for cross-validation.
	UsePacketSim bool
	// PacketBytes is the packet size for UsePacketSim (default 4 KB).
	PacketBytes float64
}

// DefaultConfig returns the calibrated model for the given fabric.
func DefaultConfig(fab *interconnect.Fabric) Config {
	return Config{
		Machine:           gpuconf.Default(),
		Fabric:            fab,
		ComputeEfficiency: 0.35,
		DemandOverlap:     0.4,
		PhaseOverhead:     30e-6,
	}
}

// LinkLoad is the traffic one fabric link carried across the run.
type LinkLoad struct {
	Name  string
	Bytes float64
}

// PhaseTime is the timing outcome of one phase.
type PhaseTime struct {
	Index    int
	Duration float64
	// KernelSpan is the time until the slowest GPU's kernel (plus its
	// demand stalls and fault serialization) completed.
	KernelSpan float64
	// PushDrainSpan is the additional time (beyond KernelSpan) the barrier
	// waited for proactive pushes to drain.
	PushDrainSpan float64
	// BulkSpan is the barrier-window bulk transfer time (memcpy, prefetch).
	BulkSpan float64
}

// Report is the full timing result of one run.
type Report struct {
	// ProfilePhases echoes the trace's profiling-phase count so callers can
	// slice off the warmup (see TotalFrom).
	ProfilePhases int

	Total  float64
	Phases []PhaseTime

	// Aggregate attribution across phases (seconds).
	ComputeBound float64 // phases' kernel spans limited by arithmetic/DRAM
	StallTime    float64 // demand-read stalls beyond overlap + faults
	PushWait     float64 // barrier waits for push drains
	BulkTime     float64 // bulk transfer windows
	Overhead     float64 // fixed per-phase costs

	// LinkTraffic is the total bytes each fabric link carried, descending —
	// the bottleneck analysis of the run.
	LinkTraffic []LinkLoad
}

// Simulate prices the structural result on the configured machine.
func Simulate(res *engine.Result, cfg Config) *Report {
	if cfg.ComputeEfficiency <= 0 {
		cfg.ComputeEfficiency = 0.35
	}
	if cfg.Fabric == nil {
		cfg.Fabric = interconnect.Infinite(res.Meta.NumGPUs)
	}
	if cfg.PageBytes == 0 {
		cfg.PageBytes = cfg.Machine.GPU.PageBytes
	}
	if cfg.WalkConcurrency == 0 {
		cfg.WalkConcurrency = 32
	}
	machine := cfg.Machine.GPU
	flops := machine.PeakFLOPs() * cfg.ComputeEfficiency
	l2Hit := res.Meta.L2.HitRate(res.Meta.NumGPUs)

	rep := &Report{Phases: make([]PhaseTime, 0, len(res.Phases))}
	var total float64 // phases run back to back
	fluid := newSolver(cfg.Fabric)
	linkBytes := make([]float64, cfg.Fabric.NumLinks())
	linkUsed := make([]bool, cfg.Fabric.NumLinks())
	account := func(fs []flow) {
		if cfg.Fabric.Ideal() {
			return
		}
		for i := range fs {
			f := &fs[i]
			if f.src == f.dst {
				continue
			}
			for _, id := range cfg.Fabric.Path(f.src, f.dst) {
				linkBytes[id] += f.bytes
				linkUsed[id] = true
			}
		}
	}
	solve := func(fs []flow) float64 {
		account(fs)
		if cfg.UsePacketSim {
			return solveWindowPacket(fs, cfg.Fabric, cfg.PacketBytes)
		}
		return fluid.solve(fs)
	}

	// One flow buffer and one set of per-GPU accumulators serve every
	// phase: the kernel window's flows are dead once the barrier is priced,
	// so the bulk window reuses the same backing array.
	var flows []flow
	var demandFinish, kernelWork, serial []float64
	for _, ph := range res.Phases {
		flows = flows[:0]
		demandFinish = resetGPUs(demandFinish, len(ph.Profiles))
		kernelWork = resetGPUs(kernelWork, len(ph.Profiles))
		serial = resetGPUs(serial, len(ph.Profiles))

		for g := range ph.Profiles {
			p := &ph.Profiles[g]
			compute := float64(p.ComputeOps) / flops
			local := float64(p.LocalBytes) * (1 - l2Hit) / machine.DRAMBandwidth
			kernelWork[g] = math.Max(compute, local)
			kernelWork[g] += tlbPressure(kernelWork[g], cfg)
			serial[g] = float64(p.Shootdowns) * machine.TLBShootdown

			demandSrcs := 0
			for _, b := range p.RemoteRead {
				if b > 0 {
					demandSrcs++
				}
			}
			for peer, b := range p.RemoteRead {
				if b == 0 {
					continue
				}
				// Demand reads: data flows peer -> g; the rate is bounded by
				// the GPU's outstanding-request budget over the link latency
				// (latency-bound small reads). The budget is per destination
				// GPU, shared across its source peers.
				lat := cfg.Fabric.Latency(peer, g)
				capRate := math.Inf(1)
				if lat > 0 {
					capRate = float64(machine.RemoteMLP) * float64(machine.CacheBlockBytes) /
						lat / float64(demandSrcs)
				}
				flows = append(flows, flow{
					kind: flowDemand, src: peer, dst: g,
					bytes: float64(b), cap: capRate,
				})
			}
			for peer, b := range p.Push {
				if b == 0 {
					continue
				}
				flows = append(flows, flow{
					kind: flowPush, src: g, dst: peer,
					bytes: float64(b), cap: math.Inf(1),
				})
			}
		}

		// Kernel-window flows: demand reads and proactive pushes contend.
		solve(flows)
		var pushEnd float64
		for i := range flows {
			f := &flows[i]
			switch {
			case f.kind == flowDemand && f.finish > demandFinish[f.dst]:
				demandFinish[f.dst] = f.finish
			case f.kind == flowPush && f.finish > pushEnd:
				pushEnd = f.finish
			}
		}

		// Per-GPU kernel completion: compute/DRAM work overlaps demand
		// stalls only partially, then faults serialize.
		var pt PhaseTime
		pt.Index = ph.Index
		for g := range ph.Profiles {
			d := demandFinish[g]
			w := kernelWork[g]
			kernelEnd := math.Max(w, d) + (1-cfg.DemandOverlap)*math.Min(w, d) + serial[g]
			if kernelEnd > pt.KernelSpan {
				pt.KernelSpan = kernelEnd
			}
			rep.StallTime += (1-cfg.DemandOverlap)*math.Min(w, d) + serial[g] + math.Max(0, d-w)
		}
		// Page faults funnel through the host driver's fault handler; their
		// service is serialized system-wide (the first-order UM cost).
		totalFaults := 0
		for g := range ph.Profiles {
			totalFaults += ph.Profiles[g].Faults
		}
		faultSerial := float64(totalFaults) * machine.PageFaultLatency
		pt.KernelSpan += faultSerial
		rep.StallTime += faultSerial
		barrier := math.Max(pt.KernelSpan, pushEnd)
		pt.PushDrainSpan = barrier - pt.KernelSpan

		// Barrier-window bulk transfers (memcpy broadcasts, UM prefetch).
		flows = flows[:0]
		for g := range ph.Profiles {
			for peer, b := range ph.Profiles[g].Bulk {
				if b == 0 {
					continue
				}
				flows = append(flows, flow{
					kind: flowBulk, src: g, dst: peer,
					bytes: float64(b), cap: math.Inf(1),
				})
			}
		}
		pt.BulkSpan = solve(flows)

		pt.Duration = barrier + pt.BulkSpan + cfg.PhaseOverhead

		total += pt.Duration

		rep.Phases = append(rep.Phases, pt)
		rep.ComputeBound += pt.KernelSpan
		rep.PushWait += pt.PushDrainSpan
		rep.BulkTime += pt.BulkSpan
		rep.Overhead += cfg.PhaseOverhead
	}
	rep.Total = total
	rep.ProfilePhases = res.Meta.ProfilePhases
	for id, used := range linkUsed {
		if used {
			rep.LinkTraffic = append(rep.LinkTraffic, LinkLoad{
				Name: cfg.Fabric.Link(interconnect.LinkID(id)).Name, Bytes: linkBytes[id],
			})
		}
	}
	slices.SortFunc(rep.LinkTraffic, func(a, b LinkLoad) int {
		if c := cmp.Compare(b.Bytes, a.Bytes); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
	return rep
}

// resetGPUs returns s resized to n zeroed entries, reusing its backing
// array when it is large enough.
func resetGPUs(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// tlbPressure prices last-level TLB misses: at 64 KB pages GPUs sustain
// ~1.4 misses per thousand cycles (the paper's figure); halving the page
// size doubles the pages covering a footprint and hence the miss rate. The
// MMU overlaps WalkConcurrency walks, so only the residue stalls. This term
// is what makes the 4 KB variant of the Section 7.4 page-size study ~40%
// slower while 64 KB and 2 MB walk costs stay negligible.
func tlbPressure(work float64, cfg Config) float64 {
	const missesPerKilocycleAt64K = 1.4
	cycles := work * cfg.Machine.GPU.ClockHz
	scale := float64(64<<10) / float64(cfg.PageBytes)
	walks := missesPerKilocycleAt64K / 1000 * cycles * scale
	return walks * cfg.Machine.GPU.PageWalkLatency / float64(cfg.WalkConcurrency)
}

// TotalFrom returns the summed duration of phases with index >= from: the
// steady-state execution time once warmup (first-touch population, GPS
// profiling) has completed. Long-running iterative applications amortize
// the warmup, so speedup comparisons use the steady state.
func (r *Report) TotalFrom(from int) float64 {
	t := 0.0
	for _, pt := range r.Phases {
		if pt.Index >= from {
			t += pt.Duration
		}
	}
	return t
}

// SteadyTotal is TotalFrom at the trace's own profiling boundary.
func (r *Report) SteadyTotal() float64 { return r.TotalFrom(r.ProfilePhases) }
