package timing

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gps/internal/interconnect"
)

// solveWindow runs the dense solver on a window written as flow pointers,
// the shape the tests below build their windows in, and copies each
// finish time back.
func solveWindow(flows []*flow, fab *interconnect.Fabric) float64 {
	window := make([]flow, len(flows))
	for i, f := range flows {
		window[i] = *f
	}
	end := newSolver(fab).solve(window)
	for i, f := range flows {
		f.finish = window[i].finish
	}
	return end
}

func TestSolveWindowSingleFlow(t *testing.T) {
	fab := interconnect.PCIeTree(2, interconnect.PCIe3) // 16 GB/s
	f := &flow{kind: flowPush, src: 0, dst: 1, bytes: 16e9, cap: math.Inf(1)}
	end := solveWindow([]*flow{f}, fab)
	if math.Abs(end-1.0) > 1e-6 {
		t.Fatalf("single flow over 16GB/s link took %v, want 1s", end)
	}
	if f.finish != end {
		t.Fatal("finish not recorded")
	}
}

func TestSolveWindowEgressSharing(t *testing.T) {
	// Two flows from GPU0 share its egress link: each gets half.
	fab := interconnect.PCIeTree(3, interconnect.PCIe3)
	f1 := &flow{src: 0, dst: 1, bytes: 16e9, cap: math.Inf(1)}
	f2 := &flow{src: 0, dst: 2, bytes: 16e9, cap: math.Inf(1)}
	end := solveWindow([]*flow{f1, f2}, fab)
	if math.Abs(end-2.0) > 1e-6 {
		t.Fatalf("two flows sharing egress finished at %v, want 2s", end)
	}
}

func TestSolveWindowDisjointFlowsDoNotContend(t *testing.T) {
	fab := interconnect.PCIeTree(4, interconnect.PCIe3)
	f1 := &flow{src: 0, dst: 1, bytes: 16e9, cap: math.Inf(1)}
	f2 := &flow{src: 2, dst: 3, bytes: 16e9, cap: math.Inf(1)}
	end := solveWindow([]*flow{f1, f2}, fab)
	if math.Abs(end-1.0) > 1e-6 {
		t.Fatalf("disjoint flows finished at %v, want 1s", end)
	}
}

func TestSolveWindowUnevenFinishFreesBandwidth(t *testing.T) {
	// Small flow finishes first; big flow then gets the full link.
	fab := interconnect.PCIeTree(3, interconnect.PCIe3)
	small := &flow{src: 0, dst: 1, bytes: 8e9, cap: math.Inf(1)}
	big := &flow{src: 0, dst: 2, bytes: 24e9, cap: math.Inf(1)}
	end := solveWindow([]*flow{small, big}, fab)
	// Phase 1: both at 8 GB/s until small's 8 GB done (t=1). Phase 2: big
	// alone, 16 GB left at 16 GB/s: 1s. Total 2s.
	if math.Abs(small.finish-1.0) > 1e-6 || math.Abs(end-2.0) > 1e-6 {
		t.Fatalf("small %v end %v, want 1s and 2s", small.finish, end)
	}
}

func TestSolveWindowFlowCap(t *testing.T) {
	fab := interconnect.PCIeTree(2, interconnect.PCIe3)
	f := &flow{kind: flowDemand, src: 0, dst: 1, bytes: 8e9, cap: 8e9}
	end := solveWindow([]*flow{f}, fab)
	if math.Abs(end-1.0) > 1e-6 {
		t.Fatalf("capped flow finished at %v, want 1s", end)
	}
	// The cap frees link bandwidth for an uncapped flow sharing the path.
	f1 := &flow{src: 0, dst: 1, bytes: 4e9, cap: 4e9}
	f2 := &flow{src: 0, dst: 1, bytes: 12e9, cap: math.Inf(1)}
	end = solveWindow([]*flow{f1, f2}, fab)
	// f1 runs at 4 GB/s for 1s; f2 gets 12 GB/s then 16 GB/s: 12 GB needs
	// 1s at 12 GB/s: both end at 1s.
	if math.Abs(end-1.0) > 1e-5 {
		t.Fatalf("capped+uncapped finished at %v, want 1s", end)
	}
}

func TestSolveWindowIdealFabric(t *testing.T) {
	fab := interconnect.Infinite(4)
	f := &flow{src: 0, dst: 1, bytes: 1e12, cap: math.Inf(1)}
	end := solveWindow([]*flow{f}, fab)
	if end > 1e-6 {
		t.Fatalf("ideal fabric transfer took %v, want ~0", end)
	}
}

func TestSolveWindowEmptyAndLocal(t *testing.T) {
	fab := interconnect.PCIeTree(2, interconnect.PCIe3)
	if end := solveWindow(nil, fab); end != 0 {
		t.Fatal("empty window should take 0")
	}
	local := &flow{src: 1, dst: 1, bytes: 1e9, cap: math.Inf(1)}
	if end := solveWindow([]*flow{local}, fab); end != 0 {
		t.Fatal("local flow should be free")
	}
}

func TestSolveWindowConservation(t *testing.T) {
	// Total bytes delivered per unit time never exceed total link capacity:
	// with all flows squeezing through one ingress link, finish time >=
	// total/bandwidth.
	fab := interconnect.PCIeTree(4, interconnect.PCIe3)
	var flows []*flow
	total := 0.0
	for src := 1; src < 4; src++ {
		b := float64(src) * 4e9
		total += b
		flows = append(flows, &flow{src: src, dst: 0, bytes: b, cap: math.Inf(1)})
	}
	end := solveWindow(flows, fab)
	lower := total / 16e9
	if end < lower-1e-9 {
		t.Fatalf("finished at %v, below physical bound %v", end, lower)
	}
}

// TestSolveWindowTieBreakIsDeterministic: GPU0's egress link and GPU1's
// ingress link tie on share (three flows each over 16 GB/s) and share the
// 0->1 flow. Whichever link freezes first leaves the other (B-B/3)/2 for
// its two remaining flows, one ulp off B/3, so the freeze order decides the
// last bit of the finish times. The solver must break the tie the same way
// on every solve.
func TestSolveWindowTieBreakIsDeterministic(t *testing.T) {
	fab := interconnect.PCIeTree(4, interconnect.PCIe3)
	if b := fab.Link(0).Bandwidth; (b-b/3)/2 == b/3 {
		t.Fatalf("bandwidth %v no longer rounds the tied shares apart", b)
	}
	type pair struct {
		src, dst int
		bytes    float64
	}
	pairs := []pair{{0, 1, 16e9}, {0, 2, 12e9}, {0, 3, 16e9}, {2, 1, 4e9}, {3, 1, 8e9}}
	solve := func() []uint64 {
		flows := make([]*flow, len(pairs))
		for i, p := range pairs {
			flows[i] = &flow{src: p.src, dst: p.dst, bytes: p.bytes, cap: math.Inf(1)}
		}
		solveWindow(flows, fab)
		bits := make([]uint64, len(flows))
		for i, f := range flows {
			bits[i] = math.Float64bits(f.finish)
		}
		return bits
	}
	want := solve()
	for run := 0; run < 200; run++ {
		if got := solve(); !slices.Equal(got, want) {
			t.Fatalf("solve %d finish-time bits %x, first solve %x", run, got, want)
		}
	}
}

// referenceFlowState is one active flow of referenceSolveWindow.
type referenceFlowState struct {
	f         *flow
	remaining float64
	path      []interconnect.LinkID
	rate      float64
	frozen    bool
}

// referenceSolveWindow is the fluid solver written plainly: maps keyed by
// link, and a scan of every active flow for the capped flow and for the
// bottleneck's members on each freeze step. The dense solver must match
// it bit for bit.
func referenceSolveWindow(flows []*flow, fab *interconnect.Fabric) float64 {
	active := make([]*referenceFlowState, 0, len(flows))
	for _, f := range flows {
		if f.bytes <= 0 || f.src == f.dst {
			f.finish = 0
			continue
		}
		st := &referenceFlowState{f: f, remaining: f.bytes}
		if !fab.Ideal() {
			st.path = fab.Path(f.src, f.dst)
		}
		active = append(active, st)
	}

	now := 0.0
	for len(active) > 0 {
		referenceAssignRates(active, fab)
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
			if st.remaining <= 1e-3 {
				st.f.finish = now
			} else {
				next = append(next, st)
			}
		}
		active = next
	}
	return now
}

func referenceAssignRates(active []*referenceFlowState, fab *interconnect.Fabric) {
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
		var capFlow *referenceFlowState
		minCap := math.Inf(1)
		for _, st := range active {
			if !st.frozen && st.f.cap < minCap {
				minCap, capFlow = st.f.cap, st
			}
		}

		freeze := func(st *referenceFlowState, rate float64) {
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
			for _, st := range active {
				if !st.frozen {
					freeze(st, 1e30)
				}
			}
		}
	}
}

// randomWindow draws one transfer window over fab. shape picks the flow
// set: 0 mixes finite and infinite caps, 1 fans each source out under caps
// that tie its egress share (cap ties), 2 is an all-to-all of equal sizes
// with demand-style caps on half the flows (share ties), and 3 sprinkles
// zero-byte and local flows among random ones.
func randomWindow(rng *rand.Rand, fab *interconnect.Fabric, shape int) []*flow {
	n := fab.NumGPUs()
	bw := fab.PerGPUEgress(0)
	sizes := []float64{1e6, 4e6, 16e6, 16e6, 64e6}
	caps := []float64{bw / 8, bw / 3, bw / 2, bw}
	pick := func() (int, int) { return rng.Intn(n), rng.Intn(n) }
	var flows []*flow
	switch shape {
	case 0:
		for range 1 + rng.Intn(3*n) {
			src, dst := pick()
			c := math.Inf(1)
			if rng.Intn(2) == 0 {
				c = caps[rng.Intn(len(caps))] * (0.5 + rng.Float64())
			}
			flows = append(flows, &flow{src: src, dst: dst, bytes: sizes[rng.Intn(len(sizes))] * (1 + rng.Float64()), cap: c})
		}
	case 1:
		// Each source fans out to k peers, most under the cap bw/k: that
		// cap ties the egress share up to rounding, so the order in which
		// equal caps freeze decides which flows get the cap and which the
		// share. The looser caps mixed in make the cap sort move flows.
		k := min(n-1, 2+rng.Intn(12))
		c := bw / float64(k)
		for src := range n {
			for _, d := range rng.Perm(n - 1)[:k] {
				f := &flow{src: src, dst: (src + 1 + d) % n, bytes: sizes[rng.Intn(len(sizes))], cap: c}
				if rng.Intn(3) == 0 {
					f.cap = 2 * c
				}
				flows = append(flows, f)
			}
		}
		rng.Shuffle(len(flows), func(i, j int) { flows[i], flows[j] = flows[j], flows[i] })
	case 2:
		b := sizes[rng.Intn(len(sizes))]
		c := caps[rng.Intn(len(caps))] / float64(n)
		for src := range n {
			for dst := range n {
				if src == dst {
					continue
				}
				f := &flow{src: src, dst: dst, bytes: b, cap: math.Inf(1)}
				if (src+dst)%2 == 0 {
					f.kind, f.cap = flowDemand, c
				}
				flows = append(flows, f)
			}
		}
	default:
		for range 1 + rng.Intn(3*n) {
			src, dst := pick()
			b := sizes[rng.Intn(len(sizes))]
			switch rng.Intn(4) {
			case 0:
				b = 0
			case 1:
				dst = src
			}
			c := math.Inf(1)
			if rng.Intn(3) == 0 {
				c = caps[rng.Intn(len(caps))]
			}
			flows = append(flows, &flow{src: src, dst: dst, bytes: b, cap: c})
		}
	}
	return flows
}

// TestSolveWindowMatchesReference: the dense solver reproduces the plain
// map-based solver's finish times and makespan bit for bit, across the
// fabrics the figures price and flow sets built to tie on shares and caps.
func TestSolveWindowMatchesReference(t *testing.T) {
	fabrics := []*interconnect.Fabric{
		interconnect.PCIeTree(4, interconnect.PCIe3),
		interconnect.PCIeTree(4, interconnect.PCIe4),
		interconnect.PCIeTree(4, interconnect.PCIe5),
		interconnect.PCIeTree(4, interconnect.PCIe6),
		interconnect.NVSwitch(16, interconnect.NVLink1Bandwidth),
		interconnect.HierarchicalNVSwitch(64, 8, interconnect.NVLink3Bandwidth, 1),
		interconnect.HierarchicalNVSwitch(64, 8, interconnect.NVLink3Bandwidth, 2),
		interconnect.HybridCubeMesh(interconnect.NVLink2Bandwidth / 6),
		interconnect.FullMesh(8, 25e9, 700e-9),
		interconnect.Infinite(4),
	}
	check := func(name string, fab *interconnect.Fabric, window []*flow) {
		t.Helper()
		ref := make([]*flow, len(window))
		for i, f := range window {
			g := *f
			ref[i] = &g
		}
		want := referenceSolveWindow(ref, fab)
		got := solveWindow(window, fab)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s on %s: makespan %v, reference %v", name, fab.Name(), got, want)
		}
		for i := range window {
			if math.Float64bits(window[i].finish) != math.Float64bits(ref[i].finish) {
				t.Fatalf("%s on %s: flow %d finish %v, reference %v",
					name, fab.Name(), i, window[i].finish, ref[i].finish)
			}
		}
	}

	tied := [][3]float64{{0, 1, 16e9}, {0, 2, 12e9}, {0, 3, 16e9}, {2, 1, 4e9}, {3, 1, 8e9}}
	var window []*flow
	for _, p := range tied {
		window = append(window, &flow{src: int(p[0]), dst: int(p[1]), bytes: p[2], cap: math.Inf(1)})
	}
	check("tied shares", interconnect.PCIeTree(4, interconnect.PCIe3), window)

	for seed := range 400 {
		rng := rand.New(rand.NewSource(int64(seed)))
		fab := fabrics[seed%len(fabrics)]
		shape := seed / len(fabrics) % 4
		check(fmt.Sprintf("seed %d shape %d", seed, shape), fab, randomWindow(rng, fab, shape))
	}
}

// BenchmarkSolveWindowHier solves one all-to-all window on the 64-GPU
// switch hierarchy, with demand-style caps on half the flows.
func BenchmarkSolveWindowHier(b *testing.B) {
	fab := interconnect.HierarchicalNVSwitch(64, 8, interconnect.NVLink3Bandwidth, 2)
	var window []flow
	for src := range 64 {
		for dst := range 64 {
			if src == dst {
				continue
			}
			f := flow{kind: flowPush, src: src, dst: dst, bytes: float64(1+(src*7+dst)%5) * 4e6, cap: math.Inf(1)}
			if (src+dst)%2 == 0 {
				f.kind, f.cap = flowDemand, fab.Link(0).Bandwidth/32
			}
			window = append(window, f)
		}
	}
	s := newSolver(fab)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		benchSink = s.solve(window)
	}
}

// benchSink keeps the benchmarks' results live.
var benchSink float64
