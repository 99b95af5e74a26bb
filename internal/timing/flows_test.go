package timing

import (
	"math"
	"slices"
	"testing"

	"gps/internal/interconnect"
)

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
