// Package workload synthesizes application traces for the eight benchmarks
// of Table 2 in the GPS paper: Jacobi, Pagerank, SSSP, ALS, CT, B2rEqwp
// (EQWP), Diffusion and HIT. The paper drove its simulator with NVBit SASS
// traces captured on real GPUs; this reproduction has no GPU, so each
// generator reproduces the documented first-order structure of its
// application instead: the compute partitioning, the inter-GPU sharing
// pattern (peer-to-peer halos, many-to-many, all-to-all), the store mix
// (regular stores vs atomics), and the temporal store locality that the GPS
// write queue harvests (Figure 14).
//
// Traces are deterministic: the same Config always yields the same stream.
//
// Calibration note: per-application compute intensity (ComputeOps per
// phase) is a free parameter of a synthetic trace. The constants below are
// calibrated so that the single-GPU compute/communication balance produces
// the paper's reported paradigm ordering; they stand in for the real
// kernels' arithmetic that NVBit traces would have carried.
package workload

import (
	"fmt"
	"sort"

	"gps/internal/trace"
)

// LineBytes is the cache block size all generators emit against (Table 1).
const LineBytes = 128

// Config selects the system size and trace length for a generator.
type Config struct {
	NumGPUs    int
	Iterations int // execution iterations after the profiling iteration
	Scale      int // linear problem-size multiplier (1 = default)
	Seed       int64
}

// withDefaults normalizes a Config.
func (c Config) withDefaults() Config {
	if c.NumGPUs == 0 {
		c.NumGPUs = 4
	}
	if c.Iterations == 0 {
		c.Iterations = 4
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Spec describes one benchmark (one row of Table 2).
type Spec struct {
	Name        string
	Description string
	Pattern     string // predominant communication pattern, per Table 2
	Build       func(Config) trace.Program
}

// Catalog returns the eight applications in the paper's Table 2 order.
func Catalog() []Spec {
	return []Spec{
		{
			Name:        "jacobi",
			Description: "Iterative solver for a diagonally dominant linear system (2D stencil)",
			Pattern:     "Peer-to-peer",
			Build:       NewJacobi,
		},
		{
			Name:        "pagerank",
			Description: "Web page ranking by iterated rank propagation over a graph",
			Pattern:     "Peer-to-peer",
			Build:       NewPagerank,
		},
		{
			Name:        "sssp",
			Description: "Single-source shortest paths by iterative edge relaxation",
			Pattern:     "Many-to-many",
			Build:       NewSSSP,
		},
		{
			Name:        "als",
			Description: "Alternating least squares matrix factorization",
			Pattern:     "All-to-all",
			Build:       NewALS,
		},
		{
			Name:        "ct",
			Description: "Model-based iterative CT reconstruction",
			Pattern:     "All-to-all",
			Build:       NewCT,
		},
		{
			Name:        "eqwp",
			Description: "3D earthquake wave propagation, 4th-order finite differences",
			Pattern:     "Peer-to-peer",
			Build:       NewEQWP,
		},
		{
			Name:        "diffusion",
			Description: "3D heat equation and inviscid Burgers' equation",
			Pattern:     "Peer-to-peer",
			Build:       NewDiffusion,
		},
		{
			Name:        "hit",
			Description: "Homogeneous isotropic turbulence (3D Navier-Stokes)",
			Pattern:     "Peer-to-peer",
			Build:       NewHIT,
		},
	}
}

// ByName returns the spec with the given name, searching the Table 2 suite
// first and then the compute-bound control applications.
func ByName(name string) (Spec, error) {
	for _, s := range append(Catalog(), ControlCatalog()...) {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown application %q", name)
}

// Names returns the catalog's application names in order.
func Names() []string {
	var out []string
	for _, s := range Catalog() {
		out = append(out, s.Name)
	}
	return out
}

// regionBase places region i at a distinct 8 GB-aligned base so regions can
// never overlap regardless of size.
func regionBase(i int) uint64 { return uint64(i+1) << 33 }

// app is the generic streaming Program implementation all generators share:
// a fixed number of iterations, each expanded into one or more phases by the
// emit callback.
type app struct {
	meta          trace.Meta
	iterations    int // total, including the profiling iteration
	phasesPerIter int
	emit          func(iter, sub int, ph *trace.Phase)
}

func (a *app) Meta() trace.Meta { return a.meta }

func (a *app) Phases(yield func(*trace.Phase) bool) {
	idx := 0
	for it := 0; it < a.iterations; it++ {
		for sub := 0; sub < a.phasesPerIter; sub++ {
			ph := trace.Phase{Index: idx, Label: fmt.Sprintf("iter%d.%d", it, sub)}
			a.emit(it, sub, &ph)
			if !yield(&ph) {
				return
			}
			idx++
		}
	}
}

// kernelBuilder accumulates the access stream of one kernel, compressing it
// into columnar blocks as it goes: the encoder holds only the current
// block's column runs, and contiguous ranges go in as one address run, so
// even multi-million-instruction kernels are built without ever existing
// as records.
type kernelBuilder struct {
	k   trace.Kernel
	enc trace.ColumnEncoder
}

func newKernel(gpu int, name string, computeOps uint64) *kernelBuilder {
	return &kernelBuilder{k: trace.Kernel{GPU: gpu, Name: name, ComputeOps: computeOps}}
}

func (b *kernelBuilder) build() trace.Kernel {
	b.k.Col = b.enc.Finish()
	return b.k
}

// loads emits contiguous warp loads covering [base, base+bytes): one
// 32-lane x 4-byte instruction per cache line.
func (b *kernelBuilder) loads(base, bytes uint64) { b.rangeOps(trace.OpLoad, base, bytes) }

// stores emits contiguous warp stores covering [base, base+bytes).
func (b *kernelBuilder) stores(base, bytes uint64) { b.rangeOps(trace.OpStore, base, bytes) }

func (b *kernelBuilder) rangeOps(op trace.Op, base, bytes uint64) {
	b.enc.AppendRun(trace.Access{
		Op: op, Scope: trace.ScopeWeak, Pattern: trace.PatContiguous,
		Threads: 32, ElemBytes: 4, Addr: base,
	}, int((bytes+LineBytes-1)/LineBytes), LineBytes)
}

// storesMultiPass writes [base, base+bytes) in blocks of blockLines cache
// lines, writing every line of a block `passes` times before moving to the
// next block. The revisit distance is therefore blockLines, which is what
// makes the write-queue hit rate sensitive to queue capacity (Figure 14): a
// queue of at least blockLines entries coalesces the extra passes.
func (b *kernelBuilder) storesMultiPass(base, bytes uint64, passes, blockLines int) {
	b.storesMultiPassSet(base, bytes, passes, []int{blockLines})
}

// storesMultiPassSet is storesMultiPass with a cycle of block sizes, so the
// revisit-distance distribution has several knees and the queue hit rate
// grows gradually with capacity rather than jumping at a single threshold.
func (b *kernelBuilder) storesMultiPassSet(base, bytes uint64, passes int, blockSet []int) {
	if passes < 1 {
		panic("workload: passes must be >= 1")
	}
	if len(blockSet) == 0 {
		panic("workload: empty block set")
	}
	lines := bytes / LineBytes
	blockIdx := 0
	for blockStart := uint64(0); blockStart < lines; {
		blockLines := uint64(blockSet[blockIdx%len(blockSet)])
		blockIdx++
		blockEnd := blockStart + blockLines
		if blockEnd > lines {
			blockEnd = lines
		}
		for p := 0; p < passes; p++ {
			b.stores(base+blockStart*LineBytes, (blockEnd-blockStart)*LineBytes)
		}
		blockStart = blockEnd
	}
}

// scattered emits `count` warp instructions of the given op whose 32 lanes
// hit pseudo-random cache lines inside [base, base+windowBytes).
func (b *kernelBuilder) scattered(op trace.Op, base, windowBytes uint64, count int, seed uint32) {
	b.scatteredLanes(op, base, windowBytes, count, seed, 32)
}

// scatterSegmentBytes is the locality granule of irregular accesses: real
// graph kernels process edges sorted by destination, so consecutive warps
// hit a narrow address segment that drifts across the window over the
// kernel. This is what keeps the 32-entry GPS-TLB near a 100% hit rate
// (Section 7.4) despite multi-megabyte scatter windows.
const scatterSegmentBytes = 512 << 10

// scatteredLanes is scattered with an explicit active-lane count, modeling
// divergent warps (sparse graph frontiers). The window is processed in
// segments of scatterSegmentBytes; lanes scatter pseudo-randomly within the
// current segment.
func (b *kernelBuilder) scatteredLanes(op trace.Op, base, windowBytes uint64, count int, seed uint32, lanes uint8) {
	if count <= 0 {
		return
	}
	numSeg := int(windowBytes / scatterSegmentBytes)
	if numSeg < 1 {
		numSeg = 1
	}
	perSeg := count / numSeg
	if perSeg < 1 {
		perSeg = 1
	}
	for i := 0; i < count; i++ {
		seg := uint64(i/perSeg) % uint64(numSeg)
		segBase := base + seg*scatterSegmentBytes
		segEnd := segBase + scatterSegmentBytes
		if seg == uint64(numSeg-1) || segEnd > base+windowBytes {
			segEnd = base + windowBytes
		}
		segLines := (segEnd - segBase) / LineBytes
		if segLines == 0 {
			segLines = 1
		}
		if segLines > (1<<32)-1 {
			panic("workload: scatter window too large")
		}
		b.enc.Append(trace.Access{
			Op: op, Scope: trace.ScopeWeak, Pattern: trace.PatScattered,
			Threads: lanes, ElemBytes: 4,
			Stride: uint32(segLines),
			Seed:   seed + uint32(i)*2654435761,
			Addr:   segBase,
		})
	}
}

// slab partitions `total` bytes across n GPUs in contiguous line-aligned
// slabs and returns GPU g's [offset, size).
func slab(total uint64, n, g int) (offset, size uint64) {
	lines := total / LineBytes
	per := lines / uint64(n)
	rem := lines % uint64(n)
	var startLine uint64
	for i := 0; i < g; i++ {
		startLine += per
		if uint64(i) < rem {
			startLine++
		}
	}
	myLines := per
	if uint64(g) < rem {
		myLines++
	}
	return startLine * LineBytes, myLines * LineBytes
}

// gpuList returns [0, 1, ..., n).
func gpuList(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// dedupSorted sorts and deduplicates a GPU list in place.
func dedupSorted(gpus []int) []int {
	sort.Ints(gpus)
	out := gpus[:0]
	for i, g := range gpus {
		if i == 0 || g != gpus[i-1] {
			out = append(out, g)
		}
	}
	return out
}
