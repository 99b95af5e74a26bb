// Package trace defines the application trace representation that drives
// the simulator. It plays the role NVBit-collected SASS traces play for NVAS
// in the paper: a sequence of kernel launches per GPU, each kernel a stream
// of warp-level memory instructions (loads, stores, atomics, fences) with
// virtual addresses, plus global synchronization barriers between phases.
//
// Traces are produced synthetically by internal/workload (the paper's
// benchmarks were traced on real hardware, which this reproduction does not
// have; see DESIGN.md for the substitution argument) and consumed by
// internal/engine.
package trace

import (
	"fmt"
	"math"
)

// Op is the kind of a memory instruction.
type Op uint8

// Memory instruction kinds.
const (
	OpLoad   Op = iota // global load
	OpStore            // global store
	OpAtomic           // read-modify-write; never coalesced by the GPS write queue
	OpFence            // memory fence; Addr is ignored
)

func (o Op) String() string {
	switch o {
	case OpLoad:
		return "ld"
	case OpStore:
		return "st"
	case OpAtomic:
		return "atom"
	case OpFence:
		return "fence"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Scope is the synchronization scope of an access, following the NVIDIA
// memory model's weak/strong distinction: only sys-scoped operations demand
// inter-GPU visibility and ordering.
type Scope uint8

// Access scopes, weakest first.
const (
	ScopeWeak Scope = iota // plain access, no ordering demanded
	ScopeCTA               // strong within a thread block
	ScopeGPU               // strong within one GPU
	ScopeSys               // strong system-wide: visible to all GPUs
)

func (s Scope) String() string {
	switch s {
	case ScopeWeak:
		return "weak"
	case ScopeCTA:
		return "cta"
	case ScopeGPU:
		return "gpu"
	case ScopeSys:
		return "sys"
	}
	return fmt.Sprintf("scope(%d)", uint8(s))
}

// Pattern describes how a warp's lanes spread around the base address, which
// determines how many cache lines the SM coalescer emits per instruction.
type Pattern uint8

// Lane address patterns.
const (
	// PatContiguous: lane i accesses Addr + i*ElemBytes (unit stride, the
	// well-coalesced case typical of stencil codes).
	PatContiguous Pattern = iota
	// PatStrided: lane i accesses Addr + i*Stride bytes.
	PatStrided
	// PatScattered: lane i accesses a pseudo-random line within a window of
	// Stride cache lines starting at Addr (graph-style irregular access);
	// Seed makes the spread deterministic.
	PatScattered
)

func (p Pattern) String() string {
	switch p {
	case PatContiguous:
		return "contig"
	case PatStrided:
		return "strided"
	case PatScattered:
		return "scattered"
	}
	return fmt.Sprintf("pattern(%d)", uint8(p))
}

// Access is one warp-level memory instruction.
type Access struct {
	Op        Op
	Scope     Scope
	Pattern   Pattern
	Threads   uint8  // active lanes, 1..32
	ElemBytes uint8  // bytes accessed per lane (4 or 8)
	Stride    uint32 // PatStrided: bytes between lanes; PatScattered: window in lines
	Seed      uint32 // PatScattered: deterministic spread seed
	Addr      uint64 // base virtual address
}

// Bytes returns the number of useful bytes the instruction moves.
func (a Access) Bytes() uint64 {
	if a.Op == OpFence {
		return 0
	}
	return uint64(a.Threads) * uint64(a.ElemBytes)
}

// IsWrite reports whether the access modifies memory.
func (a Access) IsWrite() bool { return a.Op == OpStore || a.Op == OpAtomic }

// Validate reports structurally invalid accesses. It reads only Op, Scope,
// Pattern, Threads, ElemBytes and Stride: block decode relies on that to
// validate once per segment on which those columns are constant.
func (a Access) Validate() error {
	if a.Op > OpFence {
		return fmt.Errorf("trace: invalid op %d", a.Op)
	}
	if a.Scope > ScopeSys {
		return fmt.Errorf("trace: invalid scope %d", a.Scope)
	}
	if a.Op == OpFence {
		return nil
	}
	if a.Threads == 0 || a.Threads > 32 {
		return fmt.Errorf("trace: %d active lanes out of range 1..32", a.Threads)
	}
	if a.ElemBytes != 1 && a.ElemBytes != 2 && a.ElemBytes != 4 && a.ElemBytes != 8 && a.ElemBytes != 16 {
		return fmt.Errorf("trace: element size %d not a machine width", a.ElemBytes)
	}
	if a.Pattern > PatScattered {
		return fmt.Errorf("trace: invalid pattern %d", a.Pattern)
	}
	if a.Pattern == PatScattered && a.Stride == 0 {
		return fmt.Errorf("trace: scattered access with empty window")
	}
	return nil
}

// Kernel is one kernel launch on one GPU: its instruction stream plus a
// count of arithmetic operations for the compute-time model.
type Kernel struct {
	GPU        int
	Name       string
	ComputeOps uint64
	// LocalStreamBytes is private, GPU-local streaming traffic the kernel
	// performs beyond the recorded shared-region accesses (temporaries,
	// coefficient tables, re-read tiles). It is carried analytically rather
	// than as per-line records to keep traces compact; no paradigm ever
	// moves it between GPUs.
	LocalStreamBytes uint64
	// Col is the instruction stream in compressed columnar blocks, nil for a
	// kernel with no accesses. Build one with a ColumnEncoder or
	// EncodeColumns; read it sequentially with EachBlock or a BlockDecoder.
	Col *ColumnAccesses
}

// NumAccesses returns the kernel's instruction count.
func (k *Kernel) NumAccesses() int { return k.Col.Len() }

// EachBlock yields the kernel's access stream one decoded block at a time
// through dec, whose buffer each yielded slice aliases. Iteration stops
// early if yield returns false. The only possible error is a corrupt block,
// which Finish and UnmarshalJSON never produce.
func (k *Kernel) EachBlock(dec *BlockDecoder, yield func([]Access) bool) error {
	for i := 0; i < k.Col.NumBlocks(); i++ {
		accs, err := dec.Decode(k.Col, i)
		if err != nil {
			return err
		}
		if !yield(accs) {
			return nil
		}
	}
	return nil
}

// Phase groups the kernels that run concurrently between two global
// synchronization barriers. The end of a phase carries the implicit
// sys-scoped release of each grid's completion.
type Phase struct {
	Index   int
	Label   string
	Kernels []Kernel
}

// RegionKind classifies an allocation for paradigm decisions.
type RegionKind uint8

// Region kinds.
const (
	// RegionShared is allocated in the shared address space: candidates for
	// GPS replication, UM migration, or memcpy mirroring.
	RegionShared RegionKind = iota
	// RegionPrivate is GPU-local scratch that no paradigm ever moves.
	RegionPrivate
)

// Region is one allocation in the trace's virtual address space.
type Region struct {
	Name string
	Kind RegionKind
	Base uint64
	Size uint64
	// Writers and Readers describe which GPUs touch the region at all, used
	// by the UM-with-hints paradigm to place pages and emit prefetches the
	// way an expert programmer would.
	Writers []int
	Readers []int
	// ManualSubscribers, when non-nil, pins the GPS subscriber set of the
	// region (the optional `manual` parameter of cudaMallocGPS, Section 4):
	// automatic profiling never unsubscribes these pages.
	ManualSubscribers []int
}

// Contains reports whether va falls inside the region.
func (r Region) Contains(va uint64) bool {
	return va >= r.Base && va-r.Base < r.Size
}

// L2Model is the analytic cache model used by the timing simulator. Strong
// scaling shrinks each GPU's share of the working set, raising the L2 hit
// rate with GPU count; this is the mechanism behind EQWP's super-linear
// speedup in the paper (L2 hit rate 55% -> 68% when scaling to 4 GPUs).
type L2Model struct {
	BaseHit          float64 // L2 hit rate with the full working set on one GPU
	SlopePerDoubling float64 // added hit rate per doubling of GPU count
	MaxHit           float64 // saturation
}

// HitRate returns the modeled L2 hit rate when the working set is split
// across `split` GPUs.
func (m L2Model) HitRate(split int) float64 {
	if split < 1 {
		split = 1
	}
	h := m.BaseHit + m.SlopePerDoubling*math.Log2(float64(split))
	if h > m.MaxHit {
		h = m.MaxHit
	}
	if h < 0 {
		h = 0
	}
	return h
}

// Meta describes a whole program trace.
type Meta struct {
	Name    string
	NumGPUs int
	Regions []Region
	// ProfilePhases is the number of leading phases that form the GPS
	// profiling iteration (between cuGPSTrackingStart/Stop in Listing 1).
	ProfilePhases int
	// WorkingSetPerGPU is the per-GPU resident data footprint in bytes,
	// used by the analytic L2 model.
	WorkingSetPerGPU uint64
	// ComputePerPhase hints the timing model about per-phase arithmetic;
	// informative only (kernels carry authoritative counts).
	ComputePerPhase uint64
	// L2 is the analytic cache model for this application.
	L2 L2Model
}

// RegionOf returns the region containing va, or nil.
func (m *Meta) RegionOf(va uint64) *Region {
	for i := range m.Regions {
		if m.Regions[i].Contains(va) {
			return &m.Regions[i]
		}
	}
	return nil
}

// Validate checks internal consistency of the metadata.
func (m *Meta) Validate() error {
	if m.NumGPUs < 1 {
		return fmt.Errorf("trace: %d GPUs", m.NumGPUs)
	}
	for i, r := range m.Regions {
		if r.Size == 0 {
			return fmt.Errorf("trace: region %q is empty", r.Name)
		}
		if r.Base+r.Size < r.Base {
			return fmt.Errorf("trace: region %q wraps the address space", r.Name)
		}
		for j := 0; j < i; j++ {
			o := m.Regions[j]
			if r.Base < o.Base+o.Size && o.Base < r.Base+r.Size {
				return fmt.Errorf("trace: regions %q and %q overlap", r.Name, o.Name)
			}
		}
	}
	return nil
}

// Program is a source of phases. Implementations stream phases so that
// multi-gigabyte traces never need to be resident at once.
type Program interface {
	// Meta returns the static description of the trace.
	Meta() Meta
	// Phases calls yield for each phase in order, stopping early if yield
	// returns false.
	Phases(yield func(*Phase) bool)
}

// Recorded is an in-memory Program, used by tests, the codecs, and small
// hand-built examples.
type Recorded struct {
	M  Meta
	Ph []Phase
}

// Meta implements Program.
func (r *Recorded) Meta() Meta { return r.M }

// Phases implements Program.
func (r *Recorded) Phases(yield func(*Phase) bool) {
	for i := range r.Ph {
		if !yield(&r.Ph[i]) {
			return
		}
	}
}

// Collect materializes any Program into a Recorded trace. Each phase's
// Kernels slice is copied; column stores are shared by pointer (their
// encoded blocks are immutable).
func Collect(p Program) *Recorded {
	rec := &Recorded{M: p.Meta()}
	p.Phases(func(ph *Phase) bool {
		cp := *ph
		cp.Kernels = make([]Kernel, len(ph.Kernels))
		copy(cp.Kernels, ph.Kernels)
		rec.Ph = append(rec.Ph, cp)
		return true
	})
	return rec
}

// Stats summarizes a program for inspection tools.
type Stats struct {
	Phases    int
	Kernels   int
	Accesses  uint64
	Loads     uint64
	Stores    uint64
	Atomics   uint64
	Fences    uint64
	SysScoped uint64
	Bytes     uint64
}

// Summarize scans a program and tallies instruction counts, decoding each
// kernel block by block with constant memory.
func Summarize(p Program) Stats {
	var s Stats
	var dec BlockDecoder
	p.Phases(func(ph *Phase) bool {
		s.Phases++
		s.Kernels += len(ph.Kernels)
		for i := range ph.Kernels {
			err := ph.Kernels[i].EachBlock(&dec, func(accs []Access) bool {
				for _, a := range accs {
					s.Accesses++
					s.Bytes += a.Bytes()
					switch a.Op {
					case OpLoad:
						s.Loads++
					case OpStore:
						s.Stores++
					case OpAtomic:
						s.Atomics++
					case OpFence:
						s.Fences++
					}
					if a.Scope == ScopeSys {
						s.SysScoped++
					}
				}
				return true
			})
			if err != nil {
				panic(fmt.Sprintf("trace: summarizing kernel %q: %v", ph.Kernels[i].Name, err))
			}
		}
		return true
	})
	return s
}
