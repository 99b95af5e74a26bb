// Package engine is the structural (functional, per-access) half of the
// simulator: it replays every warp instruction of a trace through a memory
// management paradigm's machinery and produces, for each (phase, GPU), a
// traffic profile the timing simulator (internal/timing) prices.
//
// The engine deliberately separates *what moves* from *how long it takes*,
// the same split trace-driven simulators like NVAS use between functional
// replay and timing models.
package engine

import (
	"fmt"

	"gps/internal/memsys"
	"gps/internal/trace"
)

// Profile is the traffic and event profile of one GPU during one phase.
// All byte counts are cache-line granular (transfers happen at cache-block
// granularity on real GPUs, Section 7.5).
type Profile struct {
	GPU        int
	ComputeOps uint64

	// LocalBytes is traffic served by the GPU's own DRAM (through its L2).
	LocalBytes uint64

	// RemoteRead[p] is demand-read traffic pulled from peer p during the
	// kernel: it stalls execution (subject to latency hiding).
	RemoteRead []uint64
	// RemoteReadLines counts individual demand-read transactions, for the
	// latency-bound regime of the timing model.
	RemoteReadLines uint64

	// Push[p] is proactive store traffic sent to peer p during the kernel:
	// it overlaps with compute and must only complete by the barrier.
	Push []uint64

	// Bulk[p] is barrier-window traffic sent to peer p (cudaMemcpy
	// broadcasts, UM prefetches): serialized with compute.
	Bulk []uint64

	// Faults counts page faults taken by this GPU this phase; each
	// serializes for the fault cost.
	Faults int
	// Shootdowns counts TLB shootdowns (page collapses) this GPU triggered.
	Shootdowns int
}

// NewProfile returns an empty profile for gpu in an n-GPU system.
func NewProfile(gpu, n int) Profile {
	return Profile{
		GPU:        gpu,
		RemoteRead: make([]uint64, n),
		Push:       make([]uint64, n),
		Bulk:       make([]uint64, n),
	}
}

// newProfiles returns one empty profile per GPU, carving all per-peer
// counter slices out of a single allocation. Run creates a profile vector
// per phase, so this collapses 3n+1 allocations into 2 on the hot path. The
// three-index subslices keep an accidental append from bleeding into a
// neighbor's counters.
func newProfiles(n int) []Profile {
	ps := make([]Profile, n)
	backing := make([]uint64, 3*n*n)
	for g := range ps {
		off := 3 * n * g
		ps[g] = Profile{
			GPU:        g,
			RemoteRead: backing[off : off+n : off+n],
			Push:       backing[off+n : off+2*n : off+2*n],
			Bulk:       backing[off+2*n : off+3*n : off+3*n],
		}
	}
	return ps
}

// RemoteBytes returns all interconnect bytes this profile moves.
func (p *Profile) RemoteBytes() uint64 {
	var t uint64
	for i := range p.RemoteRead {
		t += p.RemoteRead[i] + p.Push[i] + p.Bulk[i]
	}
	return t
}

// PhaseRecord is the per-GPU profile vector for one phase.
type PhaseRecord struct {
	Index    int
	Profiles []Profile // indexed by GPU
}

// Result is everything the structural pass learned about one run.
type Result struct {
	Meta     trace.Meta
	Paradigm string
	Phases   []PhaseRecord

	// SubscriberHist is the GPS page subscriber-count distribution captured
	// right after the profiling phase (Figure 9); nil for non-GPS paradigms.
	SubscriberHist map[int]int

	// WriteQueueHitRate is the per-GPU GPS write queue hit rate (Figure 14);
	// nil for non-GPS paradigms.
	WriteQueueHitRate []float64
	// GPSTLBHitRate is the per-GPU GPS-TLB hit rate (Section 7.4).
	GPSTLBHitRate []float64
	// ConvTLBHitRate is the conventional last-level TLB hit rate.
	ConvTLBHitRate []float64
	// ForwardedLoads counts non-subscriber loads served by value forwarding
	// from the local remote write queue (Section 5.1).
	ForwardedLoads uint64
}

// InterconnectBytes sums all traffic over the fabric in phases
// [from, len): use from = Meta.ProfilePhases to measure the steady state.
func (r *Result) InterconnectBytes(from int) uint64 {
	var t uint64
	for _, ph := range r.Phases {
		if ph.Index < from {
			continue
		}
		for i := range ph.Profiles {
			t += ph.Profiles[i].RemoteBytes()
		}
	}
	return t
}

// TotalFaults sums page faults across the whole run.
func (r *Result) TotalFaults() int {
	n := 0
	for _, ph := range r.Phases {
		for i := range ph.Profiles {
			n += ph.Profiles[i].Faults
		}
	}
	return n
}

// Model is one memory-management paradigm's per-access machinery.
type Model interface {
	// Name identifies the paradigm ("GPS", "UM", ...).
	Name() string
	// BeginPhase announces the next phase; profiles is the output vector
	// (one per GPU) the model accumulates traffic into.
	BeginPhase(index int, profiles []Profile)
	// PageBytes is the page size the model decides at, or 0 for a model
	// that needs no page pieces. The engine cuts every span at the page
	// ends of the finest PageBytes of the models it replays together, and
	// when none needs pieces, cuts none and resolves no regions.
	PageBytes() uint64
	// Access processes the next chunk of gpu's instruction stream, in
	// order. The batch is shared with the other models of a fused replay
	// and reused after the call returns: models read it and keep nothing.
	// Its spans may be cut finer than the model's own pages, so a model
	// must decide as it would for the same lines one at a time.
	Access(gpu int, b *Batch)
	// EndPhase is the global synchronization barrier ending the phase
	// (implicit sys-scoped release of every grid).
	EndPhase(index int)
	// Finish lets the model deposit its end-of-run statistics.
	Finish(res *Result)
}

// Batch is one chunk of one GPU's instruction stream after coalescing: the
// ordered page pieces of lines the chunk touches, one zero-line span per
// fence. The replay loop reuses the slice between chunks.
type Batch struct {
	Spans []Span
}

// chunk is the number of consecutive warp instructions one GPU executes
// before the replay rotates to the next GPU's kernel, approximating the
// concurrent interleaving of kernels that ran simultaneously on real
// hardware. UM page thrashing in particular depends on this interleaving.
const chunk = 64

// PhaseObserver receives replay lifecycle events from RunObserved and
// RunFused: a start/end pair brackets every phase, in phase order. The
// observability layer uses it to record per-phase spans with real
// durations; observers must be cheap, they run on the replay hot path (once
// per phase, not per access).
type PhaseObserver interface {
	PhaseStart(index, kernels int)
	PhaseEnd(index int)
}

// Run replays prog through m and collects the result.
func Run(prog trace.Program, m Model) *Result { return RunObserved(prog, m, nil) }

// RunObserved is Run with an optional phase observer. A nil observer costs
// one nil check per phase, so the uninstrumented path stays free.
func RunObserved(prog trace.Program, m Model, po PhaseObserver) *Result {
	return RunFused(prog, []Model{m}, po)[0]
}

// RunFused replays prog once for all of models: every chunk is decoded,
// coalesced and cut into page pieces once, at the finest page size of the
// models, and the batch goes to each model in turn. Models share nothing
// but the read-only batch, so results[i] equals Run(prog, models[i]); the
// trace front end (block decode, coalescing, piece split) is paid once
// instead of once per model.
func RunFused(prog trace.Program, models []Model, po PhaseObserver) []*Result {
	meta := prog.Meta()
	n := meta.NumGPUs
	results := make([]*Result, len(models))
	// With no model needing pieces, an empty region table and the 8 GB
	// region slot as the page cut spans only at region slots.
	pageBytes, regions := uint64(1)<<regionSlotShift, []trace.Region(nil)
	for i, m := range models {
		results[i] = &Result{Meta: meta, Paradigm: m.Name()}
		if p := m.PageBytes(); p != 0 {
			pageBytes, regions = min(pageBytes, p), meta.Regions
		}
	}
	exp := NewExpander(NewRegionTable(regions), pageBytes)
	var batch Batch

	var cursors []int
	var readers []blockCursor
	prog.Phases(func(ph *trace.Phase) bool {
		if po != nil {
			po.PhaseStart(ph.Index, len(ph.Kernels))
		}
		// Each model accumulates into its own profile vector, which lives on
		// in its Result.
		for i, m := range models {
			profiles := newProfiles(n)
			for _, k := range ph.Kernels {
				profiles[k.GPU].ComputeOps += k.ComputeOps
				profiles[k.GPU].LocalBytes += k.LocalStreamBytes
			}
			m.BeginPhase(ph.Index, profiles)
			results[i].Phases = append(results[i].Phases, PhaseRecord{Index: ph.Index, Profiles: profiles})
		}

		// Round-robin the kernels' instruction streams in chunks. The cursor
		// and block-reader scratch is reused across phases — each kernel slot
		// keeps its own reader so decode buffers survive the interleaving.
		if cap(cursors) < len(ph.Kernels) {
			cursors = make([]int, len(ph.Kernels))
		} else {
			cursors = cursors[:len(ph.Kernels)]
			for i := range cursors {
				cursors[i] = 0
			}
		}
		for len(readers) < len(ph.Kernels) {
			readers = append(readers, blockCursor{})
		}
		rs := readers[:len(ph.Kernels)]
		for ki := range ph.Kernels {
			rs[ki].reset(&ph.Kernels[ki])
		}
		// Only kernels with instructions await completion: an empty kernel
		// never reaches the end-of-stream decrement below, and counting it
		// would spin the round-robin loop forever.
		remaining := 0
		for ki := range rs {
			if rs[ki].n > 0 {
				remaining++
			}
		}
		for remaining > 0 {
			for ki := range ph.Kernels {
				r := &rs[ki]
				if cursors[ki] >= r.n {
					continue
				}
				end := cursors[ki] + chunk
				if end >= r.n {
					end = r.n
					remaining--
				}
				batch.Spans = batch.Spans[:0]
				for _, run := range r.window(cursors[ki], end) {
					batch.Spans = exp.AppendSpans(batch.Spans, run)
				}
				gpu := ph.Kernels[ki].GPU
				for _, m := range models {
					m.Access(gpu, &batch)
				}
				cursors[ki] = end
			}
		}

		for _, m := range models {
			m.EndPhase(ph.Index)
		}
		if po != nil {
			po.PhaseEnd(ph.Index)
		}
		return true
	})
	for i, m := range models {
		m.Finish(results[i])
	}
	return results
}

// LineBytes is the cache block size of the modeled GPU (Table 1).
const LineBytes = 128

// MaxGPUs bounds the modeled system size (the engine's sharing bitmasks are
// single words, like memsys.SubscriberSet).
const MaxGPUs = memsys.MaxGPUs

// Sharing summarizes which GPUs touch one page, gathered by ScanSharing.
type Sharing struct {
	Readers uint64 // bitmask of reading GPUs
	Writers uint64 // bitmask of writing GPUs
	// WriteCount[g] counts line-writes by GPU g, to pick the dominant
	// writer for placement decisions.
	WriteCount [MaxGPUs]uint64
}

// DominantWriter returns the GPU writing the page most, or -1. Ties go to
// the lowest GPU ID.
func (s *Sharing) DominantWriter() int {
	best, bestCount := -1, uint64(0)
	for g, c := range s.WriteCount {
		if c > bestCount {
			best, bestCount = g, c
		}
	}
	return best
}

// ScanSharing replays the first `phases` phases and reports per-page
// sharing for pages of shared regions. The UM-with-hints paradigm uses it
// as the stand-in for the expert programmer's knowledge of the access
// pattern (the paper hand-tuned each application's hints).
func ScanSharing(prog trace.Program, phases int, pageBytes uint64) map[uint64]*Sharing {
	meta := prog.Meta()
	acc := memsys.NewPageMap[Sharing](pageBytes)
	exp := NewExpander(NewRegionTable(meta.Regions), pageBytes)
	pageShift := shiftFor(pageBytes)
	var cur blockCursor
	var spans []Span
	prog.Phases(func(ph *trace.Phase) bool {
		if ph.Index >= phases {
			return false
		}
		for ki := range ph.Kernels {
			k := &ph.Kernels[ki]
			bit := uint64(1) << k.GPU
			cur.reset(k)
			for start := 0; start < cur.n; start += chunk {
				spans = spans[:0]
				for _, run := range cur.window(start, min(start+chunk, cur.n)) {
					spans = exp.AppendSpans(spans, run)
				}
				for _, s := range spans {
					if !s.Shared {
						continue
					}
					sh := acc.At(s.Line >> pageShift)
					if s.IsWrite() {
						sh.Writers |= bit
						sh.WriteCount[k.GPU] += uint64(s.N)
					} else {
						sh.Readers |= bit
					}
				}
			}
		}
		return true
	})
	out := map[uint64]*Sharing{}
	acc.ForEach(func(vpn uint64, s *Sharing) {
		if s.Readers|s.Writers != 0 {
			c := *s
			out[vpn] = &c
		}
	})
	return out
}

// shiftFor returns log2(v) for the power-of-two sizes the engine deals in.
func shiftFor(v uint64) uint {
	var s uint
	for 1<<s < v {
		s++
	}
	if 1<<s != v {
		panic(fmt.Sprintf("engine: %d is not a power of two", v))
	}
	return s
}

// regionSlotShift is log2 of the 8 GB slot granularity regions align to.
const regionSlotShift = memsys.RegionSlotShift

// RegionTable resolves addresses to regions in O(1) by exploiting the
// workload generators' 8 GB region alignment: a dense slice indexed by the
// address's 8 GB slot.
type RegionTable struct {
	bySlot []*trace.Region
}

// NewRegionTable indexes the given regions. Regions must start at distinct
// multiples of 8 GB (the workload layout invariant) and must not span an
// 8 GB boundary... larger regions are rejected loudly.
func NewRegionTable(regions []trace.Region) *RegionTable {
	t := &RegionTable{}
	for i := range regions {
		r := &regions[i]
		slot := r.Base >> regionSlotShift
		if r.Base&((1<<regionSlotShift)-1) != 0 {
			panic(fmt.Sprintf("engine: region %q not 8GB aligned", r.Name))
		}
		if r.Size > 1<<regionSlotShift {
			panic(fmt.Sprintf("engine: region %q spans slots", r.Name))
		}
		if slot >= uint64(len(t.bySlot)) {
			grown := make([]*trace.Region, slot+1)
			copy(grown, t.bySlot)
			t.bySlot = grown
		}
		if t.bySlot[slot] != nil {
			panic(fmt.Sprintf("engine: region %q collides in slot %d", r.Name, slot))
		}
		t.bySlot[slot] = r
	}
	return t
}

// Lookup returns the region containing va, or nil.
func (t *RegionTable) Lookup(va uint64) *trace.Region {
	slot := va >> regionSlotShift
	if slot >= uint64(len(t.bySlot)) {
		return nil
	}
	r := t.bySlot[slot]
	if r == nil || va < r.Base || va-r.Base >= r.Size {
		return nil
	}
	return r
}

// Shared returns the shared region containing line, or nil.
func (t *RegionTable) Shared(line uint64) *trace.Region {
	if r := t.Lookup(line); r != nil && r.Kind == trace.RegionShared {
		return r
	}
	return nil
}

// clipToRegion returns how many of the p lines starting at line stay on
// line's side of the end of shared region r (all p when r is nil). The line
// holding the region's last byte is inside. Region ends are computed
// without overflow, for region sizes that are not page or line multiples.
func clipToRegion(line uint64, p uint32, r *trace.Region) uint32 {
	if r != nil {
		if left := r.Size - (line - r.Base); left < uint64(p)*LineBytes {
			p = uint32((left + LineBytes - 1) / LineBytes)
		}
	}
	return p
}
