package engine

import (
	"math/bits"

	"gps/internal/trace"
)

// Span is n consecutive cache lines, starting at line-aligned address Line,
// that one GPU touches with one op and scope, in order: the lines Line,
// Line+LineBytes, ..., Line+(N-1)*LineBytes. A span is a page piece: its
// lines stay inside one page of the expander's page size and on one side of
// the end of a shared region, so they all resolve to the same page and
// either all lie in a shared region (Shared) or none does. A fence is a
// span with N == 0. Span holds no pointer: the replay appends one per
// piece, and a pointer would cost a write barrier each and GC scanning.
type Span struct {
	Line   uint64
	N      uint32
	Op     trace.Op
	Scope  trace.Scope
	Shared bool
}

// IsWrite reports whether the span's lines are stored to.
func (s Span) IsWrite() bool { return s.Op == trace.OpStore || s.Op == trace.OpAtomic }

// Expander models the SM-level memory coalescer: it turns warp instructions
// into the distinct cache lines the memory system sees, as spans. Lanes of
// one instruction that fall in the same cache block merge — this is why
// well-behaved stencil codes like Jacobi present each line exactly once to
// the GPS write queue and see a 0% queue hit rate (Section 7.4: "all spatial
// locality is fully captured in the coalescer internal to the SM").
//
// It also cuts the spans into page pieces once for every model that reads
// them: at the ends of pages of pageBytes and of the shared regions of
// regions.
type Expander struct {
	regions   *RegionTable
	pageShift uint
	lanes     []uint64 // one instruction's coalesced lines, per-lane path
}

// NewExpander builds an expander that cuts spans at the ends of pages of
// pageBytes (a power of two) and of the shared regions of regions.
func NewExpander(regions *RegionTable, pageBytes uint64) *Expander {
	return &Expander{regions: regions, pageShift: shiftFor(pageBytes), lanes: make([]uint64, 0, 32)}
}

// AppendSpans appends the coalesced lines of every record of r to dst, in
// record order, and returns the extended slice. A line that continues the
// last span (next address, same op and scope, same page piece) extends it,
// so dst is the shortest piece encoding of the line sequence. A contiguous
// run whose records tile whole consecutive lines costs O(1) per page piece;
// other records expand per lane.
func (e *Expander) AppendSpans(dst []Span, r trace.Run) []Span {
	dst, _ = e.coalesce(dst, r, false)
	return dst
}

// coalesce appends the spans of r's records to dst, as AppendSpans does,
// and returns dst and the number of lines the records touch, fences
// excluded: the sum of the N of the spans, counted per record. With
// countOnly it appends nothing and looks up no region: a contiguous run
// that tiles costs O(1), and any other record one coalescing.
func (e *Expander) coalesce(dst []Span, r trace.Run, countOnly bool) ([]Span, uint64) {
	a := r.A
	if a.Op == trace.OpFence {
		for i := uint32(0); i < r.N && !countOnly; i++ {
			dst = append(dst, Span{Op: a.Op, Scope: a.Scope})
		}
		return dst, 0
	}
	var lines uint64
	if a.Pattern == trace.PatContiguous {
		// Records with the same in-line offset touch the same number of
		// lines; when the step is exactly that many lines, the run tiles one
		// range. The range must not wrap, as no record's range does.
		first, n := e.contiguous(a)
		if r.N == 1 || r.AddrStep == uint64(n)*LineBytes && first+uint64(r.N)*r.AddrStep > first {
			if !countOnly {
				dst = e.push(dst, a.Op, a.Scope, first, r.N*n)
			}
			return dst, uint64(r.N * n)
		}
		for i := uint32(0); i < r.N; i++ {
			first, n := e.contiguous(r.At(i))
			if !countOnly {
				dst = e.push(dst, a.Op, a.Scope, first, n)
			}
			lines += uint64(n)
		}
		return dst, lines
	}
	var shared *trace.Region // the last lane line's shared region, if any
	for i := uint32(0); i < r.N; i++ {
		lanes := e.laneLines(r.At(i))
		lines += uint64(len(lanes))
		if countOnly {
			continue
		}
		for _, line := range lanes {
			if shared == nil || line-shared.Base >= shared.Size {
				shared = e.regions.Shared(line)
			}
			// One line is one piece: it extends the last span or starts one.
			if k := len(dst) - 1; k >= 0 && e.continues(&dst[k], a.Op, a.Scope, line, shared != nil) {
				dst[k].N++
			} else {
				dst = appendSpan(dst, line, 1, a.Op, a.Scope, shared != nil)
			}
		}
	}
	return dst, lines
}

// contiguous returns the first line and the line count of a contiguous
// instruction. A range whose end wraps past 2^64 touches no line.
func (e *Expander) contiguous(a trace.Access) (first uint64, n uint32) {
	bytes := uint64(a.Threads) * uint64(a.ElemBytes)
	first = a.Addr &^ (LineBytes - 1)
	last := (a.Addr + bytes - 1) &^ (LineBytes - 1)
	if last < first {
		return first, 0
	}
	return first, uint32((last-first)/LineBytes + 1)
}

// laneLines returns the distinct lines of a strided or scattered
// instruction, in lane order. The slice is reused by the next call.
func (e *Expander) laneLines(a trace.Access) []uint64 {
	lines := e.lanes[:0]
	switch a.Pattern {
	case trace.PatStrided:
		// Stride is unsigned, so lane lines never decrease and a repeated
		// line can only repeat the last one emitted. Addresses that wrap
		// past 2^64 repeat no line either: 31 strides span under 2^37 bytes.
		va := a.Addr
		for lane := 0; lane < int(a.Threads); lane++ {
			if line := va &^ (LineBytes - 1); len(lines) == 0 || lines[len(lines)-1] != line {
				lines = append(lines, line)
			}
			va += uint64(a.Stride)
		}
	case trace.PatScattered:
		// trace.Validate rejects Stride == 0, but the expander must also hold
		// up against hand-built traces that skipped validation: an empty
		// window degenerates to a single line rather than a divide by 0.
		window := max(uint64(a.Stride), 1)
		// h % window for 32-bit h and window, by Lemire's fastmod: the
		// reciprocal wraps to 0 for window 1, which yields index 0.
		recip := ^uint64(0)/window + 1
		base := a.Addr &^ (LineBytes - 1)
		// seen filters window indices by their low 12 bits: a clear bit
		// means the index is new. Distinct indices give distinct lines
		// (window*LineBytes < 2^64), so only a set bit needs the scan, and
		// in a window of up to 4096 lines only a repeated index sets one.
		var seen [64]uint64
		for lane := 0; lane < int(a.Threads); lane++ {
			idx, _ := bits.Mul64(recip*uint64(splitmix32(a.Seed+uint32(lane)*0x9e3779b9)), window)
			line := base + idx*LineBytes
			if w, bit := &seen[idx>>6&63], uint64(1)<<(idx&63); *w&bit == 0 {
				*w |= bit
				lines = append(lines, line)
			} else {
				lines = dedupe(lines, line)
			}
		}
	}
	e.lanes = lines
	return lines
}

// push appends n lines starting at first, touched with op and scope, cut
// into page pieces. The first piece extends the last span when it
// continues it.
func (e *Expander) push(dst []Span, op trace.Op, scope trace.Scope, first uint64, n uint32) []Span {
	for n > 0 {
		r := e.regions.Shared(first)
		p := clipToRegion(first, e.pageLines(first, n), r)
		if k := len(dst) - 1; k >= 0 && e.continues(&dst[k], op, scope, first, r != nil) {
			dst[k].N += p
		} else {
			dst = appendSpan(dst, first, p, op, scope, r != nil)
		}
		first, n = first+uint64(p)*LineBytes, n-p
	}
	return dst
}

// appendSpan appends a span, filling the new slot field by field: built as
// a composite literal, the span is assembled on the stack from byte stores
// and copied with one 16-byte load, which stalls on store forwarding.
func appendSpan(dst []Span, line uint64, n uint32, op trace.Op, scope trace.Scope, shared bool) []Span {
	dst = append(dst, Span{})
	s := &dst[len(dst)-1]
	s.Line, s.N, s.Op, s.Scope, s.Shared = line, n, op, scope, shared
	return dst
}

// continues reports whether line, shared or not, extends span s touched
// with op and scope: it is s's next line, inside s's page and on s's side
// of a shared region's end. Regions start on page boundaries, so within a
// page a line past a shared region's end is the only change of side.
func (e *Expander) continues(s *Span, op trace.Op, scope trace.Scope, line uint64, shared bool) bool {
	return s.N > 0 && s.Op == op && s.Scope == scope && s.Line+uint64(s.N)*LineBytes == line &&
		s.Line>>e.pageShift == line>>e.pageShift && s.Shared == shared
}

// pageLines returns how many of the n lines starting at first stay inside
// first's page.
func (e *Expander) pageLines(first uint64, n uint32) uint32 {
	return uint32(min(uint64(n), (1<<e.pageShift-first&(1<<e.pageShift-1))/LineBytes))
}

// dedupe appends line unless lines already holds it, by a linear scan of
// the instruction's lines so far (at most 31). It is the exact fallback of
// the scattered path's filter, run only for a lane whose filter bit is set.
func dedupe(lines []uint64, line uint64) []uint64 {
	for _, l := range lines {
		if l == line {
			return lines
		}
	}
	return append(lines, line)
}

// splitmix32 is a tiny deterministic mixer for scattered lane addresses.
func splitmix32(x uint32) uint32 {
	x += 0x9e3779b9
	x ^= x >> 16
	x *= 0x21f0aaad
	x ^= x >> 15
	x *= 0x735a2d97
	x ^= x >> 15
	return x
}
