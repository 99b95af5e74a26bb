package engine

import "gps/internal/trace"

// Span is n consecutive cache lines, starting at line-aligned address Line,
// that one GPU touches with one op and scope, in order: the lines Line,
// Line+LineBytes, ..., Line+(N-1)*LineBytes (wrapping). A fence is a span
// with N == 0.
type Span struct {
	Line  uint64
	N     uint32
	Op    trace.Op
	Scope trace.Scope
}

// IsWrite reports whether the span's lines are stored to.
func (s Span) IsWrite() bool { return s.Op == trace.OpStore || s.Op == trace.OpAtomic }

// Expander models the SM-level memory coalescer: it turns warp instructions
// into the distinct cache lines the memory system sees, as spans. Lanes of
// one instruction that fall in the same cache block merge — this is why
// well-behaved stencil codes like Jacobi present each line exactly once to
// the GPS write queue and see a 0% queue hit rate (Section 7.4: "all spatial
// locality is fully captured in the coalescer internal to the SM").
type Expander struct {
	lineBytes uint64
	lanes     []uint64 // one instruction's coalesced lines, per-lane path
}

// NewExpander builds an expander for the given cache block size.
func NewExpander(lineBytes uint64) *Expander {
	return &Expander{lineBytes: lineBytes, lanes: make([]uint64, 0, 32)}
}

// AppendSpans appends the coalesced lines of every record of r to dst, in
// record order, and returns the extended slice. A line that continues the
// last span (next address, same op and scope) extends it, so dst is the
// shortest span encoding of the line sequence. A contiguous run whose
// records tile whole consecutive lines costs O(1); other records expand
// per lane.
func (e *Expander) AppendSpans(dst []Span, r trace.Run) []Span {
	a := r.A
	if a.Op == trace.OpFence {
		for i := uint32(0); i < r.N; i++ {
			dst = append(dst, Span{Op: a.Op, Scope: a.Scope})
		}
		return dst
	}
	if a.Pattern == trace.PatContiguous {
		// Records with the same in-line offset touch the same number of
		// lines; when the step is exactly that many lines, the run tiles one
		// range. The range must not wrap, as no record's range does.
		first, n := e.contiguous(a)
		if r.N == 1 || r.AddrStep == uint64(n)*e.lineBytes && first+uint64(r.N)*r.AddrStep > first {
			return e.push(dst, a, first, r.N*n)
		}
		for i := uint32(0); i < r.N; i++ {
			first, n := e.contiguous(r.At(i))
			dst = e.push(dst, a, first, n)
		}
		return dst
	}
	for i := uint32(0); i < r.N; i++ {
		for _, line := range e.laneLines(r.At(i)) {
			dst = e.push(dst, a, line, 1)
		}
	}
	return dst
}

// contiguous returns the first line and the line count of a contiguous
// instruction. A range whose end wraps past 2^64 touches no line.
func (e *Expander) contiguous(a trace.Access) (first uint64, n uint32) {
	bytes := uint64(a.Threads) * uint64(a.ElemBytes)
	first = a.Addr &^ (e.lineBytes - 1)
	last := (a.Addr + bytes - 1) &^ (e.lineBytes - 1)
	if last < first {
		return first, 0
	}
	return first, uint32((last-first)/e.lineBytes + 1)
}

// laneLines returns the distinct lines of a strided or scattered
// instruction, in lane order. The slice is reused by the next call.
func (e *Expander) laneLines(a trace.Access) []uint64 {
	lines := e.lanes[:0]
	switch a.Pattern {
	case trace.PatStrided:
		for lane := 0; lane < int(a.Threads); lane++ {
			va := a.Addr + uint64(lane)*uint64(a.Stride)
			lines = dedupe(lines, va&^(e.lineBytes-1))
		}
	case trace.PatScattered:
		// trace.Validate rejects Stride == 0, but the expander must also hold
		// up against hand-built traces that skipped validation: an empty
		// window degenerates to a single line rather than a % 0 panic.
		window := uint64(a.Stride)
		if window == 0 {
			window = 1
		}
		for lane := 0; lane < int(a.Threads); lane++ {
			h := splitmix32(a.Seed + uint32(lane)*0x9e3779b9)
			lineIdx := uint64(h) % window
			lines = dedupe(lines, a.Addr&^(e.lineBytes-1)+lineIdx*e.lineBytes)
		}
	}
	e.lanes = lines
	return lines
}

// push appends n lines starting at first, touched by a's op and scope,
// extending the last span when they continue it.
func (e *Expander) push(dst []Span, a trace.Access, first uint64, n uint32) []Span {
	if n == 0 {
		return dst
	}
	if k := len(dst) - 1; k >= 0 {
		if s := &dst[k]; s.N > 0 && s.Op == a.Op && s.Scope == a.Scope && s.Line+uint64(s.N)*e.lineBytes == first {
			s.N += n
			return dst
		}
	}
	return append(dst, Span{Line: first, N: n, Op: a.Op, Scope: a.Scope})
}

// dedupe appends a line unless the coalescer already emitted it for this
// instruction (linear scan: at most 32 entries).
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
