package engine

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"gps/internal/trace"
)

// expand returns the lines of one instruction, in order.
func expand(e *Expander, a trace.Access) []uint64 {
	return spanLines(e.AppendSpans(nil, trace.Run{A: a, N: 1}))
}

// spanLines lists the lines of spans, in order.
func spanLines(spans []Span) []uint64 {
	var lines []uint64
	for _, s := range spans {
		for i := uint32(0); i < s.N; i++ {
			lines = append(lines, s.Line+uint64(i)*LineBytes)
		}
	}
	return lines
}

func TestExpandContiguousSingleLine(t *testing.T) {
	e := NewExpander(NewRegionTable(nil), 64<<10)
	// 32 lanes x 4 B starting line-aligned: exactly one line.
	lines := expand(e, trace.Access{Op: trace.OpLoad, Pattern: trace.PatContiguous,
		Threads: 32, ElemBytes: 4, Addr: 256})
	if len(lines) != 1 || lines[0] != 256 {
		t.Fatalf("lines = %v, want [256]", lines)
	}
}

func TestExpandContiguousStraddle(t *testing.T) {
	e := NewExpander(NewRegionTable(nil), 64<<10)
	// Misaligned base straddles two lines.
	lines := expand(e, trace.Access{Op: trace.OpLoad, Pattern: trace.PatContiguous,
		Threads: 32, ElemBytes: 4, Addr: 64})
	if len(lines) != 2 || lines[0] != 0 || lines[1] != 128 {
		t.Fatalf("lines = %v, want [0 128]", lines)
	}
	// 32 lanes x 8 B = 256 B aligned: two lines.
	lines = expand(e, trace.Access{Op: trace.OpLoad, Pattern: trace.PatContiguous,
		Threads: 32, ElemBytes: 8, Addr: 0})
	if len(lines) != 2 {
		t.Fatalf("wide access lines = %v", lines)
	}
}

func TestExpandStrided(t *testing.T) {
	e := NewExpander(NewRegionTable(nil), 64<<10)
	// Stride 256: every lane on its own line.
	lines := expand(e, trace.Access{Op: trace.OpLoad, Pattern: trace.PatStrided,
		Threads: 8, ElemBytes: 4, Stride: 256, Addr: 0})
	if len(lines) != 8 {
		t.Fatalf("got %d lines, want 8", len(lines))
	}
	// Stride 32: four lanes share each line.
	lines = expand(e, trace.Access{Op: trace.OpLoad, Pattern: trace.PatStrided,
		Threads: 8, ElemBytes: 4, Stride: 32, Addr: 0})
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2 (coalesced)", len(lines))
	}
}

func TestExpandScatteredDeterministicAndBounded(t *testing.T) {
	e := NewExpander(NewRegionTable(nil), 64<<10)
	a := trace.Access{Op: trace.OpAtomic, Pattern: trace.PatScattered,
		Threads: 32, ElemBytes: 4, Stride: 1000, Seed: 42, Addr: 128 * 4096}
	first := expand(e, a)
	second := expand(e, a)
	if len(first) != len(second) {
		t.Fatal("scatter not deterministic")
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("scatter not deterministic")
		}
	}
	if len(first) == 0 || len(first) > 32 {
		t.Fatalf("scatter produced %d lines", len(first))
	}
	for _, l := range first {
		if l%128 != 0 {
			t.Fatalf("line %d not aligned", l)
		}
		idx := (l - 128*4096) / 128
		if idx >= 1000 {
			t.Fatalf("line index %d outside window", idx)
		}
	}
}

func TestExpandScatteredNoDuplicates(t *testing.T) {
	e := NewExpander(NewRegionTable(nil), 64<<10)
	lines := expand(e, trace.Access{Op: trace.OpStore, Pattern: trace.PatScattered,
		Threads: 32, ElemBytes: 4, Stride: 4, Seed: 9, Addr: 0})
	// Window of 4 lines with 32 lanes: after coalescing at most 4 lines.
	if len(lines) > 4 {
		t.Fatalf("duplicates survived coalescing: %v", lines)
	}
	seen := map[uint64]bool{}
	for _, l := range lines {
		if seen[l] {
			t.Fatalf("duplicate line %d", l)
		}
		seen[l] = true
	}
}

func TestExpandScatteredZeroStride(t *testing.T) {
	e := NewExpander(NewRegionTable(nil), 64<<10)
	// A zero window would be a divide-by-zero; trace.Validate rejects it but
	// the expander must survive hand-built traces: degenerate to a single line.
	lines := expand(e, trace.Access{Op: trace.OpStore, Pattern: trace.PatScattered,
		Threads: 32, ElemBytes: 4, Stride: 0, Seed: 7, Addr: 128 * 10})
	if len(lines) != 1 || lines[0] != 128*10 {
		t.Fatalf("lines = %v, want [%d]", lines, 128*10)
	}
}

func TestExpandFence(t *testing.T) {
	e := NewExpander(NewRegionTable(nil), 64<<10)
	if lines := expand(e, trace.Access{Op: trace.OpFence, Scope: trace.ScopeSys}); len(lines) != 0 {
		t.Fatal("fence should touch no lines")
	}
}

// referenceLaneLines is the coalescer's per-lane expansion written plainly:
// each lane's line by a 64-bit modulo or a stride, kept when no earlier lane
// of the instruction presented it (a linear scan).
func referenceLaneLines(a trace.Access) []uint64 {
	var lines []uint64
	for lane := uint64(0); lane < uint64(a.Threads); lane++ {
		var line uint64
		switch a.Pattern {
		case trace.PatStrided:
			line = (a.Addr + lane*uint64(a.Stride)) &^ (LineBytes - 1)
		case trace.PatScattered:
			window := max(uint64(a.Stride), 1)
			h := splitmix32(a.Seed + uint32(lane)*0x9e3779b9)
			line = a.Addr&^(LineBytes-1) + uint64(h)%window*LineBytes
		}
		dup := false
		for _, l := range lines {
			dup = dup || l == line
		}
		if !dup {
			lines = append(lines, line)
		}
	}
	return lines
}

// TestLaneLinesMatchReference checks laneLines element by element against
// the plain expansion over seeded random strided and scattered accesses:
// every lane count; scattered windows from degenerate through collision-
// heavy to either side of the filter's 4096 indices and the widest; strides from 0 through
// sub-line, line-sized and the widest, with addresses near 2^64 so strided
// lanes wrap.
func TestLaneLinesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := NewExpander(NewRegionTable(nil), 64<<10)
	windows := []uint32{0, 1, 255, 256, 257, 4096, 4097, 8192, 1<<32 - 1}
	for w := uint32(2); w <= 64; w++ {
		windows = append(windows, w)
	}
	strides := []uint32{0, 128, 129, 4096, 1<<32 - 1}
	for s := uint32(1); s <= 127; s++ {
		strides = append(strides, s)
	}
	addr := func() uint64 {
		if rng.Intn(2) == 0 {
			return -uint64(rng.Int63n(1 << 38)) // near 2^64: strided lanes wrap
		}
		return rng.Uint64()
	}
	check := func(a trace.Access) {
		t.Helper()
		got, want := e.laneLines(a), referenceLaneLines(a)
		if !slices.Equal(got, want) {
			t.Fatalf("%+v:\nlaneLines %v\nreference %v", a, got, want)
		}
	}
	for threads := uint8(1); threads <= 32; threads++ {
		for _, w := range windows {
			for i := 0; i < 50; i++ {
				check(trace.Access{Op: trace.OpStore, Pattern: trace.PatScattered, Threads: threads,
					ElemBytes: 4, Stride: w, Seed: rng.Uint32(), Addr: addr()})
			}
		}
		for _, s := range strides {
			for i := 0; i < 10; i++ {
				check(trace.Access{Op: trace.OpLoad, Pattern: trace.PatStrided, Threads: threads,
					ElemBytes: 4, Stride: s, Addr: addr()})
			}
		}
	}
}

// Property: every expanded line is line-aligned, unique, and within the
// instruction's reachable footprint.
func TestExpandProperty(t *testing.T) {
	e := NewExpander(NewRegionTable(nil), 64<<10)
	f := func(op uint8, pat uint8, threads uint8, stride uint32, seed uint32, addr uint64) bool {
		a := trace.Access{
			Op:      trace.Op(op % 3),
			Pattern: trace.Pattern(pat % 3),
			Threads: threads%32 + 1, ElemBytes: 4,
			Stride: stride%8192 + 1, Seed: seed,
			Addr: addr % (1 << 40),
		}
		lines := expand(e, a)
		if len(lines) == 0 || len(lines) > 64 {
			return false
		}
		seen := map[uint64]bool{}
		for _, l := range lines {
			if l%128 != 0 || seen[l] {
				return false
			}
			seen[l] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestExpanderCutsPieces checks that spans come out cut at page ends and at
// a shared region's end (which need not be line aligned), each marked shared
// or not, and that a cut span resumes merging with the next instruction's
// lines within its piece.
func TestExpanderCutsPieces(t *testing.T) {
	regions := []trace.Region{
		{Name: "s", Kind: trace.RegionShared, Base: 1 << 33, Size: 2<<12 + 300},
		{Name: "p", Kind: trace.RegionPrivate, Base: 2 << 33, Size: 1 << 20},
	}
	e := NewExpander(NewRegionTable(regions), 4<<10)
	store := func(addr uint64, lines int) trace.Run {
		return trace.Run{A: trace.Access{Op: trace.OpStore, Pattern: trace.PatContiguous,
			Threads: 32, ElemBytes: 4, Addr: addr}, N: uint32(lines), AddrStep: 128}
	}
	// 62 lines from line 8 of the region's first page: the rest of page 0
	// (24 lines), page 1 (32), page 2 up to the line holding the region's
	// last byte (3), then 3 lines past the region's end; then one line that
	// continues the last piece, and one in the private region.
	spans := e.AppendSpans(nil, store(1<<33+8*128, 62))
	spans = e.AppendSpans(spans, store(1<<33+2<<12+6*128, 1))
	spans = e.AppendSpans(spans, store(2<<33, 1))
	want := []Span{
		{Line: 1<<33 + 8*128, N: 24, Op: trace.OpStore, Shared: true},
		{Line: 1<<33 + 1<<12, N: 32, Op: trace.OpStore, Shared: true},
		{Line: 1<<33 + 2<<12, N: 3, Op: trace.OpStore, Shared: true},
		{Line: 1<<33 + 2<<12 + 3*128, N: 4, Op: trace.OpStore},
		{Line: 2 << 33, N: 1, Op: trace.OpStore},
	}
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("spans = %+v\nwant    %+v", spans, want)
	}
}

func TestRegionTableLookup(t *testing.T) {
	regions := []trace.Region{
		{Name: "a", Base: 1 << 33, Size: 1 << 20},
		{Name: "b", Base: 2 << 33, Size: 1 << 22},
	}
	rt := NewRegionTable(regions)
	if r := rt.Lookup(1<<33 + 100); r == nil || r.Name != "a" {
		t.Fatalf("Lookup a = %v", r)
	}
	if r := rt.Lookup(2<<33 + (1<<22 - 1)); r == nil || r.Name != "b" {
		t.Fatalf("Lookup b end = %v", r)
	}
	if r := rt.Lookup(2<<33 + 1<<22); r != nil {
		t.Fatal("Lookup past region end should be nil")
	}
	if r := rt.Lookup(5 << 33); r != nil {
		t.Fatal("Lookup empty slot should be nil")
	}
}

func TestRegionTableRejectsMisaligned(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned region accepted")
		}
	}()
	NewRegionTable([]trace.Region{{Name: "x", Base: 100, Size: 10}})
}

func BenchmarkExpandContiguous(b *testing.B) {
	e := NewExpander(NewRegionTable(nil), 64<<10)
	a := trace.Access{Op: trace.OpLoad, Pattern: trace.PatContiguous, Threads: 32, ElemBytes: 4, Addr: 0}
	var spans []Span
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Addr = uint64(i%4096) * 128
		spans = e.AppendSpans(spans[:0], trace.Run{A: a, N: 1})
	}
}

// BenchmarkExpandScattered expands the workloads' scattered shape: a run
// of 64 full-warp records over a 4096-line window whose seeds step by the
// generator's 2654435761, and reports lines per second.
func BenchmarkExpandScattered(b *testing.B) {
	e := NewExpander(NewRegionTable(nil), 64<<10)
	r := trace.Run{A: trace.Access{Op: trace.OpAtomic, Pattern: trace.PatScattered, Threads: 32, ElemBytes: 4,
		Stride: 4096, Addr: 1 << 33}, N: 64, SeedStep: 2654435761}
	var spans []Span
	lines := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.A.Seed = uint32(i) * 64 * r.SeedStep
		spans = e.AppendSpans(spans[:0], r)
		for _, s := range spans {
			lines += int(s.N)
		}
	}
	b.ReportMetric(float64(lines)/b.Elapsed().Seconds(), "lines/s")
}
