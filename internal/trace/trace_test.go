package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleProgram() *Recorded {
	return &Recorded{
		M: Meta{
			Name:    "sample",
			NumGPUs: 2,
			Regions: []Region{
				{Name: "a", Kind: RegionShared, Base: 0, Size: 1 << 20, Writers: []int{0}, Readers: []int{0, 1}},
				{Name: "b", Kind: RegionPrivate, Base: 1 << 20, Size: 1 << 16},
			},
			ProfilePhases:    1,
			WorkingSetPerGPU: 1 << 20,
		},
		Ph: []Phase{
			{
				Index: 0,
				Label: "iter0",
				Kernels: []Kernel{
					{
						GPU: 0, Name: "k0", ComputeOps: 1000,
						Col: EncodeColumns([]Access{
							{Op: OpLoad, Scope: ScopeWeak, Pattern: PatContiguous, Threads: 32, ElemBytes: 4, Addr: 0},
							{Op: OpStore, Scope: ScopeWeak, Pattern: PatContiguous, Threads: 32, ElemBytes: 4, Addr: 128},
							{Op: OpAtomic, Scope: ScopeGPU, Pattern: PatScattered, Threads: 16, ElemBytes: 4, Stride: 64, Seed: 7, Addr: 4096},
							{Op: OpFence, Scope: ScopeSys},
						}),
					},
					{GPU: 1, Name: "k1", ComputeOps: 500, Col: EncodeColumns([]Access{
						{Op: OpLoad, Scope: ScopeWeak, Pattern: PatStrided, Threads: 8, ElemBytes: 8, Stride: 256, Addr: 1 << 20},
					})},
				},
			},
			{Index: 1, Label: "iter1", Kernels: []Kernel{
				{GPU: 0, Name: "k0", ComputeOps: 1000, Col: EncodeColumns([]Access{
					{Op: OpStore, Scope: ScopeWeak, Pattern: PatContiguous, Threads: 32, ElemBytes: 4, Addr: 256},
				})},
			}},
		},
	}
}

func TestAccessBytes(t *testing.T) {
	a := Access{Op: OpLoad, Threads: 32, ElemBytes: 4}
	if a.Bytes() != 128 {
		t.Fatalf("Bytes = %d, want 128", a.Bytes())
	}
	f := Access{Op: OpFence}
	if f.Bytes() != 0 {
		t.Fatal("fence should move no bytes")
	}
}

func TestAccessValidate(t *testing.T) {
	good := Access{Op: OpLoad, Threads: 32, ElemBytes: 4}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Access{
		{Op: OpLoad, Threads: 0, ElemBytes: 4},
		{Op: OpLoad, Threads: 33, ElemBytes: 4},
		{Op: OpLoad, Threads: 1, ElemBytes: 3},
		{Op: OpLoad, Threads: 1, ElemBytes: 4, Pattern: PatScattered, Stride: 0},
		{Op: Op(9), Threads: 1, ElemBytes: 4},
		{Op: OpLoad, Scope: Scope(9), Threads: 1, ElemBytes: 4},
		{Op: OpLoad, Threads: 1, ElemBytes: 4, Pattern: Pattern(9)},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("case %d: invalid access %+v accepted", i, a)
		}
	}
	// Fences are exempt from lane checks.
	if err := (Access{Op: OpFence, Scope: ScopeSys}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRegionContains(t *testing.T) {
	r := Region{Base: 100, Size: 50}
	for _, tc := range []struct {
		va   uint64
		want bool
	}{{99, false}, {100, true}, {149, true}, {150, false}} {
		if got := r.Contains(tc.va); got != tc.want {
			t.Errorf("Contains(%d) = %v, want %v", tc.va, got, tc.want)
		}
	}
}

func TestMetaRegionOf(t *testing.T) {
	m := sampleProgram().M
	if r := m.RegionOf(0); r == nil || r.Name != "a" {
		t.Fatalf("RegionOf(0) = %v", r)
	}
	if r := m.RegionOf(1 << 20); r == nil || r.Name != "b" {
		t.Fatalf("RegionOf(1MB) = %v", r)
	}
	if r := m.RegionOf(1<<20 + 1<<16); r != nil {
		t.Fatalf("RegionOf(gap) = %v, want nil", r)
	}
}

func TestMetaValidate(t *testing.T) {
	m := sampleProgram().M
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	overlap := Meta{NumGPUs: 1, Regions: []Region{
		{Name: "x", Base: 0, Size: 100},
		{Name: "y", Base: 50, Size: 100},
	}}
	if err := overlap.Validate(); err == nil {
		t.Fatal("overlapping regions accepted")
	}
	empty := Meta{NumGPUs: 1, Regions: []Region{{Name: "x", Base: 0, Size: 0}}}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty region accepted")
	}
	zero := Meta{NumGPUs: 0}
	if err := zero.Validate(); err == nil {
		t.Fatal("zero GPUs accepted")
	}
	// A region whose end wraps past 2^64 covers [0, 50) too; the overlap
	// test alone, computing ends modulo 2^64, sees neither overlap.
	wrap := Meta{NumGPUs: 1, Regions: []Region{
		{Name: "x", Base: 0, Size: 100},
		{Name: "y", Base: 1<<64 - 50, Size: 100},
	}}
	if err := wrap.Validate(); err == nil {
		t.Fatal("wrapping region accepted")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(sampleProgram())
	if s.Phases != 2 || s.Kernels != 3 {
		t.Fatalf("phases/kernels = %d/%d", s.Phases, s.Kernels)
	}
	if s.Loads != 2 || s.Stores != 2 || s.Atomics != 1 || s.Fences != 1 {
		t.Fatalf("op counts = %+v", s)
	}
	if s.SysScoped != 1 {
		t.Fatalf("sys scoped = %d, want 1", s.SysScoped)
	}
	wantBytes := uint64(32*4 + 32*4 + 16*4 + 8*8 + 32*4)
	if s.Bytes != wantBytes {
		t.Fatalf("bytes = %d, want %d", s.Bytes, wantBytes)
	}
}

func TestCollectDeepCopies(t *testing.T) {
	orig := sampleProgram()
	cp := Collect(orig)
	cp.Ph[0].Kernels[0].Name = "renamed"
	if orig.Ph[0].Kernels[0].Name == "renamed" {
		t.Fatal("Collect aliased the kernel slice")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	orig := sampleProgram()
	var buf bytes.Buffer
	if err := Encode(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("round trip mismatch:\norig %+v\ngot  %+v", orig, got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := sampleProgram()
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatal("JSON round trip mismatch")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("NOTATRACE..."))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated valid prefix.
	var buf bytes.Buffer
	if err := Encode(&buf, sampleProgram()); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Decode(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

// Property: any structurally valid random trace round-trips bit-exactly
// through the binary codec.
func TestBinaryRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randomAccess := func() Access {
		a := Access{
			Op:        Op(rng.Intn(4)),
			Scope:     Scope(rng.Intn(4)),
			Pattern:   Pattern(rng.Intn(3)),
			Threads:   uint8(1 + rng.Intn(32)),
			ElemBytes: []uint8{4, 8}[rng.Intn(2)],
			Stride:    uint32(1 + rng.Intn(1024)),
			Seed:      rng.Uint32(),
			Addr:      rng.Uint64() % (1 << 48),
		}
		return a
	}
	f := func(nPhases, nKernels, nAcc uint8) bool {
		p := &Recorded{M: Meta{Name: "prop", NumGPUs: 4}}
		for i := 0; i < int(nPhases%4)+1; i++ {
			ph := Phase{Index: i}
			for k := 0; k < int(nKernels%3)+1; k++ {
				var accs []Access
				for a := 0; a < int(nAcc%50); a++ {
					accs = append(accs, randomAccess())
				}
				ph.Kernels = append(ph.Kernels, Kernel{GPU: k % 4, Name: "k", ComputeOps: rng.Uint64() % 1e9, Col: EncodeColumns(accs)})
			}
			p.Ph = append(p.Ph, ph)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, p); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(p, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBinarySmallerThanJSON(t *testing.T) {
	p := sampleProgram()
	var bin, js bytes.Buffer
	if err := Encode(&bin, p); err != nil {
		t.Fatal(err)
	}
	if err := EncodeJSON(&js, p); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= js.Len() {
		t.Fatalf("binary (%d B) not smaller than JSON (%d B)", bin.Len(), js.Len())
	}
}

// TestEncodeAllocsIndependentOfRecords: the binary encoder writes varints
// into the output buffer in place, so encoding a 10k-record kernel costs a
// fixed handful of allocations (meta JSON, the writer, block decoding), not
// a few per record.
func TestEncodeAllocsIndependentOfRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	accs := make([]Access, 10000)
	for i := range accs {
		accs[i] = Access{Op: Op(rng.Intn(4)), Scope: ScopeWeak, Pattern: PatScattered,
			Threads: 32, ElemBytes: 4, Stride: uint32(1 + rng.Intn(4096)), Seed: rng.Uint32(),
			Addr: rng.Uint64() % (1 << 40)}
	}
	p := &Recorded{M: Meta{Name: "allocs", NumGPUs: 1}, Ph: []Phase{{
		Kernels: []Kernel{{Name: "k", Col: EncodeColumns(accs)}},
	}}}
	allocs := testing.AllocsPerRun(5, func() {
		if err := Encode(io.Discard, p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Errorf("Encode of %d records allocates %.0f times, want O(1)", len(accs), allocs)
	}
}
