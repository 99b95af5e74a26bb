package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randomAccesses builds a valid but structurally noisy stream: every field
// varies, so every column exercises its multi-run path.
func randomAccesses(n int, seed int64) []Access {
	rng := rand.New(rand.NewSource(seed))
	elems := []uint8{1, 2, 4, 8, 16}
	out := make([]Access, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(16) == 0 {
			out = append(out, Access{Op: OpFence, Scope: ScopeSys})
			continue
		}
		a := Access{
			Op:        Op(rng.Intn(3)),
			Scope:     Scope(rng.Intn(4)),
			Pattern:   Pattern(rng.Intn(3)),
			Threads:   uint8(1 + rng.Intn(32)),
			ElemBytes: elems[rng.Intn(len(elems))],
			Stride:    uint32(rng.Intn(1 << 20)),
			Seed:      rng.Uint32(),
			Addr:      rng.Uint64() >> 15,
		}
		if a.Pattern == PatScattered && a.Stride == 0 {
			a.Stride = 1
		}
		out = append(out, a)
	}
	return out
}

// stencilAccesses is the workload-shaped common case: constant fields,
// unit-stride addresses.
func stencilAccesses(n int) []Access {
	out := make([]Access, n)
	for i := range out {
		out[i] = Access{
			Op: OpLoad, Scope: ScopeWeak, Pattern: PatContiguous,
			Threads: 32, ElemBytes: 4, Addr: uint64(i) * 128,
		}
	}
	return out
}

func decodeAll(t *testing.T, c *ColumnAccesses) []Access {
	t.Helper()
	var dec BlockDecoder
	var out []Access
	for i := 0; i < c.NumBlocks(); i++ {
		accs, err := dec.Decode(c, i)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		out = append(out, accs...)
	}
	return out
}

func TestColumnRoundTrip(t *testing.T) {
	for _, n := range []int{1, 63, BlockAccesses - 1, BlockAccesses, BlockAccesses + 1, 3*BlockAccesses + 17} {
		for _, mk := range []func() []Access{
			func() []Access { return randomAccesses(n, int64(n)) },
			func() []Access { return stencilAccesses(n) },
		} {
			orig := mk()
			c := EncodeColumns(orig)
			if c.Len() != n {
				t.Fatalf("n=%d: Len = %d", n, c.Len())
			}
			if got := decodeAll(t, c); !reflect.DeepEqual(got, orig) {
				t.Fatalf("n=%d: round trip diverged", n)
			}
		}
	}
	if EncodeColumns(nil) != nil {
		t.Fatal("empty stream should encode to nil")
	}
}

func TestColumnCompression(t *testing.T) {
	// The workload-shaped streams must compress far beyond the 4x the
	// acceptance bar asks for; random streams must still round-trip, however
	// badly they compress.
	n := 200_000
	c := EncodeColumns(stencilAccesses(n))
	logical := uint64(n) * 24
	if ratio := float64(logical) / float64(c.CompressedBytes()); ratio < 100 {
		t.Fatalf("stencil stream compressed only %.1fx (logical %d, compressed %d)",
			ratio, logical, c.CompressedBytes())
	}
	if c.ResidentBytes() < c.CompressedBytes() {
		t.Fatal("resident bytes below compressed bytes")
	}
}

func TestColumnJSONRoundTrip(t *testing.T) {
	orig := randomAccesses(BlockAccesses+5, 7)
	c := EncodeColumns(orig)
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back ColumnAccesses
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if got := decodeAll(t, &back); !reflect.DeepEqual(got, orig) {
		t.Fatal("JSON round trip diverged")
	}
	// A decoded store marshals to the same bytes again.
	data2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-marshaled JSON differs from the original")
	}
}

// encodeBlock encodes 1..BlockAccesses records as a single block.
func encodeBlock(accs []Access) []byte { return EncodeColumns(accs).blocks[0] }

// decodeOne decodes one block with a fresh decoder.
func decodeOne(data []byte) ([]Access, error) {
	var d BlockDecoder
	runs, _, err := d.decodeRuns(data)
	if err != nil {
		return nil, err
	}
	return d.fill(runs), nil
}

// wire builds raw block bytes from uvarints; small seed and addr deltas are
// zigzag-coded, so a delta of 0 is the uvarint 0.
func wire(vals ...uint64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestDecodeBlockRejectsCorrupt(t *testing.T) {
	blk := encodeBlock(randomAccesses(500, 3))
	if _, err := decodeOne(blk); err != nil {
		t.Fatalf("valid block rejected: %v", err)
	}
	// Truncations at every length and single-byte flips at every position
	// must error or decode to something re-encodable — never panic.
	for cut := 0; cut < len(blk); cut++ {
		if _, err := decodeOne(blk[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for i := 0; i < len(blk); i++ {
		c := append([]byte{}, blk...)
		c[i] ^= 0xff
		out, err := decodeOne(c)
		if err != nil {
			continue
		}
		if _, err := decodeOne(encodeBlock(out)); err != nil {
			t.Fatalf("flip at %d: accepted block does not re-encode: %v", i, err)
		}
	}
}

// TestDecodeBlockErrorClasses covers every class of corruption the block
// decoder rejects, each with the error it must report. shape is one valid
// record's six shape columns (op, scope, pattern, threads, elem, stride).
func TestDecodeBlockErrorClasses(t *testing.T) {
	shape := []uint64{0, 1, 0, 1, 0, 1, 32, 1, 4, 1, 0, 1}
	one := func(tail ...uint64) []byte { return wire(append(append([]uint64{1}, shape...), tail...)...) }
	if _, err := decodeOne(one(0, 1, 0, 1)); err != nil {
		t.Fatalf("valid one-record block rejected: %v", err)
	}
	badVarint := bytes.Repeat([]byte{0xff}, 11)
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "block count: truncated"},
		{"bad count varint", badVarint, "block count: bad uvarint"},
		{"zero count", wire(0), "block count 0 out of range"},
		{"huge count", wire(BlockAccesses + 1), "out of range 1..4096"},
		{"no columns", wire(5), "op column: value: truncated"},
		{"no run", wire(5, 0), "op column: run: truncated"},
		{"bad run varint", append(wire(5, 0), badVarint...), "op column: run: bad uvarint"},
		{"zero run", wire(2, 0, 0), "op column: run 0 overflows 2 remaining"},
		{"overrun run", wire(2, 0, 3), "op column: run 3 overflows 2 remaining"},
		{"second run overruns", wire(3, 0, 2, 1, 2), "op column: run 2 overflows 1 remaining"},
		{"op exceeds a byte", wire(1, 256, 1), "op column: value 256 exceeds a byte"},
		{"elem exceeds a byte", wire(1, 0, 1, 0, 1, 0, 1, 32, 1, 300, 1), "elem column: value 300 exceeds a byte"},
		{"stride exceeds 32 bits", wire(1, 0, 1, 0, 1, 0, 1, 32, 1, 4, 1, 1<<32, 1), "stride 4294967296 exceeds 32 bits"},
		{"no seed", one(), "seed column: value: truncated"},
		{"bad seed varint", append(one(), badVarint...), "seed column: value: bad varint"},
		{"zero seed run", one(0, 0), "seed column: run 0 overflows 1 remaining"},
		{"overrun seed run", one(0, 2), "seed column: run 2 overflows 1 remaining"},
		{"no addr", one(0, 1), "addr column: value: truncated"},
		{"no addr run", one(0, 1, 0), "addr column: run: truncated"},
		{"zero addr run", one(0, 1, 0, 0), "addr column: run 0 overflows 1 remaining"},
		{"overrun addr run", one(0, 1, 0, 2), "addr column: run 2 overflows 1 remaining"},
		{"trailing bytes", one(0, 1, 0, 1, 0), "1 trailing bytes after block"},
		{"invalid op", wire(1, 4, 1, 0, 1, 0, 1, 32, 1, 4, 1, 0, 1, 0, 1, 0, 1), "block record 0: trace: invalid op 4"},
		{"invalid scope", wire(1, 0, 1, 4, 1, 0, 1, 32, 1, 4, 1, 0, 1, 0, 1, 0, 1), "block record 0: trace: invalid scope 4"},
		{"zero threads", wire(1, 0, 1, 0, 1, 0, 1, 0, 1, 4, 1, 0, 1, 0, 1, 0, 1), "block record 0: trace: 0 active lanes"},
		{"33 threads", wire(1, 0, 1, 0, 1, 0, 1, 33, 1, 4, 1, 0, 1, 0, 1, 0, 1), "block record 0: trace: 33 active lanes"},
		{"odd elem", wire(1, 0, 1, 0, 1, 0, 1, 32, 1, 3, 1, 0, 1, 0, 1, 0, 1), "block record 0: trace: element size 3"},
		{"invalid pattern", wire(1, 0, 1, 0, 1, 3, 1, 32, 1, 4, 1, 0, 1, 0, 1, 0, 1), "block record 0: trace: invalid pattern 3"},
		{"empty scatter window", wire(1, 0, 1, 0, 1, 2, 1, 32, 1, 4, 1, 0, 1, 0, 1, 0, 1), "block record 0: trace: scattered access with empty window"},
	} {
		_, err := decodeOne(tc.data)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

// TestDecodeBlockNamesFirstInvalidRecord checks that per-segment validation
// reports the same record index per-record validation would: the first
// invalid record, even when it sits in the middle of every other column's
// run or after many short valid segments.
func TestDecodeBlockNamesFirstInvalidRecord(t *testing.T) {
	midRun := stencilAccesses(BlockAccesses)
	for i := 2999; i < 3500; i++ {
		midRun[i].Threads = 0
	}
	afterSegment := stencilAccesses(BlockAccesses)
	for i := 1000; i < BlockAccesses; i++ {
		afterSegment[i].Pattern = PatScattered
		afterSegment[i].Seed = uint32(i) * 2654435761
		afterSegment[i].Stride = 8
	}
	afterSegment[1700].Stride = 0
	short := shortSegmentAccesses(BlockAccesses)
	short[4000].ElemBytes = 5
	for _, tc := range []struct {
		name string
		accs []Access
		want int
	}{
		{"threads 0 mid-run", midRun, 2999},
		{"scattered stride 0 after a valid segment", afterSegment, 1700},
		{"after many short segments", short, 4000},
	} {
		_, err := decodeOne(encodeBlock(tc.accs))
		want := fmt.Sprintf("block record %d:", tc.want)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want it to name %q", tc.name, err, want)
		}
		// The same verdict through the public decoder.
		var dec BlockDecoder
		if _, err := dec.Decode(EncodeColumns(tc.accs), 0); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Decode error %v, want it to name %q", tc.name, err, want)
		}
	}
	want := shortSegmentAccesses(BlockAccesses)
	got, err := decodeOne(encodeBlock(want))
	if err != nil {
		t.Fatalf("valid short-segment block rejected: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("short-segment block round trip diverged")
	}
}

// TestDecodeRunsOnePerAppendRun: the encoder writes an AppendRun as a
// first record plus a fixed-step tail, and the decoder hands it back as one
// Run per block it touches, so replay expands a contiguous sweep in O(1).
func TestDecodeRunsOnePerAppendRun(t *testing.T) {
	ld := Access{Op: OpLoad, Pattern: PatContiguous, Threads: 32, ElemBytes: 4, Addr: 1 << 33}
	st := ld
	st.Op, st.Addr = OpStore, 2<<33
	var e ColumnEncoder
	e.AppendRun(ld, 1000, 128)
	e.AppendRun(st, 3000, 128)
	e.AppendRun(ld, 200, 128) // 96 records end block 0, 104 start block 1
	c := e.Finish()
	tail := ld
	tail.Addr += 96 * 128
	for i, want := range [][]Run{
		{{A: ld, N: 1000, AddrStep: 128}, {A: st, N: 3000, AddrStep: 128}, {A: ld, N: 96, AddrStep: 128}},
		{{A: tail, N: 104, AddrStep: 128}},
	} {
		var d BlockDecoder
		got, err := d.DecodeRuns(c, i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("block %d runs %+v, want %+v", i, got, want)
		}
	}
}

// shortSegmentAccesses is a valid stream whose shape columns change every
// one to three records, so decoding walks thousands of short segments while
// the address and seed columns keep their own, differently aligned runs.
func shortSegmentAccesses(n int) []Access {
	out := make([]Access, n)
	for i := range out {
		out[i] = Access{
			Op: Op(i / 3 % 3), Scope: Scope(i / 2 % 4), Pattern: PatStrided,
			Threads: uint8(1 + i%32), ElemBytes: 4, Stride: uint32(i / 5 % 7),
			Seed: uint32(i / 11), Addr: uint64(i/7) * 256,
		}
	}
	return out
}

// jsonSample is sampleProgram as decoded from its JSON rendering, so its
// column blocks come from UnmarshalJSON rather than from an encoder.
func jsonSample(t *testing.T) *Recorded {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, sampleProgram()); err != nil {
		t.Fatal(err)
	}
	rec, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestKernelEachBlockBothForms(t *testing.T) {
	accs := randomAccesses(2*BlockAccesses+9, 11)
	resident := Kernel{GPU: 0, Name: "k", Col: EncodeColumns(accs)}
	data, err := json.Marshal(resident.Col)
	if err != nil {
		t.Fatal(err)
	}
	decoded := Kernel{GPU: 0, Name: "k", Col: &ColumnAccesses{}}
	if err := json.Unmarshal(data, decoded.Col); err != nil {
		t.Fatal(err)
	}
	var dec BlockDecoder
	for name, k := range map[string]Kernel{"resident": resident, "decoded": decoded} {
		if k.NumAccesses() != len(accs) {
			t.Fatalf("%s: NumAccesses %d, want %d", name, k.NumAccesses(), len(accs))
		}
		var got []Access
		if err := k.EachBlock(&dec, func(a []Access) bool {
			got = append(got, a...)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, accs) {
			t.Fatalf("%s: EachBlock diverged from the encoded stream", name)
		}
		// Early stop.
		calls := 0
		if err := k.EachBlock(&dec, func([]Access) bool { calls++; return false }); err != nil {
			t.Fatal(err)
		}
		if calls != 1 {
			t.Fatalf("%s: early stop made %d calls", name, calls)
		}
	}
	if (&Kernel{}).EachBlock(&dec, func([]Access) bool { t.Fatal("kernel without accesses yielded"); return true }) != nil {
		t.Fatal("kernel without accesses failed")
	}
}

func TestBinaryCodecAgnosticToStorage(t *testing.T) {
	// The wire format must not depend on where the blocks came from.
	var encoded, decoded bytes.Buffer
	if err := Encode(&encoded, sampleProgram()); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&decoded, jsonSample(t)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded.Bytes(), decoded.Bytes()) {
		t.Fatal("binary encoding differs between encoded and JSON-decoded kernels")
	}
}
