package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// FuzzDecodeTrace replaces the old hand-rolled byte-flip loop with native
// fuzzing: the decoder must never panic on arbitrary input, and anything it
// does accept must re-encode and re-decode to the same value. Without -fuzz
// the seed corpus below runs as a plain regression test; `make chaos` runs
// the mutation engine for real.
func FuzzDecodeTrace(f *testing.F) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleProgram()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("NOTATRACE..."))
	f.Add(valid[:len(valid)/2])
	// A one-byte flip in the header and one in the payload, the classic
	// corruptions the old loop exercised.
	for _, i := range []int{0, len(valid) / 2, len(valid) - 1} {
		c := append([]byte{}, valid...)
		c[i] ^= 0xff
		f.Add(c)
	}
	// Short inputs whose headers declare enormous meta lengths.
	f.Add(declaredMetaInput(1 << 62))
	f.Add(declaredMetaInput(11 << 30))
	f.Add(declaredMetaInput(maxMetaBytes))
	// Short inputs whose headers declare many phases or accesses.
	f.Add(declaredPhasesInput(1 << 22))
	f.Add(declaredAccessesInput(1 << 22))
	f.Add(declaredAccessesInput(1 << 28))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(bytes.NewReader(data)) // must not panic
		if err != nil {
			return
		}
		// Accepted input: the decoded trace must survive a round trip.
		var out bytes.Buffer
		if err := Encode(&out, p); err != nil {
			t.Fatalf("decoded trace does not re-encode: %v", err)
		}
		p2, err := Decode(&out)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatal("accepted trace does not round-trip bit-exactly")
		}
	})
}

// declaredMetaInput is a ~300-byte trace whose header declares a meta of
// metaLen bytes.
func declaredMetaInput(metaLen uint64) []byte {
	b := append([]byte(magic), version)
	b = binary.AppendUvarint(b, metaLen)
	return append(b, bytes.Repeat([]byte{'{'}, 300)...)
}

// declaredPhasesInput is a 16-byte trace whose header declares n phases
// and holds none.
func declaredPhasesInput(n uint64) []byte {
	b := append([]byte(magic), version, 2, '{', '}')
	return binary.AppendUvarint(b, n)
}

// declaredAccessesInput is a trace of one phase holding one unnamed kernel
// that declares n accesses and holds none (24 bytes for n = 2^22).
func declaredAccessesInput(n uint64) []byte {
	// phase index, label, kernel count; gpu, name, compute ops, local bytes
	b := append(declaredPhasesInput(1), 0, 0, 1, 0, 0, 0, 0)
	return binary.AppendUvarint(b, n)
}

// TestDecodeBoundsDeclaredMetaLength checks that the trace decoder rejects
// short inputs declaring a large meta, many phases or many accesses while
// allocating only about what the input holds, not what its header claims.
func TestDecodeBoundsDeclaredMetaLength(t *testing.T) {
	for name, in := range map[string][]byte{
		"meta 8 MiB":    declaredMetaInput(8 << 20),
		"meta 1 TiB":    declaredMetaInput(1 << 40),
		"2^22 phases":   declaredPhasesInput(1 << 22),
		"2^22 accesses": declaredAccessesInput(1 << 22),
		"2^28 accesses": declaredAccessesInput(1 << 28),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoding a %d-byte input allocated %d bytes", name, len(in), grew)
		}
	}
}

// FuzzColumnBlock drives the columnar block decoder with arbitrary bytes: it
// must never panic, and any block it accepts must re-encode into a block that
// decodes to the same accesses.
func FuzzColumnBlock(f *testing.F) {
	f.Add(encodeBlock(randomAccesses(500, 1)))
	f.Add(encodeBlock(stencilAccesses(BlockAccesses)))
	f.Add(encodeBlock(shortSegmentAccesses(BlockAccesses)))
	f.Add(encodeBlock(shortSegmentAccesses(97)))
	f.Add(encodeBlock([]Access{{Op: OpFence, Scope: ScopeSys}}))
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		accs, err := decodeOne(data) // must not panic
		if err != nil {
			return
		}
		got, err := decodeOne(encodeBlock(accs))
		if err != nil {
			t.Fatalf("accepted block does not re-encode: %v", err)
		}
		if !reflect.DeepEqual(accs, got) {
			t.Fatal("accepted block does not round-trip")
		}
	})
}

// FuzzColumnEncoderRuns checks AppendRun against its definition: any
// sequence of Append and AppendRun calls must produce exactly the blocks
// that appending the same records one at a time produces, and those blocks
// must decode back to the records. Each 7-byte chunk of the input is one
// call: kind, shape, seed, address, a 16-bit run length and a step choice.
func FuzzColumnEncoderRuns(f *testing.F) {
	f.Add([]byte{})
	// n = 0, then a single Append.
	f.Add([]byte{1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0})
	// A run crossing one block boundary, then one crossing three.
	f.Add([]byte{1, 0, 0, 1, 0x01, 0x10, 1, 1, 4, 3, 5, 0xff, 0x2f, 1})
	// Runs whose addresses wrap uint64: a huge step and a start near the top.
	f.Add([]byte{1, 0, 0, 0x80, 0x40, 0x00, 4, 1, 4, 0, 0xf8, 0x20, 0x00, 5, 1, 0, 5, 0, 0, 9, 0})
	// Appends interleaved with runs that continue the same arithmetic run.
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 2, 0xff, 0x0f, 1, 0, 0, 0, 0x21, 0, 0, 0})

	steps := []uint64{0, 128, 1, ^uint64(0), 1 << 63, 3 << 62, 1<<63 + 5, 4096}
	f.Fuzz(func(t *testing.T, data []byte) {
		var runs, single ColumnEncoder
		var flat []Access
		for len(data) >= 7 && len(flat) <= 8*BlockAccesses {
			c := data[:7]
			data = data[7:]
			a := Access{
				Op: Op(c[1] % 3), Scope: Scope(c[1] >> 2 % 4), Pattern: Pattern(c[1] >> 4 % 3),
				Threads: 1 + c[1]>>6*10, ElemBytes: 4, Stride: 1 + uint32(c[2]%4),
				Seed: uint32(c[2]) * 2654435761, Addr: uint64(c[3]) << 56 >> (c[3] % 8),
			}
			n, step := 1, uint64(0)
			if c[0]%2 == 1 {
				n = int(binary.LittleEndian.Uint16(c[4:6])) % (3*BlockAccesses + 2)
				step = steps[c[6]%uint8(len(steps))]
				runs.AppendRun(a, n, step)
			} else {
				runs.Append(a)
			}
			for i := 0; i < n; i++ {
				single.Append(a)
				flat = append(flat, a)
				a.Addr += step
			}
			if runs.Len() != len(flat) {
				t.Fatalf("Len %d after %d records", runs.Len(), len(flat))
			}
		}
		got, want := runs.Finish(), single.Finish()
		if !reflect.DeepEqual(got, want) {
			t.Fatal("AppendRun blocks differ from one-at-a-time blocks")
		}
		if got == nil {
			if len(flat) != 0 {
				t.Fatal("records appended but no store")
			}
			return
		}
		var dec BlockDecoder
		var back []Access
		for i := 0; i < got.NumBlocks(); i++ {
			blk, err := dec.Decode(got, i)
			if err != nil {
				t.Fatalf("block %d: %v", i, err)
			}
			back = append(back, blk...)
		}
		if !slices.Equal(back, flat) {
			t.Fatal("blocks do not decode to the appended records")
		}
	})
}
