package trace

import "testing"

// BenchmarkColumnDecode measures the block-decode hot path the engine drives
// during replay: one full pass over a multi-block stream through a reused
// BlockDecoder. The stencil stream is the workload-shaped common case
// (long runs, tiny varints); the random stream is the RLE worst case.
func BenchmarkColumnDecode(b *testing.B) {
	const n = 16 * BlockAccesses
	for _, v := range []struct {
		name string
		accs []Access
	}{
		{"stencil", stencilAccesses(n)},
		{"random", randomAccesses(n, 1)},
	} {
		c := EncodeColumns(v.accs)
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(v.accs)) * 24)
			var dec BlockDecoder
			for i := 0; i < b.N; i++ {
				for blk := 0; blk < c.NumBlocks(); blk++ {
					if _, err := dec.Decode(c, blk); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(v.name+"/ratio", func(b *testing.B) {
			logical := uint64(len(v.accs)) * 24
			b.ReportMetric(float64(logical)/float64(c.CompressedBytes()), "x-compression")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = c.CompressedBytes()
			}
		})
	}
}

// BenchmarkColumnEncode measures the append paths the workload generators
// drive while building traces: record-at-a-time Append on a stencil and a
// random stream, and stencil-run, the same stencil stream appended as one
// AppendRun the way contiguous ranges are built.
func BenchmarkColumnEncode(b *testing.B) {
	const n = 16 * BlockAccesses
	for _, v := range []struct {
		name string
		accs []Access
	}{
		{"stencil", stencilAccesses(n)},
		{"random", randomAccesses(n, 1)},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(v.accs)) * 24)
			for i := 0; i < b.N; i++ {
				var enc ColumnEncoder
				for j := range v.accs {
					enc.Append(v.accs[j])
				}
				if c := enc.Finish(); c.Len() != len(v.accs) {
					b.Fatal("short encode")
				}
			}
		})
	}
	b.Run("stencil-run", func(b *testing.B) {
		first := stencilAccesses(1)[0]
		b.ReportAllocs()
		b.SetBytes(n * 24)
		for i := 0; i < b.N; i++ {
			var enc ColumnEncoder
			enc.AppendRun(first, n, 128)
			if c := enc.Finish(); c.Len() != n {
				b.Fatal("short encode")
			}
		}
	})
}
