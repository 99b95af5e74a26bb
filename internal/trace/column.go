package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
)

// Columnar block format: kernels produced by internal/workload are millions
// of near-identical Access records — op/scope/pattern/threads/elem are
// constant for long stretches, addresses advance by a fixed delta, and
// scattered seeds advance by a fixed odd constant. Storing them as an
// array-of-structs costs 24 B/record; storing each field as its own
// run-length/delta column compresses typical traces by two to three orders
// of magnitude and lets the replay engine decode one block at a time into a
// reusable buffer instead of keeping the whole []Access resident.
//
// A trace's access stream is cut into self-contained blocks of up to
// BlockAccesses records. Each block is:
//
//	count uvarint (1..BlockAccesses)
//	8 columns, in order, each a run-length sequence whose runs sum to count:
//	  op, scope, pattern, threads, elem:  (value uvarint, runLen uvarint)*
//	  stride:                             (value uvarint, runLen uvarint)*
//	  seed:  RLE over successive int32 differences (zigzag varint, runLen)
//	  addr:  RLE over successive int64 differences (zigzag varint, runLen)
//
// Seed and addr runs are runs of *equal deltas*, so an arithmetic sequence
// (the common case: unit-stride addresses, +2654435761 seeds) collapses to
// one run per block. Delta state resets at each block boundary, keeping
// blocks independently decodable: the replay cursor decodes the block that
// holds its current window, whatever block it read before.
const BlockAccesses = 4096

// ColumnAccesses is a kernel's access stream in compressed columnar blocks.
// All blocks hold exactly BlockAccesses records except the last, which holds
// the remainder — so block i covers records [i*BlockAccesses, ...). Blocks
// are immutable once Finish or UnmarshalJSON returns, so any number of
// decoders may read one store concurrently.
type ColumnAccesses struct {
	n          int      // total records
	compressed uint64   // sum of encoded block sizes
	blocks     [][]byte // encoded blocks
}

// Len returns the total number of access records.
func (c *ColumnAccesses) Len() int {
	if c == nil {
		return 0
	}
	return c.n
}

// NumBlocks returns the number of encoded blocks.
func (c *ColumnAccesses) NumBlocks() int {
	if c == nil {
		return 0
	}
	return len(c.blocks)
}

// BlockLen returns the number of records in block i.
func (c *ColumnAccesses) BlockLen(i int) int {
	if i < len(c.blocks)-1 {
		return BlockAccesses
	}
	return c.n - i*BlockAccesses
}

// CompressedBytes returns the total encoded size of all blocks.
func (c *ColumnAccesses) CompressedBytes() uint64 {
	if c == nil {
		return 0
	}
	return c.compressed
}

// ResidentBytes returns the approximate heap footprint of the column store:
// the encoded blocks, 96 B for the struct, and 28 B per block: the block's
// 24 B slice header plus 4 B that keep TraceBytes comparable with earlier
// reports.
func (c *ColumnAccesses) ResidentBytes() uint64 {
	if c == nil {
		return 0
	}
	return c.compressed + uint64(len(c.blocks))*28 + 96
}

// colRun is one run of a column: n successive records share value v. In
// the seed and addr columns v is the delta from the previous record (a seed
// delta in its low 32 bits), so an arithmetic sequence is one run.
type colRun struct {
	v uint64
	n uint32
}

// Column indices, in wire order. The first numShapeCols columns are the
// ones Access.Validate reads.
const (
	colOp = iota
	colScope
	colPattern
	colThreads
	colElem
	colStride
	colSeed
	colAddr
	numCols
	numShapeCols = colSeed
)

var colNames = [numCols]string{"op", "scope", "pattern", "threads", "elem", "stride", "seed", "addr"}

// pushRun appends k records of value v to a column: it extends the last run
// when v repeats and opens a new run otherwise.
func pushRun(runs []colRun, v uint64, k int) []colRun {
	if last := len(runs) - 1; last >= 0 && runs[last].v == v {
		runs[last].n += uint32(k)
		return runs
	}
	return append(runs, colRun{v, uint32(k)})
}

// ColumnEncoder incrementally builds a ColumnAccesses. It holds the current
// block as eight per-column run lists rather than as records: appending
// extends or opens one run per column, and AppendRun appends a whole
// arithmetic address run per block it touches. Every run is extended while
// its value (or delta) repeats, so the runs are the block's maximal RLE and
// the flushed bytes are canonical. The zero value is ready to use; an
// encoder is single-use.
type ColumnEncoder struct {
	n          int
	compressed uint64
	blocks     [][]byte

	cnt      int               // records in the current block
	cols     [numCols][]colRun // the current block's runs
	lastSeed uint32            // previous record's seed and addr in the block
	lastAddr uint64
	scratch  []byte // serialization buffer, reused across blocks
}

// Append adds one record to the stream.
func (e *ColumnEncoder) Append(a Access) { e.AppendRun(a, 1, 0) }

// AppendRun adds n records that equal a except for their addresses: record
// i has Addr = a.Addr + i*step (modulo 2^64). It is equivalent to n Append
// calls and costs one call per block the run touches. n <= 0 adds nothing.
func (e *ColumnEncoder) AppendRun(a Access, n int, step uint64) {
	for n > 0 {
		k := min(n, BlockAccesses-e.cnt)
		c := &e.cols
		c[colOp] = pushRun(c[colOp], uint64(a.Op), k)
		c[colScope] = pushRun(c[colScope], uint64(a.Scope), k)
		c[colPattern] = pushRun(c[colPattern], uint64(a.Pattern), k)
		c[colThreads] = pushRun(c[colThreads], uint64(a.Threads), k)
		c[colElem] = pushRun(c[colElem], uint64(a.ElemBytes), k)
		c[colStride] = pushRun(c[colStride], uint64(a.Stride), k)
		c[colSeed] = pushRun(c[colSeed], uint64(a.Seed-e.lastSeed), 1)
		c[colAddr] = pushRun(c[colAddr], a.Addr-e.lastAddr, 1)
		if k > 1 {
			c[colSeed] = pushRun(c[colSeed], 0, k-1)
			c[colAddr] = pushRun(c[colAddr], step, k-1)
		}
		e.lastSeed = a.Seed
		e.lastAddr = a.Addr + uint64(k-1)*step
		a.Addr += uint64(k) * step
		n -= k
		e.cnt += k
		if e.cnt == BlockAccesses {
			e.flush()
		}
	}
}

// Len returns the number of records appended so far.
func (e *ColumnEncoder) Len() int { return e.n + e.cnt }

// flush serializes the current block's runs in the block format above and
// starts a new block.
func (e *ColumnEncoder) flush() {
	buf := binary.AppendUvarint(e.scratch[:0], uint64(e.cnt))
	for c := range e.cols {
		for _, r := range e.cols[c] {
			switch c {
			case colSeed:
				buf = binary.AppendVarint(buf, int64(int32(uint32(r.v))))
			case colAddr:
				buf = binary.AppendVarint(buf, int64(r.v))
			default:
				buf = binary.AppendUvarint(buf, r.v)
			}
			buf = binary.AppendUvarint(buf, uint64(r.n))
		}
		e.cols[c] = e.cols[c][:0]
	}
	e.scratch = buf
	e.blocks = append(e.blocks, bytes.Clone(buf))
	e.compressed += uint64(len(buf))
	e.n += e.cnt
	e.cnt, e.lastSeed, e.lastAddr = 0, 0, 0
}

// Finish seals the stream and returns the column store, or nil if nothing
// was appended. The encoder must not be reused.
func (e *ColumnEncoder) Finish() *ColumnAccesses {
	if e.cnt > 0 {
		e.flush()
	}
	if e.n == 0 {
		return nil
	}
	c := &ColumnAccesses{
		n:          e.n,
		compressed: e.compressed,
		blocks:     e.blocks,
	}
	*e = ColumnEncoder{}
	return c
}

// EncodeColumns compresses a flat access slice into columnar blocks.
// Returns nil for an empty slice.
func EncodeColumns(accs []Access) *ColumnAccesses {
	var e ColumnEncoder
	for _, a := range accs {
		e.Append(a)
	}
	return e.Finish()
}

// readUvarint and readVarint decode one varint at data[off:]. They
// special-case one-byte varints, which nearly every run length and most
// values in a block are.
func readUvarint(data []byte, off int) (uint64, int, error) {
	if off < len(data) && data[off] < 0x80 {
		return uint64(data[off]), off + 1, nil
	}
	return readUvarintSlow(data, off)
}

func readUvarintSlow(data []byte, off int) (uint64, int, error) {
	if off >= len(data) {
		return 0, off, fmt.Errorf("truncated at %d", off)
	}
	v, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, off, fmt.Errorf("bad uvarint at %d", off)
	}
	return v, off + n, nil
}

func readVarint(data []byte, off int) (int64, int, error) {
	if off < len(data) && data[off] < 0x80 {
		b := int64(data[off])
		return b>>1 ^ -(b & 1), off + 1, nil
	}
	return readVarintSlow(data, off)
}

func readVarintSlow(data []byte, off int) (int64, int, error) {
	if off >= len(data) {
		return 0, off, fmt.Errorf("truncated at %d", off)
	}
	v, n := binary.Varint(data[off:])
	if n <= 0 {
		return 0, off, fmt.Errorf("bad varint at %d", off)
	}
	return v, off + n, nil
}

// Run is n consecutive records of one block that differ only in seed and
// address: record i equals A except Seed = A.Seed + i*SeedStep and Addr =
// A.Addr + i*AddrStep (both wrapping). A run never crosses a block.
type Run struct {
	A        Access
	N        uint32
	SeedStep uint32
	AddrStep uint64
}

// At returns record i of the run.
func (r *Run) At(i uint32) Access {
	a := r.A
	a.Seed += i * r.SeedStep
	a.Addr += uint64(i) * r.AddrStep
	return a
}

// BlockDecoder decodes blocks into internal reusable buffers, so steady-
// state replay performs zero allocations. Each concurrent reader (a kernel
// slot's replay cursor, a sharing scan) needs its own decoder; the decoded
// slice is valid until the next decode call on the same decoder.
type BlockDecoder struct {
	buf  []Access
	out  []Run
	cols []colRun // the parsed runs of all columns of the current block
}

// DecodeRuns returns block i of c as runs, in record order. The returned
// slice aliases the decoder's buffer.
func (d *BlockDecoder) DecodeRuns(c *ColumnAccesses, i int) ([]Run, error) {
	if i < 0 || i >= len(c.blocks) {
		return nil, fmt.Errorf("trace: block %d out of range [0,%d)", i, len(c.blocks))
	}
	runs, n, err := d.decodeRuns(c.blocks[i])
	if err != nil {
		return nil, fmt.Errorf("trace: block %d: %w", i, err)
	}
	if n != c.BlockLen(i) {
		return nil, fmt.Errorf("trace: block %d decoded %d records, index says %d", i, n, c.BlockLen(i))
	}
	return runs, nil
}

// Decode returns the decoded records of block i of c. The returned slice
// aliases the decoder's buffer.
func (d *BlockDecoder) Decode(c *ColumnAccesses, i int) ([]Access, error) {
	runs, err := d.DecodeRuns(c, i)
	if err != nil {
		return nil, err
	}
	return d.fill(runs), nil
}

// fill expands runs into the decoder's record buffer.
func (d *BlockDecoder) fill(runs []Run) []Access {
	if d.buf == nil {
		d.buf = make([]Access, BlockAccesses)
	}
	i := 0
	for r := range runs {
		run := &runs[r]
		a := run.A
		for j := i + int(run.N); i < j; i++ {
			d.buf[i] = a
			a.Seed += run.SeedStep
			a.Addr += run.AddrStep
		}
	}
	return d.buf[:i]
}

// runCursor walks one column's parsed runs; runs[0] is the current run.
type runCursor struct {
	runs []colRun
	left uint32 // records left in runs[0]
}

func (c *runCursor) skip(k uint32) {
	c.left -= k
	if c.left == 0 && len(c.runs) > 1 {
		c.runs = c.runs[1:]
		c.left = c.runs[0].n
	}
}

// decodeRuns decodes one encoded block into the decoder's run buffer and
// returns the runs and their record count. It parses each column's runs
// once, rejecting truncation, empty or overflowing runs, out-of-range values
// and trailing bytes. It then walks the segments on which the six shape
// columns are constant. Access.Validate reads only those columns, so it
// runs once per segment, and an error names the segment's first record,
// which is the block's first invalid record. Within a segment every
// sub-run on which both deltas are fixed becomes a Run; a one-record run
// absorbs the sub-run after it, so the run the encoder's AppendRun wrote as
// a first record plus a fixed-step tail decodes as one Run. decodeRuns
// never panics on corrupt input.
func (d *BlockDecoder) decodeRuns(data []byte) ([]Run, int, error) {
	cnt, off, err := readUvarint(data, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("trace: block count: %w", err)
	}
	if cnt == 0 || cnt > BlockAccesses {
		return nil, 0, fmt.Errorf("trace: block count %d out of range 1..%d", cnt, BlockAccesses)
	}
	n := int(cnt)
	cols := d.cols[:0]
	var starts [numCols + 1]int // column c's runs are cols[starts[c]:starts[c+1]]
	for c := 0; c < numCols; c++ {
		starts[c] = len(cols)
		for i := 0; i < n; {
			var v, run uint64
			if c < colSeed {
				v, off, err = readUvarint(data, off)
			} else {
				var sv int64
				sv, off, err = readVarint(data, off)
				v = uint64(sv)
			}
			if err != nil {
				return nil, 0, fmt.Errorf("trace: %s column: value: %w", colNames[c], err)
			}
			if run, off, err = readUvarint(data, off); err != nil {
				return nil, 0, fmt.Errorf("trace: %s column: run: %w", colNames[c], err)
			}
			if run == 0 || run > uint64(n-i) {
				return nil, 0, fmt.Errorf("trace: %s column: run %d overflows %d remaining", colNames[c], run, n-i)
			}
			if c < colStride && v > 255 {
				return nil, 0, fmt.Errorf("trace: %s column: value %d exceeds a byte", colNames[c], v)
			}
			if c == colStride && v > 1<<32-1 {
				return nil, 0, fmt.Errorf("trace: stride %d exceeds 32 bits", v)
			}
			cols = append(cols, colRun{v, uint32(run)})
			i += int(run)
		}
	}
	starts[numCols] = len(cols)
	d.cols = cols
	if off != len(data) {
		return nil, 0, fmt.Errorf("trace: %d trailing bytes after block", len(data)-off)
	}

	var cur [numCols]runCursor
	for c := range cur {
		cur[c].runs = cols[starts[c]:starts[c+1]]
		cur[c].left = cur[c].runs[0].n
	}
	// Every run boundary is a boundary of some column's run, so the column
	// runs bound the block's run count.
	if cap(d.out) < len(cols) {
		d.out = make([]Run, 0, len(cols))
	}
	out := d.out[:0]
	var seed uint32
	var addr uint64
	for i := 0; i < n; {
		seg := cur[0].left
		for c := 1; c < numShapeCols; c++ {
			seg = min(seg, cur[c].left)
		}
		a := Access{
			Op:        Op(cur[colOp].runs[0].v),
			Scope:     Scope(cur[colScope].runs[0].v),
			Pattern:   Pattern(cur[colPattern].runs[0].v),
			Threads:   uint8(cur[colThreads].runs[0].v),
			ElemBytes: uint8(cur[colElem].runs[0].v),
			Stride:    uint32(cur[colStride].runs[0].v),
		}
		if err := a.Validate(); err != nil {
			return nil, 0, fmt.Errorf("trace: block record %d: %w", i, err)
		}
		for c := 0; c < numShapeCols; c++ {
			cur[c].skip(seg)
		}
		segStart := len(out)
		for end := i + int(seg); i < end; {
			k := min(uint32(end-i), cur[colSeed].left, cur[colAddr].left)
			sd, ad := uint32(cur[colSeed].runs[0].v), cur[colAddr].runs[0].v
			if last := len(out) - 1; last >= segStart && out[last].N == 1 {
				out[last].N += k
				out[last].SeedStep, out[last].AddrStep = sd, ad
			} else {
				a.Seed, a.Addr = seed+sd, addr+ad
				out = append(out, Run{A: a, N: k, SeedStep: sd, AddrStep: ad})
			}
			seed += k * sd
			addr += uint64(k) * ad
			i += int(k)
			cur[colSeed].skip(k)
			cur[colAddr].skip(k)
		}
	}
	d.out = out
	return out, n, nil
}

// columnJSON is the JSON shape of a ColumnAccesses: record count plus the
// encoded blocks (base64 via encoding/json's []byte rule).
type columnJSON struct {
	N      int
	Blocks [][]byte
}

// MarshalJSON writes the block store.
func (c *ColumnAccesses) MarshalJSON() ([]byte, error) {
	return json.Marshal(columnJSON{N: c.n, Blocks: c.blocks})
}

// UnmarshalJSON rebuilds the store and fully validates every block, so any
// ColumnAccesses reachable from a decoded trace is structurally sound and
// replay can treat decode errors as internal bugs.
func (c *ColumnAccesses) UnmarshalJSON(data []byte) error {
	if bytes.Equal(bytes.TrimSpace(data), []byte("null")) {
		return nil
	}
	var cj columnJSON
	if err := json.Unmarshal(data, &cj); err != nil {
		return err
	}
	total := 0
	var compressed uint64
	var dec BlockDecoder
	for i, b := range cj.Blocks {
		_, n, err := dec.decodeRuns(b)
		if err != nil {
			return fmt.Errorf("trace: column block %d: %w", i, err)
		}
		total += n
		compressed += uint64(len(b))
		if i < len(cj.Blocks)-1 && n != BlockAccesses {
			return fmt.Errorf("trace: column block %d short (%d records) before the last", i, n)
		}
	}
	if total != cj.N {
		return fmt.Errorf("trace: column blocks hold %d records, header says %d", total, cj.N)
	}
	c.n = cj.N
	c.blocks = cj.Blocks
	c.compressed = compressed
	return nil
}
