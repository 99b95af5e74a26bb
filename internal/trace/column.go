package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"
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
// blocks independently decodable — required for the spill tier, which reads
// blocks back from disk in arbitrary order.
const BlockAccesses = 4096

// ColumnAccesses is a kernel's access stream in compressed columnar blocks.
// All blocks hold exactly BlockAccesses records except the last, which holds
// the remainder — so block i covers records [i*BlockAccesses, ...). The
// struct contains a mutex and must be used by pointer.
//
// Blocks live in memory until SpillTo moves them to a SpillFile, after which
// block reads hit the file. The flip is guarded by mu; decoded []Access
// buffers handed out before a spill remain valid (they are private copies).
type ColumnAccesses struct {
	n          int    // total records
	compressed uint64 // sum of encoded block sizes

	mu     sync.Mutex
	blocks [][]byte   // resident encoded blocks; nil once spilled
	spill  *SpillFile // non-nil once spilled
	offs   []int64    // per-block offset in spill
	sizes  []int32    // per-block encoded size (valid in both modes)
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
	return len(c.sizes)
}

// BlockLen returns the number of records in block i.
func (c *ColumnAccesses) BlockLen(i int) int {
	if i < len(c.sizes)-1 {
		return BlockAccesses
	}
	return c.n - i*BlockAccesses
}

// CompressedBytes returns the total encoded size of all blocks, whether
// resident or spilled.
func (c *ColumnAccesses) CompressedBytes() uint64 {
	if c == nil {
		return 0
	}
	return c.compressed
}

// Spilled reports whether the blocks live in a spill file rather than memory.
func (c *ColumnAccesses) Spilled() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spill != nil
}

// ResidentBytes returns the heap footprint of the column store: the encoded
// blocks while resident, or just the per-block index after a spill.
func (c *ColumnAccesses) ResidentBytes() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Index overhead: sizes (4 B) always, offs (8 B) once spilled, plus the
	// struct and slice headers.
	overhead := uint64(len(c.sizes))*4 + 96
	if c.spill != nil {
		return overhead + uint64(len(c.offs))*8
	}
	return c.compressed + overhead + uint64(len(c.blocks))*24
}

// SpillTo writes every resident block to s and drops the in-memory copies,
// returning the number of heap bytes freed. It is a no-op (returning 0) if
// the blocks are already spilled. Concurrent readers are safe: a reader
// holding a block slice keeps it alive, and readers arriving after the flip
// go to the file.
func (c *ColumnAccesses) SpillTo(s *SpillFile) (freed uint64, err error) {
	if c == nil || s == nil {
		return 0, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.spill != nil || c.blocks == nil {
		return 0, nil
	}
	var buf []byte
	for _, b := range c.blocks {
		buf = append(buf, b...)
	}
	base, err := s.append(buf)
	if err != nil {
		return 0, err
	}
	offs := make([]int64, len(c.blocks))
	off := base
	for i, b := range c.blocks {
		offs[i] = off
		off += int64(len(b))
		freed += uint64(cap(b))
	}
	c.offs = offs
	c.spill = s
	c.blocks = nil
	return freed, nil
}

// block returns the encoded bytes of block i, reading from the spill file
// into scratch if the blocks are no longer resident. The returned slice must
// not be retained past the next call with the same scratch.
func (c *ColumnAccesses) block(i int, scratch []byte) (data, newScratch []byte, err error) {
	if i < 0 || i >= len(c.sizes) {
		return nil, scratch, fmt.Errorf("trace: block %d out of range [0,%d)", i, len(c.sizes))
	}
	c.mu.Lock()
	if c.blocks != nil {
		b := c.blocks[i]
		c.mu.Unlock()
		return b, scratch, nil
	}
	spill, off := c.spill, c.offs[i]
	c.mu.Unlock()
	size := int(c.sizes[i])
	if cap(scratch) < size {
		scratch = make([]byte, size, max(size, 16<<10))
	}
	scratch = scratch[:size]
	if err := spill.readAt(scratch, off); err != nil {
		return nil, scratch, fmt.Errorf("trace: reading spilled block %d: %w", i, err)
	}
	return scratch, scratch, nil
}

// ColumnEncoder incrementally builds a ColumnAccesses from a stream of
// records using constant memory (one block's worth of pending records).
// The zero value is ready to use; an encoder is single-use.
type ColumnEncoder struct {
	n          int
	compressed uint64
	blocks     [][]byte
	sizes      []int32
	buf        []Access
}

// Append adds one record to the stream.
func (e *ColumnEncoder) Append(a Access) {
	if cap(e.buf) == 0 {
		e.buf = make([]Access, 0, BlockAccesses)
	}
	e.buf = append(e.buf, a)
	if len(e.buf) == BlockAccesses {
		e.flush()
	}
}

// Len returns the number of records appended so far.
func (e *ColumnEncoder) Len() int { return e.n + len(e.buf) }

func (e *ColumnEncoder) flush() {
	blk := appendBlock(nil, e.buf)
	e.blocks = append(e.blocks, blk)
	e.sizes = append(e.sizes, int32(len(blk)))
	e.compressed += uint64(len(blk))
	e.n += len(e.buf)
	e.buf = e.buf[:0]
}

// Finish seals the stream and returns the column store, or nil if nothing
// was appended. The encoder must not be reused.
func (e *ColumnEncoder) Finish() *ColumnAccesses {
	if len(e.buf) > 0 {
		e.flush()
	}
	if e.n == 0 {
		return nil
	}
	c := &ColumnAccesses{
		n:          e.n,
		compressed: e.compressed,
		blocks:     e.blocks,
		sizes:      e.sizes,
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

// appendBlock encodes accs (1..BlockAccesses records) onto dst. Each column
// gets its own run-scan loop (rather than a per-access field dispatch): this
// is the trace-build hot path, fed one block at a time by ColumnEncoder.
func appendBlock(dst []byte, accs []Access) []byte {
	n := len(accs)
	dst = binary.AppendUvarint(dst, uint64(n))
	// Byte-wide columns: RLE of (value, runLen).
	for i := 0; i < n; {
		v := accs[i].Op
		j := i + 1
		for j < n && accs[j].Op == v {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(v))
		dst = binary.AppendUvarint(dst, uint64(j-i))
		i = j
	}
	for i := 0; i < n; {
		v := accs[i].Scope
		j := i + 1
		for j < n && accs[j].Scope == v {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(v))
		dst = binary.AppendUvarint(dst, uint64(j-i))
		i = j
	}
	for i := 0; i < n; {
		v := accs[i].Pattern
		j := i + 1
		for j < n && accs[j].Pattern == v {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(v))
		dst = binary.AppendUvarint(dst, uint64(j-i))
		i = j
	}
	for i := 0; i < n; {
		v := accs[i].Threads
		j := i + 1
		for j < n && accs[j].Threads == v {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(v))
		dst = binary.AppendUvarint(dst, uint64(j-i))
		i = j
	}
	for i := 0; i < n; {
		v := accs[i].ElemBytes
		j := i + 1
		for j < n && accs[j].ElemBytes == v {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(v))
		dst = binary.AppendUvarint(dst, uint64(j-i))
		i = j
	}
	for i := 0; i < n; {
		v := accs[i].Stride
		j := i + 1
		for j < n && accs[j].Stride == v {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(v))
		dst = binary.AppendUvarint(dst, uint64(j-i))
		i = j
	}
	// Seed: RLE over successive 32-bit differences.
	var prevSeed uint32
	for i := 0; i < n; {
		d := int32(accs[i].Seed - prevSeed)
		j := i + 1
		last := accs[i].Seed
		for j < n && int32(accs[j].Seed-last) == d {
			last = accs[j].Seed
			j++
		}
		dst = binary.AppendVarint(dst, int64(d))
		dst = binary.AppendUvarint(dst, uint64(j-i))
		prevSeed = last
		i = j
	}
	// Addr: RLE over successive 64-bit differences.
	var prevAddr uint64
	for i := 0; i < n; {
		d := accs[i].Addr - prevAddr
		j := i + 1
		last := accs[i].Addr
		for j < n && accs[j].Addr-last == d {
			last = accs[j].Addr
			j++
		}
		dst = binary.AppendVarint(dst, int64(d))
		dst = binary.AppendUvarint(dst, uint64(j-i))
		prevAddr = last
		i = j
	}
	return dst
}

// decodeBlock decodes one encoded block into dst (whose capacity must be at
// least BlockAccesses) and returns the filled prefix. Every structural
// hazard — truncation, run overflow, out-of-range field values — returns an
// error; decodeBlock never panics on corrupt input.
func decodeBlock(data []byte, dst []Access) ([]Access, error) {
	cnt, off, err := readUvarint(data, 0)
	if err != nil {
		return nil, fmt.Errorf("trace: block count: %w", err)
	}
	if cnt == 0 || cnt > BlockAccesses {
		return nil, fmt.Errorf("trace: block count %d out of range 1..%d", cnt, BlockAccesses)
	}
	n := int(cnt)
	dst = dst[:n]
	// Every Access field is written by exactly one column below, so no
	// zeroing pass is needed. The switch is hoisted outside the run-fill
	// loop: on workload-shaped blocks each column is a single run, so the
	// fill is a tight per-field loop rather than a per-access dispatch.
	for col := 0; col < 6; col++ {
		i := 0
		for i < n {
			var v, run uint64
			if v, off, err = readUvarint(data, off); err != nil {
				return nil, fmt.Errorf("trace: column %d value: %w", col, err)
			}
			if run, off, err = readUvarint(data, off); err != nil {
				return nil, fmt.Errorf("trace: column %d run: %w", col, err)
			}
			if run == 0 || run > uint64(n-i) {
				return nil, fmt.Errorf("trace: column %d run %d overflows %d remaining", col, run, n-i)
			}
			if col < 5 && v > 255 {
				return nil, fmt.Errorf("trace: column %d value %d exceeds a byte", col, v)
			}
			if col == 5 && v > 1<<32-1 {
				return nil, fmt.Errorf("trace: stride %d exceeds 32 bits", v)
			}
			end := i + int(run)
			switch col {
			case 0:
				for ; i < end; i++ {
					dst[i].Op = Op(v)
				}
			case 1:
				for ; i < end; i++ {
					dst[i].Scope = Scope(v)
				}
			case 2:
				for ; i < end; i++ {
					dst[i].Pattern = Pattern(v)
				}
			case 3:
				for ; i < end; i++ {
					dst[i].Threads = uint8(v)
				}
			case 4:
				for ; i < end; i++ {
					dst[i].ElemBytes = uint8(v)
				}
			default:
				for ; i < end; i++ {
					dst[i].Stride = uint32(v)
				}
			}
		}
	}
	// Seed deltas: a run of length r applies the same delta r times in
	// succession.
	var seed uint32
	for i := 0; i < n; {
		d, noff, derr := readVarint(data, off)
		if derr != nil {
			return nil, fmt.Errorf("trace: seed column: delta: %w", derr)
		}
		run, noff, rerr := readUvarint(data, noff)
		if rerr != nil {
			return nil, fmt.Errorf("trace: seed column: run: %w", rerr)
		}
		if run == 0 || run > uint64(n-i) {
			return nil, fmt.Errorf("trace: seed column: run %d overflows %d remaining", run, n-i)
		}
		off = noff
		sd := uint32(int32(d))
		for end := i + int(run); i < end; i++ {
			seed += sd
			dst[i].Seed = seed
		}
	}
	// Addr deltas, same shape.
	var addr uint64
	for i := 0; i < n; {
		d, noff, derr := readVarint(data, off)
		if derr != nil {
			return nil, fmt.Errorf("trace: addr column: delta: %w", derr)
		}
		run, noff, rerr := readUvarint(data, noff)
		if rerr != nil {
			return nil, fmt.Errorf("trace: addr column: run: %w", rerr)
		}
		if run == 0 || run > uint64(n-i) {
			return nil, fmt.Errorf("trace: addr column: run %d overflows %d remaining", run, n-i)
		}
		off = noff
		ad := uint64(d)
		for end := i + int(run); i < end; i++ {
			addr += ad
			dst[i].Addr = addr
		}
	}
	if off != len(data) {
		return nil, fmt.Errorf("trace: %d trailing bytes after block", len(data)-off)
	}
	for i := range dst {
		if err := dst[i].Validate(); err != nil {
			return nil, fmt.Errorf("trace: block record %d: %w", i, err)
		}
	}
	return dst, nil
}

func readUvarint(data []byte, off int) (uint64, int, error) {
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
	if off >= len(data) {
		return 0, off, fmt.Errorf("truncated at %d", off)
	}
	v, n := binary.Varint(data[off:])
	if n <= 0 {
		return 0, off, fmt.Errorf("bad varint at %d", off)
	}
	return v, off + n, nil
}

// BlockDecoder decodes blocks into an internal reusable buffer, so steady-
// state replay performs zero allocations. Each concurrent reader (a kernel
// slot's replay cursor, a sharing scan) needs its own decoder; the decoded
// slice is valid until the next Decode call on the same decoder.
type BlockDecoder struct {
	buf     []Access
	scratch []byte
}

// Decode returns the decoded records of block i of c. The returned slice
// aliases the decoder's buffer.
func (d *BlockDecoder) Decode(c *ColumnAccesses, i int) ([]Access, error) {
	if d.buf == nil {
		d.buf = make([]Access, BlockAccesses)
	}
	data, scratch, err := c.block(i, d.scratch)
	d.scratch = scratch
	if err != nil {
		return nil, err
	}
	out, err := decodeBlock(data, d.buf)
	if err != nil {
		return nil, fmt.Errorf("trace: block %d: %w", i, err)
	}
	if len(out) != c.BlockLen(i) {
		return nil, fmt.Errorf("trace: block %d decoded %d records, index says %d", i, len(out), c.BlockLen(i))
	}
	return out, nil
}

// columnJSON is the JSON shape of a ColumnAccesses: record count plus the
// encoded blocks (base64 via encoding/json's []byte rule).
type columnJSON struct {
	N      int
	Blocks [][]byte
}

// MarshalJSON writes the block store; spilled blocks are read back from the
// file so the JSON rendering is always self-contained.
func (c *ColumnAccesses) MarshalJSON() ([]byte, error) {
	cj := columnJSON{N: c.n}
	var scratch []byte
	for i := 0; i < c.NumBlocks(); i++ {
		data, ns, err := c.block(i, scratch)
		scratch = ns
		if err != nil {
			return nil, err
		}
		cj.Blocks = append(cj.Blocks, append([]byte(nil), data...))
	}
	return json.Marshal(cj)
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
	var sizes []int32
	var compressed uint64
	buf := make([]Access, BlockAccesses)
	for i, b := range cj.Blocks {
		out, err := decodeBlock(b, buf)
		if err != nil {
			return fmt.Errorf("trace: column block %d: %w", i, err)
		}
		total += len(out)
		sizes = append(sizes, int32(len(b)))
		compressed += uint64(len(b))
		if i < len(cj.Blocks)-1 && len(out) != BlockAccesses {
			return fmt.Errorf("trace: column block %d short (%d records) before the last", i, len(out))
		}
	}
	if total != cj.N {
		return fmt.Errorf("trace: column blocks hold %d records, header says %d", total, cj.N)
	}
	c.n = cj.N
	c.blocks = cj.Blocks
	c.sizes = sizes
	c.compressed = compressed
	c.spill = nil
	c.offs = nil
	return nil
}
