package engine

import (
	"fmt"

	"gps/internal/trace"
)

// chunk must divide trace.BlockAccesses so the round-robin replay windows
// never straddle a block boundary (the compile fails here otherwise).
const _ = uint(-(trace.BlockAccesses % chunk))

// blockCursor serves sequential windows of one kernel's instruction stream
// regardless of storage form: flat kernels are sliced directly; columnar
// kernels decode one block at a time into the cursor's private decoder
// buffer, so a full []Access is never materialized during replay. Each
// kernel slot in a replay owns its own cursor, because the round-robin
// revisits kernels while their neighbors' windows are live.
type blockCursor struct {
	flat       []trace.Access
	col        *trace.ColumnAccesses
	dec        trace.BlockDecoder
	cur        []trace.Access // decoded records of block blockIdx
	blockIdx   int
	blockStart int
	n          int
}

// reset points the cursor at k's stream, keeping the decode buffers.
func (c *blockCursor) reset(k *trace.Kernel) {
	c.flat = k.Accesses
	c.col = k.Col
	c.cur = nil
	c.blockIdx = -1
	c.blockStart = 0
	c.n = k.NumAccesses()
}

// window returns records [start, end). Both bounds must fall inside one
// block (guaranteed by chunk | BlockAccesses); the slice is valid until the
// next window call on this cursor. Decode and spill-read failures panic —
// the engine has no error path per access, traces are validated at
// construction, and the experiment runner's panic fences turn the panic
// into a typed cell error.
func (c *blockCursor) window(start, end int) []trace.Access {
	if c.col == nil {
		return c.flat[start:end]
	}
	if bi := start / trace.BlockAccesses; bi != c.blockIdx {
		accs, err := c.dec.Decode(c.col, bi)
		if err != nil {
			panic(fmt.Sprintf("engine: decoding trace block %d: %v", bi, err))
		}
		c.blockIdx = bi
		c.blockStart = bi * trace.BlockAccesses
		c.cur = accs
	}
	return c.cur[start-c.blockStart : end-c.blockStart]
}
