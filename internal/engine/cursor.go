package engine

import (
	"fmt"

	"gps/internal/trace"
)

// chunk must divide trace.BlockAccesses so the round-robin replay windows
// never straddle a block boundary (the compile fails here otherwise).
const _ = uint(-(trace.BlockAccesses % chunk))

// blockCursor serves sequential windows of one kernel's instruction stream
// as runs: it decodes one column block at a time into runs through the
// cursor's private decoder, so a full []Access is never materialized during
// replay. Each kernel slot in a replay owns its own cursor, because the
// round-robin revisits kernels while their neighbors' windows are live.
type blockCursor struct {
	col      *trace.ColumnAccesses
	dec      trace.BlockDecoder
	runs     []trace.Run // decoded runs of block blockIdx
	blockIdx int
	ri       int // first run not wholly before the last window's end
	riStart  int // record index of runs[ri] within the block
	n        int
	out      []trace.Run // the current window
}

// reset points the cursor at k's stream, keeping the decode buffers.
func (c *blockCursor) reset(k *trace.Kernel) {
	c.col = k.Col
	c.runs = nil
	c.blockIdx = -1
	c.n = k.NumAccesses()
}

// window returns records [start, end) as runs clipped to the window. Both
// bounds must fall inside one block (guaranteed by chunk | BlockAccesses),
// and windows must be requested in increasing order within a block. The
// slice is valid until the next window call on this cursor. A decode
// failure panics — the engine has no error path per access, blocks are
// validated when built or loaded and immutable after, and the experiment
// runner's panic fences turn the panic into a typed cell error.
func (c *blockCursor) window(start, end int) []trace.Run {
	out := c.out[:0]
	if bi := start / trace.BlockAccesses; bi != c.blockIdx {
		runs, err := c.dec.DecodeRuns(c.col, bi)
		if err != nil {
			panic(fmt.Sprintf("engine: decoding trace block %d: %v", bi, err))
		}
		c.blockIdx, c.runs, c.ri, c.riStart = bi, runs, 0, 0
	}
	lo := uint32(start % trace.BlockAccesses)
	hi := lo + uint32(end-start)
	for c.riStart+int(c.runs[c.ri].N) <= int(lo) {
		c.riStart += int(c.runs[c.ri].N)
		c.ri++
	}
	for i, at := c.ri, uint32(c.riStart); at < hi; i++ {
		r := c.runs[i]
		if at < lo {
			r.A, r.N = r.At(lo-at), r.N-(lo-at)
			at = lo
		}
		if at+r.N > hi {
			r.N = hi - at
		}
		out = append(out, r)
		at += r.N
	}
	c.out = out
	return out
}
