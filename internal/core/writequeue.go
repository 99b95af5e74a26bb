// Package core implements the GPS hardware proposal of Sections 3 and 5 of
// the paper: the remote write queue that coalesces weak stores at cache-block
// granularity, the GPS address translation unit with its small GPS-TLB of
// subscriber sets, the access tracking unit that profiles page touches via
// last-level TLB misses, and the subscription manager whose one page-state
// table every translation reads.
package core

import (
	"fmt"
	"math/bits"

	"gps/internal/memsys"
)

// WriteQueueStats counts queue activity.
type WriteQueueStats struct {
	Stores     uint64 // total coalescable stores offered
	Hits       uint64 // stores merged into a resident block
	Misses     uint64 // stores that allocated a new block
	Atomics    uint64 // pass-through operations
	Drains     uint64 // blocks drained at the watermark or by Drain
	Flushes    uint64 // blocks drained by synchronization
	FlushCalls uint64 // number of Flush invocations
}

// HitRate returns the fraction of coalescable stores that merged into a
// resident block (Figure 14's metric). Atomics count as offered stores that
// can never hit, matching the paper's observation that atomic-dominated
// workloads exhibit 0% hit rate.
func (s WriteQueueStats) HitRate() float64 {
	total := s.Stores + s.Atomics
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// WriteQueue is the GPS remote write queue (Section 5.2): a fully
// associative, virtually addressed buffer of cache blocks awaiting
// replication to remote subscribers. Weak stores to the same block coalesce;
// when occupancy reaches the high watermark, the least recently added block
// drains; sys-scoped synchronization flushes everything.
//
// Layout. Resident lines are held as runs: a circular ring of {first line,
// n} entries in insertion order (the live window is [head, tail)), each run
// inside one 64-line group (line index >> 6). An append that continues the
// tail run extends it. Residency lives in an open-addressed index from a
// group to a uint64 bitmap of its resident lines, so Contains is one probe
// and one bit test, and a store piece tests up to 64 lines with one word
// operation at any page size. The queue drains strictly FIFO from the head
// run, so the sink receives runs of consecutive lines. Occupancy never
// exceeds watermark-1+64 lines, even inside PushStores, which bounds both
// the ring and the index.
//
// Exactness. PushStores takes a piece one group chunk at a time, with the
// per-line semantics of PushStore: a line hits if it is resident; otherwise
// it is appended, and once occupancy reaches the watermark the oldest line
// drains. A chunk commits in bulk (hits counted, missed bit-runs appended,
// then the excess drained oldest-first) in two cases. With no hits, a drain
// between two of its lines cannot change a decision: drains only remove
// lines, and the chunk's lines are distinct. With no more misses than free
// slots below the watermark, nothing drains at all. Otherwise a drain inside
// the chunk could evict a line the chunk would have hit, so the chunk takes
// the per-line path.
type WriteQueue struct {
	geom      memsys.Geometry
	lineShift int
	watermark int
	n         int // resident lines

	ring     []lineRun
	ringMask uint32
	head     uint32 // free-running; slot = pos & ringMask
	tail     uint32

	idxGroup []uint64 // group of each slot
	idxBits  []uint64 // resident-line bitmap of each slot; 0 marks it empty
	idxMask  uint32
	idxShift int // 64 - log2(len(idxBits))

	drain func(line memsys.VAddr, n uint64)
	stats WriteQueueStats
}

// lineRun is n resident lines from line index first on, all in one group.
type lineRun struct {
	first uint64
	n     uint64
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// lowBits returns a mask of the n low bits, 1 <= n <= 64.
func lowBits(n uint64) uint64 { return ^uint64(0) >> (64 - n) }

// NewWriteQueue builds one GPU's write queue. drain receives every block
// leaving the queue toward the GPS address translation unit, in order, as
// runs of n consecutive lines from the line-aligned address line; it must
// not re-enter the queue.
func NewWriteQueue(geom memsys.Geometry, capacity, watermark int, drain func(line memsys.VAddr, n uint64)) *WriteQueue {
	if capacity <= 0 {
		panic("core: write queue capacity must be positive")
	}
	if watermark <= 0 || watermark > capacity {
		panic(fmt.Sprintf("core: watermark %d out of range (1..%d)", watermark, capacity))
	}
	if drain == nil {
		panic("core: write queue needs a drain sink")
	}
	maxLines := watermark - 1 + 64
	ringSize := nextPow2(maxLines)
	idxSize := nextPow2(maxLines + maxLines/2) // load factor stays under 2/3
	return &WriteQueue{
		geom:      geom,
		lineShift: geom.LineShift(),
		watermark: watermark,
		ring:      make([]lineRun, ringSize),
		ringMask:  uint32(ringSize - 1),
		idxGroup:  make([]uint64, idxSize),
		idxBits:   make([]uint64, idxSize),
		idxMask:   uint32(idxSize - 1),
		idxShift:  64 - bits.TrailingZeros(uint(idxSize)),
		drain:     drain,
	}
}

// Len returns the current occupancy in blocks.
func (q *WriteQueue) Len() int { return q.n }

// home returns the index slot group g probes first, spread by a Fibonacci
// multiply.
func (q *WriteQueue) home(g uint64) uint32 { return uint32(g * 0x9E3779B97F4A7C15 >> q.idxShift) }

// find returns the slot and resident-line bitmap of group g, or the empty
// slot where g would go and 0.
func (q *WriteQueue) find(g uint64) (uint32, uint64) {
	for i := q.home(g); ; i = (i + 1) & q.idxMask {
		if w := q.idxBits[i]; w == 0 || q.idxGroup[i] == g {
			return i, w
		}
	}
}

// clearLines removes the lines in mask from group g's bitmap, which holds
// them all, and frees g's slot when no line of it is left.
func (q *WriteQueue) clearLines(g, mask uint64) {
	i, w := q.find(g)
	if w &^= mask; w != 0 {
		q.idxBits[i] = w
		return
	}
	// Backward-shift deletion: pull each later entry of the probe cluster
	// whose home slot is not in (i, j] into the hole, so every lookup still
	// reaches its group without tombstones.
	q.idxBits[i] = 0
	for j := (i + 1) & q.idxMask; q.idxBits[j] != 0; j = (j + 1) & q.idxMask {
		if (j-q.home(q.idxGroup[j]))&q.idxMask >= (j-i)&q.idxMask {
			q.idxGroup[i], q.idxBits[i] = q.idxGroup[j], q.idxBits[j]
			q.idxBits[j] = 0
			i = j
		}
	}
}

// appendRun appends n lines from line index first, all in one group and
// none resident, at the tail of the ring.
func (q *WriteQueue) appendRun(first, n uint64) {
	q.n += int(n)
	// A run that starts inside a group and continues the tail run is in
	// the tail run's group.
	if q.head != q.tail && first&63 != 0 {
		if t := &q.ring[(q.tail-1)&q.ringMask]; t.first+t.n == first {
			t.n += n
			return
		}
	}
	q.ring[q.tail&q.ringMask] = lineRun{first, n}
	q.tail++
}

// Contains reports whether the block holding va is resident in the queue.
// GPS uses this on the load path of non-subscribers: a load may forward its
// value from the remote write queue instead of issuing remotely
// (Section 5.1).
func (q *WriteQueue) Contains(va memsys.VAddr) bool {
	line := uint64(va) >> q.lineShift
	_, w := q.find(line >> 6)
	return w>>(line&63)&1 != 0
}

// Stats returns a snapshot of the queue's counters.
func (q *WriteQueue) Stats() WriteQueueStats { return q.stats }

// PushStore offers a weak (non-sys-scoped, non-atomic) store to the queue
// and reports whether it coalesced into a resident block. Reaching the high
// watermark drains the least recently added block.
func (q *WriteQueue) PushStore(va memsys.VAddr) (coalesced bool) {
	return q.pushLine(uint64(va) >> q.lineShift)
}

// PushStores offers weak stores to the k consecutive lines from the
// line-aligned address line, in address order, exactly as k PushStore calls
// would, and returns how many coalesced. The lines must not wrap past the
// top of the address space.
func (q *WriteQueue) PushStores(line memsys.VAddr, k uint64) (hits int) {
	for idx := uint64(line) >> q.lineShift; k > 0; {
		g, off := idx>>6, idx&63
		c := min(k, 64-off)
		chunk := lowBits(c) << off
		i, w := q.find(g)
		hit := w & chunk
		h := bits.OnesCount64(hit)
		misses := int(c) - h
		if hit != 0 && misses > q.watermark-1-q.n {
			for j := idx; j < idx+c; j++ {
				if q.pushLine(j) {
					hits++
				}
			}
		} else {
			hits += h
			q.stats.Stores += c
			q.stats.Hits += uint64(h)
			q.stats.Misses += uint64(misses)
			if m := chunk &^ w; m != 0 {
				q.idxGroup[i], q.idxBits[i] = g, w|m
				for m != 0 {
					lo := uint64(bits.TrailingZeros64(m))
					n := uint64(bits.TrailingZeros64(^(m >> lo)))
					q.appendRun(g<<6|lo, n)
					m &^= lowBits(n) << lo
				}
				if over := q.n - (q.watermark - 1); over > 0 {
					q.stats.Drains += uint64(over)
					q.drainLines(over)
				}
			}
		}
		idx += c
		k -= c
	}
	return hits
}

// pushLine offers a store to line index idx: the body of PushStore and the
// per-line path of PushStores.
func (q *WriteQueue) pushLine(idx uint64) (coalesced bool) {
	q.stats.Stores++
	g, bit := idx>>6, uint64(1)<<(idx&63)
	i, w := q.find(g)
	if w&bit != 0 {
		q.stats.Hits++
		return true
	}
	q.stats.Misses++
	q.idxGroup[i], q.idxBits[i] = g, w|bit
	q.appendRun(idx, 1)
	if q.n >= q.watermark {
		q.stats.Drains++
		q.drainLines(1)
	}
	return false
}

// PushAtomic offers an atomic RMW. The GPS write queue does not support
// coalescing atomics (Section 7.4), so the operation passes straight through
// to the drain sink as a one-line run.
//
// The pass-through reaches the sink ahead of every older resident block, so
// an atomic can become visible before a weak store issued before it. The
// litmus explorer in internal/consistency instead queues an atomic behind
// older entries and forbids that order: with x and y two words of one line,
// GPU0 running "store x=1; atomicAdd y+=1" and GPU1 running "load y; load x"
// may read y=1, x=0 here but not in the explorer. Which side is right is
// still open.
func (q *WriteQueue) PushAtomic(va memsys.VAddr) {
	q.stats.Atomics++
	q.drain(q.geom.LineBase(va), 1)
}

// Flush drains every resident block in insertion order. It models the
// mandatory full drain at sys-scoped synchronization points, including the
// implicit release at the end of every grid (Section 3.3).
func (q *WriteQueue) Flush() {
	q.stats.FlushCalls++
	q.stats.Flushes += uint64(q.n)
	q.drainLines(q.n)
}

// Drain drains the least recently added block, as the watermark does, and
// counts it in Stats().Drains. It reports false when the queue is empty.
func (q *WriteQueue) Drain() bool {
	if q.n == 0 {
		return false
	}
	q.stats.Drains++
	q.drainLines(1)
	return true
}

// drainLines drains the cnt oldest resident lines, cnt <= Len(), handing
// the sink one run per ring entry they cover.
func (q *WriteQueue) drainLines(cnt int) {
	for cnt > 0 {
		r := &q.ring[q.head&q.ringMask]
		first, n := r.first, min(uint64(cnt), r.n)
		if r.first, r.n = first+n, r.n-n; r.n == 0 {
			q.head++
		}
		q.clearLines(first>>6, lowBits(n)<<(first&63))
		q.n -= int(n)
		cnt -= int(n)
		q.drain(memsys.VAddr(first<<q.lineShift), n)
	}
}
