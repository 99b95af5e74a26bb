// Package core implements the GPS hardware proposal of Sections 3 and 5 of
// the paper: the remote write queue that coalesces weak stores at cache-block
// granularity, the GPS address translation unit with its small GPS-TLB
// backed by the wide GPS page table, the access tracking unit that profiles
// page touches via last-level TLB misses, and the subscription manager that
// ties them to the conventional and GPS page tables.
package core

import (
	"fmt"

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
// Resident blocks live in a circular ring in insertion order (the live
// window is [head, tail)), reached through an open-addressed index from
// resident line addresses. The queue drains strictly FIFO, so a ring slot
// is only reused after its line has left the index — PushStore, Contains
// and drainOldest all run without map machinery or per-block allocation,
// which matters because every weak store in a GPS replay passes through
// here.
type WriteQueue struct {
	geom      memsys.Geometry
	watermark int

	ring     []memsys.VAddr // resident line addresses
	ringMask uint32
	head     uint32 // free-running; slot = pos & ringMask
	tail     uint32

	idxKeys  []memsys.VAddr
	idxState []uint8 // idxEmpty / idxTombstone / idxFull
	idxMask  uint32
	idxLive  int
	idxDead  int

	drain func(line memsys.VAddr)
	stats WriteQueueStats
}

const (
	idxEmpty uint8 = iota
	idxTombstone
	idxFull
)

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewWriteQueue builds one GPU's write queue. drain receives the
// line-aligned address of every block leaving the queue toward the GPS
// address translation unit, in order; it must not re-enter the queue.
func NewWriteQueue(geom memsys.Geometry, capacity, watermark int, drain func(line memsys.VAddr)) *WriteQueue {
	if capacity <= 0 {
		panic("core: write queue capacity must be positive")
	}
	if watermark <= 0 || watermark > capacity {
		panic(fmt.Sprintf("core: watermark %d out of range (1..%d)", watermark, capacity))
	}
	if drain == nil {
		panic("core: write queue needs a drain sink")
	}
	ringSize := nextPow2(capacity)
	idxSize := nextPow2(4 * capacity) // load factor stays under 25% live
	return &WriteQueue{
		geom:      geom,
		watermark: watermark,
		ring:      make([]memsys.VAddr, ringSize),
		ringMask:  uint32(ringSize - 1),
		idxKeys:   make([]memsys.VAddr, idxSize),
		idxState:  make([]uint8, idxSize),
		idxMask:   uint32(idxSize - 1),
		drain:     drain,
	}
}

// Len returns the current occupancy in blocks.
func (q *WriteQueue) Len() int { return int(q.tail - q.head) }

// idxHash spreads a line-aligned address (low bits all zero) across the
// index via a Fibonacci multiply.
func (q *WriteQueue) idxHash(line memsys.VAddr) uint32 {
	return uint32(uint64(line)*0x9E3779B97F4A7C15>>32) & q.idxMask
}

// idxFind reports whether line is resident.
func (q *WriteQueue) idxFind(line memsys.VAddr) bool {
	for i := q.idxHash(line); ; i = (i + 1) & q.idxMask {
		switch q.idxState[i] {
		case idxEmpty:
			return false
		case idxFull:
			if q.idxKeys[i] == line {
				return true
			}
		}
	}
}

// idxInsert records line. The caller guarantees line is absent.
func (q *WriteQueue) idxInsert(line memsys.VAddr) {
	if 2*(q.idxLive+q.idxDead) >= len(q.idxState) {
		q.idxRehash()
	}
	for i := q.idxHash(line); ; i = (i + 1) & q.idxMask {
		if q.idxState[i] != idxFull {
			if q.idxState[i] == idxTombstone {
				q.idxDead--
			}
			q.idxState[i] = idxFull
			q.idxKeys[i] = line
			q.idxLive++
			return
		}
	}
}

// idxDelete removes line from the index. The caller guarantees presence.
func (q *WriteQueue) idxDelete(line memsys.VAddr) {
	for i := q.idxHash(line); ; i = (i + 1) & q.idxMask {
		if q.idxState[i] == idxFull && q.idxKeys[i] == line {
			q.idxState[i] = idxTombstone
			q.idxLive--
			q.idxDead++
			return
		}
	}
}

// idxRehash clears accumulated tombstones by reinserting the live window.
func (q *WriteQueue) idxRehash() {
	clear(q.idxState)
	q.idxLive, q.idxDead = 0, 0
	for pos := q.head; pos != q.tail; pos++ {
		line := q.ring[pos&q.ringMask]
		for i := q.idxHash(line); ; i = (i + 1) & q.idxMask {
			if q.idxState[i] != idxFull {
				q.idxState[i] = idxFull
				q.idxKeys[i] = line
				q.idxLive++
				break
			}
		}
	}
}

// Contains reports whether the block holding va is resident in the queue.
// GPS uses this on the load path of non-subscribers: a load may forward its
// value from the remote write queue instead of issuing remotely
// (Section 5.1).
func (q *WriteQueue) Contains(va memsys.VAddr) bool {
	return q.idxFind(q.geom.LineBase(va))
}

// Stats returns a snapshot of the queue's counters.
func (q *WriteQueue) Stats() WriteQueueStats { return q.stats }

// PushStore offers a weak (non-sys-scoped, non-atomic) store to the queue
// and reports whether it coalesced into a resident block. Reaching the high
// watermark drains the least recently added block.
func (q *WriteQueue) PushStore(va memsys.VAddr) (coalesced bool) {
	line := q.geom.LineBase(va)
	q.stats.Stores++
	if q.idxFind(line) {
		q.stats.Hits++
		return true
	}
	q.stats.Misses++
	q.ring[q.tail&q.ringMask] = line
	// Index before advancing tail: a rehash inside idxInsert re-indexes the
	// live window [head, tail), and the new entry must not be in it yet or
	// it would be indexed twice.
	q.idxInsert(line)
	q.tail++
	if q.Len() >= q.watermark {
		q.stats.Drains++
		q.drainOldest()
	}
	return false
}

// PushAtomic offers an atomic RMW. The GPS write queue does not support
// coalescing atomics (Section 7.4), so the operation passes straight through
// to the drain sink.
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
	q.drain(q.geom.LineBase(va))
}

// Flush drains every resident block in insertion order. It models the
// mandatory full drain at sys-scoped synchronization points, including the
// implicit release at the end of every grid (Section 3.3).
func (q *WriteQueue) Flush() {
	q.stats.FlushCalls++
	q.stats.Flushes += uint64(q.Len())
	for q.tail != q.head {
		q.drainOldest()
	}
}

// Drain drains the least recently added block, as the watermark does, and
// counts it in Stats().Drains. It reports false when the queue is empty.
func (q *WriteQueue) Drain() bool {
	if q.tail == q.head {
		return false
	}
	q.stats.Drains++
	q.drainOldest()
	return true
}

func (q *WriteQueue) drainOldest() {
	if q.tail == q.head {
		panic("core: drainOldest on empty queue")
	}
	line := q.ring[q.head&q.ringMask]
	q.head++
	q.idxDelete(line)
	q.drain(line)
}
