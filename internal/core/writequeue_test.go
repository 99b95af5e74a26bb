package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gps/internal/memsys"
)

func testGeom() memsys.Geometry {
	return memsys.MustGeometry(64<<10, 128, 49, 47)
}

// collectDrains returns a drain sink that records every drained line,
// one entry per line of each run.
func collectDrains(drained *[]memsys.VAddr) func(memsys.VAddr, uint64) {
	return func(line memsys.VAddr, n uint64) {
		for i := uint64(0); i < n; i++ {
			*drained = append(*drained, line+memsys.VAddr(i*testGeom().LineBytes))
		}
	}
}

func TestWriteQueueCoalescesSameLine(t *testing.T) {
	var drained []memsys.VAddr
	q := NewWriteQueue(testGeom(), 8, 7, collectDrains(&drained))
	if q.PushStore(0) {
		t.Fatal("first store should miss")
	}
	if !q.PushStore(4) {
		t.Fatal("same-line store should coalesce")
	}
	if !q.PushStore(127) {
		t.Fatal("same-line store should coalesce")
	}
	if q.PushStore(128) {
		t.Fatal("next-line store should miss")
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	if len(drained) != 0 {
		t.Fatalf("nothing should drain below the watermark, got %d", len(drained))
	}
	s := q.Stats()
	if s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/2", s.Hits, s.Misses)
	}
	if s.HitRate() != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", s.HitRate())
	}
}

func TestWriteQueueNonConsecutiveCoalescing(t *testing.T) {
	// Section 3.3: "Stores need not be consecutive to be coalesced".
	var drained []memsys.VAddr
	q := NewWriteQueue(testGeom(), 8, 7, collectDrains(&drained))
	q.PushStore(0)        // line 0
	q.PushStore(512)      // line 4
	if !q.PushStore(64) { // back to line 0
		t.Fatal("non-consecutive same-line store should still coalesce")
	}
}

func TestWriteQueueWatermarkDrainsOldest(t *testing.T) {
	var drained []memsys.VAddr
	// Capacity 512, watermark 511 in the paper; scaled here: cap 4, mark 3.
	q := NewWriteQueue(testGeom(), 4, 3, collectDrains(&drained))
	q.PushStore(0 * 128)
	q.PushStore(1 * 128)
	q.PushStore(2 * 128) // occupancy hits 3 == watermark: drain LRA (line 0)
	if len(drained) != 1 || drained[0] != 0 {
		t.Fatalf("drained %v, want [0]", drained)
	}
	if s := q.Stats(); s.Drains != 1 || s.Flushes != 0 {
		t.Fatalf("drains/flushes = %d/%d, want 1/0", s.Drains, s.Flushes)
	}
	if q.Len() != 2 {
		t.Fatalf("Len after drain = %d, want 2", q.Len())
	}
}

func TestWriteQueueDrainCarriesMergedWrites(t *testing.T) {
	var drained []memsys.VAddr
	q := NewWriteQueue(testGeom(), 4, 3, collectDrains(&drained))
	q.PushStore(0)
	q.PushStore(8)
	q.PushStore(16)
	q.PushStore(128)
	q.PushStore(256) // drains line 0 once, carrying its 3 merged writes
	if len(drained) != 1 || drained[0] != 0 {
		t.Fatalf("drained = %v, want line 0 once", drained)
	}
	if s := q.Stats(); s.Stores != 5 || s.Hits != 2 || s.Misses != 3 {
		t.Fatalf("stores/hits/misses = %d/%d/%d, want 5/2/3", s.Stores, s.Hits, s.Misses)
	}
}

func TestWriteQueueFlushDrainsAllInOrder(t *testing.T) {
	var drained []memsys.VAddr
	q := NewWriteQueue(testGeom(), 16, 15, collectDrains(&drained))
	for i := 0; i < 5; i++ {
		q.PushStore(memsys.VAddr(i * 128))
	}
	q.Flush()
	if q.Len() != 0 {
		t.Fatalf("Len after flush = %d", q.Len())
	}
	if len(drained) != 5 {
		t.Fatalf("flush drained %d, want 5", len(drained))
	}
	for i, line := range drained {
		if line != memsys.VAddr(i*128) {
			t.Fatalf("flush order wrong at %d: %v", i, drained)
		}
	}
	if s := q.Stats(); s.Flushes != 5 || s.Drains != 0 || s.FlushCalls != 1 {
		t.Fatalf("flushes/drains/calls = %d/%d/%d, want 5/0/1", s.Flushes, s.Drains, s.FlushCalls)
	}
	// Queue stays usable after flush.
	q.PushStore(0)
	if q.Len() != 1 {
		t.Fatal("queue unusable after flush")
	}
}

func TestWriteQueueAtomicsPassThrough(t *testing.T) {
	var drained []memsys.VAddr
	q := NewWriteQueue(testGeom(), 8, 7, collectDrains(&drained))
	q.PushAtomic(192)
	q.PushAtomic(192) // same line: still no coalescing for atomics
	if q.Len() != 0 {
		t.Fatal("atomics must not occupy the queue")
	}
	if len(drained) != 2 || drained[0] != 128 || drained[1] != 128 {
		t.Fatalf("atomic drains = %v, want line 128 twice", drained)
	}
	if s := q.Stats(); s.Atomics != 2 || s.Drains != 0 || s.Flushes != 0 {
		t.Fatalf("atomics/drains/flushes = %d/%d/%d, want 2/0/0", s.Atomics, s.Drains, s.Flushes)
	}
	if q.Stats().HitRate() != 0 {
		t.Fatal("atomic-only stream must have 0%% hit rate (Section 7.4)")
	}
}

func TestWriteQueueHitRateIncludesAtomicsInDenominator(t *testing.T) {
	var drained []memsys.VAddr
	q := NewWriteQueue(testGeom(), 8, 7, collectDrains(&drained))
	q.PushStore(0)
	q.PushStore(4) // hit
	q.PushAtomic(128)
	q.PushAtomic(128)
	s := q.Stats()
	if got, want := s.HitRate(), 0.25; got != want {
		t.Fatalf("HitRate = %v, want %v", got, want)
	}
}

func TestWriteQueueStreamingHasZeroHitRate(t *testing.T) {
	// A pure streaming writer (each line touched once, like Jacobi after SM
	// coalescing) must see 0% queue hit rate.
	var drained []memsys.VAddr
	q := NewWriteQueue(testGeom(), 512, 511, collectDrains(&drained))
	for i := 0; i < 10000; i++ {
		q.PushStore(memsys.VAddr(i * 128))
	}
	if q.Stats().HitRate() != 0 {
		t.Fatalf("streaming hit rate = %v, want 0", q.Stats().HitRate())
	}
}

func TestWriteQueueTemporalLocalityCapturedByLargerQueue(t *testing.T) {
	// Revisit each line after touching `gap` other lines. A queue larger
	// than the gap captures the revisit; a smaller one does not. This is the
	// mechanism behind Figure 14.
	hitRate := func(capacity, gap int) float64 {
		q := NewWriteQueue(testGeom(), capacity, capacity-1, func(memsys.VAddr, uint64) {})
		for rep := 0; rep < 20; rep++ {
			for i := 0; i < gap; i++ {
				q.PushStore(memsys.VAddr(i * 128))
			}
		}
		return q.Stats().HitRate()
	}
	small := hitRate(64, 256)
	large := hitRate(512, 256)
	if small != 0 {
		t.Fatalf("small queue hit rate = %v, want 0", small)
	}
	if large < 0.9 {
		t.Fatalf("large queue hit rate = %v, want >= 0.9", large)
	}
}

func TestWriteQueueOccupancyNeverExceedsWatermark(t *testing.T) {
	q := NewWriteQueue(testGeom(), 512, 511, func(memsys.VAddr, uint64) {})
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100000; i++ {
		q.PushStore(memsys.VAddr(rng.Intn(100000) * 128))
		if q.Len() >= 512 {
			t.Fatalf("occupancy %d reached capacity", q.Len())
		}
	}
}

// Property: conservation — every store is eventually accounted as exactly
// one of {hit, miss}, and every missed line drains exactly once.
func TestWriteQueueConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		var drained int
		q := NewWriteQueue(testGeom(), 32, 31, func(_ memsys.VAddr, n uint64) { drained += int(n) })
		n := 1 + rng.Intn(5000)
		for i := 0; i < n; i++ {
			q.PushStore(memsys.VAddr(rng.Intn(200) * 128))
		}
		s := q.Stats()
		if s.Hits+s.Misses != uint64(n) {
			t.Fatalf("hits+misses = %d, want %d", s.Hits+s.Misses, n)
		}
		q.Flush()
		if uint64(drained) != s.Misses || s.Drains+q.Stats().Flushes != s.Misses {
			t.Fatalf("drained %d lines (%d at the watermark, %d by flush), want %d misses (no block lost or duplicated)",
				drained, s.Drains, q.Stats().Flushes, s.Misses)
		}
		if q.Len() != 0 {
			t.Fatal("residue after flush")
		}
	}
}

func TestWriteQueueDrainOne(t *testing.T) {
	var drained []memsys.VAddr
	q := NewWriteQueue(testGeom(), 8, 7, collectDrains(&drained))
	q.PushStore(128)
	q.PushStore(0)
	q.PushStore(130) // coalesces: line 128 stays the oldest block
	if !q.Drain() || len(drained) != 1 || drained[0] != 128 {
		t.Fatalf("first Drain delivered %v, want the oldest line [128]", drained)
	}
	if !q.Drain() || len(drained) != 2 || drained[1] != 0 {
		t.Fatalf("second Drain delivered %v, want line 0 next", drained)
	}
	if q.Drain() {
		t.Fatal("Drain on an empty queue reported a block")
	}
	if s := q.Stats(); s.Drains != 2 || s.Flushes != 0 || q.Len() != 0 {
		t.Fatalf("drains/flushes/len = %d/%d/%d, want 2/0/0", s.Drains, s.Flushes, q.Len())
	}

	// Interleaved with PushStore, Drain keeps the conservation invariant:
	// every missed line drains exactly once, at the watermark, by Drain or
	// by the final Flush.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		var n int
		q := NewWriteQueue(testGeom(), 32, 31, func(_ memsys.VAddr, k uint64) { n += int(k) })
		stores := 1 + rng.Intn(5000)
		for i := 0; i < stores; i++ {
			q.PushStore(memsys.VAddr(rng.Intn(200) * 128))
			if rng.Intn(3) == 0 {
				q.Drain()
			}
		}
		s := q.Stats()
		if s.Hits+s.Misses != uint64(stores) {
			t.Fatalf("hits+misses = %d, want %d", s.Hits+s.Misses, stores)
		}
		q.Flush()
		if uint64(n) != s.Misses || s.Drains+q.Stats().Flushes != s.Misses {
			t.Fatalf("drained %d lines (%d by the watermark or Drain, %d by flush), want %d misses",
				n, s.Drains, q.Stats().Flushes, s.Misses)
		}
		if q.Len() != 0 {
			t.Fatal("residue after flush")
		}
	}
}

func TestWriteQueueConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewWriteQueue(testGeom(), 0, 1, func(memsys.VAddr, uint64) {}) },
		func() { NewWriteQueue(testGeom(), 4, 0, func(memsys.VAddr, uint64) {}) },
		func() { NewWriteQueue(testGeom(), 4, 5, func(memsys.VAddr, uint64) {}) },
		func() { NewWriteQueue(testGeom(), 4, 3, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected constructor panic")
				}
			}()
			f()
		}()
	}
}

func BenchmarkWriteQueuePushStore(b *testing.B) {
	q := NewWriteQueue(testGeom(), 512, 511, func(memsys.VAddr, uint64) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.PushStore(memsys.VAddr((i % 4096) * 128))
	}
}

// BenchmarkWriteQueuePushStores pushes 64-line store pieces, half of them
// revisits of the previous piece's lines, the shape of the stencil and
// particle apps' shared stores.
func BenchmarkWriteQueuePushStores(b *testing.B) {
	q := NewWriteQueue(testGeom(), 512, 511, func(memsys.VAddr, uint64) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		piece := i / 2 * 2 // pieces i and i+1 store the same lines
		q.PushStores(memsys.VAddr((piece%4096)*64*128), 64)
	}
}

// referenceWriteQueue is the per-line write queue WriteQueue must match: a
// FIFO of resident line addresses and a residency set, one line per store.
type referenceWriteQueue struct {
	geom      memsys.Geometry
	watermark int
	fifo      []memsys.VAddr
	resident  map[memsys.VAddr]bool
	drained   []memsys.VAddr
	stats     WriteQueueStats
}

func newReferenceWriteQueue(geom memsys.Geometry, watermark int) *referenceWriteQueue {
	return &referenceWriteQueue{geom: geom, watermark: watermark, resident: map[memsys.VAddr]bool{}}
}

func (r *referenceWriteQueue) pushStore(va memsys.VAddr) bool {
	line := r.geom.LineBase(va)
	r.stats.Stores++
	if r.resident[line] {
		r.stats.Hits++
		return true
	}
	r.stats.Misses++
	r.resident[line] = true
	r.fifo = append(r.fifo, line)
	if len(r.fifo) >= r.watermark {
		r.stats.Drains++
		r.drainOldest()
	}
	return false
}

func (r *referenceWriteQueue) pushAtomic(va memsys.VAddr) {
	r.stats.Atomics++
	r.drained = append(r.drained, r.geom.LineBase(va))
}

func (r *referenceWriteQueue) drain() bool {
	if len(r.fifo) == 0 {
		return false
	}
	r.stats.Drains++
	r.drainOldest()
	return true
}

func (r *referenceWriteQueue) flush() {
	r.stats.FlushCalls++
	r.stats.Flushes += uint64(len(r.fifo))
	for len(r.fifo) > 0 {
		r.drainOldest()
	}
}

func (r *referenceWriteQueue) drainOldest() {
	line := r.fifo[0]
	r.fifo = r.fifo[1:]
	delete(r.resident, line)
	r.drained = append(r.drained, line)
}

// compareWithReference drives a WriteQueue and the reference through the
// same operations, drawn by pick(n) in [0, n) until ops run out or pick
// reports it is exhausted, and returns the first divergence. The queue's
// configuration is drawn first: page and line size, capacity 1-600, a
// watermark from 1 to capacity, and a window of lines the stores revisit,
// dense or spread over many groups.
func compareWithReference(ops int, pick func(n int) (int, bool)) error {
	draw := func(n int) int { v, _ := pick(n); return v }
	pageBytes := []uint64{4 << 10, 64 << 10, 2 << 20}[draw(3)]
	lineBytes := []uint64{32, 128}[draw(2)]
	geom := memsys.MustGeometry(pageBytes, lineBytes, 49, 47)
	capacity := 1 + draw(600)
	watermark := 1 + draw(capacity)
	window := 1 + draw(2*capacity+256)
	spread := []uint64{1, 64, 67}[draw(3)] // lines apart; 64 or more puts each in its own group
	base := memsys.VAddr(1<<33 + uint64(draw(64))*pageBytes)

	var got []memsys.VAddr
	var emptyRuns int
	q := NewWriteQueue(geom, capacity, watermark, func(line memsys.VAddr, n uint64) {
		if n == 0 {
			emptyRuns++
		}
		for i := uint64(0); i < n; i++ {
			got = append(got, line+memsys.VAddr(i*lineBytes))
		}
	})
	ref := newReferenceWriteQueue(geom, watermark)
	config := fmt.Sprintf("page %d, line %d, capacity %d, watermark %d, window %d, spread %d",
		pageBytes, lineBytes, capacity, watermark, window, spread)
	addr := func() memsys.VAddr {
		return base + memsys.VAddr(uint64(draw(window))*spread*lineBytes+uint64(draw(int(lineBytes))))
	}
	for op := 0; op < ops; op++ {
		kind, ok := pick(16)
		if !ok {
			break
		}
		var desc string
		var gotN, wantN int
		switch {
		case kind < 8:
			line, k := geom.LineBase(addr()), 1+draw(200)
			desc = fmt.Sprintf("PushStores(%#x, %d)", line, k)
			gotN = q.PushStores(line, uint64(k))
			for i := 0; i < k; i++ {
				if ref.pushStore(line + memsys.VAddr(uint64(i)*lineBytes)) {
					wantN++
				}
			}
		case kind < 11:
			va := addr()
			desc = fmt.Sprintf("PushStore(%#x)", va)
			gotN, wantN = b2i(q.PushStore(va)), b2i(ref.pushStore(va))
		case kind < 12:
			va := addr()
			desc = fmt.Sprintf("PushAtomic(%#x)", va)
			q.PushAtomic(va)
			ref.pushAtomic(va)
		case kind < 14:
			va := addr()
			desc = fmt.Sprintf("Contains(%#x)", va)
			gotN, wantN = b2i(q.Contains(va)), b2i(ref.resident[geom.LineBase(va)])
		case kind < 15:
			desc = "Drain()"
			gotN, wantN = b2i(q.Drain()), b2i(ref.drain())
		default:
			desc = "Flush()"
			q.Flush()
			ref.flush()
		}
		if gotN != wantN || q.Len() != len(ref.fifo) {
			return fmt.Errorf("%s: op %d %s returned %d with Len %d, reference %d with Len %d",
				config, op, desc, gotN, q.Len(), wantN, len(ref.fifo))
		}
	}
	q.Flush()
	ref.flush()
	if q.Stats() != ref.stats {
		return fmt.Errorf("%s: stats %+v, reference %+v", config, q.Stats(), ref.stats)
	}
	if emptyRuns != 0 {
		return fmt.Errorf("%s: %d empty runs reached the sink", config, emptyRuns)
	}
	if !slices.Equal(got, ref.drained) {
		return fmt.Errorf("%s: drained %d lines, reference %d, first difference at %d",
			config, len(got), len(ref.drained), firstDiff(got, ref.drained))
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func firstDiff(a, b []memsys.VAddr) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestWriteQueueMatchesReference checks the run-granular queue against the
// per-line reference on seeded random streams of every operation, with
// store pieces that cross group and page ends.
func TestWriteQueueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	pick := func(n int) (int, bool) { return rng.Intn(n), true }
	trials := 1000
	if testing.Short() {
		trials = 200
	}
	for trial := 0; trial < trials; trial++ {
		if err := compareWithReference(300, pick); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// FuzzWriteQueue is TestWriteQueueMatchesReference driven by fuzz bytes:
// each draw takes two bytes, and the operations end with the input.
func FuzzWriteQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 1, 0, 0, 40, 0, 3, 0, 0, 1, 9, 0, 0, 0, 63, 0, 5, 0, 2, 0, 15})
	f.Add(bytes.Repeat([]byte{0, 2, 1, 255, 0, 7}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(n int) (int, bool) {
			if len(data) < 2 {
				return 0, false
			}
			v := int(data[0])<<8 | int(data[1])
			data = data[2:]
			return v % n, true
		}
		if err := compareWithReference(1000, pick); err != nil {
			t.Fatal(err)
		}
	})
}
