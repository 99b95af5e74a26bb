package core

import (
	"math/rand"
	"testing"

	"gps/internal/memsys"
)

func testGeom() memsys.Geometry {
	return memsys.MustGeometry(64<<10, 128, 49, 47)
}

func collectDrains(drained *[]memsys.VAddr) func(memsys.VAddr) {
	return func(line memsys.VAddr) { *drained = append(*drained, line) }
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
		q := NewWriteQueue(testGeom(), capacity, capacity-1, func(memsys.VAddr) {})
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
	q := NewWriteQueue(testGeom(), 512, 511, func(memsys.VAddr) {})
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
		q := NewWriteQueue(testGeom(), 32, 31, func(memsys.VAddr) { drained++ })
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
		q := NewWriteQueue(testGeom(), 32, 31, func(memsys.VAddr) { n++ })
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
		func() { NewWriteQueue(testGeom(), 0, 1, func(memsys.VAddr) {}) },
		func() { NewWriteQueue(testGeom(), 4, 0, func(memsys.VAddr) {}) },
		func() { NewWriteQueue(testGeom(), 4, 5, func(memsys.VAddr) {}) },
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
	q := NewWriteQueue(testGeom(), 512, 511, func(memsys.VAddr) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.PushStore(memsys.VAddr((i % 4096) * 128))
	}
}
