package funcsim

import (
	"math"
	"math/rand"
	"testing"
)

func newMachine(t *testing.T, n int) *Machine {
	t.Helper()
	m, err := NewMachine(n, 64<<10, 128)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestReadYourOwnWrites(t *testing.T) {
	m := newMachine(t, 2)
	m.Store(0, 0, 42)
	if got := m.Load(0, 0); got != 42 {
		t.Fatalf("own write invisible: %v", got)
	}
	// Remote replica stale until delivery.
	if got := m.Load(1, 0); got != 0 {
		t.Fatalf("remote saw undelivered write: %v", got)
	}
	m.Barrier()
	if got := m.Load(1, 0); got != 42 {
		t.Fatalf("barrier did not deliver: %v", got)
	}
}

func TestCoalescingDeliversLatestValue(t *testing.T) {
	m := newMachine(t, 2)
	m.Store(0, 8, 1)
	m.Store(0, 8, 2) // coalesces in the queue
	if m.PendingLines(0) != 1 {
		t.Fatalf("pending = %d, want 1 coalesced line", m.PendingLines(0))
	}
	m.Barrier()
	if got := m.Load(1, 8); got != 2 {
		t.Fatalf("consumer saw %v, want the coalesced final value 2", got)
	}
}

func TestDrainDeliversOldestFirst(t *testing.T) {
	m := newMachine(t, 2)
	m.Store(0, 0, 1)   // line 0
	m.Store(0, 128, 2) // line 1
	if !m.Drain(0) {
		t.Fatal("drain failed")
	}
	if got := m.Load(1, 0); got != 1 {
		t.Fatal("oldest line not delivered first")
	}
	if got := m.Load(1, 128); got != 0 {
		t.Fatal("newer line delivered early")
	}
	m.Flush(0)
	if got := m.Load(1, 128); got != 2 {
		t.Fatal("flush incomplete")
	}
	if m.Drain(0) {
		t.Fatal("drain on empty queue reported work")
	}
}

func TestSubscriptionScopedDelivery(t *testing.T) {
	m := newMachine(t, 4)
	if err := m.SetSubscribers(0, 64<<10, 0, 1); err != nil {
		t.Fatal(err)
	}
	m.Store(0, 0, 7)
	m.Barrier()
	if got := m.Load(1, 0); got != 7 {
		t.Fatal("subscriber missed delivery")
	}
	// Non-subscriber loads resolve remotely from the first subscriber: the
	// value is visible even though GPU 2 holds no replica.
	if got := m.Load(2, 0); got != 7 {
		t.Fatalf("non-subscriber remote load = %v, want 7", got)
	}
	if _, resident := m.replicas[2][0]; resident {
		t.Fatal("non-subscriber received a replica")
	}
}

func TestNonSubscriberStoreStillPublishes(t *testing.T) {
	// Section 3.2: subscriptions are hints, not functional requirements. A
	// store by a non-subscriber has no local replica but must reach the
	// subscribers.
	m := newMachine(t, 4)
	if err := m.SetSubscribers(0, 64<<10, 1, 2); err != nil {
		t.Fatal(err)
	}
	m.Store(0, 0, 9) // GPU 0 is not subscribed
	m.Barrier()
	for _, g := range []int{1, 2} {
		if got := m.Load(g, 0); got != 9 {
			t.Fatalf("subscriber %d saw %v, want 9", g, got)
		}
	}
	// The writer itself reads it back remotely.
	if got := m.Load(0, 0); got != 9 {
		t.Fatalf("non-subscriber writer read back %v", got)
	}
}

// Section 5.1: a non-subscriber's load forwards a word pending in its own
// write queue, as the GPS timing model does, so a GPU reads its own write
// before the write reaches any subscriber.
func TestNonSubscriberReadsOwnQueuedWrite(t *testing.T) {
	m := newMachine(t, 4)
	if err := m.SetSubscribers(0, 64<<10, 1, 2); err != nil {
		t.Fatal(err)
	}
	m.Store(0, 0, 9) // GPU 0 is not subscribed; the line stays queued
	if got := m.Load(0, 0); got != 9 {
		t.Fatalf("non-subscriber read its queued write as %v, want 9", got)
	}
	// A word of the same line that GPU 0 did not write still reads remotely.
	m.Store(1, 8, 5)
	m.Barrier()
	m.Store(0, 0, 10)
	if got := m.Load(0, 8); got != 5 {
		t.Fatalf("unwritten word of a queued line read %v, want the subscriber's 5", got)
	}
	if got := m.Load(1, 0); got != 9 {
		t.Fatalf("subscriber saw %v before the drain, want the delivered 9", got)
	}
}

// A GPU subscribed to a page after the page was written gets the page's
// values from an existing subscriber, as a GPS subscription copies it.
func TestNewSubscriberReadsPublishedValues(t *testing.T) {
	m := newMachine(t, 2)
	if err := m.SetSubscribers(0, 64<<10, 0); err != nil {
		t.Fatal(err)
	}
	m.Store(0, 0, 5)
	m.Barrier()
	if err := m.SetSubscribers(0, 64<<10, 0, 1); err != nil {
		t.Fatal(err)
	}
	if got := m.Load(1, 0); got != 5 {
		t.Fatalf("new subscriber GPU 1 read %v, want 5", got)
	}
	if err := m.ReplicasConsistent(); err != nil {
		t.Fatal(err)
	}
}

// Changing a page's subscribers while a line of it is queued would split
// the line's delivery between the old set and the new one.
func TestSetSubscribersRejectsQueuedLines(t *testing.T) {
	m := newMachine(t, 2)
	m.Store(1, 64<<10+8, 3) // a line of page 1 stays queued
	if err := m.SetSubscribers(64<<10, 1, 0); err == nil {
		t.Fatal("subscriber change accepted with a line of the page queued")
	}
	if err := m.SetSubscribers(0, 64<<10, 0); err != nil {
		t.Fatalf("page 0 holds no queued line: %v", err)
	}
	m.Barrier()
	if err := m.SetSubscribers(64<<10, 1, 0); err != nil {
		t.Fatal(err)
	}
	if got := m.Load(1, 64<<10+8); got != 3 {
		t.Fatalf("GPU 1 read %v remotely, want 3", got)
	}
}

// A subscriber with no value for a word another subscriber holds reads it
// as 0, so the replicas diverge unless the other value is 0 too.
func TestReplicasConsistentComparesAbsentWords(t *testing.T) {
	m := newMachine(t, 2)
	m.Store(0, 0, 1)
	m.Store(0, 8, 0)
	m.Barrier()
	delete(m.replicas[1], 8)
	if err := m.ReplicasConsistent(); err != nil {
		t.Fatalf("an absent word diverges from a stored 0: %v", err)
	}
	delete(m.replicas[1], 0)
	if err := m.ReplicasConsistent(); err == nil {
		t.Fatal("a subscriber missing a written word went undetected")
	}
}

func TestReplicasConsistentDetectsDivergence(t *testing.T) {
	m := newMachine(t, 2)
	m.Store(0, 0, 1)
	m.Barrier()
	if err := m.ReplicasConsistent(); err != nil {
		t.Fatal(err)
	}
	// Forge divergence.
	m.replicas[1][0] = 999
	if err := m.ReplicasConsistent(); err == nil {
		t.Fatal("divergence not detected")
	}
}

// jacobiGPS runs a 1D Jacobi relaxation on `gpus` simulated GPUs under GPS
// semantics: each GPU owns a contiguous span, reads one halo word from each
// neighbor, and a barrier separates iterations.
func jacobiGPS(t *testing.T, gpus, size, iters int) []float64 {
	t.Helper()
	m := newMachine(t, gpus)
	srcBase, dstBase := uint64(0), uint64(1<<20)
	addr := func(base uint64, i int) uint64 { return base + uint64(i)*wordBytes }

	// Initialize: GPU 0 writes the initial state, a barrier publishes it.
	for i := 0; i < size; i++ {
		m.Store(0, addr(srcBase, i), float64(i%17)+0.5)
		m.Store(0, addr(dstBase, i), 0)
	}
	m.Barrier()

	per := size / gpus
	for it := 0; it < iters; it++ {
		src, dst := srcBase, dstBase
		if it%2 == 1 {
			src, dst = dstBase, srcBase
		}
		for g := 0; g < gpus; g++ {
			lo, hi := g*per, (g+1)*per
			if g == gpus-1 {
				hi = size
			}
			for i := lo; i < hi; i++ {
				left, right := i-1, i+1
				sum := m.Load(g, addr(src, i)) * 2
				if left >= 0 {
					sum += m.Load(g, addr(src, left))
				}
				if right < size {
					sum += m.Load(g, addr(src, right))
				}
				m.Store(g, addr(dst, i), sum/4)
			}
		}
		m.Barrier()
		if err := m.ReplicasConsistent(); err != nil {
			t.Fatalf("iteration %d: %v", it, err)
		}
	}

	final := srcBase
	if iters%2 == 1 {
		final = dstBase
	}
	out := make([]float64, size)
	for i := range out {
		out[i] = m.Load(0, addr(final, i))
	}
	return out
}

// jacobiReference runs the same relaxation on one coherent array.
func jacobiReference(size, iters int) []float64 {
	src := make([]float64, size)
	dst := make([]float64, size)
	for i := range src {
		src[i] = float64(i%17) + 0.5
	}
	for it := 0; it < iters; it++ {
		for i := 0; i < size; i++ {
			sum := src[i] * 2
			if i > 0 {
				sum += src[i-1]
			}
			if i < size-1 {
				sum += src[i+1]
			}
			dst[i] = sum / 4
		}
		src, dst = dst, src
	}
	return src
}

// The paper's correctness claim, end to end: a barrier-synchronized
// multi-GPU program under GPS replication computes bit-identical results to
// a single coherent memory.
func TestJacobiBitIdenticalUnderGPS(t *testing.T) {
	const size, iters = 512, 8
	want := jacobiReference(size, iters)
	for _, gpus := range []int{1, 2, 4} {
		got := jacobiGPS(t, gpus, size, iters)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d GPUs: word %d = %v, want %v (bit-exact)", gpus, i, got[i], want[i])
			}
		}
	}
}

// Property: any barrier-synchronized program with per-phase exclusive
// writers converges: after the barrier all subscribers agree.
func TestRandomExclusiveWriterProgramsConverge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		gpus := 2 + rng.Intn(3)
		m := newMachine(t, gpus)
		for phase := 0; phase < 4; phase++ {
			// Partition 64 words among GPUs: exclusive writers per phase.
			for w := 0; w < 64; w++ {
				owner := (w + phase) % gpus
				m.Store(owner, uint64(w)*wordBytes, float64(trial*1000+phase*100+w))
				// Interleave opportunistic drains.
				if rng.Intn(4) == 0 {
					m.Drain(owner)
				}
			}
			m.Barrier()
			if err := m.ReplicasConsistent(); err != nil {
				t.Fatalf("trial %d phase %d: %v", trial, phase, err)
			}
		}
	}
}

// Between barriers, staleness is legal and observable: the relaxed window
// GPS exploits to coalesce.
func TestStalenessBetweenBarriersIsObservable(t *testing.T) {
	m := newMachine(t, 2)
	m.Store(0, 0, 1)
	m.Barrier()
	m.Store(0, 0, 2) // not yet delivered
	v0, v1 := m.Load(0, 0), m.Load(1, 0)
	if v0 != 2 {
		t.Fatal("writer must see its own store")
	}
	if v1 != 1 {
		t.Fatalf("remote should still see the old value, got %v", v1)
	}
}

func TestMachineValidation(t *testing.T) {
	if _, err := NewMachine(0, 64<<10, 128); err == nil {
		t.Fatal("zero GPUs accepted")
	}
	if _, err := NewMachine(2, 64<<10, 100); err == nil {
		t.Fatal("non-pow2 line accepted")
	}
	if _, err := NewMachine(2, 1000, 128); err == nil {
		t.Fatal("page not divisible by line accepted")
	}
	m := newMachine(t, 2)
	if err := m.SetSubscribers(0, 1, 5); err == nil {
		t.Fatal("out-of-range subscriber accepted")
	}
	if err := m.SetSubscribers(0, 1); err == nil {
		t.Fatal("empty subscriber set accepted")
	}
	if err := m.SetSubscribers(0, 0, 1); err == nil {
		t.Fatal("empty address range accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned access should panic")
		}
	}()
	m.Store(0, 3, 1)
}

func TestDeliveredCountsTraffic(t *testing.T) {
	m := newMachine(t, 4)
	m.Store(0, 0, 1)
	m.Barrier()
	if m.Delivered != 3 {
		t.Fatalf("Delivered = %d, want 3 (one line to each of 3 peers)", m.Delivered)
	}
	if math.IsNaN(float64(m.Delivered)) {
		t.Fatal("unreachable")
	}
}

// The correct cross-GPU accumulation pattern under GPS: per-GPU partial
// sums in each GPU's own slab (local atomics), folded by the owner after a
// barrier. This is how the graph workloads accumulate contributions without
// relying on cross-GPU atomic coherence.
func TestPerGPUPartialAccumulation(t *testing.T) {
	const gpus = 4
	m := newMachine(t, gpus)
	// partials[g] at word g; total at word 100.
	for g := 0; g < gpus; g++ {
		// Each GPU accumulates locally into its own partial slot.
		sum := 0.0
		for i := 0; i < 10; i++ {
			sum += float64(g + 1)
		}
		m.Store(g, uint64(g)*wordBytes, sum)
	}
	m.Barrier()
	// GPU 0 folds the partials — all local reads after the barrier.
	total := 0.0
	for g := 0; g < gpus; g++ {
		total += m.Load(0, uint64(g)*wordBytes)
	}
	m.Store(0, 100*wordBytes, total)
	m.Barrier()
	want := 10.0 * (1 + 2 + 3 + 4)
	for g := 0; g < gpus; g++ {
		if got := m.Load(g, 100*wordBytes); got != want {
			t.Fatalf("GPU %d sees total %v, want %v", g, got, want)
		}
	}
}
