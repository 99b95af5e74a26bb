package funcsim

import (
	"math/rand"
	"testing"
)

// Geometry of the generated programs: 4 KB pages of 32 lines, and more
// lines than one write queue holds, so every GPU reaches the watermark.
const (
	fuzzPageBytes = 4 << 10
	fuzzLineBytes = 128
	fuzzLines     = 1024
	fuzzWords     = fuzzLines * fuzzLineBytes / wordBytes
	fuzzPages     = fuzzLines * fuzzLineBytes / fuzzPageBytes
)

// runRandomProgram runs a seeded barrier-synchronized program: phases of
// stores, loads, Drain, Flush and SetSubscribers calls, with one owner per
// word per phase, each phase ending in a Barrier. Within a phase every
// owner must read its own latest value, and SetSubscribers must fail
// exactly when some GPU queues a line of the page. After every barrier the
// queues are empty and every subscriber's replica equals a flat reference
// memory, also after the barrier moves pages to new subscriber sets, wider
// or narrower. It returns the machine and how many explicit Drain calls
// drained a line.
func runRandomProgram(t *testing.T, seed int64, gpus, phases int) (*Machine, uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m, err := NewMachine(gpus, fuzzPageBytes, fuzzLineBytes)
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]uint64, fuzzPages)
	// setSubs moves page to a random nonempty subscriber set and reports
	// whether the machine accepted it.
	setSubs := func(page int) bool {
		mask := 1 + uint64(rng.Int63n(int64(allMask(gpus))))
		var list []int
		for g := 0; g < gpus; g++ {
			if mask&(1<<g) != 0 {
				list = append(list, g)
			}
		}
		queued := false
		for _, lines := range m.pending {
			for line := range lines {
				queued = queued || line/fuzzPageBytes == uint64(page)
			}
		}
		err := m.SetSubscribers(uint64(page)*fuzzPageBytes, fuzzPageBytes, list...)
		if (err != nil) != queued {
			t.Fatalf("SetSubscribers(page %d) = %v with a line of the page queued: %v", page, err, queued)
		}
		if err == nil {
			subs[page] = mask
		}
		return err == nil
	}
	for p := range subs {
		subs[p] = allMask(gpus)
		if rng.Intn(2) == 0 {
			setSubs(p)
		}
	}

	ref := make([]float64, fuzzWords) // flat reference memory
	written := make([]bool, fuzzWords)
	owner := make([]int, fuzzWords)
	var explicit uint64
	next := 0.0
	for phase := 0; phase < phases; phase++ {
		for w := range owner {
			owner[w] = rng.Intn(gpus)
		}
		for op := 0; op < 1500*gpus; op++ {
			w := rng.Intn(fuzzWords)
			g, addr := owner[w], uint64(w)*wordBytes
			switch r := rng.Intn(10000); {
			case r < 8000:
				next++
				m.Store(g, addr, next)
				ref[w], written[w] = next, true
			case r < 9700:
				if got := m.Load(g, addr); got != ref[w] {
					t.Fatalf("phase %d: owner GPU %d (subscribed %v) read word %d as %v, want its latest %v",
						phase, g, m.subscribed(g, addr), w, got, ref[w])
				}
			case r < 9895:
				if m.Drain(rng.Intn(gpus)) {
					explicit++
				}
			case r < 9900:
				m.Flush(rng.Intn(gpus))
			default:
				setSubs(rng.Intn(fuzzPages))
			}
		}
		m.Barrier()
		checkBarrier(t, m, phase, subs, ref, written)
		for p := range subs {
			if rng.Intn(4) == 0 && !setSubs(p) {
				t.Fatalf("phase %d: SetSubscribers(page %d) failed after the barrier", phase, p)
			}
		}
		checkBarrier(t, m, phase, subs, ref, written)
	}
	return m, explicit
}

// checkBarrier asserts the post-barrier state: no queued lines, replicas
// consistent, and every subscriber's replica equal to the reference memory.
func checkBarrier(t *testing.T, m *Machine, phase int, subs []uint64, ref []float64, written []bool) {
	t.Helper()
	if err := m.ReplicasConsistent(); err != nil {
		t.Fatalf("phase %d: %v", phase, err)
	}
	for g := 0; g < m.n; g++ {
		if n := m.PendingLines(g); n != 0 {
			t.Fatalf("phase %d: GPU %d holds %d lines after the barrier", phase, g, n)
		}
		for a, v := range m.replicas[g] {
			if w := a / wordBytes; subs[a/fuzzPageBytes]&(1<<g) != 0 && (!written[w] || v != ref[w]) {
				t.Fatalf("phase %d: GPU %d replica holds word %d = %v, reference %v (written %v)",
					phase, g, w, v, ref[w], written[w])
			}
		}
	}
	for w, ok := range written {
		if !ok {
			continue
		}
		addr := uint64(w) * wordBytes
		for g := 0; g < m.n; g++ {
			if subs[addr/fuzzPageBytes]&(1<<g) == 0 {
				continue
			}
			if v, held := m.replicas[g][addr]; !held || v != ref[w] {
				t.Fatalf("phase %d: subscriber GPU %d holds word %d = %v (present %v), want %v",
					phase, g, w, v, held, ref[w])
			}
		}
	}
}

func FuzzFuncsimPrograms(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2))
	f.Add(int64(2), uint8(1), uint8(3))
	f.Add(int64(3), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, gpus, phases uint8) {
		runRandomProgram(t, seed, 1+int(gpus%4), 1+int(phases%3))
	})
}

// The generated programs overflow the queue: the core write queue drains at
// its watermark, not only where the program calls Drain.
func TestRandomProgramsReachWatermark(t *testing.T) {
	m, explicit := runRandomProgram(t, 1, 4, 2)
	var drains uint64
	for _, q := range m.queues {
		drains += q.Stats().Drains
	}
	if drains <= explicit {
		t.Fatalf("Stats().Drains = %d, explicit drains %d: no watermark drain happened", drains, explicit)
	}
}
