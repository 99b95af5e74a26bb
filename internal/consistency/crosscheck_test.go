package consistency

import (
	"testing"

	"gps/internal/funcsim"
)

// explore returns every outcome the explorer allows for a litmus program.
// A program without atomics is also run on funcsim, whose write queue is
// the core.WriteQueue behind the timing model, under every interleaving of
// thread steps and write-queue drains; each load vector funcsim produces
// must be one the explorer allows.
func explore(t *testing.T, numGPUs int, threads []Thread) map[Outcome]bool {
	t.Helper()
	outcomes := NewExplorer(numGPUs, threads).Explore()
	for _, th := range threads {
		for _, op := range th.Ops {
			if op.Kind == OpAtomicAdd {
				return outcomes // funcsim models no atomics
			}
		}
	}
	for o := range funcsimOutcomes(t, numGPUs, threads) {
		if !outcomes[o] {
			t.Errorf("funcsim outcome %q is not allowed by the explorer", o)
		}
	}
	return outcomes
}

// funcsimOutcomes enumerates the load vectors of threads on funcsim. A
// schedule is a sequence of steps: i >= 0 runs thread i's next op, and
// -g-1 drains GPU g's oldest queued line. funcsim state cannot be copied,
// so each schedule prefix is replayed on a fresh machine.
func funcsimOutcomes(t *testing.T, numGPUs int, threads []Thread) map[Outcome]bool {
	t.Helper()
	out := map[Outcome]bool{}
	var walk func(sched []int)
	walk = func(sched []int) {
		m, pcs, loads := replayFuncsim(t, numGPUs, threads, sched)
		done := true
		for ti, th := range threads {
			if pcs[ti] < len(th.Ops) {
				done = false
				walk(append(sched[:len(sched):len(sched)], ti))
			}
		}
		if done {
			out[(&state{loads: loads}).outcome(threads)] = true
			return
		}
		for g := 0; g < numGPUs; g++ {
			if m.PendingLines(g) > 0 {
				walk(append(sched[:len(sched):len(sched)], -g-1))
			}
		}
	}
	walk(nil)
	return out
}

// replayFuncsim runs one schedule on a fresh machine and returns it with
// each thread's program counter and load results.
func replayFuncsim(t *testing.T, numGPUs int, threads []Thread, sched []int) (*funcsim.Machine, []int, [][]int) {
	t.Helper()
	m, err := funcsim.NewMachine(numGPUs, 64<<10, 128)
	if err != nil {
		t.Fatal(err)
	}
	pcs := make([]int, len(threads))
	loads := make([][]int, len(threads))
	for _, step := range sched {
		if step < 0 {
			m.Drain(-step - 1)
			continue
		}
		g, op := threads[step].GPU, threads[step].Ops[pcs[step]]
		pcs[step]++
		addr := uint64(op.Addr.Line)*128 + uint64(op.Addr.Off)*8 // 128 B lines of 8 B words
		switch op.Kind {
		case OpStoreWeak:
			m.Store(g, addr, float64(op.Val))
		case OpLoad:
			loads[step] = append(loads[step], int(m.Load(g, addr)))
		case OpFenceSys:
			m.Flush(g)
		case OpStoreSys:
			m.Flush(g)
			m.Store(g, addr, float64(op.Val))
			m.Flush(g)
		default:
			t.Fatalf("funcsim cross-check: unsupported op kind %d", op.Kind)
		}
	}
	return m, pcs, loads
}
