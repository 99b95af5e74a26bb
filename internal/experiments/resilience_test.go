package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gps/internal/faultinject"
	"gps/internal/paradigm"
	"gps/internal/retry"
)

// fastRetry keeps resilience tests clock-light.
var fastRetry = retry.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Multiplier: 2}

// TestPanickingCellBecomesTypedError: a panic inside one cell fails the
// matrix with a *CellError carrying the index and a stack, not a process
// crash, and the runner stays usable afterwards.
func TestPanickingCellBecomesTypedError(t *testing.T) {
	r := NewRunner(2)
	r.SetCellRetry(retry.Policy{MaxAttempts: 1}) // isolate the fence
	boom := func(i int) error {
		if i == 1 {
			panic("poisoned cell")
		}
		return nil
	}
	err := r.parallelFor(context.Background(), 3, boom)
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *CellError", err, err)
	}
	if ce.Index != 1 || ce.Stack == "" || !strings.Contains(ce.Err.Error(), "poisoned cell") {
		t.Fatalf("CellError = index %d, stack %d bytes, err %v", ce.Index, len(ce.Stack), ce.Err)
	}
	if got := r.ResilienceStats().CellPanics; got != 1 {
		t.Errorf("CellPanics = %d, want 1", got)
	}
	// A real (non-injected) panic is deterministic: no retry happened.
	if got := r.ResilienceStats().CellRetries; got != 0 {
		t.Errorf("CellRetries = %d, want 0", got)
	}
	// The runner is not poisoned: a clean pass still works.
	if err := r.parallelFor(context.Background(), 3, func(int) error { return nil }); err != nil {
		t.Fatalf("runner unusable after panic: %v", err)
	}
}

// TestInjectedFaultRetriesToSuccess: a transient injected error on the
// first cell attempt is absorbed by the retry loop and the matrix result is
// identical to a fault-free run.
func TestInjectedFaultRetriesToSuccess(t *testing.T) {
	cells := []Cell{{
		App: "jacobi", Kind: paradigm.KindGPS, GPUs: 2, Fab: MainFabric(2),
		Opt: Options{Iterations: 1}, Cfg: paradigm.DefaultConfig(),
	}}

	clean := NewRunner(1)
	want, err := clean.RunMatrix(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}

	faulty := NewRunner(1)
	faulty.SetCellRetry(fastRetry)
	faulty.SetFaultHook(faultinject.New(1, faultinject.Rule{
		Site: "runner.cell", Kind: faultinject.KindError, Ordinal: 1,
	}))
	got, err := faulty.RunMatrix(context.Background(), cells)
	if err != nil {
		t.Fatalf("matrix with injected transient fault failed: %v", err)
	}
	if got[0].Report.Total != want[0].Report.Total || got[0].Report.SteadyTotal() != want[0].Report.SteadyTotal() {
		t.Errorf("faulted run differs from clean run: %v vs %v", got[0].Report.Total, want[0].Report.Total)
	}
	st := faulty.ResilienceStats()
	if st.CellRetries == 0 {
		t.Errorf("CellRetries = 0, want >= 1 after an injected fault")
	}
}

// TestInjectedPanicRetriesThroughFence: an injected panic classifies as
// retryable (it is a scripted transient), so the fence converts it and the
// retry loop still completes the cell.
func TestInjectedPanicRetriesThroughFence(t *testing.T) {
	r := NewRunner(1)
	r.SetCellRetry(fastRetry)
	r.SetFaultHook(faultinject.New(1, faultinject.Rule{
		Site: "runner.cell", Kind: faultinject.KindPanic, Ordinal: 1,
	}))
	calls := 0
	err := r.parallelFor(context.Background(), 1, func(int) error {
		calls++
		return nil
	})
	if err != nil {
		t.Fatalf("injected panic not absorbed: %v", err)
	}
	if calls != 1 {
		t.Fatalf("work ran %d times, want 1 (first attempt died in the hook)", calls)
	}
	st := r.ResilienceStats()
	if st.CellPanics != 1 || st.CellRetries == 0 {
		t.Errorf("stats = %+v, want one panic and at least one retry", st)
	}
}

// TestDeterministicCellErrorDoesNotRetry: ordinary simulation errors are
// not transient; the retry loop must not mask them with re-runs.
func TestDeterministicCellErrorDoesNotRetry(t *testing.T) {
	r := NewRunner(1)
	r.SetCellRetry(fastRetry)
	calls := 0
	err := r.parallelFor(context.Background(), 1, func(int) error {
		calls++
		return errors.New("deterministic failure")
	})
	if err == nil || calls != 1 {
		t.Fatalf("err=%v calls=%d, want error after exactly 1 attempt", err, calls)
	}
}

// TestCellErrorNamesTheCell: RunMatrix failures identify which
// configuration died.
func TestCellErrorNamesTheCell(t *testing.T) {
	r := NewRunner(1)
	r.SetCellRetry(retry.Policy{MaxAttempts: 1})
	r.SetFaultHook(faultinject.New(1, faultinject.Rule{
		Site: "runner.cell", Kind: faultinject.KindPanic, Ordinal: 1,
	}))
	cells := []Cell{{
		App: "jacobi", Kind: paradigm.KindGPS, GPUs: 2, Fab: MainFabric(2),
		Opt: Options{Iterations: 1}, Cfg: paradigm.DefaultConfig(),
	}}
	_, err := r.RunMatrix(context.Background(), cells)
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CellError", err)
	}
	if !strings.Contains(ce.Desc, "jacobi/GPS/2gpu") {
		t.Errorf("CellError.Desc = %q, want the cell config", ce.Desc)
	}
}

// TestReplayPanicIsCachedAsError: a panic inside a cached computation —
// here replaying a cached trace with a kernel on a GPU it does not have — is
// stored as the cache entry's typed error. Every cell that needs the key
// then fails with that same error, at any worker count, whether it comes
// through a matrix (as a CellError naming the cell) or RunCell, and the
// baseline never reads as a successful zero.
func TestReplayPanicIsCachedAsError(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	opt := quick()
	pcfg := paradigm.DefaultConfig()
	cells := []Cell{
		{App: "jacobi", Kind: paradigm.KindGPS, GPUs: 2, Fab: MainFabric(2), Opt: opt, Cfg: pcfg},
		{App: "jacobi", Kind: paradigm.KindRDL, GPUs: 2, Fab: MainFabric(2), Opt: opt, Cfg: pcfg},
	}
	// brokenRunner caches the jacobi trace for gpus with its first kernel
	// moved to GPU index NumGPUs, so replaying it panics when the engine
	// indexes that kernel's phase profile.
	brokenRunner := func(t *testing.T, workers, gpus int) *Runner {
		r := NewRunner(workers)
		r.SetCellRetry(retry.Policy{MaxAttempts: 1})
		rec, err := r.Trace("jacobi", opt.withDefaults().workloadConfig(gpus))
		if err != nil {
			t.Fatal(err)
		}
		rec.Ph[0].Kernels[0].GPU = rec.M.NumGPUs
		return r
	}
	// A fenced panic reaches the matrix as a CellError carrying the
	// PanicError's stack, which must name the fused replay.
	isReplayPanic := func(ce *CellError) bool {
		return strings.Contains(ce.Stack, "engine.RunFused")
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("cells/workers=%d", workers), func(t *testing.T) {
			r := brokenRunner(t, workers, 2)
			_, err := r.RunMatrix(context.Background(), cells)
			var ce *CellError
			if !errors.As(err, &ce) || ce.Index != 0 || ce.Desc != cells[0].describe() || !isReplayPanic(ce) {
				t.Fatalf("matrix err = %v, want cell 0's CellError for the replay panic", err)
			}
			// Both cells need keys of the one failed replay group: each fails
			// with the group's error, identically on every request.
			var first error
			for round := 0; round < 2; round++ {
				for _, c := range cells {
					rep, res, err := r.RunCell(c)
					var pe *PanicError
					if !errors.As(err, &pe) || rep != nil || res != nil {
						t.Fatalf("RunCell(%s) = %v, %v, %v; want the cached *PanicError", c.describe(), rep, res, err)
					}
					if first == nil {
						first = err
					} else if err != first {
						t.Fatalf("RunCell(%s) err = %v, want the group's error %v", c.describe(), err, first)
					}
				}
			}
			_, err = r.RunMatrix(context.Background(), cells[1:])
			if !errors.As(err, &ce) || ce.Index != 0 || ce.Desc != cells[1].describe() || ce.Err.Error() != first.Error() {
				t.Fatalf("re-run matrix err = %v, want the CellError of %s wrapping %v", err, cells[1].describe(), first)
			}
		})
		t.Run(fmt.Sprintf("baseline/workers=%d", workers), func(t *testing.T) {
			r := brokenRunner(t, workers, 1)
			// No cells: the baseline alone must fail with the replay panic.
			_, _, err := r.RunMatrixWithBaselines(context.Background(), []string{"jacobi"}, opt, pcfg, nil)
			var ce *CellError
			if !errors.As(err, &ce) || ce.Index != 0 || ce.Desc != "baseline/jacobi" || !isReplayPanic(ce) {
				t.Fatalf("matrix err = %v, want the baseline's CellError for the replay panic", err)
			}
			for round := 0; round < 2; round++ {
				v, err := r.Baseline("jacobi", opt, pcfg)
				var pe *PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("Baseline = (%v, %v) after its replay panicked, want the cached *PanicError", v, err)
				}
				if _, err := r.Speedup("jacobi", paradigm.KindGPS, 2, MainFabric(2), opt, pcfg); !errors.As(err, &pe) {
					t.Fatalf("Speedup err = %v over a failed baseline, want the cached *PanicError", err)
				}
			}
		})
	}
}
