package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gps/internal/faultinject"
	"gps/internal/retry"
)

// This file is the runner's resilience layer: every matrix cell executes
// under a recover() fence so one poisoned cell fails its own matrix with a
// diagnosable CellError instead of taking the process down, transient
// failures (fault injection, explicitly transient errors) re-run under a
// bounded backoff policy, and an optional faultinject.Hook lets chaos tests
// script faults into the cell path deterministically.

// CellError is the typed failure of one matrix cell. It carries the cell's
// position and description plus, for panics, a truncated stack, so a job
// that dies on one configuration reports which one and why.
type CellError struct {
	Index int    // position in the issued work sequence
	Desc  string // cell description (app/paradigm/gpus/fabric) when known
	Stack string // truncated stack capture when the cell panicked
	Err   error
}

func (e *CellError) Error() string {
	what := e.Desc
	if what == "" {
		what = fmt.Sprintf("cell %d", e.Index)
	} else {
		what = fmt.Sprintf("cell %d (%s)", e.Index, e.Desc)
	}
	if e.Stack != "" {
		return fmt.Sprintf("experiments: %s panicked: %v\n%s", what, e.Err, e.Stack)
	}
	return fmt.Sprintf("experiments: %s: %v", what, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// maxStackBytes truncates captured panic stacks so a CellError stays
// loggable and a journal entry stays one sane-sized line.
const maxStackBytes = 2048

// truncatedStack captures the current stack, capped at maxStackBytes.
func truncatedStack() string {
	s := debug.Stack()
	if len(s) > maxStackBytes {
		s = append(s[:maxStackBytes], []byte("... (truncated)")...)
	}
	return string(s)
}

// panicError normalizes a recovered panic value into an error, preserving
// error values (and with them the Retryable classification of injected
// panics).
func panicError(p any) error {
	if err, ok := p.(error); ok {
		return err
	}
	return fmt.Errorf("panic: %v", p)
}

// PanicError is a panic recovered inside a cached computation — a trace
// build, a structural replay or a baseline — and stored as the cache
// entry's error, so every later request for the key fails the same way
// instead of reading an entry the panic left empty. A matrix cell that
// meets one fails with a CellError carrying the stack, as if it had
// panicked itself.
type PanicError struct {
	Err   error  // the normalized panic value
	Stack string // truncated stack of the panicking goroutine
}

func (e *PanicError) Error() string { return e.Err.Error() }

func (e *PanicError) Unwrap() error { return e.Err }

// recoverInto stores a panic in flight as a *PanicError in *err. Use it as
// the deferred call itself (defer recoverInto(&err)): recover only works
// there.
func recoverInto(err *error) {
	if p := recover(); p != nil {
		*err = &PanicError{Err: panicError(p), Stack: truncatedStack()}
	}
}

// ResilienceStats counts what the fence and the retry loop absorbed.
type ResilienceStats struct {
	CellPanics  uint64 `json:"cell_panics"`  // panics (and cached PanicErrors) converted to CellError
	CellRetries uint64 `json:"cell_retries"` // extra attempts after transient failures
}

// ResilienceStats snapshots the fence/retry counters.
func (r *Runner) ResilienceStats() ResilienceStats {
	return ResilienceStats{
		CellPanics:  r.cellPanics.Load(),
		CellRetries: r.cellRetries.Load(),
	}
}

// DefaultCellRetry is the cell-level retry policy of a new Runner: three
// attempts with a short capped backoff. Only errors classified retryable
// (injected or explicitly transient) re-run; deterministic simulation
// failures surface immediately.
var DefaultCellRetry = retry.Policy{
	MaxAttempts: 3,
	BaseDelay:   25 * time.Millisecond,
	MaxDelay:    1 * time.Second,
	Multiplier:  2,
	Jitter:      0.2,
}

// SetCellRetry replaces the cell retry policy (tests shrink or disable it).
func (r *Runner) SetCellRetry(p retry.Policy) {
	r.resMu.Lock()
	r.cellRetry = p
	r.resMu.Unlock()
}

// CellRetry returns the active cell retry policy.
func (r *Runner) CellRetry() retry.Policy {
	r.resMu.Lock()
	defer r.resMu.Unlock()
	return r.cellRetry
}

// SetFaultHook installs (or, with nil, removes) the fault-injection hook
// consulted once per cell attempt at site "runner.cell". Production never
// sets one and pays a single mutex-guarded nil-check per cell.
func (r *Runner) SetFaultHook(h faultinject.Hook) {
	r.resMu.Lock()
	r.hook = h
	r.resMu.Unlock()
}

func (r *Runner) faultHook() faultinject.Hook {
	r.resMu.Lock()
	defer r.resMu.Unlock()
	return r.hook
}

// runCellResilient executes one parallelFor index under the fence and the
// retry policy: attempts that fail with a retryable error (injected faults,
// explicitly transient errors) re-run with backoff; panics and
// deterministic errors surface immediately as the index's failure.
func (r *Runner) runCellResilient(ctx context.Context, i int, desc func(int) string, fn func(context.Context, int) error) error {
	_, err := retry.Do(ctx, r.CellRetry(), retry.Sleep, nil, func(attempt int) error {
		if attempt > 1 {
			r.cellRetries.Add(1)
		}
		return r.fencedAttempt(ctx, i, desc, fn)
	})
	return err
}

// fencedAttempt runs fn(ctx, i) once: the fault hook fires first (its
// panics exercise the same fence as real ones), then the work, with any
// panic — or a PanicError cached by an earlier panic on a key the cell
// needs — converted to a typed CellError carrying a truncated stack.
func (r *Runner) fencedAttempt(ctx context.Context, i int, desc func(int) string, fn func(context.Context, int) error) (err error) {
	describe := func() string {
		if desc == nil {
			return ""
		}
		return desc(i)
	}
	defer func() {
		if p := recover(); p != nil {
			r.cellPanics.Add(1)
			err = &CellError{Index: i, Desc: describe(), Stack: truncatedStack(), Err: panicError(p)}
		}
	}()
	if h := r.faultHook(); h != nil {
		if herr := h.Hit("runner.cell"); herr != nil {
			return &CellError{Index: i, Desc: describe(), Err: herr}
		}
	}
	err = fn(ctx, i)
	var pe *PanicError
	if errors.As(err, &pe) {
		r.cellPanics.Add(1)
		return &CellError{Index: i, Desc: describe(), Stack: pe.Stack, Err: pe.Err}
	}
	return err
}

// resilienceState is embedded in Runner; split out so runner.go stays
// focused on the cache machinery.
type resilienceState struct {
	resMu     sync.Mutex
	cellRetry retry.Policy
	hook      faultinject.Hook

	cellPanics  atomic.Uint64
	cellRetries atomic.Uint64
}
