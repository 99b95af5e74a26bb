package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gps/internal/obs"
	"gps/internal/report"
)

// TestTerminalAccounting drives every terminal transition a job can take —
// the submit cache hit, cancel while queued, running and stolen, the panic
// fence, each branch of finishJob, the drain, a thief's completion and
// failure, both reclaim failures, the adoption cache hit and an adopted
// rider — and checks the bookkeeping they share: done closes exactly once
// (a second close would panic), every journaled job has exactly one
// terminal record and born-cached jobs have none, no terminal record lacks
// a submit record (an adopted rider has neither), the done/failed/canceled
// counters sum to the retired jobs and to the end-to-end histogram's count,
// and only executions and stolen completions observe the execution
// histogram.
func TestTerminalAccounting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gpsd.journal")
	journal := openTestJournal(t, path)

	// Behaviour by spec: "pagesize" fails, "watermark" reports a timeout,
	// "tlb" and figures finish at once, every other sensitivity holds its
	// worker until the job's context ends.
	started := make(chan string, 16)
	exec := func(ctx context.Context, spec Spec) (*report.Report, error) {
		switch {
		case spec.Type == "figure" || spec.Sensitivity == "tlb":
			return &report.Report{TotalSeconds: 0.001}, nil
		case spec.Sensitivity == "pagesize":
			return nil, errors.New("stub failure")
		case spec.Sensitivity == "watermark":
			return nil, fmt.Errorf("stub: %w", context.DeadlineExceeded)
		}
		started <- spec.Sensitivity
		<-ctx.Done()
		return nil, ctx.Err()
	}
	canonHash := func(spec Spec) string {
		c, err := spec.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		return c.Hash()
	}
	// A peer-result lookup runs outside the executor's panic fence, so a
	// panicking one exercises the worker's outer fence.
	panicHash := canonHash(sensSpec("control"))
	s := New(Config{
		Workers: 1, QueueDepth: 2, Execute: exec, Journal: journal,
		RemoteResult: func(_ context.Context, hash string) *report.Report {
			if hash == panicHash {
				panic("stub: peer lookup blew up")
			}
			return nil
		},
	})
	figure := func(n int) Spec { return Spec{Type: "figure", Figure: n} }

	want := map[string]State{} // job ID -> expected terminal state
	cached := map[string]bool{}
	submit := func(spec Spec, end State) string {
		t.Helper()
		st, out, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %+v: %v", spec, err)
		}
		want[st.ID] = end
		if out == OutcomeCached {
			cached[st.ID] = true
		}
		return st.ID
	}
	steal := func(wantID string) {
		t.Helper()
		got, ok := s.Steal("thief")
		if !ok || got.ID != wantID {
			t.Fatalf("Steal = %s, %v; want %s", got.ID, ok, wantID)
		}
	}
	mustCancel := func(id string) {
		t.Helper()
		if _, err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}

	// Transitions that need no held worker.
	waitTerminal(t, s, submit(sensSpec("tlb"), StateDone))
	submit(sensSpec("tlb"), StateDone) // cache hit at submit
	waitTerminal(t, s, submit(sensSpec("pagesize"), StateFailed))
	waitTerminal(t, s, submit(sensSpec("watermark"), StateFailed))
	waitTerminal(t, s, submit(sensSpec("control"), StateFailed)) // panic fence
	if out, err := s.Adopt("z", "z-j-000001", sensSpec("tlb"), obs.TraceInfo{}); err != nil || out != AdoptCached {
		t.Fatalf("adopt = %v, %v; want cached", out, err)
	}
	want["z-j-000001"], cached["z-j-000001"] = StateDone, true

	// Cancel while running.
	running := submit(sensSpec("l2"), StateCanceled)
	<-started
	mustCancel(running)
	waitTerminal(t, s, running)

	// Hold the worker; the leader's drain-deadline abort ends its rider.
	submit(sensSpec("hier"), StateCanceled)
	<-started
	if out, err := s.Adopt("z", "z-j-000002", sensSpec("hier"), obs.TraceInfo{}); err != nil || out != AdoptCoalesced {
		t.Fatalf("adopt = %v, %v; want coalesced", out, err)
	}
	want["z-j-000002"] = StateCanceled
	mustCancel(submit(sensSpec("fabrics"), StateCanceled)) // queued

	done := submit(sensSpec("pipelined"), StateDone)
	steal(done)
	if err := s.CompleteStolen(done, &report.Report{TotalSeconds: 0.001}, ""); err != nil {
		t.Fatal(err)
	}
	failed := submit(sensSpec("fabricmodel"), StateFailed)
	steal(failed)
	if err := s.CompleteStolen(failed, nil, "stub thief failure"); err != nil {
		t.Fatal(err)
	}
	canceled := submit(sensSpec("profilingmode"), StateCanceled)
	steal(canceled)
	mustCancel(canceled)

	// Reclaim into a full queue fails the job.
	full := submit(figure(1), StateFailed)
	steal(full)
	drained := submit(figure(2), StateFailed)
	submit(figure(3), StateCanceled)
	if err := s.DeclineStolen(full); err != nil {
		t.Fatal(err)
	}
	// figure 2 stays checked out across the drain; figure 3 is queued.
	steal(drained)

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown = %v, want the expired drain deadline", err)
	}
	if err := s.DeclineStolen(drained); err != nil { // reclaim while draining
		t.Fatal(err)
	}

	for id, end := range want {
		if st := waitTerminal(t, s, id); st.State != end {
			t.Errorf("job %s ended %s (%s), want %s", id, st.State, st.Error, end)
		}
	}

	m := s.Metrics()
	s.mu.Lock()
	retired := len(s.terminal)
	s.mu.Unlock()
	if retired != len(want) {
		t.Errorf("retired %d jobs, drove %d", retired, len(want))
	}
	if sum := m.JobsDone + m.JobsFailed + m.JobsCanceled; sum != uint64(retired) || m.JobE2E == nil || m.JobE2E.Count != sum {
		t.Errorf("done+failed+canceled = %d+%d+%d, e2e %+v; want %d retired jobs",
			m.JobsDone, m.JobsFailed, m.JobsCanceled, m.JobE2E, retired)
	}
	// Five executions reach finishJob (done, failed, timed out, canceled
	// while running, aborted by the drain) and two stolen jobs complete.
	if m.JobExec == nil || m.JobExec.Count != 7 || m.ExecSecondsTotal != m.JobExec.Sum {
		t.Errorf("job exec histogram = %+v (exec total %v), want 7 observations", m.JobExec, m.ExecSecondsTotal)
	}

	submitted, terminal := journalRecords(t, path)
	for id := range want {
		switch {
		case cached[id]:
			if submitted[id] || terminal[id] != 0 {
				t.Errorf("born-cached job %s was journaled (%d terminal records)", id, terminal[id])
			}
		case submitted[id] && terminal[id] != 1:
			t.Errorf("journaled job %s has %d terminal records, want 1", id, terminal[id])
		}
	}
	for id, n := range terminal {
		if n > 1 {
			t.Errorf("job %s has %d terminal records", id, n)
		}
		if !submitted[id] {
			t.Errorf("job %s has a terminal record but no submit record", id)
		}
	}
}

// journalRecords reads a journal file: which IDs have a submit record and
// how many terminal records each ID has.
func journalRecords(t *testing.T, path string) (submitted map[string]bool, terminal map[string]int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	submitted, terminal = map[string]bool{}, map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("journal line %q: %v", strings.TrimSpace(sc.Text()), err)
		}
		switch rec.Op {
		case OpSubmit:
			submitted[rec.ID] = true
		case OpDone, OpFail, OpCancel:
			terminal[rec.ID]++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return submitted, terminal
}
