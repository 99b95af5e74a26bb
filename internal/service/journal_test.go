package service

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openTestJournal(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal(%s): %v", path, err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// TestJournalCrashRecovery is the kill-and-restart scenario: a daemon with
// in-flight work dies without any shutdown handshake; a new daemon opened on
// the same journal re-runs the interrupted jobs under their original IDs.
func TestJournalCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gpsd.journal")

	// First life: one job running, one queued, then the process "dies"
	// (the server is simply abandoned — no drain, no journal close).
	exec1 := newBlockingExec()
	s1 := New(Config{Workers: 1, QueueDepth: 4, Execute: exec1.exec, Journal: openTestJournal(t, path)})
	t.Cleanup(func() {
		close(exec1.release)
		s1.Shutdown(context.Background())
	})
	running, _, err := s1.Submit(sensSpec("tlb"))
	if err != nil {
		t.Fatal(err)
	}
	<-exec1.started
	queued, _, err := s1.Submit(sensSpec("pagesize"))
	if err != nil {
		t.Fatal(err)
	}

	// Second life: reopen the journal, build a fresh server around an
	// executor that completes instantly.
	exec2 := newBlockingExec()
	close(exec2.release)
	s2 := New(Config{Workers: 1, QueueDepth: 4, Execute: exec2.exec, Journal: openTestJournal(t, path)})
	defer s2.Shutdown(context.Background())

	for _, id := range []string{running.ID, queued.ID} {
		st := waitTerminal(t, s2, id)
		if st.State != StateDone {
			t.Errorf("replayed job %s state = %s (%s), want done", id, st.State, st.Error)
		}
		if !st.Replayed {
			t.Errorf("job %s not marked replayed", id)
		}
	}
	if m := s2.Metrics(); m.JobsReplayed != 2 {
		t.Errorf("JobsReplayed = %d, want 2", m.JobsReplayed)
	}

	// The ID sequence resumes past the recovered jobs: no handle collisions
	// with jobs clients are still polling.
	st, _, err := s2.Submit(sensSpec("watermark"))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == running.ID || st.ID == queued.ID || st.ID <= queued.ID {
		t.Errorf("post-recovery job ID %s collides with or precedes replayed IDs (%s, %s)",
			st.ID, running.ID, queued.ID)
	}
}

// TestJournalTerminalJobsNotReplayed: done and canceled jobs are closed out
// in the journal; a restart owes nothing for them.
func TestJournalTerminalJobsNotReplayed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gpsd.journal")
	exec := newBlockingExec()
	close(exec.release)
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: exec.exec, Journal: openTestJournal(t, path)})

	done, _, err := s.Submit(sensSpec("tlb"))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, done.ID)
	s.Shutdown(context.Background())

	j2 := openTestJournal(t, path)
	if pending := j2.TakePending(); len(pending) != 0 {
		t.Errorf("pending after clean completion = %+v, want none", pending)
	}
}

// TestJournalTornTailTolerated: a crash mid-append leaves a half-written
// final line; replay keeps every complete record and drops the torn one.
func TestJournalTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gpsd.journal")
	spec, err := sensSpec("tlb").Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	lines := `{"op":"submit","id":"j-000001","spec":{"type":"sensitivity","sensitivity":"tlb","iterations":4,"scale":1,"seed":1}}
{"op":"submit","id":"j-000002","spec":{"type":"sensitivity","sensitivity":"pagesize","iterations":4,"scale":1,"seed":1}}
{"op":"done","id":"j-000002"}
{"op":"fail","id":"j-00`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	j := openTestJournal(t, path)
	pending := j.TakePending()
	if len(pending) != 1 || pending[0].ID != "j-000001" {
		t.Fatalf("pending = %+v, want exactly j-000001", pending)
	}
	if pending[0].Spec.Hash() != spec.Hash() {
		t.Errorf("recovered spec differs from submitted spec")
	}

	// Compaction rewrote the file: only the pending submit survives, so the
	// torn bytes and terminal records are gone.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	content := strings.TrimSpace(string(data))
	if strings.Count(content, "\n")+1 != 1 || !strings.Contains(content, "j-000001") {
		t.Errorf("compacted journal = %q, want a single j-000001 submit record", content)
	}
}

// TestJournalSubmitFailureRejectsJob: durability is the admission contract —
// if the submit record cannot be committed, the job is refused rather than
// accepted into a journal that would forget it.
func TestJournalSubmitFailureRejectsJob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gpsd.journal")
	j := openTestJournal(t, path)
	exec := newBlockingExec()
	close(exec.release)
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: exec.exec, Journal: j})
	defer s.Shutdown(context.Background())

	j.Close() // journal now refuses appends
	_, _, err := s.Submit(sensSpec("tlb"))
	if err == nil || !strings.Contains(err.Error(), "journal") {
		t.Fatalf("submit with dead journal: err = %v, want journal error", err)
	}
	m := s.Metrics()
	if m.JobsSubmitted != 0 || m.JobsRejected != 1 {
		t.Errorf("submitted/rejected = %d/%d, want 0/1", m.JobsSubmitted, m.JobsRejected)
	}
	if exec.runs.Load() != 0 {
		t.Errorf("refused job executed anyway")
	}
}

// FuzzJournalReplay feeds arbitrary bytes to the journal replay. Whatever
// the input, replay must not panic, must hand back each pending ID once in
// the order of its first valid submit record, and must never owe a job
// whose terminal record follows that submit.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte(`{"op":"submit","id":"j-000001","spec":{"type":"sensitivity","sensitivity":"tlb"}}
{"op":"submit","id":"j-000002","spec":{"type":"figure","figure":8}}
{"op":"start","id":"j-000001"}
{"op":"done","id":"j-000002"}
{"op":"submit","id":"j-000001","spec":{"type":"figure","figure":3}}
{"op":"fail","id":"j-00`))
	f.Add([]byte(`{"op":"cancel","id":"a"}
{"op":"submit","id":"a","spec":{}}
{"op":"submit","id":"","spec":{}}
{"op":"submit","id":"b"}
  {"op":"submit","id":"c","spec":{"seed":2}}  ` + "\n\n" + `{"op":"cancel","id":"c"}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		pending := replayJournal(data)

		// An independent reading of the same lines: where each ID's first
		// valid submit sits, and whether a terminal record follows it.
		firstSubmit := map[string]int{}
		closed := map[string]bool{}
		for i, line := range bytes.Split(data, []byte("\n")) {
			var rec journalRecord
			if json.Unmarshal(line, &rec) != nil {
				continue
			}
			_, seen := firstSubmit[rec.ID]
			switch rec.Op {
			case OpSubmit:
				if !seen && rec.Spec != nil && rec.ID != "" {
					firstSubmit[rec.ID] = i
				}
			case OpDone, OpFail, OpCancel:
				if seen {
					closed[rec.ID] = true
				}
			}
		}
		last := -1
		for _, p := range pending {
			at, ok := firstSubmit[p.ID]
			switch {
			case !ok:
				t.Fatalf("pending %q has no valid submit record", p.ID)
			case at <= last:
				t.Fatalf("pending %q repeats or is out of submit order", p.ID)
			case closed[p.ID]:
				t.Fatalf("pending %q was closed by a terminal record", p.ID)
			}
			last = at
		}
		if want := len(firstSubmit) - len(closed); len(pending) != want {
			t.Fatalf("%d pending, want %d (%d submitted, %d closed)", len(pending), want, len(firstSubmit), len(closed))
		}
	})
}
