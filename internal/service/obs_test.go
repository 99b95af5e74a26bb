package service

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gps/internal/obs"
	"gps/internal/report"
)

// TestJobTraceFile: with TraceDir configured, every executed job leaves a
// structurally valid Perfetto trace named after the job ID, with the job
// span enclosing whatever the executor recorded.
func TestJobTraceFile(t *testing.T) {
	dir := t.TempDir()
	exec := func(ctx context.Context, spec Spec) (*report.Report, error) {
		// Exercise the span seam the real executor uses: figure ⊃ cell.
		sctx, figure := obs.StartSpan(ctx, obs.CatFigure, "stub-figure")
		_, cell := obs.StartSpanTrack(sctx, obs.CatCell, "stub-cell")
		cell.End()
		figure.End()
		return &report.Report{TotalSeconds: 0.001}, nil
	}
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: exec, TraceDir: dir})
	st, _, err := s.Submit(sensSpec("tlb"))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, s, st.ID); got.State != StateDone {
		t.Fatalf("job state = %s (%s), want done", got.State, got.Error)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(dir, st.ID+".trace.json"))
	if err != nil {
		t.Fatalf("trace file missing: %v", err)
	}
	sum, err := obs.ValidateTrace(data, obs.CatJob, obs.CatFigure, obs.CatCell)
	if err != nil {
		t.Fatalf("ValidateTrace: %v\n%s", err, data)
	}
	if sum.ByCat[obs.CatJob] != 1 {
		t.Errorf("trace has %d job spans, want 1 (%v)", sum.ByCat[obs.CatJob], sum.ByCat)
	}
}

// TestJobLifecycleLogs: the structured log stream carries the accepted /
// started / done transitions of a job, all correlated by job_id.
func TestJobLifecycleLogs(t *testing.T) {
	var buf bytes.Buffer
	logger := obs.NewLogger(&buf, slog.LevelDebug, true)
	exec := func(ctx context.Context, spec Spec) (*report.Report, error) {
		return &report.Report{TotalSeconds: 0.001}, nil
	}
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: exec, Logger: logger})
	st, _, err := s.Submit(sensSpec("tlb"))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, st.ID)
	if s.Draining() {
		t.Error("Draining() true before Shutdown")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !s.Draining() {
		t.Error("Draining() false after Shutdown")
	}

	want := map[string]bool{"job accepted": false, "job started": false, "job done": false, "draining": false, "drained": false}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q", line)
		}
		msg, _ := rec["msg"].(string)
		if _, ok := want[msg]; !ok {
			continue
		}
		if strings.HasPrefix(msg, "job ") && rec["job_id"] != st.ID {
			t.Errorf("%q record has job_id %v, want %s", msg, rec["job_id"], st.ID)
		}
		want[msg] = true
	}
	for msg, seen := range want {
		if !seen {
			t.Errorf("log stream missing a %q record:\n%s", msg, buf.String())
		}
	}
}

// TestServerRegistry: a configured registry exposes the server's counters
// and latency histograms in the Prometheus exposition.
func TestServerRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	exec := func(ctx context.Context, spec Spec) (*report.Report, error) {
		return &report.Report{TotalSeconds: 0.001}, nil
	}
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: exec, Registry: reg})
	st, _, err := s.Submit(sensSpec("tlb"))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, st.ID)
	defer s.Shutdown(context.Background()) //nolint:errcheck

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	expo := sb.String()
	for _, want := range []string{
		`gpsd_jobs_total{event="submitted"} 1`,
		`gpsd_jobs_total{event="done"} 1`,
		`gpsd_job_wait_seconds_count 1`,
		`gpsd_job_exec_seconds_count 1`,
		`# TYPE gpsd_uptime_seconds gauge`,
		`gpsd_workers 1`,
		`gps_runner_trace_builds_total`,
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q:\n%s", want, expo)
		}
	}
}

// TestRegistryServesOneServer: instruments are get-or-create by name, so a
// second Server on the same registry would silently share every lifecycle
// counter with the first. New refuses it instead.
func TestRegistryServesOneServer(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Workers: 1, QueueDepth: 1, Registry: reg})
	defer s.Shutdown(context.Background()) //nolint:errcheck
	defer func() {
		if recover() == nil {
			t.Fatal("second Server on one registry did not panic")
		}
	}()
	New(Config{Workers: 1, QueueDepth: 1, Registry: reg})
}
