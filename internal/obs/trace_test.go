package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestTracerRoundTrip drives the full span hierarchy — job ⊃ figure ⊃
// concurrent cells ⊃ phases — and checks the emitted file against the
// structural validator: valid JSON, balanced B/E pairs, LIFO nesting per
// track, wall-time containment along the category chain.
func TestTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(context.Background(), &buf)
	ctx := WithTracer(context.Background(), tr)

	jctx, job := StartSpan(ctx, CatJob, "test-job", "hash", "abc")
	fctx, figure := StartSpan(jctx, CatFigure, "figure8")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cctx, cell := StartSpanTrack(fctx, CatCell, "jacobi/GPS/2gpu")
			_, phase := StartSpan(cctx, CatPhase, "engine-replay")
			phase.End()
			_, render := StartSpan(cctx, CatPhase, "render")
			render.End()
			cell.End()
		}()
	}
	wg.Wait()
	figure.End()
	job.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	sum, err := ValidateTrace(buf.Bytes(), CatJob, CatFigure, CatCell, CatPhase)
	if err != nil {
		t.Fatalf("ValidateTrace: %v\ntrace:\n%s", err, buf.String())
	}
	if sum.ByCat[CatJob] != 1 || sum.ByCat[CatFigure] != 1 ||
		sum.ByCat[CatCell] != 4 || sum.ByCat[CatPhase] != 8 {
		t.Errorf("span counts by category = %v, want job:1 figure:1 cell:4 phase:8", sum.ByCat)
	}
	if sum.Spans != 14 || sum.Events != 28 {
		t.Errorf("spans=%d events=%d, want 14 spans / 28 events", sum.Spans, sum.Events)
	}
}

// TestTracerBalancedJSON: the raw file parses as a flat array of events and
// every B has a matching E (independent of the validator's own parsing).
func TestTracerBalancedJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(context.Background(), &buf)
	ctx := WithTracer(context.Background(), tr)
	_, s := StartSpan(ctx, CatJob, "solo")
	s.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var raw []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, buf.String())
	}
	balance := 0
	for _, e := range raw {
		switch e["ph"] {
		case "B":
			balance++
		case "E":
			balance--
		}
	}
	if balance != 0 {
		t.Errorf("B/E balance = %d, want 0", balance)
	}
}

// TestTracerContextCancel: canceling the context given to NewTracer
// finalizes the file from the flusher on its way out — no goroutine leak,
// valid JSON on disk — and a later Close is a harmless no-op.
func TestTracerContextCancel(t *testing.T) {
	var buf bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	tr := NewTracer(ctx, &buf)
	sctx := WithTracer(context.Background(), tr)
	_, s := StartSpan(sctx, CatJob, "interrupted")
	s.End()
	cancel()
	<-tr.done // flusher exited because its context died
	var raw []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("canceled trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if err := tr.Close(); err != nil {
		t.Errorf("Close after cancel = %v, want nil", err)
	}
}

// TestTracerEmptyClose: a tracer that recorded nothing still finalizes to a
// valid (empty) JSON array.
func TestTracerEmptyClose(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(context.Background(), &buf)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var raw []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil || len(raw) != 0 {
		t.Fatalf("empty trace = %q (%v), want empty JSON array", buf.String(), err)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

// TestStartSpanWithoutTracer: with no tracer installed, StartSpan returns
// the context unchanged and a nil span whose End is a no-op — the
// production fast path.
func TestStartSpanWithoutTracer(t *testing.T) {
	ctx := context.Background()
	got, s := StartSpan(ctx, CatCell, "free")
	if got != ctx {
		t.Error("StartSpan without tracer re-wrapped the context")
	}
	if s != nil {
		t.Errorf("StartSpan without tracer returned span %v, want nil", s)
	}
	s.End() // must not panic
}

// TestMonotoneClock: the tracer's event clock never repeats, even under
// concurrent readers — the property that makes B/E validation tie-free.
func TestMonotoneClock(t *testing.T) {
	tr := NewTracer(context.Background(), &bytes.Buffer{})
	defer tr.Close() //nolint:errcheck
	const perG, goroutines = 500, 8
	out := make([][]int64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ts := make([]int64, perG)
			for i := range ts {
				ts[i] = tr.now()
			}
			out[g] = ts
		}(g)
	}
	wg.Wait()
	seen := make(map[int64]bool, perG*goroutines)
	for g, ts := range out {
		for i := 1; i < len(ts); i++ {
			if ts[i] <= ts[i-1] {
				t.Fatalf("goroutine %d: clock went %d -> %d", g, ts[i-1], ts[i])
			}
		}
		for _, v := range ts {
			if seen[v] {
				t.Fatalf("timestamp %d issued twice", v)
			}
			seen[v] = true
		}
	}
}

// TestValidateTraceRejects: the validator actually catches broken traces.
func TestValidateTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not json":      `{"name":"x"}`,
		"unclosed span": `[{"name":"a","ph":"B","ts":1,"pid":1,"tid":1}]`,
		"stray end":     `[{"name":"a","ph":"E","ts":1,"pid":1,"tid":1}]`,
		"non-lifo": `[{"name":"a","ph":"B","ts":1,"pid":1,"tid":1},
			{"name":"b","ph":"B","ts":2,"pid":1,"tid":1},
			{"name":"a","ph":"E","ts":3,"pid":1,"tid":1},
			{"name":"b","ph":"E","ts":4,"pid":1,"tid":1}]`,
		"cell outside figure": `[{"name":"f","cat":"figure","ph":"B","ts":1,"pid":1,"tid":1},
			{"name":"f","cat":"figure","ph":"E","ts":2,"pid":1,"tid":1},
			{"name":"c","cat":"cell","ph":"B","ts":3,"pid":1,"tid":2},
			{"name":"c","cat":"cell","ph":"E","ts":4,"pid":1,"tid":2}]`,
	}
	for name, data := range cases {
		if _, err := ValidateTrace([]byte(data)); err == nil {
			t.Errorf("%s: ValidateTrace accepted a broken trace", name)
		}
	}
	if _, err := ValidateTrace([]byte("[]"), CatJob); err == nil {
		t.Error("requireCats accepted a trace with no job spans")
	}
}

// TestSpanStartsAfterTrackAllocation: a span takes its start time only once
// it holds its track. Tracks are reused, and allocation can wait on the
// tracer lock (the flusher holds it while writing). A start time taken
// before that wait could precede the end of the span that freed the track,
// and the track's events would stop nesting.
func TestSpanStartsAfterTrackAllocation(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(context.Background(), &buf)
	ctx := WithTracer(context.Background(), tr)
	started := make(chan *Span)
	tr.mu.Lock()
	go func() {
		_, s := StartSpanTrack(ctx, CatCell, "late")
		started <- s
	}()
	// Let the goroutine reach the lock. Should it not get there in time,
	// the test passes without having checked anything; it cannot fail
	// spuriously.
	time.Sleep(20 * time.Millisecond)
	mid := tr.now()
	tr.mu.Unlock()
	s := <-started
	s.End()
	if s.startTs <= mid {
		t.Errorf("span start %d precedes its track allocation (lock released after %d)", s.startTs, mid)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}
