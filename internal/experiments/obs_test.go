package experiments

import (
	"bytes"
	"context"
	"testing"

	"gps/internal/obs"
	"gps/internal/paradigm"
)

// TestMatrixTrace: running a matrix under a tracer emits a structurally
// valid trace with one span per cell and per replay group, each on its own
// track, and the trace-build / engine-replay / render phases (plus
// per-phase engine spans) nested inside.
func TestMatrixTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	var buf bytes.Buffer
	tracer := obs.NewTracer(context.Background(), &buf)
	ctx := obs.WithTracer(context.Background(), tracer)

	r := NewRunner(2)
	opt := quick()
	cells := []Cell{
		{App: "jacobi", Kind: paradigm.KindGPS, GPUs: 2, Fab: MainFabric(2), Opt: opt, Cfg: paradigm.DefaultConfig()},
		{App: "jacobi", Kind: paradigm.KindMemcpy, GPUs: 2, Fab: MainFabric(2), Opt: opt, Cfg: paradigm.DefaultConfig()},
	}
	if _, err := r.RunMatrix(ctx, cells); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}

	sum, err := obs.ValidateTrace(buf.Bytes(), obs.CatCell, obs.CatPhase, obs.CatEnginePhase)
	if err != nil {
		t.Fatalf("ValidateTrace: %v", err)
	}
	// Both cells replay one trace (same app/config), so one replay group —
	// a cell-category span of its own — builds it and replays both
	// paradigms in a single fused pass; then each cell renders. That is one
	// trace-build, one engine-replay and a render per cell.
	if want := len(cells) + 1; sum.ByCat[obs.CatCell] != want {
		t.Errorf("trace has %d cell spans, want %d (%v)", sum.ByCat[obs.CatCell], want, sum.ByCat)
	}
	if want := len(cells) + 2; sum.ByCat[obs.CatPhase] != want {
		t.Errorf("trace has %d phase spans, want %d (%v)", sum.ByCat[obs.CatPhase], want, sum.ByCat)
	}
	if sum.ByCat[obs.CatEnginePhase] == 0 {
		t.Error("trace has no engine-phase spans")
	}
}

// TestMatrixNoTracerNoTrace: without a tracer on the context the matrix
// runs exactly as before — the fast path must not allocate spans (smoke
// proxy: nothing panics and results still come back; overhead is pinned by
// the bench gate, not this test).
func TestMatrixNoTracerNoTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	r := NewRunner(1)
	cells := []Cell{{App: "jacobi", Kind: paradigm.KindGPS, GPUs: 2, Fab: MainFabric(2), Opt: quick(), Cfg: paradigm.DefaultConfig()}}
	if _, err := r.RunMatrix(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
}
