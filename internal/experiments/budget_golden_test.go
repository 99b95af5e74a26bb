package experiments

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// The trace budget bounds memory, not results: with a budget so small that
// each new trace evicts every other cached one, evicted traces are rebuilt
// on their next request and the figures must still render byte-identically
// at every runner worker count. The run must actually have evicted. With
// two workers, one cell's replay can still hold a trace another cell's
// build has just evicted.
func TestTraceBudgetRenderByteIdentical(t *testing.T) {
	renders := []struct {
		golden string
		render func(context.Context, Options) (string, error)
	}{
		{"figure8_quick.golden", func(ctx context.Context, opt Options) (string, error) {
			tb, err := Figure8(ctx, opt)
			if err != nil {
				return "", err
			}
			return tb.String(), nil
		}},
		{"pagesize_quick.golden", func(ctx context.Context, opt Options) (string, error) {
			tb, err := SensitivityPageSize(ctx, opt)
			if err != nil {
				return "", err
			}
			return tb.String(), nil
		}},
	}

	oldDefault := Default
	defer func() { Default = oldDefault }()
	opt := Options{Iterations: 2, Quick: true}

	for _, tc := range renders {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			t.Run(tc.golden+"/workers="+strconv.Itoa(workers), func(t *testing.T) {
				Default = NewRunner(workers)
				// Far below any quick trace's compressed footprint: each
				// build evicts every other cached trace.
				Default.SetTraceBudget(16 << 10)
				got, err := tc.render(context.Background(), opt)
				if err != nil {
					t.Fatal(err)
				}
				if got != string(want) {
					t.Fatalf("render under a tight trace budget deviates from the golden\n--- got ---\n%s\n--- want ---\n%s",
						got, want)
				}
				st := Default.CacheStats()
				if st.TraceEvictions == 0 {
					t.Fatalf("budget never forced an eviction: %+v", st)
				}
				if st.TraceLogicalBytes == 0 || st.TraceBytes >= st.TraceLogicalBytes {
					t.Fatalf("compressed accounting looks wrong: %+v", st)
				}
			})
		}
	}
}
