package experiments

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// Spilling trace blocks to disk is a storage change, not a modeling change:
// with a budget tiny enough that every trace is pushed out to the spill file,
// the figures must still render byte-identically at every runner worker
// count, and the run must actually have exercised the spill tier (spills
// recorded, blocks read back from disk). With two workers, cells spill and
// read back traces concurrently.
func TestSpilledRenderByteIdentical(t *testing.T) {
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
				// Far below any quick trace's compressed footprint: every
				// cached trace is forced through the spill path before the
				// next cell replays it.
				Default.SetTraceBudget(16 << 10)
				got, err := tc.render(context.Background(), opt)
				if err != nil {
					t.Fatal(err)
				}
				if got != string(want) {
					t.Fatalf("render with spilled traces deviates from the golden\n--- got ---\n%s\n--- want ---\n%s",
						got, want)
				}
				st := Default.CacheStats()
				if st.TraceSpills == 0 || st.TraceSpillBytes == 0 {
					t.Fatalf("budget never forced a spill: %+v", st)
				}
				if st.SpillBlockReads == 0 || st.SpillReadBytes == 0 {
					t.Fatalf("replay never read blocks back from the spill file: %+v", st)
				}
				if st.TraceLogicalBytes == 0 || st.TraceBytes >= st.TraceLogicalBytes {
					t.Fatalf("compressed accounting looks wrong: %+v", st)
				}
			})
		}
	}
}
