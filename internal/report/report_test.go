package report

import (
	"bytes"
	"encoding/json"
	"slices"
	"sort"
	"testing"

	"gps/internal/experiments"
)

// The cache block is the only place a run's storage and memoization
// behavior surfaces in the JSON report: pin its exact key set so a rename,
// a vanished field or a stray new one shows up as a test failure.
func TestReportCarriesCacheCounters(t *testing.T) {
	r := Report{
		ParallelWorkers: 1,
		Cache: experiments.CacheStats{
			TraceBuilds:       3,
			TraceHits:         1,
			TraceEvictions:    2,
			TraceBytes:        1 << 20,
			TraceLogicalBytes: 8 << 20,
			EngineRuns:        5,
			EngineHits:        7,
			BaselineRuns:      1,
			BaselineHits:      4,
		},
	}
	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Cache map[string]json.RawMessage `json:"cache"`
	}
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw.Cache {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{
		"BaselineHits", "BaselineRuns", "EngineHits", "EngineRuns", "TraceBuilds",
		"TraceBytes", "TraceEvictions", "TraceHits", "TraceLogicalBytes",
	}
	if !slices.Equal(keys, want) {
		t.Fatalf("report cache keys = %v, want %v", keys, want)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Cache != r.Cache {
		t.Fatalf("cache stats did not round-trip: %+v", back.Cache)
	}
}
