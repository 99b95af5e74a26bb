package benchgate

import (
	"math"
	"strings"
	"testing"

	"gps/internal/experiments"
	"gps/internal/report"
)

func baseReport() *report.Report {
	return &report.Report{
		GPSMeanX:       3.13,
		OpportunityPct: 91.49,
		VsNextBestX:    1.92,
		TotalSeconds:   60,
		Sections: []report.Section{
			{Name: "figure8", Seconds: 1.2, P99CellSeconds: 0.14},
			{Name: "figure12", Seconds: 6.3, P99CellSeconds: 0.5},
			{Name: "figure9", Seconds: 0.0008},
		},
		Cache: experiments.CacheStats{TraceBuilds: 40, EngineRuns: 200, BaselineRuns: 30},
	}
}

func regressionsOf(t *testing.T, b, c *report.Report) []Finding {
	t.Helper()
	return Compare(b, c, Thresholds{}).Regressions()
}

func TestIdenticalReportsPass(t *testing.T) {
	if regs := regressionsOf(t, baseReport(), baseReport()); len(regs) != 0 {
		t.Fatalf("identical reports regressed: %+v", regs)
	}
}

func TestWallClockNoiseToleratedWithinRatioAndFloor(t *testing.T) {
	c := baseReport()
	c.TotalSeconds = 80         // 1.33x: within 1.5x ratio
	c.Sections[0].Seconds = 1.7 // 1.42x: within ratio
	c.Sections[2].Seconds = 0.4 // 500x but under the 0.5s floor
	if regs := regressionsOf(t, baseReport(), c); len(regs) != 0 {
		t.Fatalf("noise within thresholds regressed: %+v", regs)
	}
}

func TestWallClockRegressionCaught(t *testing.T) {
	c := baseReport()
	c.TotalSeconds = 100 // 1.67x over the 1.5x ratio and over the floor
	regs := regressionsOf(t, baseReport(), c)
	if len(regs) != 1 || regs[0].Metric != "total_seconds" {
		t.Fatalf("want total_seconds regression, got %+v", regs)
	}
}

func TestSectionP99Gated(t *testing.T) {
	c := baseReport()
	c.Sections[1].P99CellSeconds = 1.0 // 2x baseline 0.5, above floor
	regs := regressionsOf(t, baseReport(), c)
	if len(regs) != 1 || !strings.Contains(regs[0].Metric, "figure12") {
		t.Fatalf("want figure12 p99 regression, got %+v", regs)
	}
}

// TestHeadlineDriftCaughtBothDirections: the headlines are bit-identical
// run to run, so even a one-ulp change is a behavior change.
func TestHeadlineDriftCaughtBothDirections(t *testing.T) {
	for _, dir := range []float64{math.Inf(1), math.Inf(-1)} {
		c := baseReport()
		c.GPSMeanX = math.Nextafter(c.GPSMeanX, dir)
		regs := regressionsOf(t, baseReport(), c)
		if len(regs) != 1 || regs[0].Metric != "gps_mean_x" {
			t.Fatalf("one ulp toward %v: want gps_mean_x drift, got %+v", dir, regs)
		}
	}
}

func TestCounterGrowthCaughtShrinkagePasses(t *testing.T) {
	c := baseReport()
	c.Cache.EngineRuns = 201
	regs := regressionsOf(t, baseReport(), c)
	if len(regs) != 1 || regs[0].Metric != "cache.engine_runs" {
		t.Fatalf("want engine_runs regression, got %+v", regs)
	}
	c = baseReport()
	c.Cache.EngineRuns = 150 // fewer replays: an improvement
	if regs := regressionsOf(t, baseReport(), c); len(regs) != 0 {
		t.Fatalf("counter shrinkage regressed: %+v", regs)
	}
}

func TestMissingSectionCaughtNewSectionIgnored(t *testing.T) {
	c := baseReport()
	c.Sections = append(c.Sections[:1], report.Section{Name: "figure99", Seconds: 9})
	regs := regressionsOf(t, baseReport(), c)
	if len(regs) != 2 { // figure12 and figure9 both missing
		t.Fatalf("want 2 missing-section regressions, got %+v", regs)
	}
	for _, f := range regs {
		if !strings.Contains(f.Detail, "missing") {
			t.Fatalf("want missing-section detail, got %+v", f)
		}
	}
}
