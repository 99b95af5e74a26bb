// Package benchgate compares a fresh gpsbench -json report against a
// committed baseline (BENCH_<n>.json) and classifies every metric drift, so
// `make check` fails when a change regresses the experiment suite's
// performance or its memoization behavior.
//
// Two kinds of metrics get two kinds of gates:
//
//   - Deterministic metrics — the Section 7.1 headline numbers and the
//     runner's work counters (trace builds, engine replays, baseline
//     simulations) — are identical run-to-run for a fixed configuration, so
//     they are gated tightly: headline numbers must match the baseline bit
//     for bit (any drift is a simulation-behavior change that needs a
//     deliberate re-bless), and work counters must not grow (more executed
//     work means a memoization regression; doing less work is an
//     improvement and passes).
//
//   - Wall-clock metrics — total wall time, per-section wall time, and
//     per-section p99 cell time — vary with the machine and its load, so
//     they are gated loosely: a regression requires both exceeding the
//     baseline by a ratio (default 1.5×) and an absolute floor (default
//     0.5s), so noise on sub-second sections never fails the gate.
package benchgate

import (
	"fmt"

	"gps/internal/report"
)

// Thresholds tune the gate.
type Thresholds struct {
	// WallRatio is the maximum allowed current/baseline wall-clock ratio.
	WallRatio float64
	// WallFloorSeconds exempts any wall-clock reading below this absolute
	// value: sub-floor times are noise regardless of ratio.
	WallFloorSeconds float64
}

// Defaults returns the thresholds `make check` runs with.
func Defaults() Thresholds {
	return Thresholds{WallRatio: 1.5, WallFloorSeconds: 0.5}
}

func (t Thresholds) withDefaults() Thresholds {
	d := Defaults()
	if t.WallRatio <= 0 {
		t.WallRatio = d.WallRatio
	}
	if t.WallFloorSeconds <= 0 {
		t.WallFloorSeconds = d.WallFloorSeconds
	}
	return t
}

// Finding is one compared metric.
type Finding struct {
	Metric    string // e.g. "total_seconds", "section[figure8].seconds"
	Baseline  float64
	Current   float64
	Regressed bool
	Detail    string // why it regressed (empty when it passed)
}

// Result is the full comparison.
type Result struct {
	Findings []Finding
}

// Regressions returns the findings that failed the gate.
func (r *Result) Regressions() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Regressed {
			out = append(out, f)
		}
	}
	return out
}

// Compare gates current against baseline. It never errors: missing data is
// reported as a finding so the gate stays honest about what it could not
// compare.
func Compare(baseline, current *report.Report, th Thresholds) *Result {
	th = th.withDefaults()
	res := &Result{}

	headline := func(name string, b, c float64) {
		f := Finding{Metric: name, Baseline: b, Current: c}
		if c != b {
			f.Regressed = true
			f.Detail = "deterministic headline changed (re-bless if intended)"
		}
		res.Findings = append(res.Findings, f)
	}
	headline("gps_mean_x", baseline.GPSMeanX, current.GPSMeanX)
	headline("opportunity_pct", baseline.OpportunityPct, current.OpportunityPct)
	headline("vs_next_best_x", baseline.VsNextBestX, current.VsNextBestX)

	counter := func(name string, b, c uint64) {
		f := Finding{Metric: name, Baseline: float64(b), Current: float64(c)}
		if c > b {
			f.Regressed = true
			f.Detail = "work counter grew: memoization executed more than the baseline"
		}
		res.Findings = append(res.Findings, f)
	}
	counter("cache.trace_builds", baseline.Cache.TraceBuilds, current.Cache.TraceBuilds)
	counter("cache.engine_runs", baseline.Cache.EngineRuns, current.Cache.EngineRuns)
	counter("cache.baseline_runs", baseline.Cache.BaselineRuns, current.Cache.BaselineRuns)

	wall := func(name string, b, c float64) {
		f := Finding{Metric: name, Baseline: b, Current: c}
		if c > th.WallFloorSeconds && b > 0 && c/b > th.WallRatio {
			f.Regressed = true
			f.Detail = fmt.Sprintf("%.3fs vs %.3fs baseline exceeds %.2fx ratio (floor %.2fs)",
				c, b, th.WallRatio, th.WallFloorSeconds)
		}
		res.Findings = append(res.Findings, f)
	}
	wall("total_seconds", baseline.TotalSeconds, current.TotalSeconds)

	base := map[string]report.Section{}
	for _, s := range baseline.Sections {
		base[s.Name] = s
	}
	seen := map[string]bool{}
	for _, s := range current.Sections {
		seen[s.Name] = true
		bs, ok := base[s.Name]
		if !ok {
			continue // new section: nothing to gate against yet
		}
		wall(fmt.Sprintf("section[%s].seconds", s.Name), bs.Seconds, s.Seconds)
		if bs.P99CellSeconds > 0 && s.P99CellSeconds > 0 {
			wall(fmt.Sprintf("section[%s].p99_cell_seconds", s.Name), bs.P99CellSeconds, s.P99CellSeconds)
		}
	}
	for _, s := range baseline.Sections {
		if !seen[s.Name] {
			res.Findings = append(res.Findings, Finding{
				Metric: fmt.Sprintf("section[%s]", s.Name), Baseline: s.Seconds,
				Regressed: true, Detail: "section present in baseline but missing from current run",
			})
		}
	}
	return res
}
