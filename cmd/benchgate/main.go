// Command benchgate is the perf regression gate: it compares a fresh
// gpsbench -json report against the committed baseline and exits non-zero
// when a gated metric regressed beyond its threshold.
//
// Usage:
//
//	benchgate -baseline BENCH_10.json current.json
//	benchgate -baseline BENCH_10.json -wall-ratio 2.0 current.json
//	benchgate -baseline BENCH_10.json -bless current.json   # adopt current
//
// Deterministic metrics are gated tightly: headline claims must match bit
// for bit and memoization work counters must not grow. Wall-clock metrics
// are gated loosely (ratio + absolute floor), so machine noise cannot fail
// the gate. See internal/benchgate. `make
// benchgate` runs the suite and this gate; `make bench-record` blesses a
// new baseline.
//
// Exit status: 0 pass, 1 regression (or unreadable input), 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gps/internal/benchgate"
	"gps/internal/report"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "", "committed baseline report (BENCH_<n>.json)")
		wallRatio    = flag.Float64("wall-ratio", benchgate.Defaults().WallRatio,
			"max allowed current/baseline wall-clock ratio")
		wallFloor = flag.Float64("wall-floor", benchgate.Defaults().WallFloorSeconds,
			"wall-clock readings below this many seconds are never gated (noise)")
		bless = flag.Bool("bless", false,
			"copy the current report over the baseline instead of gating (records an intended change)")
		verbose = flag.Bool("v", false, "print every compared metric, not just regressions")
	)
	flag.Parse()
	if *baselinePath == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchgate -baseline BENCH_<n>.json [flags] current.json")
		os.Exit(2)
	}
	currentPath := flag.Arg(0)

	if *bless {
		if err := copyFile(currentPath, *baselinePath); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate: bless:", err)
			os.Exit(1)
		}
		fmt.Printf("benchgate: blessed %s as the new %s\n", currentPath, *baselinePath)
		return
	}

	base, err := report.Load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate: baseline:", err)
		os.Exit(1)
	}
	cur, err := report.Load(currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate: current:", err)
		os.Exit(1)
	}

	res := benchgate.Compare(base, cur, benchgate.Thresholds{
		WallRatio: *wallRatio, WallFloorSeconds: *wallFloor,
	})
	if *verbose {
		for _, f := range res.Findings {
			mark := "ok  "
			if f.Regressed {
				mark = "FAIL"
			}
			fmt.Printf("%s %-40s baseline %.6g  current %.6g  %s\n",
				mark, f.Metric, f.Baseline, f.Current, f.Detail)
		}
	}
	regs := res.Regressions()
	if len(regs) == 0 {
		fmt.Printf("benchgate: %s vs %s: %d metrics compared, no regressions\n",
			currentPath, *baselinePath, len(res.Findings))
		return
	}
	fmt.Fprintf(os.Stderr, "benchgate: %d regression(s) against %s:\n", len(regs), *baselinePath)
	for _, f := range regs {
		fmt.Fprintf(os.Stderr, "  %-40s baseline %.6g  current %.6g  %s\n",
			f.Metric, f.Baseline, f.Current, f.Detail)
	}
	fmt.Fprintln(os.Stderr, "benchgate: intended change? re-record with `make bench-record` and commit the new baseline")
	os.Exit(1)
}

// copyFile writes src's bytes over dst.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
