package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The shared host's speed drifts by up to 2x over minutes, far more than any
// bound a metric may have, and every host-time metric of a run moves with
// it. The benchmark therefore times a fixed calibration kernel, which is
// the benchmark's own code and runs none of the program's, next to the
// workload, and reports its host times (setup_s, wall_s, cpu_s, hot_p50_s,
// and goodput through them) scaled to a reference host speed: raw x
// calibRef / median(calibration times). The raw values are printed too,
// and the traced run reports the factor and the raw wall_s and cpu_s as
// per-layer metrics.

// calibRef defines the reference speed: the two-copy kernel's median wall
// time on the 2-core development host (98 samples over 8 minutes, range
// 0.14-0.31 s). One copy on an idle core takes about as long.
const calibRef = 0.181

// calibRounds sizes the kernel: about 0.15-0.18 s on that host.
const calibRounds = 100_000

// calibInProcess runs the kernel in this process instead: the tests set it,
// because a test binary cannot serve as the child.
var calibInProcess bool

// calibSink keeps the kernel's result alive so it is not optimized away.
var calibSink int

// calibrate times the calibration kernel in a fresh child process and
// returns its wall time in seconds. In a process of its own the kernel
// neither sees the program's heap (which would change its GC work) nor
// adds its garbage to the program's peak RSS. A failed child is a broken
// benchmark, so it ends the run.
func calibrate(copies int) float64 {
	if calibInProcess {
		return float64(calibKernel(copies)) / 1e9
	}
	self, err := os.Executable()
	if err == nil {
		var out []byte
		out, err = exec.Command(self, "--calibrate", strconv.Itoa(copies)).Output()
		if err == nil {
			var ns int64
			ns, err = strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
			if err == nil {
				return float64(ns) / 1e9
			}
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench: calibration:", err)
	os.Exit(2)
	return 0
}

// calibKernel runs copies of the kernel on as many goroutines (the
// --calibrate child runs them with GOMAXPROCS = copies) and returns their
// wall time in nanoseconds. The kernel churns small Go maps (allocation,
// hashing, GC), the kind of work that tracked the suite's pass times best
// of the kernels tried (see METRICS.md).
//
// A workload calibrates with as many copies as it keeps cores busy: the
// suite's passes two (its runner workers), set-up probes and gpsd-mix one
// (gpsd-mix's open loop keeps the cores about a quarter busy). With two
// copies, gpsd-mix's
// calibrations read about twice as slow at its segment boundaries as right
// before the loop, the child getting one core's worth of CPU time; one
// copy read the same throughout. In the suite, one copy tracked the
// passes worse than two.
func calibKernel(copies int) int64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	sums := make([]int, copies)
	for c := 0; c < copies; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < calibRounds; k++ {
				m := make(map[int]int, 8)
				for j := 0; j < 16; j++ {
					m[j*k] = j
				}
				sums[c] += len(m)
			}
		}(c)
	}
	wg.Wait()
	d := time.Since(t0).Nanoseconds()
	calibSink += sums[0]
	return d
}

// speedFactor is calibRef over the median calibration time: 1 on a host
// as fast as the reference, below 1 on a slower one. Multiplying a raw
// time by it gives the time at the reference speed.
func speedFactor(calib []float64) float64 {
	return calibRef / median(append([]float64(nil), calib...))
}
