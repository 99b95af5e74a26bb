// Command perfbench is the repository benchmark: it runs one named workload
// at a given seed, checks that every output is correct, and prints each
// end-to-end metric (untraced run) or each per-layer metric (traced run).
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}}}
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload paper-4gpu --seed 1 --seconds 15 --trace 0
//
// Workloads: paper-4gpu and hier-scale regenerate one experiments figure
// from a cold runner (closed loop, 2 runner workers); gpsd-mix drives an
// in-process gpsd over loopback HTTP with open-loop arrivals (Poisson
// reads, paced writes).
// METRICS.md describes every metric and the layer each one belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef declares one reported metric; the lists below are the
// contract with BENCHMARK.json (a test keeps the two in sync).
type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"wall_s", "s", false},
	{"cpu_s", "s", false},
	{"peak_rss_mb", "MB", false},
	{"hot_p50_s", "s", false},
	{"goodput_jobs_per_s", "jobs/s", true},
}

var perLayer = []metricDef{
	{"workload.build_s", "s", false},
	{"workload.builds", "count", false},
	{"workload.accesses", "count", false},
	{"trace.decode_s", "s", false},
	{"trace.decode_mb_per_s", "MB/s", true},
	{"trace.compressed_mb", "MB", false},
	{"trace.logical_mb", "MB", false},
	{"paradigm.new_s", "s", false},
	{"paradigm.new_s.umhints", "s", false},
	{"engine.replay_s", "s", false},
	{"engine.replays", "count", false},
	{"engine.accesses_per_s", "1/s", true},
	{"engine.replay_s.um", "s", false},
	{"engine.replay_s.umhints", "s", false},
	{"engine.replay_s.rdl", "s", false},
	{"engine.replay_s.memcpy", "s", false},
	{"engine.replay_s.gps", "s", false},
	{"engine.replay_s.infinite", "s", false},
	{"timing.simulate_s", "s", false},
	{"timing.calls", "count", false},
	{"timing.max_call_s", "s", false},
	{"experiments.trace_hits", "count", true},
	{"experiments.engine_hits", "count", true},
	{"experiments.baseline_runs", "count", false},
	{"experiments.memo_hit_ratio", "ratio", true},
	{"experiments.p50_cell_s", "s", false},
	{"experiments.max_cell_s", "s", false},
	{"experiments.pool_idle_frac", "ratio", false},
	{"service.accepted", "count", false},
	{"service.cache_hits", "count", true},
	{"service.coalesced", "count", true},
	{"service.rejected", "count", false},
	{"service.journal_records", "count", false},
	{"service.queue_wait_p50_s", "s", false},
	{"service.queue_wait_p99_s", "s", false},
	{"service.exec_p50_s", "s", false},
	{"service.exec_p99_s", "s", false},
	{"httpapi.submit_p50_s", "s", false},
	{"httpapi.submit_p99_s", "s", false},
	{"httpapi.result_p99_s", "s", false},
	{"httpapi.result_mb", "MB", false},
	{"runtime.alloc_mb", "MB", false},
	{"runtime.allocs", "count", false},
	{"runtime.gc_cycles", "count", false},
	{"runtime.gc_pause_s", "s", false},
	{"e2e.cold_p50_s", "s", false},
	{"e2e.hot_p90_s", "s", false},
	{"e2e.hot_p99_s", "s", false},
	{"e2e.cold_p90_s", "s", false},
	{"bench.lag_p99_s", "s", false},
	{"bench.trace_overhead_frac", "ratio", false},
	{"bench.unattributed_s", "s", false},
	{"bench.layer_self_s", "s", false},
	{"bench.host_speed", "ratio", true},
	{"bench.raw_wall_s", "s", false},
	{"bench.raw_cpu_s", "s", false},
}

// workers is the runner pool size of the suite workloads and the
// GOMAXPROCS every workload runs under.
const workers = 2

// config is one run's parameters. Tests shrink sizes through the fields
// that have no flag.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // span files of traced runs and gpsd journals go here
	probes   int    // setup_s samples taken in fresh child processes; 0 measures in-process
	tiny     bool   // shrink workloads to test size
	// writeRate, when not negative, replaces gpsd-mix's write rate: it
	// exists to measure how writes slow reads, not to benchmark.
	writeRate float64
	// expectDigest, when set, is the sha256 the suite table must have: a
	// second run of a seed passes the first run's digest to prove the two agree.
	expectDigest string
}

// result is what one run reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	samples   map[string]int // sample count behind each metric
	notes     []string       // human-readable lines printed before the JSON
}

func newResult() *result {
	return &result{correct: true, metrics: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64, n int) {
	r.metrics[name] = v
	r.samples[name] = n
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records an output mismatch or failed operation: the run is
// incorrect and n more operations count as failed.
func (r *result) fail(n int, format string, args ...any) {
	r.correct = false
	r.failed += n
	r.notef("MISMATCH: "+format, args...)
}

func main() {
	cfg := config{outDir: ".bench_build/perfbench", probes: 15, writeRate: -1}
	var traced int
	probe := flag.Bool("setup-probe", false, "internal: time set-up in this fresh process and exit")
	calib := flag.Int("calibrate", 0, "internal: time this many copies of the host-speed calibration kernel in this fresh process and exit")
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper-4gpu, hier-scale or gpsd-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "how long to measure")
	flag.IntVar(&traced, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.expectDigest, "expect-digest", "", "sha256 the suite table must have (from an earlier run of the same seed)")
	flag.Float64Var(&cfg.writeRate, "write-rate", -1, "gpsd-mix calibration: write slots per second instead of the benchmark's (0 = reads only)")
	flag.Parse()
	cfg.trace = traced == 1
	if cfg.workload == "gpsd-mix" {
		cfg.probes = 9 // each probe warms a server: about half a second
	}
	runtime.GOMAXPROCS(workers)

	if *calib > 0 {
		runtime.GOMAXPROCS(*calib)
		fmt.Println(calibKernel(*calib))
		return
	}
	if *probe {
		os.Exit(setupProbe(cfg))
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	emit(os.Stdout, cfg, res)
	if !res.correct {
		os.Exit(1)
	}
}

// run dispatches one workload run.
func run(cfg config) (*result, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	switch cfg.workload {
	case "paper-4gpu", "hier-scale":
		return runSuite(cfg)
	case "gpsd-mix":
		return runGpsd(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (paper-4gpu, hier-scale, gpsd-mix)", cfg.workload)
}

// setupProbe performs one workload's set-up in this fresh process and
// prints the time since the parent started it.
func setupProbe(cfg config) int {
	t0, err := strconv.ParseInt(os.Getenv("PERFBENCH_T0"), 10, 64)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: setup probe needs PERFBENCH_T0")
		return 2
	}
	var teardown func()
	switch cfg.workload {
	case "paper-4gpu", "hier-scale":
		teardown, err = suiteSetup(cfg)
	case "gpsd-mix":
		teardown, err = gpsdSetupProbe(cfg)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(time.Now().UnixNano() - t0)
	teardown()
	return 0
}

// measureSetup returns set-up samples in seconds, one per child process,
// each timed from just before the process was started to the point where
// the workload's first timed call would begin, and the calibration times
// taken before each of them. With no probes configured it returns none and
// the caller times its own set-up.
func measureSetup(cfg config) (samples, calib []float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("setup probe: %w", err)
	}
	for i := 0; i < cfg.probes; i++ {
		// Set-up is sequential, and the cores sit mostly idle between
		// probes, so one copy of the kernel measures it (see hostspeed.go).
		calib = append(calib, calibrate(1))
		cmd := exec.Command(self, "--setup-probe", "--workload", cfg.workload,
			"--seed", strconv.FormatInt(cfg.seed, 10), "--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64))
		cmd.Stderr = os.Stderr
		cmd.Env = append(os.Environ(), "PERFBENCH_T0="+strconv.FormatInt(time.Now().UnixNano(), 10))
		data, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("setup probe: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(data)), 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("setup probe output %q: %w", data, err)
		}
		samples = append(samples, float64(ns)/1e9)
	}
	return samples, calib, nil
}

// setSetup reports setup_s: the median set-up sample at the reference host
// speed, scaled by the probes' own calibrations or, when set-up was timed
// in-process, by the workload's factor f.
func setSetup(res *result, samples, calib []float64, f float64) {
	if len(calib) > 0 {
		f = speedFactor(calib)
	}
	raw := median(append([]float64(nil), samples...))
	res.notef("setup: raw median %.6fs over %d, speed factor %.4f", raw, len(samples), f)
	res.set("setup_s", raw*f, len(samples))
}

// emit prints every metric of the run's kind with its unit and sample
// count, then the JSON result line.
func emit(w io.Writer, cfg config, res *result) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type entry struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]entry{}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			// A metric the run could not measure is a benchmark bug: fail
			// loudly rather than print a made-up value.
			res.fail(0, "metric %s not measured (value %v)", d.name, v)
			v = 0
		}
		metrics[d.name] = entry{Value: v, Unit: d.unit}
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "workload=%s seed=%d trace=%v attempted=%d failed=%d fail_ratio=%.6f correct=%v\n",
		cfg.workload, cfg.seed, cfg.trace, res.attempted, res.failed, failRatio(res), res.correct)
	for _, d := range defs {
		fmt.Fprintf(w, "%-28s %16.6f %-7s n=%d\n", d.name, metrics[d.name].Value, d.unit, res.samples[d.name])
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]entry `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics}
	data, _ := json.Marshal(out) // plain structs and finite floats always encode
	fmt.Fprintln(w, string(data))
}

func failRatio(res *result) float64 {
	if res.attempted == 0 {
		return 1
	}
	return float64(res.failed) / float64(res.attempted)
}

// ---- host measurements ----

// cpuSeconds is the process's user+sys time so far (getrusage).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB reads VmHWM from /proc/self/status, in MB (10^6 bytes).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	return math.NaN()
}

// memSnap is the Go runtime's allocation and GC counters at one instant.
type memSnap struct {
	allocBytes, allocs uint64
	gcs                uint32
	pauseNs            uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.TotalAlloc, ms.Mallocs, ms.NumGC, ms.PauseTotalNs}
}

// setRuntime reports the runtime counters accumulated between a and b.
func (r *result) setRuntime(a, b memSnap) {
	r.set("runtime.alloc_mb", float64(b.allocBytes-a.allocBytes)/1e6, 1)
	r.set("runtime.allocs", float64(b.allocs-a.allocs), 1)
	r.set("runtime.gc_cycles", float64(b.gcs-a.gcs), 1)
	r.set("runtime.gc_pause_s", float64(b.pauseNs-a.pauseNs)/1e9, 1)
}

// ---- order statistics ----

// quantile is the nearest-rank q-quantile of xs (0 for an empty slice).
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// setLatencies reports hot and cold latency percentiles: the hot median,
// at the reference host speed (f is the run's speed factor), as an
// end-to-end metric, and the raw cold median and tails (which host noise
// moves by more than any bound allows on a shared 2-core host) as
// unbounded per-layer metrics of the traced run.
func setLatencies(res *result, traced bool, hot, cold []float64, f float64) {
	if !traced {
		p50 := quantile(hot, 0.5)
		res.notef("hot p50: raw %.4gs, at reference speed %.4gs", p50, p50*f)
		res.set("hot_p50_s", p50*f, len(hot))
		return
	}
	res.set("e2e.cold_p50_s", quantile(cold, 0.5), len(cold))
	res.set("e2e.hot_p90_s", quantile(hot, 0.9), len(hot))
	res.set("e2e.hot_p99_s", quantile(hot, 0.99), len(hot))
	res.set("e2e.cold_p90_s", quantile(cold, 0.9), len(cold))
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
