// Command gpsbench regenerates the tables and figures of the GPS paper's
// evaluation (Section 7) from the simulator.
//
// Usage:
//
//	gpsbench -all                 # every figure and table (slow)
//	gpsbench -fig 8               # one figure (1,3,4,8,9,10,11,12,13,14)
//	gpsbench -table 1             # Table 1 or 2
//	gpsbench -sens tlb|pagesize|watermark
//	gpsbench -iters 4 -scale 1    # workload sizing
//	gpsbench -all -parallel 8     # run the experiment matrix on 8 workers
//	gpsbench -sens hier           # 32/64-GPU hierarchical NVSwitch sweep
//	gpsbench -fig 8 -json out.json
//	gpsbench -all -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	gpsbench -fig 8 -trace-out run.trace.json   # Perfetto span trace
//
// SIGINT cancels the run: in-flight simulation cells finish, no further
// cells are issued, and gpsbench exits without emitting partial files.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"time"

	"gps/internal/experiments"
	"gps/internal/obs"
	"gps/internal/report"
	"gps/internal/stats"
)

func main() {
	var (
		fig      = flag.Int("fig", 0, "figure number to regenerate (1,2,3,4,8,9,10,11,12,13,14)")
		table    = flag.Int("table", 0, "table number to regenerate (1,2)")
		sens     = flag.String("sens", "", "sensitivity study: tlb, pagesize, watermark, l2, profilingmode, control, pipelined, fabrics, hier, fabricmodel")
		all      = flag.Bool("all", false, "regenerate everything")
		iters    = flag.Int("iters", 4, "execution iterations per application")
		scale    = flag.Int("scale", 1, "problem size multiplier")
		csv      = flag.Bool("csv", false, "emit tables as CSV instead of text")
		rep      = flag.String("report", "", "write a full markdown report to this file")
		chart    = flag.Bool("chart", false, "also render line-chart views of figures 13 and 14")
		parallel = flag.Int("parallel", 0, "experiment worker goroutines (0 = GOMAXPROCS, 1 = serial)")
		budget   = flag.Int64("trace-budget", 0, "trace cache resident byte budget; past it the least-recently-used traces are evicted and rebuilt on next use (0 = default 4 GiB)")
		jsonOut  = flag.String("json", "", "write headline metrics, per-figure wall clock, rendered tables and cache stats as JSON to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (taken at exit) to this file")
		traceOut = flag.String("trace-out", "", "write a Perfetto-loadable span trace (figures, matrix cells, simulation phases) to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gpsbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "gpsbench:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		// The heap snapshot is written on the way out, after the full matrix
		// ran, so it reflects steady-state retention rather than startup.
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gpsbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "gpsbench:", err)
			}
		}()
	}

	// SIGINT cancels the shared context: the runner stops issuing cells and
	// every figure function returns context.Canceled instead of the process
	// dying mid-write. A second SIGINT kills immediately (default behavior).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// With -trace-out every figure, matrix cell and simulation phase below
	// records a span; the root span brackets the whole invocation. The
	// tracer's flusher is bound to the signal context, so an interrupt
	// finalizes the file instead of leaking the writer.
	var tracer *obs.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gpsbench:", err)
			os.Exit(1)
		}
		tracer = obs.NewTracer(ctx, f)
		ctx = obs.WithTracer(ctx, tracer)
		var root *obs.Span
		ctx, root = obs.StartSpan(ctx, obs.CatJob, "gpsbench")
		defer func() {
			root.End()
			if err := tracer.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "gpsbench: trace:", err)
			}
			f.Close()
			fmt.Println("wrote", *traceOut)
		}()
	}

	experiments.SetParallelism(*parallel)
	if *budget > 0 {
		experiments.Default.SetTraceBudget(uint64(*budget))
	}
	opt := experiments.Options{Iterations: *iters, Scale: *scale}
	start := time.Now()
	ran := false
	out := report.Report{ParallelWorkers: experiments.Parallelism(), Shards: experiments.Shards()}

	die := func(err error) {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "gpsbench: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "gpsbench:", err)
		os.Exit(1)
	}

	var sectionName string // the section currently being rendered, for out.Tables
	show := func(tb *stats.Table, err error, extra ...string) {
		if err != nil {
			die(err)
		}
		if *csv {
			fmt.Print(tb.CSV())
		} else {
			fmt.Println(tb)
		}
		text := tb.String()
		for _, e := range extra {
			fmt.Println(e)
			text += e + "\n"
		}
		if sectionName != "" {
			out.AddTable(sectionName, text)
		}
		fmt.Println()
		ran = true
	}

	// section times one figure/table body for the JSON report and brackets
	// it in a figure span when tracing; fn receives the span's context so
	// the cells it fans out nest under the figure.
	section := func(name string, fn func(ctx context.Context)) {
		t0 := time.Now()
		sectionName = name
		sctx, span := obs.StartSpan(ctx, obs.CatFigure, name)
		var tail experiments.TailTracker
		fn(experiments.ChainCellObserver(sctx, tail.Observe))
		span.End()
		sectionName = ""
		sec := report.Section{Name: name, Seconds: time.Since(t0).Seconds()}
		if d, slowest := tail.Max(); d > 0 {
			sec.MaxCellSeconds = d.Seconds()
			sec.SlowestCell = slowest
			p50, p99 := tail.Quantiles()
			sec.CellCount = tail.Count()
			sec.P50CellSeconds = p50.Seconds()
			sec.P99CellSeconds = p99.Seconds()
		}
		out.Sections = append(out.Sections, sec)
	}

	want := func(n int) bool { return *all || *fig == n }

	if *all || *table == 1 {
		fmt.Println(experiments.Table1())
		ran = true
	}
	if *all || *table == 2 {
		fmt.Println(experiments.Table2())
		ran = true
	}
	if want(1) {
		section("figure1", func(ctx context.Context) {
			tb, err := experiments.Figure1(ctx, opt)
			show(tb, err)
		})
	}
	if want(2) {
		section("figure2", func(ctx context.Context) {
			tb, err := experiments.Figure2(ctx, opt)
			show(tb, err)
		})
	}
	if want(3) {
		show(experiments.Figure3(), nil)
	}
	if want(4) {
		section("figure4", func(ctx context.Context) {
			tb, err := experiments.Figure4(ctx, opt)
			show(tb, err)
		})
	}
	if want(8) {
		section("figure8", func(ctx context.Context) {
			tb, err := experiments.Figure8(ctx, opt)
			if err == nil {
				g, f, n := experiments.Claims71(tb)
				out.GPSMeanX, out.OpportunityPct, out.VsNextBestX = g, f*100, n
				show(tb, nil, fmt.Sprintf(
					"Section 7.1 claims: GPS mean %.2fx (paper: 3.0x), %.1f%% of opportunity (paper: 93.7%%), %.2fx over next best (paper: 2.3x)",
					g, f*100, n))
			} else {
				show(tb, err)
			}
		})
	}
	if want(9) {
		section("figure9", func(ctx context.Context) {
			tb, err := experiments.Figure9(ctx, opt)
			show(tb, err)
		})
	}
	if want(10) {
		section("figure10", func(ctx context.Context) {
			tb, err := experiments.Figure10(ctx, opt)
			show(tb, err)
		})
	}
	if want(11) {
		section("figure11", func(ctx context.Context) {
			tb, err := experiments.Figure11(ctx, opt)
			show(tb, err)
		})
	}
	if want(12) {
		section("figure12", func(ctx context.Context) {
			tb, err := experiments.Figure12(ctx, opt)
			if err == nil {
				g, f := experiments.Claims73(tb)
				show(tb, nil, fmt.Sprintf(
					"Section 7.3 claims: GPS mean %.2fx (paper: 7.9x), %.1f%% of opportunity (paper: >80%%)",
					g, f*100))
			} else {
				show(tb, err)
			}
		})
	}
	if want(13) {
		section("figure13", func(ctx context.Context) {
			tb, err := experiments.Figure13(ctx, opt)
			if err == nil && *chart {
				show(tb, nil, tb.LineChart(12))
			} else {
				show(tb, err)
			}
		})
	}
	if want(14) {
		section("figure14", func(ctx context.Context) {
			tb, err := experiments.Figure14(ctx, opt)
			if err == nil && *chart {
				show(tb, nil, tb.LineChart(12))
			} else {
				show(tb, err)
			}
		})
	}
	if *all || *sens == "tlb" {
		section("sens-tlb", func(ctx context.Context) {
			tb, err := experiments.SensitivityGPSTLB(ctx, opt)
			show(tb, err)
		})
	}
	if *all || *sens == "pagesize" {
		section("sens-pagesize", func(ctx context.Context) {
			tb, err := experiments.SensitivityPageSize(ctx, opt)
			show(tb, err)
		})
	}
	if *all || *sens == "watermark" {
		section("sens-watermark", func(ctx context.Context) {
			tb, err := experiments.AblationWatermark(ctx, opt)
			show(tb, err)
		})
	}
	if *all || *sens == "l2" {
		section("sens-l2", func(ctx context.Context) {
			tb, err := experiments.ValidateL2(ctx, opt)
			show(tb, err)
		})
	}
	if *all || *sens == "profilingmode" {
		section("sens-profilingmode", func(ctx context.Context) {
			tb, err := experiments.AblationProfilingMode(ctx, opt)
			show(tb, err)
		})
	}
	if *all || *sens == "control" {
		section("sens-control", func(ctx context.Context) {
			tb, err := experiments.ControlApps(ctx, opt)
			show(tb, err)
		})
	}
	if *all || *sens == "pipelined" {
		section("sens-pipelined", func(ctx context.Context) {
			tb, err := experiments.AblationPipelinedMemcpy(ctx, opt)
			show(tb, err)
		})
	}
	if *all || *sens == "fabrics" {
		section("sens-fabrics", func(ctx context.Context) {
			tb, err := experiments.ExtendedFabrics(ctx, opt)
			show(tb, err)
		})
	}
	if *all || *sens == "hier" {
		section("sens-hier", func(ctx context.Context) {
			tb, err := experiments.FigureHierarchy(ctx, opt)
			if err == nil && *chart {
				show(tb, nil, tb.LineChart(12))
			} else {
				show(tb, err)
			}
		})
	}

	if *rep != "" {
		f, err := os.Create(*rep)
		if err != nil {
			die(err)
		}
		if err := experiments.WriteReport(ctx, f, opt); err != nil {
			f.Close()
			os.Remove(f.Name()) // don't leave a partial report behind
			die(err)
		}
		f.Close()
		fmt.Println("wrote", *rep)
		ran = true
	}
	if *all || *sens == "fabricmodel" {
		section("sens-fabricmodel", func(ctx context.Context) {
			tb, err := experiments.ValidateFabricModel(ctx, 50)
			show(tb, err)
		})
	}

	if !ran {
		flag.Usage()
		os.Exit(2)
	}

	if *jsonOut != "" {
		out.TotalSeconds = time.Since(start).Seconds()
		out.Cache = experiments.Default.CacheStats()
		f, err := os.Create(*jsonOut)
		if err != nil {
			die(err)
		}
		if err := out.Encode(f); err != nil {
			f.Close()
			die(err)
		}
		f.Close()
		fmt.Println("wrote", *jsonOut)
	}
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))
}
