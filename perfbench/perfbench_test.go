package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"gps/internal/report"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type runOutput struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

func TestMain(m *testing.M) {
	calibInProcess = true
	os.Exit(m.Run())
}

// tinyRun runs one workload at test size and parses its JSON line.
func tinyRun(t *testing.T, cfg config) (runOutput, string) {
	t.Helper()
	cfg.tiny = true
	cfg.outDir = t.TempDir()
	if cfg.seconds == 0 {
		cfg.seconds = 0.5
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	var buf bytes.Buffer
	emit(&buf, cfg, res)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out runOutput
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v\n%s", cfg.workload, err, buf.String())
	}
	return out, buf.String()
}

// TestTinyRunsReportEveryMetric runs each workload untraced and traced at
// test size: every declared metric must be printed, by a valid name with
// its unit and a sample count, and the outputs must pass the gate.
func TestTinyRunsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	for _, wl := range []string{"paper-4gpu", "gpsd-mix", "hier-scale"} {
		for _, traced := range []bool{false, true} {
			out, text := tinyRun(t, config{workload: wl, seed: 7, trace: traced})
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", wl, traced, out.Correct, out.Failed, out.Attempted, text)
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, traced, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.Metrics[d.name]
				if !ok || m.Value == nil {
					t.Errorf("%s trace=%v: metric %s missing", wl, traced, d.name)
					continue
				}
				if m.Unit != d.unit {
					t.Errorf("%s: metric %s unit %q, want %q", wl, d.name, m.Unit, d.unit)
				}
				if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(d.name) + ` +\S+ +` + regexp.QuoteMeta(d.unit) + ` +n=\d+$`).MatchString(text) {
					t.Errorf("%s: metric %s not printed with unit and sample count", wl, d.name)
				}
			}
			if traced && wl != "gpsd-mix" && *out.Metrics["service.cache_hits"].Value != 0 {
				t.Errorf("%s: service layer reported work outside gpsd-mix", wl)
			}
		}
	}
}

// TestSameSeedSameDigest: two runs of one seed render the same table, and
// a doctored digest is rejected.
func TestSameSeedSameDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	_, text := tinyRun(t, config{workload: "paper-4gpu", seed: 9})
	sum := regexp.MustCompile(`table sha256 ([0-9a-f]{64})`).FindStringSubmatch(text)
	if sum == nil {
		t.Fatalf("no digest printed:\n%s", text)
	}
	if out, text := tinyRun(t, config{workload: "paper-4gpu", seed: 9, expectDigest: sum[1]}); !out.Correct {
		t.Fatalf("second run of the same seed disagrees:\n%s", text)
	}
	doctored := strings.Repeat("0", 64)
	out, _ := tinyRun(t, config{workload: "paper-4gpu", seed: 9, expectDigest: doctored})
	if out.Correct || out.Failed == 0 {
		t.Fatal("a doctored digest was accepted")
	}
}

func TestGateRejectsDoctoredTable(t *testing.T) {
	res := newResult()
	checkTable(res, "figure", refFigure13, refFigure13, 200)
	if !res.correct {
		t.Fatal("identical tables rejected")
	}
	doctored := strings.Replace(refFigure13, "3.08", "3.09", 1)
	checkTable(res, "figure", doctored, refFigure13, 200)
	if res.correct || res.failed != 200 {
		t.Fatalf("doctored table accepted: correct=%v failed=%d", res.correct, res.failed)
	}
	if !strings.Contains(res.notes[len(res.notes)-1], "line 5") {
		t.Errorf("mismatch note does not name the line: %s", res.notes[len(res.notes)-1])
	}
}

func TestGateRejectsDoctoredBody(t *testing.T) {
	ref := []report.Table{{Name: "matrix", Text: "Custom matrix\nrow 1.000\n"}}
	body, err := json.Marshal(report.Report{Tables: ref})
	if err != nil {
		t.Fatal(err)
	}
	hash := strings.Repeat("ab", 32)
	g := newBodyGate(map[string][]report.Table{hash: ref})
	if err := g.check(hash, body); err != nil {
		t.Fatalf("reference body rejected: %v", err)
	}
	if err := g.check(hash, body); err != nil {
		t.Fatalf("repeated identical body rejected: %v", err)
	}
	if err := g.check(hash, bytes.Replace(body, []byte("1.000"), []byte("1.001"), 1)); err == nil {
		t.Fatal("a body differing from an earlier body of the same spec was accepted")
	}
	wrong, _ := json.Marshal(report.Report{Tables: []report.Table{{Name: "matrix", Text: "Custom matrix\nrow 2.000\n"}}})
	if err := newBodyGate(map[string][]report.Table{hash: ref}).check(hash, wrong); err == nil {
		t.Fatal("a hot body differing from the service.Execute reference was accepted")
	}
}

// TestReferencesMatchBench10 keeps the embedded reference tables equal to
// the texts recorded in BENCH_10.json.
func TestReferencesMatchBench10(t *testing.T) {
	data, err := os.ReadFile("../BENCH_10.json")
	if err != nil {
		t.Skip("BENCH_10.json not present")
	}
	var rep report.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"figure13": refFigure13, "sens-hier": refHier}
	for _, tb := range rep.Tables {
		if ref, ok := want[tb.Name]; ok {
			if tb.Text != ref {
				t.Errorf("reference/%s.txt differs from BENCH_10.json", tb.Name)
			}
			delete(want, tb.Name)
		}
	}
	if len(want) != 0 {
		t.Errorf("BENCH_10.json lacks tables %v", want)
	}
}

// TestBenchmarkJSONMatchesDeclaredMetrics keeps BENCHMARK.json's metric
// lists equal to the ones this program prints.
func TestBenchmarkJSONMatchesDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			better := "lower"
			if w.higher {
				better = "higher"
			}
			if g.Name != w.name || g.Unit != w.unit || g.Better != better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program declares %s %s %s", kind, i, g, w.name, w.unit, better)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: invalid name or unit %q %q", kind, g.Name, g.Unit)
			}
			if bounded != (g.Bound != nil) || (g.Bound != nil && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s: %s has bad bound %v", kind, g.Name, g.Bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != "paper-4gpu,gpsd-mix" {
		t.Errorf("workloads %v", names)
	}
}

func TestSelfTimesAndPerfetto(t *testing.T) {
	// root [0,100] with children a [10,40] and b [50,90]; a has child c [20,30].
	spans := []span{
		{name: "bench.task", start: 0, end: 100, parent: -1, track: 1},
		{name: "engine.run", start: 10, end: 40, parent: 0, track: 1},
		{name: "timing.simulate", start: 20, end: 30, parent: 1, track: 1},
		{name: "engine.run", start: 50, end: 90, parent: 0, track: 1},
	}
	self := selfTimes(spans)
	for i, want := range []int64{30, 20, 10, 40} {
		if self[i] != want {
			t.Errorf("span %d self %d, want %d", i, self[i], want)
		}
	}
	lt := aggregate(spans, nil)
	if got := lt.layerSum() + lt.unattributed; got*1e9 < 99.9 || got*1e9 > 100.1 {
		t.Errorf("self times sum to %v ns, want the root's 100", got*1e9)
	}
	if err := writePerfetto(t.TempDir()+"/t.json", spans); err != nil {
		t.Fatal(err)
	}
	bad := append([]span(nil), spans...)
	bad[2].end = 45 // child outlives its parent on the same track
	if err := writePerfetto(t.TempDir()+"/bad.json", bad); err == nil {
		t.Error("a trace with overlapping spans passed validation")
	}
}

func TestPlanIsSeeded(t *testing.T) {
	a, b := makePlan(5, 3, fullMix), makePlan(5, 3, fullMix)
	if len(a.events) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	c := makePlan(6, 3, fullMix)
	if reflect.DeepEqual(a.events, c.events) {
		t.Fatal("different seeds gave the same schedule")
	}
	// Warming the hot set must cost the same at every seed.
	for i := range a.hot {
		x, y := a.hot[i].Cells[0], c.hot[i].Cells[0]
		if x.App != y.App || x.Paradigm != y.Paradigm {
			t.Fatalf("hot spec %d is %s/%s at one seed and %s/%s at another", i, x.App, x.Paradigm, y.App, y.Paradigm)
		}
	}
	for _, e := range makePlan(5, 3, mixFor(config{writeRate: 0})).events {
		if e.class != "hot" {
			t.Fatal("--write-rate 0 still scheduled writes")
		}
	}
	seeds := map[int64]string{}
	for _, e := range a.events {
		if e.class == "hot" {
			continue
		}
		if prev, ok := seeds[e.spec.Seed]; ok && (prev != "storm" || e.class != "storm") {
			t.Fatalf("cold seed %d reused", e.spec.Seed)
		}
		seeds[e.spec.Seed] = e.class
	}
}
