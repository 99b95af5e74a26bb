package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"gps/internal/cluster"
	"gps/internal/obs"
	"gps/internal/report"
	"gps/internal/service"
)

// metricsFixture is one Server and one Cluster sharing a registry, driven
// through one job for each way a job can end: done, failed, canceled
// (queued), cached, completed by a thief after a steal, and adopted from a
// dead peer straight out of the cache. The stub executor fails "pagesize",
// holds "watermark" until released, and completes everything else at once.
func metricsFixture(t *testing.T) (*obs.Registry, *httptest.Server) {
	t.Helper()
	reg := obs.NewRegistry()
	journal, err := service.OpenJournal(filepath.Join(t.TempDir(), "gpsd.journal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal.Close() })
	release, started := make(chan struct{}), make(chan struct{}, 1)
	exec := func(ctx context.Context, spec service.Spec) (*report.Report, error) {
		switch spec.Sensitivity {
		case "pagesize":
			return nil, errors.New("stub failure")
		case "watermark":
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &report.Report{TotalSeconds: 0.001}, nil
	}
	clu := cluster.New(cluster.Config{Self: "a", StealInterval: -1, Registry: reg})
	svc := service.New(service.Config{
		NodeID: "a", Workers: 1, QueueDepth: 4,
		Execute: exec, Journal: journal, Registry: reg,
	})
	clu.Bind(svc)
	t.Cleanup(func() { svc.Shutdown(context.Background()) }) //nolint:errcheck

	sens := func(name string) service.Spec { return service.Spec{Type: "sensitivity", Sensitivity: name} }
	submit := func(name string) service.Status {
		t.Helper()
		st, _, err := svc.Submit(sens(name))
		if err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
		return st
	}
	wait := func(id string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, _, err := svc.WaitResult(ctx, id); err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
	}

	wait(submit("tlb").ID)      // done
	submit("tlb")               // cached
	wait(submit("pagesize").ID) // failed
	held := submit("watermark")
	<-started
	if _, err := svc.Cancel(submit("l2").ID); err != nil { // canceled while queued
		t.Fatal(err)
	}
	submit("control")
	stolen, ok := svc.Steal("b")
	if !ok {
		t.Fatal("nothing to steal")
	}
	if err := svc.CompleteStolen(stolen.ID, &report.Report{TotalSeconds: 0.001}, ""); err != nil {
		t.Fatal(err)
	}
	close(release)
	wait(held.ID)
	if out, err := svc.Adopt("z", "z-j-000001", sens("tlb"), obs.TraceInfo{}); err != nil || out != service.AdoptCached {
		t.Fatalf("adopt = %v, %v; want cached", out, err)
	}

	ts := httptest.NewServer(New(svc, WithCluster(clu)))
	t.Cleanup(ts.Close)
	return reg, ts
}

// maskedExposition renders the registry with every sample value replaced by
// "<v>": the HELP and TYPE lines and each series' name and label block are
// the contract, the values are not.
func maskedExposition(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')] + " <v>"
		}
		out.WriteString(line + "\n")
	}
	return out.String()
}

// jsonKeys lists every key path of a decoded JSON object, nested objects
// joined with dots, sorted.
func jsonKeys(prefix string, v map[string]any, out *[]string) {
	for k, child := range v {
		*out = append(*out, prefix+k)
		if m, ok := child.(map[string]any); ok {
			jsonKeys(prefix+k+".", m, out)
		}
	}
	sort.Strings(*out)
}

func getJSONObject(t *testing.T, ts *httptest.Server, path string) map[string]any {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return m
}

// jsonShape is the key set of /v1/metrics and of the healthz cluster block.
func jsonShape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	var metrics, clusterKeys []string
	jsonKeys("", getJSONObject(t, ts, "/v1/metrics"), &metrics)
	hz, ok := getJSONObject(t, ts, "/v1/healthz")["cluster"].(map[string]any)
	if !ok {
		t.Fatal("healthz has no cluster block")
	}
	jsonKeys("", hz, &clusterKeys)
	return "# GET /v1/metrics\n" + strings.Join(metrics, "\n") +
		"\n# GET /v1/healthz .cluster\n" + strings.Join(clusterKeys, "\n") + "\n"
}

// checkGolden compares got with the checked-in testdata/name. An intended
// contract change is recorded by committing the got text the failure
// prints.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	if want := readGolden(t, name); got != want {
		t.Errorf("%s drifted\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestMetricsContractGolden pins the operator-facing metrics contract: the
// Prometheus family and series set with HELP and TYPE, and the JSON key
// sets of /v1/metrics and the healthz cluster block.
func TestMetricsContractGolden(t *testing.T) {
	reg, ts := metricsFixture(t)
	checkGolden(t, "metrics_exposition.golden", maskedExposition(t, reg))
	checkGolden(t, "metrics_json_keys.golden", jsonShape(t, ts))
}

// exposedFamilies maps each family declared by a TYPE line to its type.
func exposedFamilies(expo string) map[string]string {
	fams := map[string]string{}
	for _, line := range strings.Split(expo, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			fams[f[2]] = f[3]
		}
	}
	return fams
}

// readmeFamilies maps each row of README's metrics table, the rows under
// its "| Family | Type | Labels | Help |" header, to the row's Type cell.
func readmeFamilies(t *testing.T, readme string) map[string]string {
	t.Helper()
	_, table, ok := strings.Cut(readme, "| Family | Type | Labels | Help |\n")
	if !ok {
		t.Fatal("README has no metrics table")
	}
	rows := map[string]string{}
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		if strings.HasPrefix(line, "|---") {
			continue
		}
		cells := strings.Split(line, "|")
		rows[strings.Trim(strings.TrimSpace(cells[1]), "`")] = strings.TrimSpace(cells[2])
	}
	return rows
}

// sortedKeys returns m's keys in order, so test failures list stably.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// readGolden returns the checked-in testdata/name.
func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMetricsFamiliesHaveHelp: every family in the exposition golden
// carries HELP text, immediately ahead of its TYPE line.
// TestMetricsContractGolden ties the golden to the live exposition.
func TestMetricsFamiliesHaveHelp(t *testing.T) {
	expo := readGolden(t, "metrics_exposition.golden")
	lines := strings.Split(expo, "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name := strings.Fields(line)[2]
		if i == 0 || !strings.HasPrefix(lines[i-1], "# HELP "+name+" ") ||
			strings.TrimSpace(strings.TrimPrefix(lines[i-1], "# HELP "+name)) == "" {
			t.Errorf("family %s has no HELP text", name)
		}
	}
	if len(exposedFamilies(expo)) == 0 {
		t.Fatal("exposition declares no families")
	}
}

// TestREADMEListsEveryMetricFamily: the README's Observability table and
// the exposition golden list the same families with the same types.
func TestREADMEListsEveryMetricFamily(t *testing.T) {
	golden := exposedFamilies(readGolden(t, "metrics_exposition.golden"))
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	rows := readmeFamilies(t, string(readme))
	for _, fam := range sortedKeys(golden) {
		if typ, ok := rows[fam]; !ok {
			t.Errorf("README's metrics table has no row for %s", fam)
		} else if typ != golden[fam] {
			t.Errorf("README's metrics table lists %s as a %s, the exposition as a %s", fam, typ, golden[fam])
		}
	}
	for _, fam := range sortedKeys(rows) {
		if _, ok := golden[fam]; !ok {
			t.Errorf("README's metrics table lists %s, which the exposition does not export", fam)
		}
	}
}
