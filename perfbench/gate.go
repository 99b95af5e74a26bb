package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"gps/internal/report"
)

// Reference tables: the figure13 and sens-hier texts recorded in
// BENCH_10.json at seed 1 and default size. A test checks the copies still
// equal that file.
var (
	//go:embed reference/figure13.txt
	refFigure13 string
	//go:embed reference/sens-hier.txt
	refHier string
)

// digest is the sha256 of a rendered table, printed for seeds that have no
// reference so two runs of one seed can be compared.
func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// checkTable fails the run when a rendered table differs from the one
// every pass must render; cells is how many cell results it carries.
func checkTable(res *result, label, got, want string, cells int) {
	if got != want {
		res.fail(cells, "%s: table differs from %s", label, describeDiff(got, want))
	}
}

// describeDiff names the first differing line of two tables.
func describeDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("expected at line %d: got %q want %q", i+1, gl, wl)
		}
	}
	return "expected (lengths differ)"
}

// paperComparison reports the model's GPS speedup next to the speedup the
// paper reports for the same configuration. The repository holds no
// hardware measurement, so the model's error is against the paper's own
// simulated figure only.
func paperComparison(res *result, table, rowLabel, what string, paper float64) {
	v, ok := tableValue(table, rowLabel, "GPS")
	if !ok {
		res.fail(0, "GPS speedup for row %q missing from table", rowLabel)
		return
	}
	res.notef("GPS %s: model %.2fx, paper %.1fx, error %+.1f%% (model unvalidated against hardware; the paper's figure is the only reference)",
		what, v, paper, 100*(v-paper)/paper)
}

// tableValue reads one cell of a rendered stats.Table by row label and
// column name.
func tableValue(text, rowLabel, col string) (float64, bool) {
	lines := strings.Split(text, "\n")
	if len(lines) < 4 {
		return 0, false
	}
	header := strings.Fields(lines[1])
	ci := -1
	for i, h := range header[1:] {
		if h == col {
			ci = i
		}
	}
	if ci < 0 {
		return 0, false
	}
	for _, l := range lines[3:] {
		if !strings.HasPrefix(l, rowLabel+" ") {
			continue
		}
		f := strings.Fields(strings.TrimPrefix(l, rowLabel))
		if ci >= len(f) {
			return 0, false
		}
		v, err := strconv.ParseFloat(f[ci], 64)
		return v, err == nil
	}
	return 0, false
}

// bodyGate checks gpsd result bodies: every body served for one spec hash
// must be byte-identical, and the tables of every hot-set result must equal
// the reference report computed with service.Execute during set-up.
type bodyGate struct {
	first map[string][]byte         // spec hash -> first body seen
	refs  map[string][]report.Table // hot spec hash -> reference tables
}

func newBodyGate(refs map[string][]report.Table) *bodyGate {
	return &bodyGate{first: map[string][]byte{}, refs: refs}
}

// check returns an error describing why body is wrong for hash, or nil.
// Callers serialize calls.
func (g *bodyGate) check(hash string, body []byte) error {
	if prev, ok := g.first[hash]; ok {
		if !bytes.Equal(prev, body) {
			return fmt.Errorf("result body for %s differs from an earlier body for the same spec", hash[:12])
		}
		return nil
	}
	g.first[hash] = body
	ref, ok := g.refs[hash]
	if !ok {
		return nil
	}
	var rep report.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("result body for %s: %v", hash[:12], err)
	}
	if !reflect.DeepEqual(rep.Tables, ref) {
		return fmt.Errorf("hot result for %s differs from the service.Execute reference", hash[:12])
	}
	return nil
}
