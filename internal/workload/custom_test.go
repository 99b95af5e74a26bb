package workload

import (
	"strings"
	"testing"

	"gps/internal/trace"
)

const stencilJSON = `{
  "name": "mywave", "kind": "stencil",
  "planeKB": 64, "planes": 64, "fields": 2, "haloPlanes": 2,
  "passes": 2, "blockSet": [128, 256],
  "flopsPerByte": 70, "streamFactor": 8,
  "l2": {"baseHit": 0.4, "slopePerDoubling": 0.03, "maxHit": 0.6}
}`

const graphJSON = `{
  "name": "mygraph", "kind": "graph",
  "vertexMB": 4, "edgeMB": 8, "span": 1,
  "gatherInstrs": 800, "scatterInstrs": 400,
  "flopsPerEdge": 500, "applyFlops": 40, "atomicLanes": 16,
  "l2": {"baseHit": 0.25, "slopePerDoubling": 0.02, "maxHit": 0.4}
}`

func TestParseCustomStencil(t *testing.T) {
	spec, err := ParseCustomSpec(strings.NewReader(stencilJSON))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Build(smallCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	meta := prog.Meta()
	if meta.Name != "mywave" || meta.NumGPUs != 4 {
		t.Fatalf("meta = %+v", meta)
	}
	if meta.L2.HitRate(4) <= meta.L2.HitRate(1) {
		t.Fatal("L2 model not wired")
	}
	phases := 0
	prog.Phases(func(ph *trace.Phase) bool {
		phases++
		for _, k := range ph.Kernels {
			for _, a := range kernelAccesses(t, &k) {
				if err := a.Validate(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return true
	})
	if phases == 0 {
		t.Fatal("no phases")
	}
}

func TestParseCustomGraph(t *testing.T) {
	spec, err := ParseCustomSpec(strings.NewReader(graphJSON))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Build(smallCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Summarize(prog)
	if s.Atomics == 0 {
		t.Fatal("graph workload should issue atomics")
	}
}

func TestCustomSpecValidation(t *testing.T) {
	bad := []string{
		`{"kind": "stencil"}`, // no name
		`{"name": "x", "kind": "nope"}`,
		`{"name": "x", "kind": "stencil", "planeKB": 0, "planes": 4}`,
		`{"name": "x", "kind": "stencil", "planeKB": 64, "planes": 4, "fields": 1, "haloPlanes": 9, "passes": 1, "flopsPerByte": 1}`,
		`{"name": "x", "kind": "graph", "vertexMB": 0}`,
		`{"name": "x", "kind": "graph", "vertexMB": 4, "edgeMB": 4, "gatherInstrs": 0}`,
		`{"name": "x", "kind": "graph", "vertexMB": 4, "edgeMB": 4, "gatherInstrs": 1, "scatterInstrs": 1, "flopsPerEdge": 1, "applyFlops": 1, "atomicLanes": 99}`,
		`{"name": "x", "kind": "stencil", "unknown": 1}`,
		`not json`,
	}
	for i, j := range bad {
		if _, err := ParseCustomSpec(strings.NewReader(j)); err == nil {
			t.Errorf("case %d accepted: %s", i, j)
		}
	}
}

func TestCustomStencilRunsEndToEnd(t *testing.T) {
	spec, err := ParseCustomSpec(strings.NewReader(stencilJSON))
	if err != nil {
		t.Fatal(err)
	}
	p1, err := spec.Build(Config{NumGPUs: 1, Iterations: 1, Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p4, err := spec.Build(Config{NumGPUs: 4, Iterations: 1, Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Strong scaling: written bytes conserved.
	wb := func(p trace.Program) uint64 {
		var w uint64
		p.Phases(func(ph *trace.Phase) bool {
			for _, k := range ph.Kernels {
				for _, a := range kernelAccesses(t, &k) {
					if a.IsWrite() {
						w += a.Bytes()
					}
				}
			}
			return true
		})
		return w
	}
	if w1, w4 := wb(p1), wb(p4); w4 < w1*85/100 || w4 > w1*115/100 {
		t.Fatalf("written bytes not conserved: %d vs %d", w1, w4)
	}
}
