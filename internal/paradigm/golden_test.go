package paradigm

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"testing"

	"gps/internal/engine"
	"gps/internal/trace"
	"gps/internal/workload"
)

// goldenModel is one model of the results golden: a paradigm kind at a page
// size (0 = the machine default).
type goldenModel struct {
	kind      Kind
	pageBytes uint64
}

func (g goldenModel) String() string {
	if g.pageBytes == 0 {
		return g.kind.String()
	}
	return fmt.Sprintf("%s@%dKB", g.kind, g.pageBytes>>10)
}

// resultDigests replays every application of the Table 2 suite at gpus
// GPUs (4 iterations, scale 1, seed 1) through every model in one fused
// replay per application, and returns one sha256 per model over the JSON
// rendering of its eight Results, in catalog order.
func resultDigests(t *testing.T, gpus int, models []goldenModel) map[string]string {
	t.Helper()
	hs := make([]hash.Hash, len(models))
	for i := range hs {
		hs[i] = sha256.New()
	}
	for _, spec := range workload.Catalog() {
		prog := trace.Collect(spec.Build(workload.Config{NumGPUs: gpus, Iterations: 4, Scale: 1, Seed: 1}))
		ms := make([]engine.Model, len(models))
		for i, gm := range models {
			cfg := DefaultConfig()
			cfg.PageBytes = gm.pageBytes
			m, err := New(gm.kind, prog, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", spec.Name, gm, err)
			}
			ms[i] = m
		}
		for i, res := range engine.RunFused(prog, ms, nil) {
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("%s %s: %v", spec.Name, models[i], err)
			}
			fmt.Fprintf(hs[i], "%s:", spec.Name)
			hs[i].Write(data)
		}
	}
	out := map[string]string{}
	for i, gm := range models {
		out[gm.String()] = hex.EncodeToString(hs[i].Sum(nil))
	}
	return out
}

// TestEngineResultsGolden pins every engine.Result of every paradigm kind
// for the eight applications at the Figure 13 configuration (4 GPUs) and
// the 1-GPU baseline configuration, plus GPS at 4 KB and 2 MB pages. The
// digests were recorded from the record-at-a-time, line-at-a-time replay;
// any change to the structural pass must reproduce them byte for byte.
func TestEngineResultsGolden(t *testing.T) {
	var kinds []goldenModel
	for _, k := range Kinds() {
		kinds = append(kinds, goldenModel{kind: k})
	}
	for _, tc := range []struct {
		gpus   int
		models []goldenModel
		want   map[string]string
	}{
		{4, append(kinds, goldenModel{KindGPS, 4 << 10}, goldenModel{KindGPS, 2 << 20}), map[string]string{
			"UM":                "45904c89d10afe815fdc027a8b3e6d894ccf1328947abff676b7c672056c3ab0",
			"UM+hints":          "e284ace525bef7194718f3595333d8dc756377d1b4892ee0ac7f158b9c3a1efa",
			"RDL":               "6bfadfd97308d6f5d47a1f9990cdbe2f07915f9109f1b94abeac10a75901ed5b",
			"memcpy":            "e2a9252327c36dcdda81a56dba03091616cfbdc450fb5a3b8a670b48162f45cf",
			"GPS":               "2cd7e05b768eabcf76c110be171048658508df18965eada3e347490356133a30",
			"GPS-nosub":         "053d9a5cea5aaef2f48ac93e70cfeae65a1dd8380b6e09e63c7fd39e92994494",
			"infiniteBW":        "35e18fd417fc87110d0bdbb19d419f52a88bff8ab1565138f43685dc28e195d8",
			"GPS-unsub-default": "a4b934813f3b8160653865cb34fc6c85c2da69e27b42f6da63c10bf1a4840cc5",
			"memcpy-async":      "76fd93ab29703d739d072983b069f81788caaddd41b7016d74db4921d38584ad",
			"GPS@4KB":           "a24f92c38c634c51a6b45a953e1847d8c38a3f4afbb0b0a29d83928bf8cd70a8",
			"GPS@2048KB":        "5aa3c69c6bbd6bd1b871b325f5365aca0344028b52bb07e1b255b76f6a8a059d",
		}},
		{1, kinds, map[string]string{
			"UM":                "2a58170d2c87fc77eee928e63693d8b2370adb8590e8f9edf0bff37e676e8147",
			"UM+hints":          "4f7906ee26ad235cd997ded014203a4f6fccc64a05e0fa0c4c858a33d4004500",
			"RDL":               "b527d81aa460cded88250ee7a7b956917ca53859f599ad97a805cb05a989f110",
			"memcpy":            "706f1a8d79f0725f831ef47c7f4253c1f542e7f7851d579adb538a0e4de79a4c",
			"GPS":               "316439ea3a9cee7fd8dea4c7dadf42119ab05eda1c2d7db8f6ff10bfb3c45ffe",
			"GPS-nosub":         "2fbff8bafd75d39e6fd7e5f03303793eca1d97a88363b88778b4a946beb62d97",
			"infiniteBW":        "48cedd750a14a87798a033d55b524c41bf868373dfdca92580f4a4767c1a18ae",
			"GPS-unsub-default": "710abea44ffca937504531d6abb04e051cf2bccceb2861b46c37b5500208bf7c",
			"memcpy-async":      "d16b69cc7338e657316c8df6878525a09b8a88cdebe487df5108d40cb7398e2a",
		}},
	} {
		got := resultDigests(t, tc.gpus, tc.models)
		for _, gm := range tc.models {
			if g, w := got[gm.String()], tc.want[gm.String()]; g != w {
				t.Errorf("%d GPUs, %s: result digest %s, want %s", tc.gpus, gm, g, w)
			}
		}
	}
}
