package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"gps/internal/trace"
)

// blockDigest hashes the encoded column blocks of every kernel of every
// application (the Table 2 suite plus the control apps) built at cfg. The
// JSON rendering of a column store is its record count plus its raw encoded
// blocks, so the digest pins the wire bytes of every block.
func blockDigest(t testing.TB, cfg Config) string {
	t.Helper()
	h := sha256.New()
	for _, spec := range append(Catalog(), ControlCatalog()...) {
		spec.Build(cfg).Phases(func(ph *trace.Phase) bool {
			for ki := range ph.Kernels {
				k := &ph.Kernels[ki]
				data, err := json.Marshal(k.Col)
				if err != nil {
					t.Fatalf("%s: %v", spec.Name, err)
				}
				fmt.Fprintf(h, "%s/%d/%d/%s:", spec.Name, ph.Index, k.GPU, k.Name)
				h.Write(data)
			}
			return true
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEncodedBlocksGolden pins the encoder's output at the Figure 13
// configurations (4 GPUs and the 1-GPU baseline, 4 iterations, scale 1,
// seed 1). The digests were recorded from the record-at-a-time scan
// encoder; the run-native encoder must reproduce its blocks byte for byte.
func TestEncodedBlocksGolden(t *testing.T) {
	for _, tc := range []struct {
		gpus int
		want string
	}{
		{4, "43e00e5696f0a1f7503d1bb43a8095cc957873822753943a60ad957fb731c1b6"},
		{1, "85b68edea742422926a23e17987fcc5e7822ba40098568933b02b4eb5e3a1a1c"},
	} {
		cfg := Config{NumGPUs: tc.gpus, Iterations: 4, Scale: 1, Seed: 1}
		if got := blockDigest(t, cfg); got != tc.want {
			t.Errorf("%d GPUs: block digest %s, want %s", tc.gpus, got, tc.want)
		}
	}
}
