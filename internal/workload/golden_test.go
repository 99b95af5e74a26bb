package workload

import (
	"bytes"
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

// wireDigest returns the sha256 of p's full GPSTRACE encoding. It also
// decodes those bytes, as gpsim and gpstrace -inspect read a trace file, and
// requires the decoded trace to encode to the same bytes.
func wireDigest(t testing.TB, p trace.Program) string {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	dec, err := trace.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := trace.Encode(h, dec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(h.Sum(nil), sum[:]) {
		t.Errorf("%s: the decoded trace encodes to different bytes", p.Meta().Name)
	}
	return hex.EncodeToString(sum[:])
}

// TestEncodedBlocksGolden pins the encoder's output at the Figure 13
// configurations (4 GPUs and the 1-GPU baseline, 4 iterations, scale 1,
// seed 1). The block digests were recorded from the record-at-a-time scan
// encoder; the run-native encoder must reproduce its blocks byte for byte.
// The wire digests pin each trace's full GPSTRACE file, recorded when the
// binary decoder still produced flat access slices.
func TestEncodedBlocksGolden(t *testing.T) {
	for _, tc := range []struct {
		gpus int
		want string
		wire map[string]string
	}{
		{4, "43e00e5696f0a1f7503d1bb43a8095cc957873822753943a60ad957fb731c1b6", map[string]string{
			"jacobi":    "ae9404b78b9036ae443ec3b90e9119817e454ce227e1330c5bc82e264a49575d",
			"pagerank":  "9d6bc09ecf4667651fb9d8aaf1317189376b7a7b04ce38a82f87521b46f84038",
			"sssp":      "a20a7d8e994c5ab49ac0eae89b03fbb576ef5708b07ee77b55b04853bb631184",
			"als":       "6e04eb12e207307262babda41d1e3f87798f55aed2e572478173e592bf9a6ce4",
			"ct":        "c64a8e6e6b12dc9364654a4cfac4b164eebde043fdf2fec5c6b6c5c0cc25f55d",
			"eqwp":      "3247f68e7f30f5b11417565e4f24c285575f4bbd44dd8a8650a27cd787ec0aac",
			"diffusion": "778c112af4cd19345966d4421ba8f0f0798f8752140901550bb366f990f458ca",
			"hit":       "b40e4019318777376977dbdaebd3b5154ce4468f29a63d852abbef14f4c34e4d",
			"matmul":    "41e401068f38d3885eb2ef0ff6cc83672fc1b5a8b6fdf2c0c68808ab64924717",
			"nbody":     "21b04f1f471fd093d2fefea8d003bd3bd1e7823fde3b2c98e265e4c1ef8d0729",
		}},
		{1, "85b68edea742422926a23e17987fcc5e7822ba40098568933b02b4eb5e3a1a1c", map[string]string{
			"jacobi":    "29af43bfbcbe17e29f1cff54f8402a2e52eddd5d04746acb9a700164497eeedf",
			"pagerank":  "0b9a555020eabe099523cbeae7e8b7f7ad29004b80979103b9e0a1878fda984d",
			"sssp":      "d44b08b742fdfb6ff48cbc9ab0ffc6411e19ed001ee77844b642f82d0bb7881e",
			"als":       "aa7f1e93afcc4784a649eb2472fc761b75901d6c9b12e697554e792bfe8b1f3e",
			"ct":        "f08544e38f4a58e77bcb3f7e072e8630d3b994e84a638a71ecf1dd5d99f41ec6",
			"eqwp":      "c758e7ec0e6fd3a5c67af84e799a0b9e8c5954eee45954b6e9586b78b5897f50",
			"diffusion": "8d6cd7872424812a6858b5fcbd953242c149a2393dbb0d5288e303d751156019",
			"hit":       "78e735fa1b696c2e8a9acb843c1246822125369c8ae4c363ab5020b150b2eca3",
			"matmul":    "1499086f1ec2ef96fe8e77aba93ba2df4b0da470246f9927b10e19726b5a16b8",
			"nbody":     "222b37d59b7708e3961a28c38aec9f372b8e692113ab2dacf47d922f8cb9523b",
		}},
	} {
		cfg := Config{NumGPUs: tc.gpus, Iterations: 4, Scale: 1, Seed: 1}
		if got := blockDigest(t, cfg); got != tc.want {
			t.Errorf("%d GPUs: block digest %s, want %s", tc.gpus, got, tc.want)
		}
		for _, spec := range append(Catalog(), ControlCatalog()...) {
			if got := wireDigest(t, spec.Build(cfg)); got != tc.wire[spec.Name] {
				t.Errorf("%d GPUs: %s wire digest %s, want %s", tc.gpus, spec.Name, got, tc.wire[spec.Name])
			}
		}
	}
}
