package traffic

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"netmodel/internal/engine"
	"netmodel/internal/gen"
	"netmodel/internal/rng"
)

// goldenDigests pins the exact bytes of topoload-shaped simulations:
// a degree-massed BA map of 400 nodes, two load factors run back to
// back over one metrics engine (the second reuses the routing memo the first
// left behind), each report hashed with its link loads and full flow
// trace. The digests were recorded before per-origin route resolution
// replaced per-epoch tree builds; any change to a path, a draw or a
// rate shows up here at every worker count.
var goldenDigests = map[string]string{
	"epoch/none":   "f7130dd1285fa6d7f7b2ad9089bbeae435472008927cdcd35c9b781cc59d3355",
	"epoch/random": "ccd58bb71b19ae2aff29194dfa353e69a2c941b37290a44da6a9eee331e8449a",
	"epoch/degree": "03a06fad588fd588086e3967cf96f04cd7843bb8bfe5e32b1af2fff021823de4",
}

// goldenFailures are the fault scenarios of the golden runs, both with
// retries so kills, re-admissions and reroutes all appear.
var goldenFailures = map[string]*FailureSpec{
	"none":   nil,
	"random": {Mode: FailRandom, Links: 4, Nodes: 1, MTBF: 6, MTTR: 2, MaxRetries: 2, RetryAfter: 1},
	"degree": {Mode: FailDegree, Links: 3, Nodes: 1, FailAt: 3, RepairAt: 12, MaxRetries: 2, RetryAfter: 2},
}

// goldenDigest runs one golden configuration at the given worker count
// and returns the hex SHA-256 of its reports.
func goldenDigest(t *testing.T, failure string, workers int) string {
	t.Helper()
	top, err := gen.BA{N: 400, M: 2}.Generate(rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := top.G.FreezeChecked()
	if err != nil {
		t.Fatal(err)
	}
	masses := make([]float64, snap.N())
	for u := range masses {
		masses[u] = float64(snap.Degree(u))
	}
	eng := engine.New(snap, engine.WithWorkers(workers))
	h := sha256.New()
	for _, load := range []float64{0.5, 0.9} {
		spec := WorkloadSpec{Engine: EngineEpoch, LoadFactor: load, Epochs: 20, Failures: goldenFailures[failure]}
		rep, err := SimulateWith(eng, masses, spec, rng.New(5), WithFlowTrace())
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []any{rep, rep.Links, rep.Flows} {
			data, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(data)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDigests checks every golden failure scenario against the
// recorded digests at worker counts 1, 2, 4, 8.
func TestGoldenDigests(t *testing.T) {
	for _, failure := range []string{"none", "random", "degree"} {
		key := EngineEpoch + "/" + failure
		for _, workers := range []int{1, 2, 4, 8} {
			if got := goldenDigest(t, failure, workers); got != goldenDigests[key] {
				t.Errorf("%s workers=%d: digest %s, want %s", key, workers, got, goldenDigests[key])
			}
		}
	}
}
