package traffic

import (
	"encoding/json"
	"testing"

	"netmodel/internal/gen"
	"netmodel/internal/rng"
)

// TestSimScratchReuseIdentical pins the SimScratch contract: a run that
// reuses another run's scratch — including one grown by a different
// workload, horizon, worker count, failure scenario or mass vector —
// produces a report byte-identical to the same run with no scratch at all. The
// scratch may only ever carry capacity, never results.
func TestSimScratchReuseIdentical(t *testing.T) {
	top, err := gen.BA{N: 300, M: 2}.Generate(rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	snap := top.G.Freeze()
	masses := make([]float64, snap.N())
	flat := make([]float64, snap.N())
	for u := range masses {
		masses[u] = float64(snap.Degree(u))
		flat[u] = 1
	}
	scenarios := []struct {
		name    string
		spec    WorkloadSpec
		workers int
		flat    bool // uniform masses: the shared destination sampler must be rebuilt
	}{
		{"steady", WorkloadSpec{LoadFactor: 0.7, Epochs: 12}, 1, false},
		{"heavy-long", WorkloadSpec{LoadFactor: 1.1, Epochs: 25, TailIndex: 1.4}, 3, false},
		{"failures", WorkloadSpec{LoadFactor: 0.8, Epochs: 16, Failures: &FailureSpec{
			Mode: "random", Links: 3, MTBF: 4, MTTR: 2, MaxRetries: 2, RetryAfter: 1,
		}}, 1, false},
		{"uniform-masses", WorkloadSpec{LoadFactor: 0.7, Epochs: 12}, 1, true},
		{"steady-again", WorkloadSpec{LoadFactor: 0.7, Epochs: 12}, 1, false},
	}
	// One scratch across all scenarios: each run inherits buffers the
	// previous, differently-shaped run grew and dirtied.
	scr := NewSimScratch()
	for _, sc := range scenarios {
		m := masses
		if sc.flat {
			m = flat
		}
		fresh, err := Simulate(snap, m, sc.spec, rng.New(41), sc.workers)
		if err != nil {
			t.Fatalf("%s fresh: %v", sc.name, err)
		}
		shared, err := Simulate(snap, m, sc.spec, rng.New(41), sc.workers, WithSimScratch(scr))
		if err != nil {
			t.Fatalf("%s shared: %v", sc.name, err)
		}
		fb, err := json.Marshal(fresh)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := json.Marshal(shared)
		if err != nil {
			t.Fatal(err)
		}
		if string(fb) != string(sb) {
			t.Fatalf("%s: shared-scratch report diverged\nfresh:  %s\nshared: %s",
				sc.name, fb, sb)
		}
	}
}
