package metrics_test

import (
	"math"
	"sync"
	"testing"

	"netmodel/internal/engine"
	"netmodel/internal/metrics"
	"netmodel/internal/rng"
)

// TestEnginePathLengthsMatchOracle pins the engine's batched
// multi-source path statistics to the per-source oracle bit for bit,
// sampled and exact, at every pool width.
func TestEnginePathLengthsMatchOracle(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for name, s := range metrics.PathTestMaps(t, seed) {
			for _, k := range []int{1, 63, 64, 65, 200, 0} {
				want, err := metrics.PathLengthsFrozen(s, rng.New(seed*11), k)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{1, 2, 4, 8} {
					got, err := engine.New(s, engine.WithWorkers(w)).PathLengths(rng.New(seed*11), k)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got.Avg) != math.Float64bits(want.Avg) ||
						got.Diameter != want.Diameter || got.Sources != want.Sources ||
						len(got.Distribution) != len(want.Distribution) {
						t.Fatalf("%s seed %d k=%d workers %d: got %+v, want %+v", name, seed, k, w, got, want)
					}
					for d, p := range want.Distribution {
						if math.Float64bits(got.Distribution[d]) != math.Float64bits(p) {
							t.Fatalf("%s seed %d k=%d workers %d: P(%d)=%v, want %v",
								name, seed, k, w, d, got.Distribution[d], p)
						}
					}
				}
			}
		}
	}
}

// TestEnginePathLengthsConcurrentCallers drives one engine's pooled
// multi-source scratch from several goroutines at once — a cell's
// measurement and comparison may share its giant engine — and checks
// every result against the oracle.
func TestEnginePathLengthsConcurrentCallers(t *testing.T) {
	s := metrics.PathTestMaps(t, 1)["ba"]
	e := engine.New(s, engine.WithWorkers(2))
	const callers = 6
	want := make([]metrics.PathStats, callers)
	for i := range want {
		var err error
		if want[i], err = metrics.PathLengthsFrozen(s, rng.New(uint64(i)), 70); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]metrics.PathStats, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			got[i], _ = e.PathLengths(rng.New(uint64(i)), 70)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if math.Float64bits(got[i].Avg) != math.Float64bits(want[i].Avg) || got[i].Diameter != want[i].Diameter {
			t.Fatalf("caller %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}
