package metrics

import (
	"testing"

	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// PathHistogramPerSource is the oracle of the multi-source kernel: one
// single-source BFS per source, its distance row folded pair by pair.
func PathHistogramPerSource(s *graph.Snapshot, srcs []int) PathHistogram {
	n := s.N()
	dist := make([]int32, n)
	sc := NewBFSScratch(n)
	var h PathHistogram
	for _, src := range srcs {
		BFSHybrid(s, src, dist, sc)
		for v, d := range dist {
			if v != src && d > 0 {
				h.add(d)
			}
		}
	}
	return h
}

// PathLengthsFrozen is PathLengths over a snapshot through the
// per-source oracle, with PathLengths' source selection and errors.
func PathLengthsFrozen(s *graph.Snapshot, r *rng.Rand, sources int) (PathStats, error) {
	srcs, err := PathSources(s.N(), r, sources)
	if err != nil {
		return PathStats{}, err
	}
	h := PathHistogramPerSource(s, srcs)
	return h.ToStats(len(srcs)), nil
}

// PathTestMaps returns small maps covering the kernel's edge cases:
// the heavy-tailed generators, a sparse G(n,p) with isolated nodes and
// many components, a small-world ring, a ring split in two, and the
// one- and two-node maps.
func PathTestMaps(t testing.TB, seed uint64) map[string]*graph.Snapshot {
	t.Helper()
	maps := make(map[string]*graph.Snapshot)
	for _, m := range []gen.Generator{
		gen.BA{N: 300, M: 2},
		gen.GLP{N: 300, M: 1, P: 0.45, Beta: 0.64},
		gen.DefaultPFP(300),
		gen.GNP{N: 300, P: 1.2 / 300},
		gen.WS{N: 240, K: 4, Beta: 0.1},
	} {
		top, err := m.Generate(rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		maps[m.Name()] = top.G.Freeze()
	}
	split := graph.New(200)
	for u := 0; u < 200; u++ {
		if u != 99 && u != 199 {
			split.MustAddEdge(u, u+1)
		}
	}
	maps["split-path"] = split.Freeze()
	maps["n1"] = graph.New(1).Freeze()
	maps["n2-isolated"] = graph.New(2).Freeze()
	pair := graph.New(2)
	pair.MustAddEdge(0, 1)
	maps["n2-edge"] = pair.Freeze()
	return maps
}

// trimmed drops trailing zero buckets, which depend on growth steps
// rather than on the pairs counted.
func trimmed(c []int64) []int64 {
	for len(c) > 0 && c[len(c)-1] == 0 {
		c = c[:len(c)-1]
	}
	return c
}

func TestMultiSourceHistogramMatchesPerSource(t *testing.T) {
	sc := NewMSBFSScratch(0) // grows on demand, reused across maps
	for seed := uint64(1); seed <= 3; seed++ {
		for name, s := range PathTestMaps(t, seed) {
			for _, k := range []int{1, 63, 64, 65, 200, 0} {
				srcs, err := PathSources(s.N(), rng.New(seed*7), k)
				if err != nil {
					t.Fatal(err)
				}
				want := PathHistogramPerSource(s, srcs)
				var got PathHistogram
				got.AccumulateSources(s, srcs, sc)
				gc, wc := trimmed(got.Counts), trimmed(want.Counts)
				if len(gc) != len(wc) || got.Sum != want.Sum || got.Total != want.Total {
					t.Fatalf("%s seed %d k=%d: got counts %v sum %d total %d, want %v %d %d",
						name, seed, k, gc, got.Sum, got.Total, wc, want.Sum, want.Total)
				}
				for d := range gc {
					if gc[d] != wc[d] {
						t.Fatalf("%s seed %d k=%d: count[%d]=%d, want %d", name, seed, k, d, gc[d], wc[d])
					}
				}
			}
		}
	}
}
