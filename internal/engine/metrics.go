package engine

import (
	"errors"

	"netmodel/internal/metrics"
	"netmodel/internal/par"
	"netmodel/internal/rng"
)

// Betweenness computes exact Brandes betweenness from every source,
// sharding sources across the pool. The result is memoized; callers
// must not modify the returned slice.
func (e *Engine) Betweenness() []float64 {
	return e.Cached("betweenness", func() any {
		bc, _ := e.betweenness(nil, 0)
		return bc
	}).([]float64)
}

// BetweennessSampled estimates betweenness from `sources` sampled BFS
// roots, selecting sources exactly as the sequential implementation
// does for the same generator state. Sampled runs are not memoized.
func (e *Engine) BetweennessSampled(r *rng.Rand, sources int) ([]float64, error) {
	if sources <= 0 {
		return nil, errSourceCount
	}
	if r == nil {
		return nil, errNeedRand
	}
	if sources >= e.s.N() {
		return e.Betweenness(), nil
	}
	return e.betweenness(r, sources)
}

// The sampling error cases mirror the sequential implementations in
// internal/metrics, message for message.
var (
	errSourceCount = errors.New("metrics: source count must be positive")
	errNeedRand    = errors.New("metrics: sampling requires a generator")
)

func (e *Engine) betweenness(r *rng.Rand, sources int) ([]float64, error) {
	s := e.s
	n := s.N()
	bc := make([]float64, n)
	if n < 3 {
		return bc, nil
	}
	srcs, scale := metrics.BetweennessSources(n, r, sources)
	workers := e.workers
	scratch := make([]*metrics.BrandesScratch, workers)
	partial := make([][]float64, workers)
	e.parallelFor(len(srcs), func(w, i int) {
		if scratch[w] == nil {
			scratch[w] = metrics.NewBrandesScratch(n)
			partial[w] = make([]float64, n)
		}
		metrics.BrandesFrozen(s, srcs[i], scratch[w], partial[w], scale)
	})
	norm := float64(n-1) * float64(n-2)
	for _, p := range partial {
		if p == nil {
			continue
		}
		for i, v := range p {
			bc[i] += v
		}
	}
	for i := range bc {
		bc[i] /= norm
	}
	return bc, nil
}

// Closeness computes Wasserman-Faust closeness for every node, one BFS
// per node sharded across the pool. Memoized; do not modify the result.
func (e *Engine) Closeness() []float64 {
	return e.Cached("closeness", func() any {
		return e.perNodeBFS(metrics.ClosenessOfDist)
	}).([]float64)
}

// HarmonicCloseness computes harmonic closeness for every node.
// Memoized; do not modify the result.
func (e *Engine) HarmonicCloseness() []float64 {
	return e.Cached("harmonic-closeness", func() any {
		if e.s.N() < 2 {
			return make([]float64, e.s.N())
		}
		return e.perNodeBFS(metrics.HarmonicOfDist)
	}).([]float64)
}

// perNodeBFS runs one BFS per node and reduces each distance vector
// with the given functional; out[u] depends only on u's own BFS, so the
// parallel result is bit-identical to the sequential one.
func (e *Engine) perNodeBFS(reduce func(dist []int32, n int) float64) []float64 {
	s := e.s
	n := s.N()
	out := make([]float64, n)
	type bfsScratch struct {
		dist []int32
		sc   *metrics.BFSScratch
	}
	scratch := make([]*bfsScratch, e.workers)
	e.parallelFor(n, func(w, u int) {
		if scratch[w] == nil {
			scratch[w] = &bfsScratch{dist: make([]int32, n), sc: metrics.NewBFSScratch(n)}
		}
		metrics.BFSHybrid(s, u, scratch[w].dist, scratch[w].sc)
		out[u] = reduce(scratch[w].dist, n)
	})
	return out
}

// PathLengths measures shortest-path statistics from every node
// (sources <= 0 or >= N) or a uniform sample. The sources run through
// the bit-parallel multi-source BFS in batches of metrics.MSBatch, one
// batch per pool task; each batch folds its level popcounts straight
// into an integer histogram and the histograms merge in batch order, so
// the statistics are bit-identical to one BFS per source at every
// worker count. Exact (unsampled) runs are memoized.
func (e *Engine) PathLengths(r *rng.Rand, sources int) (metrics.PathStats, error) {
	n := e.s.N()
	if sources <= 0 || sources >= n {
		if n == 0 {
			_, err := metrics.PathSources(n, r, sources)
			return metrics.PathStats{}, err
		}
		st := e.Cached("paths-exact", func() any {
			st, _ := e.pathLengths(nil, 0)
			return st
		}).(metrics.PathStats)
		return st, nil
	}
	return e.pathLengths(r, sources)
}

func (e *Engine) pathLengths(r *rng.Rand, sources int) (metrics.PathStats, error) {
	s := e.s
	srcs, err := metrics.PathSources(s.N(), r, sources)
	if err != nil {
		return metrics.PathStats{}, err
	}
	// Spread the sources evenly over the fewest batches: a traversal
	// costs about the same whether it carries 8 sources or 64, so even
	// batches balance the pool.
	batches := (len(srcs) + metrics.MSBatch - 1) / metrics.MSBatch
	size := (len(srcs) + batches - 1) / batches
	hists := make([]metrics.PathHistogram, batches)
	// Take the engine's idle scratch, so repeated measurements of one
	// snapshot (a cell's Measure, then its comparison's) reuse the
	// masks; a concurrent caller finds none and allocates its own.
	e.mu.Lock()
	scratch := e.msIdle
	e.msIdle = nil
	e.mu.Unlock()
	if scratch == nil {
		scratch = make([]*metrics.MSBFSScratch, e.workers)
	}
	par.ForEach(batches, e.workers, func(w, b int) {
		if scratch[w] == nil {
			scratch[w] = metrics.NewMSBFSScratch(s.N())
		}
		hists[b].AccumulateSources(s, srcs[b*size:min((b+1)*size, len(srcs))], scratch[w])
	})
	e.mu.Lock()
	e.msIdle = scratch
	e.mu.Unlock()
	var total metrics.PathHistogram
	for b := range hists {
		total.Merge(&hists[b])
	}
	return total.ToStats(len(srcs)), nil
}

// TrianglesPerNode counts triangles through every node by sharding
// smallest-corner ranges across the pool. Memoized; do not modify the
// result.
func (e *Engine) TrianglesPerNode() []int {
	return e.Cached("triangles", func() any {
		s := e.s
		n := s.N()
		workers := e.workers
		partial := make([][]int, workers)
		e.parallelFor(n, func(w, u int) {
			if partial[w] == nil {
				partial[w] = make([]int, n)
			}
			metrics.TriangleRangeFrozen(s, u, u+1, partial[w])
		})
		t := make([]int, n)
		for _, p := range partial {
			if p == nil {
				continue
			}
			for i, v := range p {
				t[i] += v
			}
		}
		return t
	}).([]int)
}

// TotalTriangles returns the triangle count of the graph.
func (e *Engine) TotalTriangles() int {
	sum := 0
	for _, t := range e.TrianglesPerNode() {
		sum += t
	}
	return sum / 3
}

// LocalClustering returns the local clustering coefficient per node,
// derived from the memoized triangle counts. Memoized; do not modify
// the result.
func (e *Engine) LocalClustering() []float64 {
	return e.Cached("local-clustering", func() any {
		return metrics.LocalClusteringFromTriangles(e.s, e.TrianglesPerNode())
	}).([]float64)
}

// AvgClustering returns mean local clustering over nodes of degree >= 2.
func (e *Engine) AvgClustering() float64 {
	return metrics.AvgClusteringFromLocal(e.s, e.LocalClustering())
}

// Transitivity returns the global clustering coefficient.
func (e *Engine) Transitivity() float64 {
	return metrics.TransitivityFromTriangles(e.s, e.TrianglesPerNode())
}

// ClusteringSpectrum returns c(k), mean local clustering by degree.
func (e *Engine) ClusteringSpectrum() map[int]float64 {
	return metrics.ClusteringSpectrumFromLocal(e.s, e.LocalClustering())
}

// KCore returns the k-core decomposition. The bucket algorithm is
// inherently sequential but O(M) over flat arrays; the result is
// memoized.
func (e *Engine) KCore() metrics.KCoreResult {
	return e.Cached("kcore", func() any {
		return metrics.KCoreFrozen(e.s)
	}).(metrics.KCoreResult)
}

// RichClub returns the rich-club connectivity curve. Memoized; do not
// modify the result.
func (e *Engine) RichClub() []metrics.RichClubPoint {
	return e.Cached("richclub", func() any {
		return metrics.RichClubFrozen(e.s)
	}).([]metrics.RichClubPoint)
}

// CountCycles counts 3-, 4- and 5-cycles exactly, sharding the
// per-node 2-neighborhood kernels across the pool. All reductions are
// integral, so the counts are bit-identical to the sequential
// CountCycles. Memoized.
func (e *Engine) CountCycles() metrics.CycleCounts {
	return e.Cached("cycles", func() any {
		s := e.s
		n := s.N()
		if n < 3 {
			return metrics.CycleCounts{}
		}
		tri := e.TrianglesPerNode()
		workers := e.workers
		scratch := make([]*metrics.CycleScratch, workers)
		ordered4 := make([]int64, workers)
		trA5 := make([]int64, workers)
		e.parallelFor(n, func(w, i int) {
			if scratch[w] == nil {
				scratch[w] = metrics.NewCycleScratch(n)
			}
			o4, t5 := metrics.CycleNodeFrozen(s, i, scratch[w])
			ordered4[w] += o4
			trA5[w] += t5
		})
		var o4, t5 int64
		for w := 0; w < workers; w++ {
			o4 += ordered4[w]
			t5 += trA5[w]
		}
		return metrics.CyclesFromParts(s, tri, o4, t5)
	}).(metrics.CycleCounts)
}

// Knn returns the average-nearest-neighbor-degree spectrum. Memoized;
// do not modify the result.
func (e *Engine) Knn() map[int]float64 {
	return e.Cached("knn", func() any {
		return metrics.KnnFrozen(e.s)
	}).(map[int]float64)
}

// Assortativity returns Newman's degree-degree correlation r.
func (e *Engine) Assortativity() float64 {
	return e.Cached("assortativity", func() any {
		return metrics.AssortativityFrozen(e.s)
	}).(float64)
}

// DegreesAsFloats returns the degree sequence as floats for the stats
// package. Memoized; do not modify the result.
func (e *Engine) DegreesAsFloats() []float64 {
	return e.Cached("degrees-float", func() any {
		return metrics.DegreesAsFloatsFrozen(e.s)
	}).([]float64)
}

// DegreeHistogram returns hist[k] = number of nodes of degree k.
// Memoized and delta-maintained across Advance; do not modify the
// result.
func (e *Engine) DegreeHistogram() []int {
	return e.Cached("degree-hist", func() any {
		return metrics.DegreeHistogramFrozen(e.s)
	}).([]int)
}
