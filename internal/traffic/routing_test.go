package traffic

import (
	"reflect"
	"sort"
	"testing"

	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// TestEnsureTreeBudgetBound drives Ensure with batches below, at and
// above a small budget and checks after every call that cached plus
// pooled trees stay within max(budget, batch) and that the FIFO state
// is exactly the evict-oldest-non-batch model: the batch moves to the
// young end, the oldest other entries leave first.
func TestEnsureTreeBudgetBound(t *testing.T) {
	s := meshGraph(40).Freeze()
	rt := NewRouting(s)
	rt.max = 6
	var model []int
	r := rng.New(3)
	for round := 0; round < 60; round++ {
		size := 1 + r.Intn(9) // 1..9: below, at and above the budget
		pick := make(map[int]bool, size)
		for len(pick) < size {
			pick[r.Intn(s.N())] = true
		}
		batch := make([]int, 0, size)
		for src := range pick {
			batch = append(batch, src)
		}
		sort.Ints(batch)
		rt.Ensure(batch, 1+round%3)

		keep := model[:0]
		for _, src := range model {
			if !pick[src] {
				keep = append(keep, src)
			}
		}
		model = append(keep, batch...)
		bound := max(rt.max, len(batch))
		for len(model) > bound {
			model = model[1:]
		}
		if !reflect.DeepEqual(rt.fifo, model) {
			t.Fatalf("round %d: fifo %v, want %v", round, rt.fifo, model)
		}
		if len(rt.trees) != len(model) {
			t.Fatalf("round %d: %d cached trees for %d fifo entries", round, len(rt.trees), len(model))
		}
		if held := len(rt.trees) + len(rt.free); held > bound {
			t.Fatalf("round %d: %d cached + %d pooled trees exceed max(budget, batch) = %d",
				round, len(rt.trees), len(rt.free), bound)
		}
		arcEdge := s.ArcEdgeIDs()
		for _, src := range batch {
			if !reflect.DeepEqual(rt.trees[src], buildTree(s, arcEdge, src)) {
				t.Fatalf("round %d: tree %d diverged from a cold build", round, src)
			}
		}
	}
}

// TestRoutingMemBytesCountsHeld pins MemBytes to what the state holds:
// pooled trees still count after a Reset parks them, and the memo arena
// a simulation leaves behind counts too.
func TestRoutingMemBytesCountsHeld(t *testing.T) {
	s := meshGraph(30).Freeze()
	n := int64(s.N())
	rt := NewRouting(s)
	rt.Ensure([]int{0, 1, 2, 3, 4, 5, 6, 7}, 1)
	trees := 8 * 12 * n
	if got := rt.MemBytes(); got < trees {
		t.Fatalf("8 cached trees: MemBytes %d < %d", got, trees)
	}
	rt.Reset(s)
	if len(rt.trees) != 0 || len(rt.free) != 8 {
		t.Fatalf("reset: %d cached, %d pooled trees", len(rt.trees), len(rt.free))
	}
	if got := rt.MemBytes(); got < trees {
		t.Fatalf("8 pooled trees: MemBytes %d < %d", got, trees)
	}
	if _, err := Simulate(s, UniformMasses(30), WorkloadSpec{LoadFactor: 0.6, Epochs: 6},
		rng.New(2), 1, WithRouting(rt)); err != nil {
		t.Fatal(err)
	}
	if len(rt.memo.index) == 0 || len(rt.memo.arena) == 0 {
		t.Fatal("simulation left no memoized paths")
	}
	memo := 4*int64(len(rt.memo.arena)) + 8*int64(len(rt.memo.keys))
	if got := rt.MemBytes(); got < trees+memo {
		t.Fatalf("pooled trees plus memo: MemBytes %d < %d", got, trees+memo)
	}
}

// TestTreeBuildsPerOriginSegment bounds the routing work of a
// simulation: each origin costs at most one BFS per routing segment —
// the whole horizon without failures, the epochs between outage events
// with them — at every worker count. The tree budget
// at n=3000 (930 trees) is far below the origin count, which is where
// per-epoch routing rebuilt nearly every origin's tree every epoch.
func TestTreeBuildsPerOriginSegment(t *testing.T) {
	top, err := gen.BA{N: 3000, M: 2}.Generate(rng.New(8))
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
	failures := []*FailureSpec{nil,
		{Mode: FailDegree, Links: 4, Nodes: 1, FailAt: 3, RepairAt: 6, MaxRetries: 1}}
	for _, fs := range failures {
		for _, workers := range []int{1, 2, 4} {
			spec := WorkloadSpec{LoadFactor: 0.3, Epochs: 8, Failures: fs}
			builds, origins, segments := countTreeBuilds(t, snap, masses, spec, workers)
			t.Logf("failures=%v workers=%d: %d builds, %d origins, %d segments",
				fs != nil, workers, builds, origins, segments)
			if bound := origins * segments; builds > bound {
				t.Errorf("failures=%v workers=%d: %d tree builds > %d origins × %d segments",
					fs != nil, workers, builds, origins, segments)
			}
		}
	}
}

// countTreeBuilds simulates spec over fresh routing state and returns
// the BFS builds on the routing path, the origin count and the number
// of routing segments.
func countTreeBuilds(t *testing.T, s *graph.Snapshot, masses []float64, spec WorkloadSpec, workers int) (builds, origins, segments int) {
	t.Helper()
	ctx, err := newSimContext(s, NewRouting(s), masses, spec, rng.New(4), workers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simulateEpoch(ctx); err != nil {
		t.Fatal(err)
	}
	builds, segments = ctx.rt.builds, 1
	if ctx.fail != nil {
		builds += ctx.fail.frt.builds
		for e := 1; e < ctx.spec.Epochs; e++ {
			if ctx.fail.tl.Ops(e) > 0 {
				segments++
			}
		}
	}
	return builds, len(ctx.srcNodes), segments
}
