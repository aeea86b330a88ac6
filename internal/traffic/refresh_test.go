package traffic

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// replayGrowth replays a generated topology's edge list into a growing
// graph, calling check at every delta-refreshed epoch — the traffic
// mirror of the metrics package's trajectory harness.
func replayGrowth(t *testing.T, top *gen.Topology, every int,
	check func(prev, next *graph.Snapshot, d *graph.Delta)) {
	t.Helper()
	g := graph.New(0)
	prev, err := g.FreezeChecked()
	if err != nil {
		t.Fatal(err)
	}
	edges := top.G.EdgeList()
	for i, e := range edges {
		for g.N() <= e.V || g.N() <= e.U {
			g.AddNode()
		}
		for w := 0; w < e.W; w++ {
			g.MustAddEdge(e.U, e.V)
		}
		if (i+1)%every == 0 || i == len(edges)-1 {
			next, d, err := g.Refreeze(prev)
			if err != nil {
				t.Fatal(err)
			}
			if d == nil {
				t.Fatal("replay expected a delta refresh")
			}
			check(prev, next, d)
			prev = next
		}
	}
}

// cloneRouting deep-copies a routing state so two copies can refresh at
// different worker counts and be compared field by field.
func cloneRouting(rt *Routing) *Routing {
	cp := &Routing{s: rt.s, arcEdge: rt.arcEdge, max: rt.max,
		trees: make(map[int]*rtree, len(rt.trees)),
		fifo:  append([]int(nil), rt.fifo...),
		memo: pathMemo{index: make(map[int64]pathSpan, len(rt.memo.index)),
			keys:  append([]int64(nil), rt.memo.keys...),
			arena: append([]int32(nil), rt.memo.arena...)}}
	for src, t := range rt.trees {
		cp.trees[src] = &rtree{
			dist:   append([]int32(nil), t.dist...),
			parent: append([]int32(nil), t.parent...),
			edge:   append([]int32(nil), t.edge...),
		}
	}
	for k, sp := range rt.memo.index {
		cp.memo.index[k] = sp
	}
	return cp
}

// memoPaths materializes the routing memo as OD key → path (nil for an
// unreachable destination), the representation-free view the
// equivalence checks compare.
func memoPaths(rt *Routing) map[int64][]int32 {
	out := make(map[int64][]int32, len(rt.memo.index))
	for _, k := range rt.memo.keys {
		p, _, _ := rt.cachedPath(int(k>>32), int(int32(k)))
		out[k] = p
	}
	return out
}

// requireRoutingEqual compares two routing states entry by entry.
func requireRoutingEqual(t *testing.T, label string, got, want *Routing) {
	t.Helper()
	if got.s.Version() != want.s.Version() || got.max != want.max {
		t.Fatalf("%s: snapshot/budget diverged", label)
	}
	if !reflect.DeepEqual(got.fifo, want.fifo) {
		t.Fatalf("%s: fifo diverged: %v vs %v", label, got.fifo, want.fifo)
	}
	if len(got.trees) != len(want.trees) {
		t.Fatalf("%s: tree cache sizes %d vs %d", label, len(got.trees), len(want.trees))
	}
	for src, gt := range got.trees {
		wt, ok := want.trees[src]
		if !ok || !reflect.DeepEqual(gt, wt) {
			t.Fatalf("%s: tree %d diverged", label, src)
		}
	}
	if !reflect.DeepEqual(memoPaths(got), memoPaths(want)) {
		t.Fatalf("%s: memoized paths diverged", label)
	}
}

// requireSameFlows asserts two traced simulations drew and finished the
// same flow population: identity exactly, completion to 1e-9 relative.
func requireSameFlows(t *testing.T, label string, a, b *SimReport) {
	t.Helper()
	if len(a.Flows) != len(b.Flows) {
		t.Fatalf("%s: flow populations %d vs %d", label, len(a.Flows), len(b.Flows))
	}
	for i := range a.Flows {
		fa, fb := a.Flows[i], b.Flows[i]
		if fa.Src != fb.Src || fa.Dst != fb.Dst || fa.Size != fb.Size || fa.Arrived != fb.Arrived {
			t.Fatalf("%s: flow %d identity diverged: %+v vs %+v", label, i, fa, fb)
		}
		if fa.Done != fb.Done {
			t.Fatalf("%s: flow %d fate diverged: %+v vs %+v", label, i, fa, fb)
		}
		scale := math.Max(1, math.Abs(fa.Finished))
		if fa.Done && math.Abs(fa.Finished-fb.Finished) > 1e-9*scale {
			t.Fatalf("%s: flow %d completion %v vs %v", label, i, fa.Finished, fb.Finished)
		}
	}
}

// TestRoutingRefreshEquivalence drives a shared routing state along a
// growth trajectory with Refresh and pins it against cold rebuilds at
// every epoch: repaired trees are entry-identical to cold builds,
// surviving memo entries re-read identically from their trees, refresh
// is worker-count invariant, and simulations over the refreshed state
// reproduce the cold-rebuild flows.
func TestRoutingRefreshEquivalence(t *testing.T) {
	top, err := gen.BA{N: 600, M: 2}.Generate(rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	g0 := graph.New(0)
	seed, err := g0.FreezeChecked()
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRouting(seed)
	epoch := 0
	replayGrowth(t, top, 100, func(prev, next *graph.Snapshot, d *graph.Delta) {
		epoch++
		// Worker invariance: the same state repaired at widths 1 and 4.
		alt := cloneRouting(rt)
		rt.Refresh(next, d, 4)
		alt.Refresh(next, d, 1)
		requireRoutingEqual(t, "worker-invariance", rt, alt)

		n := next.N()
		if rt.s != next || rt.Snapshot() != next {
			t.Fatal("refresh did not rebase the snapshot")
		}
		// Every cached tree must equal a cold canonical build.
		arcEdge := next.ArcEdgeIDs()
		for _, src := range rt.fifo {
			if !reflect.DeepEqual(rt.trees[src], buildTree(next, arcEdge, src)) {
				t.Fatalf("epoch %d: repaired tree %d diverged from cold build", epoch, src)
			}
		}
		// Every surviving memo entry must re-read identically from its
		// origin's repaired tree.
		for key, p := range memoPaths(rt) {
			src, dst := int(key>>32), int(int32(key))
			tree, ok := rt.trees[src]
			if !ok {
				t.Fatalf("epoch %d: memo entry kept for evicted tree %d", epoch, src)
			}
			fresh, reachable := tree.appendPath(nil, dst)
			if p == nil {
				if reachable {
					t.Fatalf("epoch %d: stale unreachable memo %d→%d", epoch, src, dst)
				}
			} else if !reflect.DeepEqual(p, fresh) {
				t.Fatalf("epoch %d: memo path %d→%d diverged", epoch, src, dst)
			}
		}

		if n < 40 {
			return
		}
		masses := make([]float64, n)
		for u := range masses {
			masses[u] = float64(next.Degree(u))
		}
		spec := WorkloadSpec{LoadFactor: 0.6, Epochs: 6}
		warm, err := Simulate(next, masses, spec, rng.New(42), 2,
			WithFlowTrace(), WithRouting(rt))
		if err != nil {
			t.Fatalf("epoch %d warm: %v", epoch, err)
		}
		cold, err := Simulate(next, masses, spec, rng.New(42), 2, WithFlowTrace())
		if err != nil {
			t.Fatalf("epoch %d cold: %v", epoch, err)
		}
		requireSameFlows(t, fmt.Sprintf("epoch %d", epoch), warm, cold)
	})
	if epoch < 5 {
		t.Fatalf("trajectory too short: %d epochs", epoch)
	}
}

// TestRoutingRefreshUnderChurn drives the scoped removal repair: mixed
// insert+remove epochs where only trees traversing a dead arc may cold
// rebuild. Every cached tree, memo entry, and the simulations on top
// must match cold rebuilds, at every worker count.
func TestRoutingRefreshUnderChurn(t *testing.T) {
	top, err := gen.BA{N: 250, M: 2}.Generate(rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	g := top.G.Copy()
	prev, err := g.FreezeChecked()
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRouting(prev)
	r := rng.New(99)
	warm := func(s *graph.Snapshot) {
		// Ensure requires ascending, duplicate-free sources.
		pick := make(map[int]bool, 12)
		for i := 0; i < 12; i++ {
			pick[r.Intn(s.N())] = true
		}
		srcs := make([]int, 0, len(pick))
		for src := range pick {
			srcs = append(srcs, src)
		}
		sort.Ints(srcs)
		rt.Ensure(srcs, 2)
		for _, src := range srcs {
			dst := r.Intn(s.N())
			if _, ok, _ := rt.cachedPath(src, dst); !ok {
				p, reachable := rt.Tree(src).appendPath(nil, dst)
				rt.storePath(src, dst, p, reachable)
			}
		}
	}
	warm(prev)
	for epoch := 0; epoch < 15; epoch++ {
		edges := prev.EdgeList()
		removed := 0
		for i := 0; i < 6 && len(edges) > 0; i++ {
			e := edges[r.Intn(len(edges))]
			if g.HasEdge(e.U, e.V) {
				if err := g.RemoveEdge(e.U, e.V); err != nil {
					t.Fatal(err)
				}
				removed++
			}
		}
		for i := 0; i < 5; i++ {
			u, v := r.Intn(g.N()), r.Intn(g.N())
			if u != v {
				g.MustAddEdge(u, v)
			}
		}
		next, d, err := g.Refreeze(prev)
		if err != nil {
			t.Fatal(err)
		}
		if d == nil || removed == 0 {
			t.Fatalf("epoch %d: churn epoch carries no removal delta", epoch)
		}
		alt := cloneRouting(rt)
		rt.Refresh(next, d, 4)
		alt.Refresh(next, d, 1)
		requireRoutingEqual(t, "churn-worker-invariance", rt, alt)
		arcEdge := next.ArcEdgeIDs()
		for _, src := range rt.fifo {
			if !reflect.DeepEqual(rt.trees[src], buildTree(next, arcEdge, src)) {
				t.Fatalf("epoch %d: churned tree %d diverged from cold build", epoch, src)
			}
		}
		for key, p := range memoPaths(rt) {
			src, dst := int(key>>32), int(int32(key))
			tree, ok := rt.trees[src]
			if !ok {
				t.Fatalf("epoch %d: memo entry kept for evicted tree %d", epoch, src)
			}
			fresh, reachable := tree.appendPath(nil, dst)
			if p == nil {
				if reachable {
					t.Fatalf("epoch %d: stale unreachable memo %d→%d", epoch, src, dst)
				}
			} else if !reflect.DeepEqual(p, fresh) {
				t.Fatalf("epoch %d: churned memo path %d→%d diverged", epoch, src, dst)
			}
		}
		masses := make([]float64, next.N())
		for u := range masses {
			masses[u] = float64(next.Degree(u) + 1)
		}
		spec := WorkloadSpec{LoadFactor: 0.5, Epochs: 4}
		warmRep, err := Simulate(next, masses, spec, rng.New(7), 2, WithFlowTrace(), WithRouting(rt))
		if err != nil {
			t.Fatalf("epoch %d warm: %v", epoch, err)
		}
		coldRep, err := Simulate(next, masses, spec, rng.New(7), 2, WithFlowTrace())
		if err != nil {
			t.Fatalf("epoch %d cold: %v", epoch, err)
		}
		requireSameFlows(t, "churn", warmRep, coldRep)
		warm(next)
		prev = next
	}
}

// TestRepairTreeBudgetFallback forces the relaxation over budget so the
// repair takes the cold-rebuild path, which must still land exactly on
// the canonical tree and report the change.
func TestRepairTreeBudgetFallback(t *testing.T) {
	top, err := gen.BA{N: 200, M: 2}.Generate(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	var tree *rtree
	replayGrowth(t, top, 60, func(base, next *graph.Snapshot, d *graph.Delta) {
		arcEdge := next.ArcEdgeIDs()
		if tree == nil {
			tree = buildTree(next, arcEdge, 0)
			return
		}
		var ins []graph.DeltaEdge
		for _, e := range d.Edges() {
			if e.OldW == 0 && e.NewW != 0 {
				ins = append(ins, e)
			}
		}
		prevEdges := base.EdgeList()
		oldToNew := make([]int32, len(prevEdges))
		shift := 0
		for i, e := range prevEdges {
			for shift < len(ins) && (int(ins[shift].U) < e.U ||
				(int(ins[shift].U) == e.U && int(ins[shift].V) < e.V)) {
				shift++
			}
			oldToNew[i] = int32(i + shift)
		}
		sc := newTreeScratch(next.N())
		changed := repairTree(next, arcEdge, tree, 0, ins, oldToNew, base.N(), sc, 1)
		if !changed {
			t.Fatal("budget fallback must report the tree as changed")
		}
		if want := buildTree(next, arcEdge, 0); !reflect.DeepEqual(tree, want) {
			t.Fatal("budget-fallback tree diverged from cold build")
		}
	})
}

// TestSimulateRejectsStaleRouting pins the guard: a shared routing
// state describing an older snapshot is an error, not silent staleness.
func TestSimulateRejectsStaleRouting(t *testing.T) {
	g := meshGraph(30)
	prev := g.Freeze()
	rt := NewRouting(prev)
	g.MustAddEdge(0, 15)
	next, _, err := g.Refreeze(prev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(next, UniformMasses(30), WorkloadSpec{LoadFactor: 0.1, Epochs: 2},
		rng.New(1), 1, WithRouting(rt)); err == nil {
		t.Fatal("expected the stale-routing guard to fire")
	}
}
