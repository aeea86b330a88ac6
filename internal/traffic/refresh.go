package traffic

import (
	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/par"
)

// This file carries the routing cache across snapshot refreshes. A
// growth epoch inserts a handful of edges into a 100k-node map; before,
// every cached shortest-path tree and memoized OD path died with the
// snapshot version and was rebuilt cold. Refresh instead repairs each
// cached tree with the shared shrink-only relaxation of the metrics
// package (metrics.RelaxInserted), re-selects canonical parents only
// where the distance field or the candidate sets moved, remaps memoized
// path edge ids to the refreshed numbering, and invalidates only the
// memo entries whose origin tree actually changed — so a long
// trajectory simulation pays per epoch for the delta's impact, not for
// n trees of BFS. Removal deltas (failure epochs) are scoped the same
// way: a tree arc that died orphans one node, and when every orphan
// still has a neighbor one hop closer the whole distance field
// provably survives and only the orphans' parent pointers are
// re-selected; a tree is rebuilt cold only when some orphan lost its
// last shortest-path predecessor — then distances can grow, which the
// shrink-only repair cannot express.

// Snapshot returns the snapshot the routing state currently describes.
func (rt *Routing) Snapshot() *graph.Snapshot { return rt.s }

// Reset rebases the routing state onto an arbitrary snapshot with every
// cached tree and memoized path dropped — NewRouting(next) in place,
// but reusing the allocated storage: tree arrays are recycled through
// the internal pool and handed to the next builds, the tree map and the
// memo keep their buckets and arena, and the arc→edge mapping refills the
// state's own buffer instead of populating the snapshot's lazy cache.
// A warm Routing swept across same-sized topologies (the artifact-cache
// and per-worker-pool patterns) therefore rebuilds its trees without
// allocating; the kernels-routing-reset ceiling in bench_floors.json
// enforces that. Unlike Refresh, Reset assumes nothing about the
// relationship between the old and new snapshots.
func (rt *Routing) Reset(next *graph.Snapshot) {
	rt.s = next
	rt.edges = nil
	rt.rfArcEdge = next.FillArcEdgeIDs(rt.rfArcEdge)
	rt.arcEdge = rt.rfArcEdge
	rt.max = RoutingTreeBudget(next.N())
	for src, t := range rt.trees {
		rt.free = append(rt.free, t)
		delete(rt.trees, src)
	}
	rt.fifo = rt.fifo[:0]
	rt.memo.reset()
}

// treeScratch is the reusable per-worker state of one tree repair: the
// relaxation scratch plus a stamped dedup set for the parent
// re-selection frontier.
type treeScratch struct {
	ds    *metrics.DistScratch
	stamp []int32
	round int32
	resel []int32
	orph  []int32
}

func newTreeScratch(n int) *treeScratch {
	return &treeScratch{ds: metrics.NewDistScratch(n), stamp: make([]int32, n)}
}

func (sc *treeScratch) ensure(n int) {
	if len(sc.stamp) < n {
		sc.stamp = append(sc.stamp, make([]int32, n-len(sc.stamp))...)
	}
}

// Refresh advances the routing state to next, the refreshed successor
// of its current snapshot with delta d between them (the pair returned
// by Graph.Refreeze). Cached trees are repaired in place — distances by
// shrink-only relaxation, parents re-selected only where a candidate
// set moved — and repairs of independent source trees run in parallel
// across workers with index-private results, so the final state is
// identical at every worker count and entry-identical to cold builds
// over next. Removal deltas are scoped: a dead tree arc orphans one
// node, and as long as every orphan keeps some neighbor one hop
// closer, the distance field provably survives — by induction on BFS
// level each orphan's support is itself still at its old distance, any
// strictly shorter path in next must use an inserted edge (which the
// insertion relaxation finds), and a removed non-parent candidate
// always has a larger id than the canonical min-id parent, so parent
// selection elsewhere is untouched. Such trees take the ordinary
// insertion repair with the orphans added to the parent re-selection
// frontier; a tree is rebuilt cold only when an orphan lost its last
// shortest-path predecessor — then distances can grow, which the
// shrink-only repair cannot express. Memoized OD paths
// survive with their edge ids remapped when their origin's tree is
// cached and unchanged on pre-existing nodes; they are dropped when the
// tree changed or was evicted. A nil delta (full refreeze) or a foreign
// base version resets the state instead, exactly as NewRouting(next)
// would.
func (rt *Routing) Refresh(next *graph.Snapshot, d *graph.Delta, workers int) {
	if next == nil {
		return
	}
	if d == nil || d.BaseVersion() != rt.s.Version() {
		rt.Reset(next)
		return
	}
	oldN, n := rt.s.N(), next.N()

	// Structural insertions and removals, in delta (U,V) order.
	ins, rem := rt.rfIns[:0], rt.rfRem[:0]
	for _, e := range d.Edges() {
		switch {
		case e.OldW == 0 && e.NewW != 0:
			ins = append(ins, e)
		case e.OldW != 0 && e.NewW == 0:
			rem = append(rem, e)
		}
	}
	rt.rfIns, rt.rfRem = ins, rem

	// Edge ids follow (u,v)-sorted order, so a refresh shifts old id i
	// up by the number of inserted edges sorting before it and down by
	// the number of removed edges before it; removed ids map to -1. One
	// merged walk of the old edge list against the sorted delta.
	prevEdges := rt.s.AppendEdges(rt.rfEdges[:0])
	rt.rfEdges = prevEdges
	if cap(rt.rfOldToNew) < len(prevEdges) {
		rt.rfOldToNew = make([]int32, len(prevEdges))
	}
	oldToNew := rt.rfOldToNew[:len(prevEdges)]
	insAt, remAt := 0, 0
	for i, e := range prevEdges {
		for insAt < len(ins) && (int(ins[insAt].U) < e.U ||
			(int(ins[insAt].U) == e.U && int(ins[insAt].V) < e.V)) {
			insAt++
		}
		if remAt < len(rem) && int(rem[remAt].U) == e.U && int(rem[remAt].V) == e.V {
			oldToNew[i] = -1
			remAt++
			continue
		}
		oldToNew[i] = int32(i - remAt + insAt)
	}

	// The refreshed arc→edge map cycles through rt's own buffer rather
	// than populating each epoch's snapshot cache; rt.arcEdge below
	// aliases it, which is safe because the previous map is never read
	// once a refresh begins.
	arcEdge := next.FillArcEdgeIDs(rt.rfArcEdge)
	rt.rfArcEdge = arcEdge
	srcs := append(rt.rfSrcs[:0], rt.fifo...)
	rt.rfSrcs = srcs
	if cap(rt.rfChanged) < len(srcs) {
		rt.rfChanged = make([]bool, len(srcs))
	}
	changed := rt.rfChanged[:len(srcs)]
	for i := range changed {
		changed[i] = false
	}
	w := par.Workers(workers)
	for len(rt.rfScratch) < w {
		rt.rfScratch = append(rt.rfScratch, nil)
	}
	rt.rfNext, rt.rfBudget, rt.rfOldN = next, n+2*next.M()+4096, oldN
	if rt.rfBody == nil {
		// Created once per Routing and reused forever: the body reads
		// every per-call parameter from rt's refresh fields, so the
		// steady-state repair does not even pay a closure literal.
		rt.rfBody = func(worker, i int) {
			next, arcEdge := rt.rfNext, rt.rfArcEdge
			ins, rem := rt.rfIns, rt.rfRem
			srcs, changed := rt.rfSrcs, rt.rfChanged
			n := next.N()
			sc := rt.rfScratch[worker]
			if sc == nil {
				sc = newTreeScratch(n)
				rt.rfScratch[worker] = sc
			}
			sc.ensure(n)
			sc.ds.Reset() // repairTree consumes each repair's changes in place
			t := rt.trees[srcs[i]]
			sc.orph = sc.orph[:0]
			for _, e := range rem {
				if t.parent[e.U] == e.V {
					sc.orph = append(sc.orph, e.U)
				} else if t.parent[e.V] == e.U {
					sc.orph = append(sc.orph, e.V)
				}
			}
			for _, v := range sc.orph {
				if p, _ := selectParent(next, arcEdge, t.dist, int(v)); p < 0 {
					// An orphan lost its last shortest-path predecessor: its
					// subtree's distances can grow, which the shrink-only
					// repair cannot express.
					buildTreeInto(t, next, arcEdge, srcs[i], sc.ds.BFS())
					changed[i] = true
					return
				}
			}
			changed[i] = repairTree(next, arcEdge, t, srcs[i], ins, rt.rfOldToNew,
				rt.rfOldN, sc, rt.rfBudget) || len(sc.orph) > 0
		}
	}
	par.ForEach(len(srcs), w, rt.rfBody)

	rt.s = next
	rt.edges = nil
	rt.arcEdge = arcEdge
	rt.max = RoutingTreeBudget(n)

	// Memo policy: an entry survives exactly when its origin's tree is
	// cached and unchanged on pre-existing nodes — then the memoized
	// path (all of whose nodes predate the refresh) re-reads identically
	// from the repaired tree, modulo the edge-id renumbering applied
	// here. Entries of changed or uncached trees are dropped; route
	// resolution re-resolves them against next. Survivors are compacted
	// toward the arena's start in arena order, so the remap allocates
	// nothing and never overwrites a path it has yet to read.
	if len(rt.changedStamp) < n {
		rt.changedStamp = append(rt.changedStamp, make([]int32, n-len(rt.changedStamp))...)
	}
	rt.changedRound++
	for i, src := range srcs {
		if changed[i] {
			rt.changedStamp[src] = rt.changedRound
		}
	}
	m := &rt.memo
	keys, at := m.keys[:0], int32(0)
	for _, key := range m.keys {
		sp := m.index[key]
		src := int(key >> 32)
		if _, ok := rt.trees[src]; !ok || rt.changedStamp[src] == rt.changedRound {
			delete(m.index, key)
			continue
		}
		if sp.n > 0 {
			p := m.arena[sp.off : sp.off+sp.n]
			drop := false
			for _, e := range p {
				if oldToNew[e] < 0 {
					// Cannot happen for an unchanged tree — memoized path arcs
					// are tree arcs, and trees with a dead arc were flagged
					// changed above — but a dangling id must never survive
					// the remap.
					drop = true
					break
				}
			}
			if drop {
				delete(m.index, key)
				continue
			}
			dst := m.arena[at : at+sp.n]
			for i, e := range p {
				dst[i] = oldToNew[e]
			}
			sp.off = at
			at += sp.n
		} else {
			sp.off = at
		}
		m.index[key] = sp
		keys = append(keys, key)
	}
	m.keys = keys
	m.arena = m.arena[:at]
}

// repairTree advances one cached tree to next under the delta's
// insertions: remap its edge ids, grow its arrays, repair its distances
// with the shared relaxation kernel, and re-select canonical parents on
// the frontier where parent candidacy can have moved — nodes whose
// distance changed, their next-level neighbors (candidates may have
// entered), the deeper endpoints of inserted arcs (the new arc
// itself is a candidate), and the orphans of removed tree arcs
// collected in sc.orph. Everywhere else the candidate set is
// untouched: a candidate can only leave by shrinking, which would have
// shrunk — and flagged — the child too. When the relaxation exceeds its
// budget the tree is rebuilt cold instead. Returns whether any
// pre-existing node's entry changed (the memo invalidation signal);
// the repaired tree always equals buildTree(next, arcEdge, src).
func repairTree(next *graph.Snapshot, arcEdge []int32, t *rtree, src int, ins []graph.DeltaEdge, oldToNew []int32, oldN int, sc *treeScratch, budget int) (changed bool) {
	n := next.N()
	for v := range t.edge {
		if t.edge[v] >= 0 {
			t.edge[v] = oldToNew[t.edge[v]]
		}
	}
	for len(t.dist) < n {
		t.dist = append(t.dist, -1)
	}
	for len(t.parent) < n {
		t.parent = append(t.parent, -1)
	}
	for len(t.edge) < n {
		t.edge = append(t.edge, -1)
	}
	changes, ok := metrics.RelaxInserted(next, ins, t.dist, sc.ds, budget)
	if !ok {
		buildTreeInto(t, next, arcEdge, src, sc.ds.BFS())
		return true
	}
	sc.round++
	sc.resel = sc.resel[:0]
	add := func(v int32) {
		if sc.stamp[v] != sc.round {
			sc.stamp[v] = sc.round
			sc.resel = append(sc.resel, v)
		}
	}
	for _, c := range changes {
		if int(c.Node) < oldN {
			changed = true // distances only shrink, so every touch is a real change
		}
		add(c.Node)
		dv := t.dist[c.Node]
		for _, w := range next.Neighbors(int(c.Node)) {
			if t.dist[w] == dv+1 {
				add(w)
			}
		}
	}
	for _, e := range ins {
		if du := t.dist[e.U]; du >= 0 && du+1 == t.dist[e.V] {
			add(e.V)
		}
		if dv := t.dist[e.V]; dv >= 0 && dv+1 == t.dist[e.U] {
			add(e.U)
		}
	}
	// Orphans of removed tree arcs (support-checked by the caller):
	// their distances are intact but their parent arc is gone, so they
	// must re-select even when no distance moved near them.
	for _, v := range sc.orph {
		add(v)
	}
	for _, v := range sc.resel {
		parent, edge := selectParent(next, arcEdge, t.dist, int(v))
		if t.parent[v] != parent || t.edge[v] != edge {
			if int(v) < oldN {
				changed = true
			}
			t.parent[v] = parent
			t.edge[v] = edge
		}
	}
	return changed
}
