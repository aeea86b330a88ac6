package traffic

import (
	"errors"
	"math"

	"netmodel/internal/engine"
	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/par"
	"netmodel/internal/rng"
)

// Routing is the memoizable routing state of a frozen snapshot: a memo
// of resolved origin-destination paths plus a small FIFO cache of whole
// shortest-path trees. A simulation resolves its arrivals per origin
// (routeSegment): memoized OD pairs cost one lookup, and an origin
// with unmemoized destinations pays one hybrid BFS distance row — or
// reuses its cached tree — and walks each missing path from the
// destination by canonical parent selection. Paths are a pure function
// of (snapshot, origin, destination) — the min-id parent one hop closer
// — so a flow's path never depends on the worker count, on which runs
// warmed the memo, or on which trees happen to be cached.
//
// Routing is not safe for concurrent use; Ensure and route resolution
// shard BFS work internally, but callers (the sequential simulation
// loop) must not query one Routing from several goroutines.
type Routing struct {
	s       *graph.Snapshot
	arcEdge []int32
	max     int // tree-cache budget, a pure function of the node count
	trees   map[int]*rtree
	fifo    []int // cached sources, oldest first
	// memo holds resolved OD paths in one flat arena. A path is ~20
	// bytes against ~12n for a tree, so repeated OD pairs — re-runs over
	// one snapshot, load ladders over a shared state — skip the BFS
	// entirely.
	memo pathMemo
	// edges is the snapshot's edge list, built on a simulation's first
	// demand and shared by every later run over this state (a sweep's
	// workload variants); Reset and Refresh drop it.
	edges []graph.Edge
	// builds counts BFS distance fields computed on the routing path:
	// trees built by Ensure and distance rows computed by route
	// resolution.
	builds int

	// Tree-storage pool: evicted and Reset trees park here and hand
	// their arrays to the next build, and Ensure's batch buffers
	// persist — so a warm Routing swept across same-sized topologies
	// (Routing.Reset) rebuilds its trees without allocating. Cached plus
	// pooled trees never exceed max(budget, batch size).
	free      []*rtree
	enMissing []int
	enBuilt   []*rtree
	enScratch []*metrics.BFSScratch
	// enStamp[src] == enRound marks batch membership during Ensure, a
	// stamped array instead of a per-call map.
	enStamp []int32
	enRound int32

	// Route-resolution scratch: the distance rows of one parallel chunk
	// of origins and the path being walked.
	rsRows [][]int32
	rsPath []int32

	// Refresh scratch, persisted so a steady-state tree repair at fixed
	// n allocates nothing (Routing.Refresh). rfBody is the repair
	// closure, created once and re-reading its per-call parameters
	// (rfNext, rfBudget, rfOldN and the slices below) from these fields
	// — a closure literal per Refresh would be the last allocation on
	// an otherwise alloc-free repair.
	rfIns, rfRem []graph.DeltaEdge
	rfOldToNew   []int32
	rfSrcs       []int
	rfChanged    []bool
	rfScratch    []*treeScratch
	rfEdges      []graph.Edge
	rfArcEdge    []int32
	rfNext       *graph.Snapshot
	rfBudget     int
	rfOldN       int
	rfBody       func(worker, i int)
	// changedStamp[src] == changedRound marks sources whose tree
	// changed this Refresh — the memo-invalidation set, a stamped array
	// instead of a per-call map.
	changedStamp []int32
	changedRound int32
}

// routingPathBudget caps the memoized paths (entries, not bytes; a
// deterministic stop-inserting cap, never an eviction).
const routingPathBudget = 1 << 18

func pathKey(src, dst int) int64 { return int64(src)<<32 | int64(uint32(dst)) }

// pathSpan locates one memoized path in the memo arena; n < 0 marks an
// unreachable destination.
type pathSpan struct{ off, n int32 }

// pathMemo is the OD path memo: an index of spans into one flat arena
// of snapshot edge ids, with the keys kept in arena order so Refresh
// can remap and compact the arena in place.
type pathMemo struct {
	index map[int64]pathSpan
	keys  []int64
	arena []int32
}

// path returns the arena slice of a reachable span, capacity-clipped
// so a holder's append can never write into the arena.
func (m *pathMemo) path(sp pathSpan) []int32 {
	return m.arena[sp.off : sp.off+sp.n : sp.off+sp.n]
}

// store memoizes a resolved path while the budget lasts and reports
// its span and whether it was stored.
func (m *pathMemo) store(key int64, path []int32, reachable bool) (pathSpan, bool) {
	if len(m.index) >= routingPathBudget {
		return pathSpan{}, false
	}
	sp := pathSpan{off: int32(len(m.arena)), n: -1}
	if reachable {
		sp.n = int32(len(path))
		m.arena = append(m.arena, path...)
	}
	m.index[key] = sp
	m.keys = append(m.keys, key)
	return sp, true
}

func (m *pathMemo) reset() {
	clear(m.index)
	m.keys = m.keys[:0]
	m.arena = m.arena[:0]
}

// cachedPath returns the memoized path for (src, dst): path, whether
// the pair is cached at all, and whether dst is unreachable from src.
func (rt *Routing) cachedPath(src, dst int) (path []int32, ok, unreachable bool) {
	sp, ok := rt.memo.index[pathKey(src, dst)]
	if !ok || sp.n < 0 {
		return nil, ok, ok
	}
	return rt.memo.path(sp), true, false
}

// storePath memoizes a resolved (src, dst) path (copied into the memo
// arena) while the budget lasts.
func (rt *Routing) storePath(src, dst int, path []int32, reachable bool) {
	rt.memo.store(pathKey(src, dst), path, reachable)
}

// rtree is one origin's BFS tree over the snapshot.
type rtree struct {
	dist   []int32 // hop distance from the source, -1 unreachable
	parent []int32 // BFS parent toward the source, -1 at source/unreachable
	edge   []int32 // snapshot edge id of (v, parent[v]), -1 where parent is
}

// routingTreeBudget bounds the memory held by cached and pooled trees
// (~12 bytes per node per tree).
const routingTreeBudget = 32 << 20

// RoutingTreeBudget returns the tree-cache entry budget NewRouting
// configures at n nodes — a pure function of the node count under the
// fixed byte budget, and the "routing budget" component of artifact
// cache keys. The budget bounds only whole trees (Ensure, failure
// reroutes); simulation admissions resolve per origin through one
// scratch distance row and never fill the cache, so a budget below n
// costs no rebuilds.
func RoutingTreeBudget(n int) int {
	max := routingTreeBudget / (12 * (n + 1))
	if max < 16 {
		max = 16
	}
	return max
}

// NewRouting returns empty routing state over the snapshot.
func NewRouting(s *graph.Snapshot) *Routing {
	return &Routing{s: s, arcEdge: s.ArcEdgeIDs(), max: RoutingTreeBudget(s.N()),
		trees: make(map[int]*rtree), memo: pathMemo{index: make(map[int64]pathSpan)}}
}

// TreeBudget returns the configured tree-cache entry budget.
func (rt *Routing) TreeBudget() int { return rt.max }

// memoEntryBytes approximates one memo index entry: the 16-byte
// key/value pair plus its share of map bucket overhead.
const memoEntryBytes = 24

// MemBytes estimates the heap bytes the routing state holds live: the
// rows of every cached and pooled tree, the pooled route-resolution
// distance rows, and the OD memo's arena, key list and index — the byte
// cost an artifact cache should charge for a warm Routing.
func (rt *Routing) MemBytes() int64 {
	var b int64
	tree := func(t *rtree) {
		b += 4 * int64(cap(t.dist)+cap(t.parent)+cap(t.edge))
	}
	for _, t := range rt.trees {
		tree(t)
	}
	for _, t := range rt.free {
		tree(t)
	}
	for _, row := range rt.rsRows {
		b += 4 * int64(cap(row))
	}
	b += 4 * int64(cap(rt.memo.arena))
	b += 8 * int64(cap(rt.memo.keys))
	b += memoEntryBytes * int64(len(rt.memo.index))
	b += 24 * int64(cap(rt.edges)) // graph.Edge: three ints
	return b
}

// edgeList returns the snapshot's edge list, building it on first use.
// Callers must not modify it.
func (rt *Routing) edgeList() []graph.Edge {
	if rt.edges == nil {
		rt.edges = rt.s.EdgeList()
	}
	return rt.edges
}

// newTree pops a pooled tree (arrays intact, contents stale) or
// allocates a fresh one.
func (rt *Routing) newTree() *rtree {
	if k := len(rt.free); k > 0 {
		t := rt.free[k-1]
		rt.free[k-1] = nil
		rt.free = rt.free[:k-1]
		return t
	}
	return &rtree{}
}

// RoutingOf returns the routing state memoized in the engine's
// per-snapshot cache (key "traffic:routing"): every workload simulation
// over the engine's current snapshot shares one path memo, and an
// Advance to a refreshed snapshot drops it with the rest of the
// version's entries.
func RoutingOf(eng *engine.Engine) *Routing {
	return eng.Cached("traffic:routing", func() any {
		return NewRouting(eng.Snapshot())
	}).(*Routing)
}

// selectParent picks v's canonical tree entry: the smallest-id neighbor
// one hop closer to the source, with the snapshot edge id toward it
// (-1, -1 at the source and for unreachable nodes). The choice is a
// pure function of the distance field — not of BFS discovery order — so
// cold builds, incremental repairs (Routing.Refresh) and per-hop path
// walks over a bare distance row all produce the same entry.
func selectParent(s *graph.Snapshot, arcEdge []int32, dist []int32, v int) (parent, edge int32) {
	dv := dist[v]
	if dv <= 0 {
		return -1, -1
	}
	lo, _ := s.ArcRange(v)
	for j, u := range s.Neighbors(v) {
		if dist[u] == dv-1 {
			return u, arcEdge[int(lo)+j]
		}
	}
	return -1, -1
}

// buildTreeInto fills t with src's canonical tree over s — one hybrid
// BFS for the distances, then every node's canonical parent — growing
// t's arrays to the snapshot size. The tree — and every path read from
// it — is deterministic and depends only on (snapshot, source):
// selectParent is a pure function of the distance field, and the hybrid
// kernel's distances are bit-identical to the classic BFS, so pooled
// rebuilds, parallel cold builds and incremental repairs all produce
// the same tree entry for entry. At fixed n a rebuild through a warm t
// and scratch allocates nothing.
func buildTreeInto(t *rtree, s *graph.Snapshot, arcEdge []int32, src int, sc *metrics.BFSScratch) {
	n := s.N()
	t.dist = growRow(t.dist, n)
	t.parent = growRow(t.parent, n)
	t.edge = growRow(t.edge, n)
	metrics.BFSHybrid(s, src, t.dist, sc)
	for v := 0; v < n; v++ {
		t.parent[v], t.edge[v] = selectParent(s, arcEdge, t.dist, v)
	}
}

// growRow resizes a tree row to exactly n entries, reusing its backing
// array when it is large enough (contents are overwritten by the
// caller).
func growRow(row []int32, n int) []int32 {
	if cap(row) < n {
		return make([]int32, n)
	}
	return row[:n]
}

// buildTree is the cold-allocation form of buildTreeInto.
func buildTree(s *graph.Snapshot, arcEdge []int32, src int) *rtree {
	t := &rtree{}
	buildTreeInto(t, s, arcEdge, src, metrics.NewBFSScratch(s.N()))
	return t
}

// bfsScratch returns worker w's pooled BFS scratch, sized to n.
func (rt *Routing) bfsScratch(w, n int) *metrics.BFSScratch {
	if rt.enScratch[w] == nil {
		rt.enScratch[w] = metrics.NewBFSScratch(n)
	}
	return rt.enScratch[w]
}

// growScratch makes room for w workers' BFS scratch.
func (rt *Routing) growScratch(w int) {
	for len(rt.enScratch) < w {
		rt.enScratch = append(rt.enScratch, nil)
	}
}

// Ensure builds the trees of the given sources (ascending, no
// duplicates) that are not cached yet, sharding the builds across
// workers (<= 0 means GOMAXPROCS), and protects the whole set from
// eviction until the next Ensure. The oldest entries outside the batch
// are evicted before building, into the pool the builds draw from, so
// cached plus pooled trees never exceed max(budget, len(sources)).
// Builds write index-private slots and insert in source order, so the
// cache state after Ensure is worker-count invariant.
func (rt *Routing) Ensure(sources []int, workers int) {
	if len(sources) == 0 {
		return
	}
	n := rt.s.N()
	if len(rt.enStamp) < n {
		rt.enStamp = append(rt.enStamp, make([]int32, n-len(rt.enStamp))...)
	}
	rt.enRound++
	missing := rt.enMissing[:0]
	for _, src := range sources {
		rt.enStamp[src] = rt.enRound
		if _, ok := rt.trees[src]; !ok {
			missing = append(missing, src)
		}
	}
	rt.enMissing = missing
	budget := rt.max
	if budget < len(sources) {
		budget = len(sources)
	}
	// Evict the oldest non-batch entries first, so the batch's builds
	// recycle their arrays instead of growing the pool.
	evict := len(rt.trees) + len(missing) - budget
	for i := 0; evict > 0 && i < len(rt.fifo); i++ {
		src := rt.fifo[i]
		if rt.enStamp[src] == rt.enRound {
			continue
		}
		rt.free = append(rt.free, rt.trees[src])
		delete(rt.trees, src)
		evict--
	}
	for len(rt.enBuilt) < len(missing) {
		rt.enBuilt = append(rt.enBuilt, nil)
	}
	built := rt.enBuilt[:len(missing)]
	// Trees come off the pool sequentially (the freelist is not
	// concurrency-safe); the parallel builds then fill index-private
	// slots, so the batch stays worker-count invariant.
	for i := range built {
		built[i] = rt.newTree()
	}
	w := par.Workers(workers)
	rt.growScratch(w)
	if w <= 1 {
		// Inline, closure-free: the sequential path is the steady state of
		// sweep cells (Workers=1) and must stay allocation-free once the
		// scratch exists (see the kernels-routing-reset ceiling).
		for i := range built {
			buildTreeInto(built[i], rt.s, rt.arcEdge, missing[i], rt.bfsScratch(0, n))
		}
	} else {
		par.ForEach(len(missing), w, func(worker, i int) {
			buildTreeInto(built[i], rt.s, rt.arcEdge, missing[i], rt.bfsScratch(worker, n))
		})
	}
	rt.builds += len(missing)
	// The surviving non-batch entries keep their order; the batch moves
	// to the young end.
	keep := rt.fifo[:0]
	for _, src := range rt.fifo {
		if _, ok := rt.trees[src]; ok && rt.enStamp[src] != rt.enRound {
			keep = append(keep, src)
		}
	}
	rt.fifo = append(keep, sources...)
	for i, src := range missing {
		rt.trees[src] = built[i]
		built[i] = nil
	}
	// Release pooled trees beyond the bound (left over from a larger
	// batch or a Reset of a larger cache).
	for len(rt.free) > 0 && len(rt.trees)+len(rt.free) > budget {
		rt.free[len(rt.free)-1] = nil
		rt.free = rt.free[:len(rt.free)-1]
	}
}

// Tree returns src's shortest-path tree, building and caching it if
// needed.
func (rt *Routing) Tree(src int) *rtree {
	if t, ok := rt.trees[src]; ok {
		return t
	}
	rt.Ensure([]int{src}, 1)
	return rt.trees[src]
}

// appendPath appends the edge ids of the tree path from dst back to the
// tree's source onto buf and reports whether dst is reachable.
func (t *rtree) appendPath(buf []int32, dst int) ([]int32, bool) {
	if t.dist[dst] < 0 {
		return buf, false
	}
	for v := int32(dst); t.parent[v] >= 0; v = t.parent[v] {
		buf = append(buf, t.edge[v])
	}
	return buf, true
}

// appendRowPath is appendPath over a bare distance row: the same
// canonical parents, selected per hop instead of for every node.
func appendRowPath(s *graph.Snapshot, arcEdge, dist []int32, buf []int32, dst int) ([]int32, bool) {
	if dist[dst] < 0 {
		return buf, false
	}
	for v := dst; ; {
		p, e := selectParent(s, arcEdge, dist, v)
		if p < 0 {
			return buf, true
		}
		buf = append(buf, e)
		v = int(p)
	}
}

// fillRows computes the BFS distance rows of srcs into the pooled
// resolution rows (row i for srcs[i]), sharded across workers.
func (rt *Routing) fillRows(srcs []int, workers int) [][]int32 {
	n := rt.s.N()
	for len(rt.rsRows) < len(srcs) {
		rt.rsRows = append(rt.rsRows, nil)
	}
	rows := rt.rsRows[:len(srcs)]
	for i := range rows {
		rows[i] = growRow(rows[i], n)
	}
	w := par.Workers(workers)
	rt.growScratch(w)
	if w <= 1 || len(srcs) == 1 {
		// Inline, closure-free: the sequential path must stay
		// allocation-free (see the kernels-*-steady ceilings).
		for i, src := range srcs {
			metrics.BFSHybrid(rt.s, src, rows[i], rt.bfsScratch(0, n))
		}
	} else {
		par.ForEach(len(srcs), w, func(worker, i int) {
			metrics.BFSHybrid(rt.s, srcs[i], rows[i], rt.bfsScratch(worker, n))
		})
	}
	rt.builds += len(srcs)
	return rows
}

// walkPath resolves (src, dst) over the origin's distance field — its
// cached tree t when non-nil, else the bare row dist — and memoizes the
// result. It returns the path (valid until the next walk) and its span:
// the length (-1 unreachable) always, the memo offset only when stored
// (false once the memo budget is spent).
func (rt *Routing) walkPath(src, dst int, t *rtree, dist []int32) (path []int32, sp pathSpan, stored bool) {
	var reachable bool
	if t != nil {
		path, reachable = t.appendPath(rt.rsPath[:0], dst)
	} else {
		path, reachable = appendRowPath(rt.s, rt.arcEdge, dist, rt.rsPath[:0], dst)
	}
	rt.rsPath = path
	sp, stored = rt.memo.store(pathKey(src, dst), path, reachable)
	if !reachable {
		return nil, pathSpan{n: -1}, stored
	}
	sp.n = int32(len(path))
	return path, sp, stored
}

// EpochStats is one simulated epoch's observation row.
type EpochStats struct {
	Epoch     int `json:"epoch"`
	Arrived   int `json:"arrived"`   // flows admitted this epoch
	Completed int `json:"completed"` // flows finished this epoch
	Active    int `json:"active"`    // flows in flight at epoch end
	// MeanUtil and MaxUtil summarize link utilization under the epoch's
	// max-min rates; OverloadFrac is the fraction of all links at or
	// above the spec's overload threshold.
	MeanUtil     float64 `json:"mean_util"`
	MaxUtil      float64 `json:"max_util"`
	OverloadFrac float64 `json:"overload_frac"`
	// Failure-epoch observations, present only under fault injection:
	// the down-entity counts at epoch end and this epoch's reroute,
	// kill and re-admission-attempt counts.
	LinksDown int `json:"links_down,omitempty"`
	NodesDown int `json:"nodes_down,omitempty"`
	Rerouted  int `json:"rerouted,omitempty"`
	Killed    int `json:"killed,omitempty"`
	Retried   int `json:"retried,omitempty"`
}

// UtilBin is one point of the link-utilization CCDF: the fraction of
// link-epochs with utilization at or above Util.
type UtilBin struct {
	Util float64 `json:"util"`
	Frac float64 `json:"frac"`
}

// utilCCDFThresholds are the fixed CCDF sample points; a fixed grid
// keeps the report schema stable across runs and sweep cells.
var utilCCDFThresholds = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}

// FlowRecord is one admitted flow's trace row, recorded in admission
// order when the simulation runs with WithFlowTrace. Flow identity (the
// slice index) is worker-independent: flows are admitted in ascending
// origin order, epoch by epoch, from the same seed-split streams.
type FlowRecord struct {
	Src, Dst int
	Size     float64
	Arrived  float64 // arrival instant
	Finished float64 // completion instant; meaningful only when Done
	Done     bool
	// Failure fate: Killed marks a flow dead at the horizon because a
	// failure severed its path (cleared again if a retry re-admits it);
	// Reroutes and Retries count its successful mid-life path
	// replacements and its re-admission attempts.
	Killed   bool
	Reroutes int
	Retries  int
}

// SimReport is the outcome of one workload simulation: the resolved
// spec, aggregate flow and utilization metrics, the per-epoch rows, and
// (not serialized — it is O(links)) the time-averaged link loads as a
// LoadReport.
type SimReport struct {
	Spec          WorkloadSpec `json:"spec"`
	Arrived       int          `json:"arrived"`
	Completed     int          `json:"completed"`
	Undelivered   int          `json:"undelivered"` // flows to unreachable destinations
	ResidualFlows int          `json:"residual_flows"`
	ResidualSize  float64      `json:"residual_size"` // unfinished volume at the horizon
	// MeanFCT is the mean flow completion time of completed flows, with
	// sub-epoch completion instants estimated from the final rate.
	MeanFCT    float64 `json:"mean_fct"`
	MeanActive float64 `json:"mean_active"`
	// MeanUtil, MaxUtil and OverloadFrac aggregate over link-epochs.
	MeanUtil     float64      `json:"mean_util"`
	MaxUtil      float64      `json:"max_util"`
	OverloadFrac float64      `json:"overload_frac"`
	UtilCCDF     []UtilBin    `json:"util_ccdf"`
	Epochs       []EpochStats `json:"epochs"`
	// Failures summarizes survivability under fault injection; nil when
	// the spec injects none.
	Failures *SurvivabilityReport `json:"failures,omitempty"`
	Links    *LoadReport          `json:"-"`
	// Flows holds the per-flow trace in admission order when the
	// simulation ran with WithFlowTrace, nil otherwise. Never
	// serialized: it is O(arrivals).
	Flows []FlowRecord `json:"-"`
}

// WorkloadMetricNames is the fixed scalar schema of a SimReport, the
// rows the sweep driver folds across seeds (order matches Scalars).
func WorkloadMetricNames() []string {
	return []string{"wl_mean_fct", "wl_mean_active", "wl_mean_util",
		"wl_max_util", "wl_overload_frac", "wl_completed_frac",
		"wl_killed_frac", "wl_rerouted_frac", "wl_disconnected_od",
		"wl_giant_cap_min"}
}

// Scalars returns the report's scalar metric vector in
// WorkloadMetricNames order. Without fault injection the survivability
// entries take their healthy-topology values (nothing killed or
// rerouted, no measured disconnection, full giant capacity).
func (rep *SimReport) Scalars() []float64 {
	completedFrac := 1.0
	if rep.Arrived > 0 {
		completedFrac = float64(rep.Completed) / float64(rep.Arrived)
	}
	killedFrac, reroutedFrac, disc := 0.0, 0.0, 0.0
	giantMin := 1.0
	if f := rep.Failures; f != nil {
		if rep.Arrived > 0 {
			killedFrac = float64(f.Killed) / float64(rep.Arrived)
			reroutedFrac = float64(f.Rerouted) / float64(rep.Arrived)
		}
		disc = f.DisconnectedOD
		giantMin = f.MinGiantCapacity
	}
	return []float64{rep.MeanFCT, rep.MeanActive, rep.MeanUtil,
		rep.MaxUtil, rep.OverloadFrac, completedFrac,
		killedFrac, reroutedFrac, disc, giantMin}
}

// SimOption tweaks a simulation without widening the WorkloadSpec wire
// format.
type simConfig struct {
	linkCaps []float64
	trace    bool
	rt       *Routing
	scratch  *SimScratch
	// epochHook, when set, sees every epoch's active flows right after
	// their max-min rates are solved. Nil outside tests.
	epochHook func(ctx *simContext, epoch int, active []*simFlow)
}

// SimOption is a functional option of Simulate and SimulateWith.
type SimOption func(*simConfig)

// WithLinkCapacities overrides the per-edge capacities (indexed by
// snapshot edge id) in place of multiplicity × spec.CapacityUnit.
// Capacities must be finite and non-negative; zero-capacity links are
// legal — flows routed across one are stuck at rate zero and the link
// counts as utilization zero. The override is how heterogeneous access
// capacities and dead links enter the simulator.
func WithLinkCapacities(caps []float64) SimOption {
	return func(c *simConfig) { c.linkCaps = caps }
}

// WithFlowTrace records every admitted flow's completion time in
// SimReport.Flows. Tracing is O(arrivals) memory, so it is opt-in.
func WithFlowTrace() SimOption {
	return func(c *simConfig) { c.trace = true }
}

// WithRouting shares a routing state (NewRouting) across simulations,
// the Simulate-level counterpart of SimulateWith's engine-memoized
// trees: repeated runs — a benchmark, a caller sweeping load factors
// by hand — skip rebuilding BFS trees for sources already ensured.
// Trees are per-source deterministic, so sharing never changes results.
// Across a growth trajectory, advance the shared state to each epoch's
// snapshot with Routing.Refresh before simulating;
// Simulate rejects a routing state describing a different snapshot.
func WithRouting(rt *Routing) SimOption {
	return func(c *simConfig) { c.rt = rt }
}

// simFlow is one in-flight flow.
type simFlow struct {
	src, dst  int32
	id        int32 // admission index, the trace identity
	retries   int32 // re-admission attempts consumed so far
	remaining float64
	arrived   float64 // arrival instant
	rate      float64 // current max-min rate; -1 while unallocated
	path      []int32 // snapshot edge ids
}

// simContext is the validated input of one simulation run: the spec,
// per-edge capacities, the per-origin arrival sources and their split
// streams, and the destination sampler.
type simContext struct {
	s       *graph.Snapshot
	rt      *Routing
	spec    WorkloadSpec
	cfg     simConfig
	workers int
	edges   []graph.Edge
	capEdge []float64
	// srcNodes are the origins with positive mass, ascending; streams
	// and sources are indexed alongside.
	srcNodes []int
	streams  []rng.Rand
	sources  []ArrivalSource
	sizes    SizeDist
	alias    *rng.Alias
	// lambda is the aggregate arrival rate, the calendar's size hint.
	lambda float64
	// fail is the fault-injection state, nil on the no-failure path.
	fail *failState
}

// routing returns the routing state admissions and reroutes resolve
// against: the private mirror-topology state under fault injection, the
// shared base state otherwise.
func (ctx *simContext) routing() *Routing {
	if ctx.fail != nil {
		return ctx.fail.frt
	}
	return ctx.rt
}

// Simulate runs the flow-level workload over a frozen snapshot with
// fresh routing state. See SimulateWith for the engine-memoized form
// and the simulation semantics.
func Simulate(s *graph.Snapshot, masses []float64, spec WorkloadSpec, r *rng.Rand, workers int, opts ...SimOption) (*SimReport, error) {
	return simulate(s, NewRouting(s), masses, spec, r, workers, opts...)
}

// SimulateWith runs the flow-level workload over the engine's snapshot,
// reusing the routing state memoized in the engine (RoutingOf) so
// repeated simulations of one topology — a sweep cell's grid of load
// factors, a trajectory epoch's re-measurement — share resolved paths.
//
// Semantics: time advances in epochs of length spec.EpochLen. At each
// epoch start every origin's arrival source emits flows (origin o with
// probability mass m(o) carries the share m(o)/Σm of the aggregate
// arrival rate spec.LoadFactor·ΣC/spec.MeanSize); each flow draws a
// destination gravity-weighted (∝ mass, excluding the origin) and a
// size from the spec's distribution, and follows the origin's BFS
// shortest-path tree. The horizon's arrivals are drawn up front and
// routed per origin, one BFS per origin and routing segment — the whole
// horizon, or under fault injection the epochs between two outage
// events, resolved over the surviving topology — and none for OD pairs
// the routing memo already holds. Within an epoch all active flows
// share link capacity max-min fairly; completed flows leave at the epoch boundary
// with a sub-epoch completion estimate. Every draw comes from streams
// split off r per origin and rate allocation is sequential in a fixed
// order, so the report is bit-identical at every worker count.
func SimulateWith(eng *engine.Engine, masses []float64, spec WorkloadSpec, r *rng.Rand, opts ...SimOption) (*SimReport, error) {
	return simulate(eng.Snapshot(), RoutingOf(eng), masses, spec, r, eng.Workers(), opts...)
}

func simulate(s *graph.Snapshot, rt *Routing, masses []float64, spec WorkloadSpec, r *rng.Rand, workers int, opts ...SimOption) (*SimReport, error) {
	ctx, err := newSimContext(s, rt, masses, spec, r, workers, opts...)
	if err != nil {
		return nil, err
	}
	return simulateEpoch(ctx)
}

// newSimContext validates the workload and assembles the state a run
// starts from — split from simulate so tests can inspect a context's
// routing counters and draw its calendar on their own.
func newSimContext(s *graph.Snapshot, rt *Routing, masses []float64, spec WorkloadSpec, r *rng.Rand, workers int, opts ...SimOption) (*simContext, error) {
	n := s.N()
	if n < 2 {
		return nil, errors.New("traffic: workload needs at least two nodes")
	}
	if len(masses) != n {
		return nil, errors.New("traffic: masses size mismatch")
	}
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if s.M() == 0 {
		return nil, errors.New("traffic: workload needs at least one link")
	}
	var cfg simConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.rt != nil {
		if cfg.rt.s.Version() != s.Version() {
			return nil, errors.New("traffic: shared routing state describes a different snapshot; advance it with Routing.Refresh")
		}
		rt = cfg.rt
	}
	positive := 0
	var sumMass float64
	for _, m := range masses {
		if m < 0 {
			return nil, errors.New("traffic: negative mass")
		}
		if m > 0 {
			positive++
		}
		sumMass += m
	}
	if positive < 2 {
		return nil, errors.New("traffic: workload needs at least two positive masses")
	}
	if cfg.scratch == nil {
		cfg.scratch = &SimScratch{} // private to this run
	}
	alias, err := cfg.scratch.aliasFor(masses)
	if err != nil {
		return nil, err
	}

	// Link capacities: edge multiplicity × the capacity unit, unless
	// overridden per edge.
	edges := rt.edgeList()
	capEdge := make([]float64, len(edges))
	var capTotal float64
	if cfg.linkCaps != nil {
		if len(cfg.linkCaps) != len(edges) {
			return nil, errors.New("traffic: link capacity override size mismatch")
		}
		for i, c := range cfg.linkCaps {
			if !(c >= 0) || c > 1e300 { // NaN fails the first comparison
				return nil, errors.New("traffic: link capacities must be finite and non-negative")
			}
			capEdge[i] = c
			capTotal += c
		}
	} else {
		for i, e := range edges {
			capEdge[i] = float64(e.W) * spec.CapacityUnit
			capTotal += capEdge[i]
		}
	}
	if capTotal <= 0 {
		return nil, errors.New("traffic: total link capacity must be positive")
	}
	lambdaTotal := spec.LoadFactor * capTotal / spec.MeanSize

	// One split stream per origin with positive mass, keyed by node id:
	// the stream feeds the origin's arrival process and, interleaved in
	// arrival order, its destination and size draws. Worker count never
	// touches these streams.
	proc := spec.arrivalProcess()
	var srcNodes []int
	for u, m := range masses {
		if m > 0 {
			srcNodes = append(srcNodes, u)
		}
	}
	streams := make([]rng.Rand, len(srcNodes))
	sources := make([]ArrivalSource, len(srcNodes))
	for i, u := range srcNodes {
		r.SplitInto(&streams[i], uint64(u))
		sources[i] = proc.NewSource(&streams[i], lambdaTotal*masses[u]/sumMass)
	}

	ctx := &simContext{
		s: s, rt: rt, spec: spec, cfg: cfg, workers: workers,
		edges: edges, capEdge: capEdge,
		srcNodes: srcNodes, streams: streams, sources: sources,
		sizes: spec.sizeDist(), alias: alias, lambda: lambdaTotal,
	}
	if spec.Failures != nil && spec.Failures.Active() {
		fail, err := newFailState(ctx, masses, r)
		if err != nil {
			return nil, err
		}
		ctx.fail = fail
	}
	return ctx, nil
}

// arrival is one pre-drawn flow arrival in its origin's calendar row:
// the epoch it arrives in, its destination and size, and — once its
// routing segment is resolved — where its path lives.
type arrival struct {
	dst   int32
	epoch int32
	size  float64
	// off locates the path: a memo-arena offset when off >= 0, the
	// run-arena offset ^off when off < 0. n is the path length, -1 for
	// an unreachable destination (unrouted before resolution).
	off, n int32
}

// unrouted marks an arrival whose path the resolution pass still owes.
const unrouted = -2

// flatCalendar is the pre-drawn arrival calendar of the whole horizon
// in one slab, origin-major: origin i's arrivals are
// arr[start[i]:start[i+1]], in epoch order. The simulation admits from
// it and routes from it, so one origin's arrivals of a routing segment
// are contiguous and share one BFS.
type flatCalendar struct {
	arr   []arrival
	start []int32 // len(srcNodes)+1, monotone
}

// buildCalendar pre-draws every origin's arrivals for the whole horizon
// into the scratch-pooled slab. Each origin draws from its own split
// stream — arrival count, then per flow destination (with rejection)
// and size, epoch after epoch — so the calendar is a pure function of
// the streams, and admitting it epoch by epoch in ascending origin
// order replays exactly the per-epoch draw loop it replaced.
func buildCalendar(ctx *simContext) flatCalendar {
	sc := ctx.cfg.scratch
	epochs, dt := ctx.spec.Epochs, ctx.spec.EpochLen
	arr := sc.cal.arr[:0]
	// Size the slab for the expected count plus a generous Poisson
	// margin, so a run without pooled scratch allocates it once; an
	// absurd load grows by appends instead of reserving it all up front.
	expect := math.Min(ctx.lambda*float64(epochs)*dt, 1<<24)
	if hint := int(expect+4*math.Sqrt(expect)) + 16; cap(arr) < hint {
		arr = make([]arrival, 0, hint)
	}
	start := sc.cal.start[:0]
	for i, u := range ctx.srcNodes {
		start = append(start, int32(len(arr)))
		r := &ctx.streams[i]
		for e := 0; e < epochs; e++ {
			k := ctx.sources[i].Arrivals(dt)
			for j := 0; j < k; j++ {
				dst := ctx.alias.NextWith(r)
				for dst == u {
					dst = ctx.alias.NextWith(r)
				}
				arr = append(arr, arrival{dst: int32(dst), epoch: int32(e), size: ctx.sizes.Sample(r)})
			}
		}
	}
	start = append(start, int32(len(arr)))
	sc.cal = flatCalendar{arr: arr, start: start}
	return sc.cal
}

// segmentEnd returns the end of the routing segment starting at epoch
// from: the whole horizon without fault injection, else the next epoch
// whose outage ops change the surviving topology.
func (ctx *simContext) segmentEnd(from int) int {
	if ctx.fail == nil {
		return ctx.spec.Epochs
	}
	end := from + 1
	for end < ctx.spec.Epochs && ctx.fail.tl.Ops(end) == 0 {
		end++
	}
	return end
}

// admission owns the run's calendar cursors: the simulation admits
// each epoch's arrivals from the calendar, and a routing segment's
// paths are resolved when the first epoch of the segment is admitted.
// The cursors live in the run's scratch.
type admission struct {
	ctx    *simContext
	cal    flatCalendar
	resAt  []int32 // per origin: next arrival to resolve
	admAt  []int32 // per origin: next arrival to admit
	live   []int32 // ascending origins with arrivals left to admit
	segEnd int     // first epoch not yet resolved
}

func newAdmission(ctx *simContext, cal flatCalendar) *admission {
	sc := ctx.cfg.scratch
	k := len(ctx.srcNodes)
	sc.resAt = growRow(sc.resAt, k)
	sc.admAt = growRow(sc.admAt, k)
	copy(sc.resAt, cal.start[:k])
	copy(sc.admAt, cal.start[:k])
	live := sc.live[:0]
	for i := 0; i < k; i++ {
		if cal.start[i+1] > cal.start[i] {
			live = append(live, int32(i))
		}
	}
	sc.live = live
	sc.runPaths = sc.runPaths[:0]
	return &admission{ctx: ctx, cal: cal, resAt: sc.resAt, admAt: sc.admAt, live: live}
}

// route resolves the paths of every arrival in the segment starting at
// epoch from, grouped by origin. A first pass answers memoized OD pairs
// and collects the origins that still owe paths; those are then routed
// in chunks — each origin's cached tree when the routing state holds
// one, else one BFS distance row, the chunk's rows computed in parallel
// — and walked and memoized sequentially in origin order, so the memo
// (and every path) is worker-count invariant.
func (a *admission) route(from int) {
	ctx := a.ctx
	a.segEnd = ctx.segmentEnd(from)
	rt := ctx.routing()
	sc := ctx.cfg.scratch
	seg := int32(a.segEnd)
	need := sc.need[:0]
	for i, u := range ctx.srcNodes {
		k, end := a.resAt[i], a.cal.start[i+1]
		owes := false
		for ; k < end && a.cal.arr[k].epoch < seg; k++ {
			ar := &a.cal.arr[k]
			if sp, ok := rt.memo.index[pathKey(u, int(ar.dst))]; ok {
				a.place(ar, sp, nil)
				continue
			}
			ar.n = unrouted
			owes = true
		}
		if owes {
			need = append(need, int32(i))
		} else {
			a.resAt[i] = k
		}
	}
	sc.need = need
	chunk := 1
	if w := par.Workers(ctx.workers); w > 1 {
		chunk = 2 * w
	}
	for c := 0; c < len(need); {
		srcs := sc.rowSrcs[:0]
		c2 := c
		for ; c2 < len(need) && len(srcs) < chunk; c2++ {
			if u := ctx.srcNodes[need[c2]]; rt.trees[u] == nil {
				srcs = append(srcs, u)
			}
		}
		sc.rowSrcs = srcs
		rows := rt.fillRows(srcs, ctx.workers)
		for ; c < c2; c++ {
			i := need[c]
			u := ctx.srcNodes[i]
			t := rt.trees[u]
			var dist []int32
			if t == nil {
				dist, rows = rows[0], rows[1:]
			}
			k, end := a.resAt[i], a.cal.start[i+1]
			for ; k < end && a.cal.arr[k].epoch < seg; k++ {
				ar := &a.cal.arr[k]
				if ar.n != unrouted {
					continue
				}
				if sp, ok := rt.memo.index[pathKey(u, int(ar.dst))]; ok {
					a.place(ar, sp, nil) // a repeat destination of this origin
					continue
				}
				path, sp, stored := rt.walkPath(u, int(ar.dst), t, dist)
				if stored {
					path = nil
				}
				a.place(ar, sp, path)
			}
			a.resAt[i] = k
		}
	}
}

// place points an arrival at its resolved path: the memo span itself,
// or — when the memo budget is spent (path non-nil) or under fault
// injection, where flows carry base-topology edge ids — a copy in the
// run arena.
func (a *admission) place(ar *arrival, sp pathSpan, path []int32) {
	ar.n = sp.n
	if sp.n < 0 {
		return
	}
	fail := a.ctx.fail
	if path == nil {
		if fail == nil {
			ar.off = sp.off
			return
		}
		path = a.ctx.routing().memo.path(sp)
	}
	sc := a.ctx.cfg.scratch
	ar.off = ^int32(len(sc.runPaths))
	if fail == nil {
		sc.runPaths = append(sc.runPaths, path...)
		return
	}
	for _, e := range path {
		sc.runPaths = append(sc.runPaths, fail.curToBase[e])
	}
}

// utilOf is load/capacity with the zero-capacity link pinned to zero
// utilization — a dead link carries nothing, whatever crosses it — and
// utilizations within an ulp-window of saturation snapped to exactly 1:
// a co-bottleneck whose capacity is mathematically exhausted can land
// on either side of 1.0 depending on the water-fill's subtraction
// order, and the CCDF's ≥1 bin must not flip on that noise.
func utilOf(load, capacity float64) float64 {
	if capacity <= 0 {
		return 0
	}
	u := load / capacity
	if u > 1-1e-12 {
		u = 1
	}
	return u
}

// simulateEpoch runs the simulation: every epoch re-solves the whole
// max-min allocation — an indexed-heap water-fill costing
// O(touched · log L) per bottleneck round over L loaded links
// (waterfill.go) — and scans every active flow.
func simulateEpoch(ctx *simContext) (*SimReport, error) {
	spec, edges, capEdge := ctx.spec, ctx.edges, ctx.capEdge
	rep := &SimReport{Spec: spec, Epochs: make([]EpochStats, 0, spec.Epochs)}
	dt := spec.EpochLen
	scratch := ctx.cfg.scratch
	scratch.wf.ensure(len(edges))
	var (
		active     = scratch.active[:0]
		wf         = &scratch.wf
		avgLoad    = make([]float64, len(edges))
		ccdfCounts = make([]int, len(utilCCDFThresholds))
		fctSum     float64
		utilSum    float64
		activeSum  int
		overloaded int
		adm        = newAdmission(ctx, buildCalendar(ctx))
		cal        = adm.cal
		// freeFlows recycles departed simFlow entries; in steady state
		// admissions draw from it instead of the heap. A shared scratch
		// carries the pool across runs, so the population only grows
		// when concurrency exceeds its all-time peak.
		freeFlows = scratch.freeFlows
	)
	newFlow := func() *simFlow {
		if k := len(freeFlows); k > 0 {
			f := freeFlows[k-1]
			freeFlows = freeFlows[:k-1]
			return f
		}
		return &simFlow{}
	}
	for epoch := 0; epoch < spec.Epochs; epoch++ {
		now := float64(epoch) * dt

		// Failure phase: apply this epoch's outage ops, then walk the
		// active flows in admission order — a flow whose path lost a link
		// reroutes over the surviving topology or dies with a recorded
		// fate — and re-admit killed flows whose retry backoff expired.
		// All of it precedes arrivals.
		reroutedNow, killedNow, retriedNow := 0, 0, 0
		if fail := ctx.fail; fail != nil {
			if err := fail.beginEpoch(epoch); err != nil {
				return nil, err
			}
			if fail.flipped {
				keep := active[:0]
				for _, f := range active {
					if !fail.pathBroken(f.path) {
						keep = append(keep, f)
						continue
					}
					if np, ok := fail.resolve(int(f.src), int(f.dst)); ok {
						f.path = np
						reroutedNow++
						fail.rerouted++
						if ctx.cfg.trace {
							rep.Flows[f.id].Reroutes++
						}
						keep = append(keep, f)
						continue
					}
					killedNow++
					fail.kill(epoch, f.id, f.src, f.dst, f.remaining, f.arrived, f.retries)
					if ctx.cfg.trace {
						rep.Flows[f.id].Killed = true
					}
					freeFlows = append(freeFlows, f)
				}
				active = keep
			}
			for _, rf := range fail.takeRetries(epoch) {
				fail.retried++
				retriedNow++
				rf.retries++
				if ctx.cfg.trace {
					rep.Flows[rf.id].Retries++
				}
				if path, ok := fail.resolve(int(rf.src), int(rf.dst)); ok {
					f := newFlow()
					*f = simFlow{
						src: rf.src, dst: rf.dst, id: rf.id, retries: rf.retries,
						remaining: rf.remaining, arrived: rf.arrived, rate: -1, path: path,
					}
					active = append(active, f)
					if ctx.cfg.trace {
						rep.Flows[rf.id].Killed = false
					}
				} else {
					fail.requeue(epoch, rf)
				}
			}
		}

		// Arrivals, in ascending origin order, from the pre-drawn
		// calendar. A new routing segment resolves first — under fault
		// injection against the topology the failure phase just left.
		// Flows are numbered in admission order.
		if epoch >= adm.segEnd {
			adm.route(epoch)
		}
		memo, run := ctx.routing().memo.arena, scratch.runPaths
		admitted := 0
		live := adm.live[:0]
		for _, i := range adm.live {
			u := ctx.srcNodes[i]
			k, end := adm.admAt[i], cal.start[i+1]
			for ; k < end && int(cal.arr[k].epoch) == epoch; k++ {
				ar := &cal.arr[k]
				if ar.n < 0 {
					rep.Undelivered++
					continue
				}
				var path []int32
				if o := ^ar.off; ar.off < 0 {
					path = run[o : o+ar.n : o+ar.n]
				} else {
					path = memo[ar.off : ar.off+ar.n : ar.off+ar.n]
				}
				f := newFlow()
				*f = simFlow{
					src: int32(u), dst: ar.dst, id: int32(rep.Arrived + admitted),
					remaining: ar.size, arrived: now, rate: -1, path: path,
				}
				active = append(active, f)
				if ctx.cfg.trace {
					rep.Flows = append(rep.Flows, FlowRecord{
						Src: u, Dst: int(ar.dst), Size: ar.size, Arrived: now,
					})
				}
				admitted++
			}
			adm.admAt[i] = k
			if k < end {
				live = append(live, i)
			}
		}
		adm.live = live
		rep.Arrived += admitted

		// Max-min fair rates, solved by the pooled water-filler
		// (waterfill.go). Sequential, fixed iteration order.
		wf.fill(active, capEdge)
		if ctx.cfg.epochHook != nil {
			ctx.cfg.epochHook(ctx, epoch, active)
		}

		// Link observations under the epoch's rates.
		var epochUtilSum, epochMaxUtil float64
		epochOverloaded := 0
		for _, e := range wf.links {
			// Max-min rates never exceed capacity; the subtraction chain
			// can stray by an ulp in either direction, so clamp to [0, cap].
			load := capEdge[e] - wf.capRem[e]
			if load < 0 {
				load = 0
			}
			if load > capEdge[e] {
				load = capEdge[e]
			}
			util := utilOf(load, capEdge[e])
			epochUtilSum += util
			if util > epochMaxUtil {
				epochMaxUtil = util
			}
			if util >= spec.OverloadAt {
				epochOverloaded++
			}
			for ti, thr := range utilCCDFThresholds {
				if util >= thr {
					ccdfCounts[ti]++
				}
			}
			avgLoad[e] += load * dt
			wf.nflows[e] = 0 // reset for the next epoch
		}
		utilSum += epochUtilSum
		overloaded += epochOverloaded
		if epochMaxUtil > rep.MaxUtil {
			rep.MaxUtil = epochMaxUtil
		}

		// Advance flows by one epoch; completions leave with a sub-epoch
		// completion estimate (the flow held its rate, so the estimate is
		// exact up to within-epoch departures).
		completedNow := 0
		keep := active[:0]
		for _, f := range active {
			send := f.rate * dt
			if f.rate > 0 && f.remaining <= send {
				finish := now + f.remaining/f.rate
				fctSum += finish - f.arrived
				completedNow++
				if ctx.fail != nil {
					ctx.fail.noteFCT(f.arrived, finish-f.arrived)
				}
				if ctx.cfg.trace {
					rep.Flows[f.id].Done = true
					rep.Flows[f.id].Finished = finish
				}
				freeFlows = append(freeFlows, f)
				continue
			}
			f.remaining -= send
			keep = append(keep, f)
		}
		active = keep
		rep.Completed += completedNow
		activeSum += len(active)
		es := EpochStats{
			Epoch:        epoch,
			Arrived:      admitted,
			Completed:    completedNow,
			Active:       len(active),
			MeanUtil:     epochUtilSum / float64(len(edges)),
			MaxUtil:      epochMaxUtil,
			OverloadFrac: float64(epochOverloaded) / float64(len(edges)),
		}
		if fail := ctx.fail; fail != nil {
			es.LinksDown = fail.linksDown
			es.NodesDown = fail.nodesDown
			es.Rerouted = reroutedNow
			es.Killed = killedNow
			es.Retried = retriedNow
		}
		rep.Epochs = append(rep.Epochs, es)
	}

	rep.ResidualFlows = len(active)
	for _, f := range active {
		rep.ResidualSize += f.remaining
	}
	// Park the buffers for the next run sharing this scratch; residual
	// actives rejoin the freelist so the flow population stays a closed
	// pool at its all-time peak.
	freeFlows = append(freeFlows, active...)
	scratch.active, scratch.freeFlows = active[:0], freeFlows

	// Fold the accumulated sums into the aggregate fields and
	// materialize the CCDF and the time-averaged LoadReport.
	if ctx.fail != nil {
		rep.Failures = ctx.fail.report()
	}
	if rep.Completed > 0 {
		rep.MeanFCT = fctSum / float64(rep.Completed)
	}
	linkEpochs := len(edges) * spec.Epochs
	if linkEpochs > 0 {
		rep.MeanActive = float64(activeSum) / float64(spec.Epochs)
		rep.MeanUtil = utilSum / float64(linkEpochs)
		rep.OverloadFrac = float64(overloaded) / float64(linkEpochs)
	}
	rep.UtilCCDF = make([]UtilBin, len(utilCCDFThresholds))
	for ti, thr := range utilCCDFThresholds {
		frac := 0.0
		if linkEpochs > 0 {
			frac = float64(ccdfCounts[ti]) / float64(linkEpochs)
		}
		rep.UtilCCDF[ti] = UtilBin{Util: thr, Frac: frac}
	}

	// Time-averaged link loads as a LoadReport, in edge-id order. The
	// row slice is sized by the topology, not grown to the carried-link
	// count: every link can carry load, and the deterministic size
	// keeps a steady-state run's report cost identical whatever the
	// horizon — the allocation benchmarks difference two horizons and
	// rely on the cancellation.
	load := &LoadReport{Links: make([]LinkLoad, 0, len(edges))}
	horizon := float64(spec.Epochs) * spec.EpochLen
	var loadSum float64
	for id, l := range avgLoad {
		if l == 0 {
			continue
		}
		mean := l / horizon
		e := edges[id]
		load.Links = append(load.Links, LinkLoad{U: e.U, V: e.V, Load: mean})
		loadSum += mean
		if mean > load.MaxLoad {
			load.MaxLoad = mean
		}
		if util := utilOf(mean, capEdge[id]); util > load.MaxUtilization {
			load.MaxUtilization = util
		}
	}
	if len(load.Links) > 0 {
		load.MeanLoad = loadSum / float64(len(load.Links))
	}
	rep.Links = load
	return rep, nil
}
