package traffic

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/rng"
)

// This file is the fault-injection layer of the traffic package: a
// FailureSpec composed into a WorkloadSpec describes link/node outage
// processes — scheduled down/up events, stochastic MTBF/MTTR outages
// drawn from seed-split streams, and targeted top-k modes — which
// CompileFailures turns into a deterministic per-epoch op timeline
// before the simulation starts. During a run the failState below owns a
// mutable mirror of the topology: outage ops remove edges from the
// mirror, Refreeze produces a removal delta, and the private routing
// state rides Routing.Refresh's scoped removal repair, so the surviving
// topology's shortest paths stay warm across failure epochs. The
// simulator consumes this state in a fixed order — reroute affected
// flows when an alternate path exists, kill them with a recorded fate
// otherwise, re-admit killed flows under a bounded retry/backoff —
// which keeps per-flow fates and every byte of the report worker-count
// invariant. The no-failure path
// (Failures nil or mode "none") never touches any of this.

// The failure modes selectable through FailureSpec.Mode.
const (
	// FailNone disables fault injection (the default).
	FailNone = "none"
	// FailScheduled replays the explicit event list in FailureSpec.Events.
	FailScheduled = "scheduled"
	// FailRandom picks Links/Nodes uniformly at random and gives each an
	// alternating exponential up/down renewal process (MTBF/MTTR).
	FailRandom = "random"
	// FailDegree fails the top-Links links (by endpoint degree sum) and
	// top-Nodes nodes (by degree) at epoch FailAt.
	FailDegree = "degree"
	// FailLoad fails the top-Links links and top-Nodes nodes ranked by
	// expected shortest-path load under the gravity demand.
	FailLoad = "load"
)

// FailureEvent is one scheduled outage edit: at the start of Epoch,
// link (U, V) or node Node goes down (or comes back Up).
type FailureEvent struct {
	Epoch int    `json:"epoch"`
	Kind  string `json:"kind"` // "link" or "node"
	U     int    `json:"u,omitempty"`
	V     int    `json:"v,omitempty"`
	Node  int    `json:"node,omitempty"`
	Up    bool   `json:"up,omitempty"`
}

// FailureSpec is the flag- and JSON-friendly description of an outage
// process, composable with WorkloadSpec (field Failures) and sweepable
// through sweep.Grid. The zero value of every optional field means its
// documented default; timing fields are in the same time units as
// WorkloadSpec.EpochLen, and every event takes effect at an epoch
// start, before that epoch's reroutes, retries and arrivals.
type FailureSpec struct {
	// Mode selects the outage process: "none" (default), "scheduled",
	// "random", "degree" or "load".
	Mode string `json:"mode,omitempty"`
	// Events is the explicit timeline of mode "scheduled".
	Events []FailureEvent `json:"events,omitempty"`
	// Links and Nodes are how many links/nodes the random and targeted
	// modes involve.
	Links int `json:"links,omitempty"`
	Nodes int `json:"nodes,omitempty"`
	// MTBF and MTTR are the mean exponential up- and down-times of mode
	// "random". MTTR 0 means a failed entity never repairs.
	MTBF float64 `json:"mtbf,omitempty"`
	MTTR float64 `json:"mttr,omitempty"`
	// FailAt and RepairAt are the targeted modes' outage window in
	// epochs (defaults: fail at 1, never repair).
	FailAt   int `json:"fail_at,omitempty"`
	RepairAt int `json:"repair_at,omitempty"`
	// MaxRetries bounds how many re-admission attempts a killed flow
	// gets (default 0: killed flows stay dead); RetryAfter is the
	// backoff between a kill and the next attempt, in epochs (default 1).
	MaxRetries int `json:"max_retries,omitempty"`
	RetryAfter int `json:"retry_after,omitempty"`
}

// failureDefaults are the resolved fallbacks of FailureSpec.
const (
	defaultFailAt     = 1
	defaultRetryAfter = 1
)

// withDefaults resolves every zero-valued optional field to its
// documented default.
func (sp FailureSpec) withDefaults() FailureSpec {
	if sp.Mode == "" {
		sp.Mode = FailNone
	}
	if sp.FailAt == 0 {
		sp.FailAt = defaultFailAt
	}
	if sp.RetryAfter == 0 {
		sp.RetryAfter = defaultRetryAfter
	}
	return sp
}

// Active reports whether the spec injects any failures at all.
func (sp FailureSpec) Active() bool {
	return sp.Mode != "" && sp.Mode != FailNone
}

// Validate checks the spec after default resolution and reports the
// first violation. Bounds that need the topology (endpoint ranges,
// entity counts versus graph size) are checked by CompileFailures.
func (sp FailureSpec) Validate() error {
	sp = sp.withDefaults()
	for _, v := range []float64{sp.MTBF, sp.MTTR} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("traffic: failure spec values must be finite")
		}
	}
	switch sp.Mode {
	case FailNone, FailScheduled, FailRandom, FailDegree, FailLoad:
	default:
		return fmt.Errorf("traffic: unknown failure mode %q (have %s, %s, %s, %s, %s)",
			sp.Mode, FailNone, FailScheduled, FailRandom, FailDegree, FailLoad)
	}
	if sp.Links < 0 || sp.Nodes < 0 {
		return errors.New("traffic: failure link and node counts must not be negative")
	}
	if sp.MaxRetries < 0 {
		return errors.New("traffic: failure max retries must not be negative")
	}
	if sp.RetryAfter < 1 {
		return errors.New("traffic: failure retry backoff must be at least one epoch")
	}
	switch sp.Mode {
	case FailScheduled:
		if len(sp.Events) == 0 {
			return errors.New("traffic: scheduled failure mode needs at least one event")
		}
		for _, ev := range sp.Events {
			if ev.Epoch < 0 {
				return errors.New("traffic: failure event epoch must not be negative")
			}
			switch ev.Kind {
			case "link":
				if ev.U < 0 || ev.V < 0 || ev.U == ev.V {
					return errors.New("traffic: failure link event needs two distinct endpoints")
				}
			case "node":
				if ev.Node < 0 {
					return errors.New("traffic: failure node event node must not be negative")
				}
			default:
				return fmt.Errorf("traffic: unknown failure event kind %q (have link, node)", ev.Kind)
			}
		}
	case FailRandom:
		if sp.Links+sp.Nodes == 0 {
			return errors.New("traffic: random failure mode needs links or nodes to fail")
		}
		if sp.MTBF <= 0 {
			return errors.New("traffic: random failure mode needs a positive mtbf")
		}
		if sp.MTTR < 0 {
			return errors.New("traffic: failure mttr must not be negative")
		}
	case FailDegree, FailLoad:
		if sp.Links+sp.Nodes == 0 {
			return errors.New("traffic: targeted failure mode needs links or nodes to fail")
		}
		if sp.FailAt < 1 {
			return errors.New("traffic: failure epoch must be at least 1")
		}
		if sp.RepairAt != 0 && sp.RepairAt <= sp.FailAt {
			return errors.New("traffic: failure repair epoch must follow the failure epoch")
		}
	}
	return nil
}

// Label is the spec's compact sweep-axis label, the value of the
// "failures" column in workload CSV rows.
func (sp FailureSpec) Label() string {
	sp = sp.withDefaults()
	switch sp.Mode {
	case FailNone:
		return FailNone
	case FailScheduled:
		return fmt.Sprintf("sched:%d", len(sp.Events))
	case FailRandom:
		return fmt.Sprintf("random:l%d,n%d,mtbf%g,mttr%g", sp.Links, sp.Nodes, sp.MTBF, sp.MTTR)
	default:
		return fmt.Sprintf("%s:l%d,n%d@%d", sp.Mode, sp.Links, sp.Nodes, sp.FailAt)
	}
}

// failureOp is one compiled state flip: link (u, v) (node < 0) or node
// `node` goes down (or comes back up) at its epoch.
type failureOp struct {
	node int32 // -1 for link ops
	u, v int32
	up   bool
}

// FailureTimeline is a FailureSpec compiled against a concrete topology
// and horizon: the per-epoch op lists the simulation replays,
// plus the distinct-entity counts the survivability report surfaces.
type FailureTimeline struct {
	ops         [][]failureOp
	linksFailed int
	nodesFailed int
	firstFail   int // earliest epoch with a down op, -1 if none
}

// LinksFailed returns how many distinct links the timeline ever fails.
func (tl *FailureTimeline) LinksFailed() int { return tl.linksFailed }

// NodesFailed returns how many distinct nodes the timeline ever fails.
func (tl *FailureTimeline) NodesFailed() int { return tl.nodesFailed }

// Ops returns the number of compiled state flips at the given epoch.
func (tl *FailureTimeline) Ops(epoch int) int {
	if epoch < 0 || epoch >= len(tl.ops) {
		return 0
	}
	return len(tl.ops[epoch])
}

// CompileFailures compiles the spec into a deterministic per-epoch op
// timeline over the given snapshot and horizon. Random outages draw
// from streams split off r per entity — splitting is pure, so the
// timeline never perturbs the workload's arrival streams and is itself
// independent of worker count. linkLoad (per snapshot edge id) ranks
// mode "load" and may be nil otherwise.
func CompileFailures(s *graph.Snapshot, spec FailureSpec, epochs int, epochLen float64, r *rng.Rand, linkLoad []float64) (*FailureTimeline, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	tl := &FailureTimeline{ops: make([][]failureOp, epochs), firstFail: -1}
	if !spec.Active() || epochs == 0 {
		return tl, nil
	}
	n := s.N()
	edges := s.EdgeList()
	addOp := func(epoch int, op failureOp) {
		tl.ops[epoch] = append(tl.ops[epoch], op)
		if !op.up && (tl.firstFail < 0 || epoch < tl.firstFail) {
			tl.firstFail = epoch
		}
	}

	switch spec.Mode {
	case FailScheduled:
		seenLink := make(map[int64]bool)
		seenNode := make(map[int]bool)
		for _, ev := range spec.Events {
			if ev.Epoch >= epochs {
				continue // beyond the horizon
			}
			if ev.Kind == "node" {
				if ev.Node >= n {
					return nil, errors.New("traffic: failure event node out of range")
				}
				addOp(ev.Epoch, failureOp{node: int32(ev.Node), up: ev.Up})
				if !ev.Up && !seenNode[ev.Node] {
					seenNode[ev.Node] = true
					tl.nodesFailed++
				}
				continue
			}
			u, v := ev.U, ev.V
			if u > v {
				u, v = v, u
			}
			if v >= n {
				return nil, errors.New("traffic: failure event endpoint out of range")
			}
			if !s.HasEdge(u, v) {
				return nil, fmt.Errorf("traffic: failure event names a missing link (%d, %d)", u, v)
			}
			addOp(ev.Epoch, failureOp{node: -1, u: int32(u), v: int32(v), up: ev.Up})
			if !ev.Up && !seenLink[pathKey(u, v)] {
				seenLink[pathKey(u, v)] = true
				tl.linksFailed++
			}
		}

	case FailRandom:
		if spec.Links > len(edges) {
			return nil, errors.New("traffic: more failing links than links in the topology")
		}
		if spec.Nodes > n {
			return nil, errors.New("traffic: more failing nodes than nodes in the topology")
		}
		// outages walks one entity's alternating exponential renewal
		// process, quantized to epoch starts: a transition inside epoch e
		// takes effect at the start of epoch e+1. Zero-width outages
		// (down and up quantizing to the same epoch) are invisible and
		// skipped whole.
		outages := func(er *rng.Rand, emit func(epoch int, up bool)) bool {
			failed := false
			t := 0.0
			for {
				t += er.Exp(1 / spec.MTBF)
				down := int(t/epochLen) + 1
				if down >= epochs {
					return failed
				}
				if spec.MTTR <= 0 {
					emit(down, false)
					return true
				}
				t += er.Exp(1 / spec.MTTR)
				up := int(t/epochLen) + 1
				if up == down {
					continue
				}
				emit(down, false)
				failed = true
				if up >= epochs {
					return failed
				}
				emit(up, true)
			}
		}
		// Entity streams are split off the failure stream by disjoint
		// keys: links by edge id, nodes offset past the edge-id range.
		links := r.Perm(len(edges))[:spec.Links]
		sort.Ints(links)
		for _, id := range links {
			e := edges[id]
			if outages(r.Split(uint64(id)), func(epoch int, up bool) {
				addOp(epoch, failureOp{node: -1, u: int32(e.U), v: int32(e.V), up: up})
			}) {
				tl.linksFailed++
			}
		}
		nodes := r.Perm(n)[:spec.Nodes]
		sort.Ints(nodes)
		for _, u := range nodes {
			if outages(r.Split(1<<32|uint64(u)), func(epoch int, up bool) {
				addOp(epoch, failureOp{node: int32(u), up: up})
			}) {
				tl.nodesFailed++
			}
		}

	case FailDegree, FailLoad:
		if spec.Links > len(edges) {
			return nil, errors.New("traffic: more failing links than links in the topology")
		}
		if spec.Nodes > n {
			return nil, errors.New("traffic: more failing nodes than nodes in the topology")
		}
		linkScore := func(id int) float64 {
			return float64(s.Degree(edges[id].U) + s.Degree(edges[id].V))
		}
		nodeScore := func(u int) float64 { return float64(s.Degree(u)) }
		if spec.Mode == FailLoad {
			if len(linkLoad) != len(edges) {
				return nil, errors.New("traffic: load-targeted failures need per-link loads")
			}
			nodeLoad := make([]float64, n)
			for id, e := range edges {
				nodeLoad[e.U] += linkLoad[id]
				nodeLoad[e.V] += linkLoad[id]
			}
			linkScore = func(id int) float64 { return linkLoad[id] }
			nodeScore = func(u int) float64 { return nodeLoad[u] }
		}
		topK := func(total, k int, score func(int) float64) []int {
			ids := make([]int, total)
			for i := range ids {
				ids[i] = i
			}
			sort.Slice(ids, func(a, b int) bool {
				sa, sb := score(ids[a]), score(ids[b])
				if sa != sb {
					return sa > sb
				}
				return ids[a] < ids[b]
			})
			return ids[:k]
		}
		emitWindow := func(op failureOp) {
			if spec.FailAt >= epochs {
				return
			}
			addOp(spec.FailAt, op)
			if op.node >= 0 {
				tl.nodesFailed++
			} else {
				tl.linksFailed++
			}
			if spec.RepairAt > spec.FailAt && spec.RepairAt < epochs {
				op.up = true
				addOp(spec.RepairAt, op)
			}
		}
		for _, id := range topK(len(edges), spec.Links, linkScore) {
			emitWindow(failureOp{node: -1, u: int32(edges[id].U), v: int32(edges[id].V)})
		}
		for _, u := range topK(n, spec.Nodes, nodeScore) {
			emitWindow(failureOp{node: int32(u)})
		}
	}
	return tl, nil
}

// SurvivabilityReport aggregates how the topology and the flows riding
// it degraded under the run's failure timeline.
type SurvivabilityReport struct {
	// LinksFailed and NodesFailed count the distinct entities the
	// timeline ever took down.
	LinksFailed int `json:"links_failed"`
	NodesFailed int `json:"nodes_failed"`
	// Killed counts kill events (a flow re-killed after a retry counts
	// again); Rerouted counts successful mid-life path replacements;
	// Retried counts re-admission attempts of killed flows.
	Killed   int `json:"killed"`
	Rerouted int `json:"rerouted"`
	Retried  int `json:"retried"`
	// DisconnectedOD is the epoch-mean fraction of ordered node pairs
	// with no surviving path.
	DisconnectedOD float64 `json:"disconnected_od"`
	// MeanGiantCapacity and MinGiantCapacity track the fraction of the
	// total base link capacity that lives inside the giant connected
	// component of the surviving topology.
	MeanGiantCapacity float64 `json:"mean_giant_capacity"`
	MinGiantCapacity  float64 `json:"min_giant_capacity"`
	// FCTInflation is the ratio of the mean completion time of flows
	// arriving at or after the first failure to the mean of flows
	// arriving before it (0 when either side is empty).
	FCTInflation float64 `json:"fct_inflation"`
}

// killedFlow is a killed flow parked in the retry queue: enough state
// to re-admit it with its remaining volume and original arrival.
type killedFlow struct {
	id        int32 // trace identity
	src, dst  int32
	remaining float64
	arrived   float64
	retries   int32 // re-admission attempts already consumed
	at        int32 // epoch of the next attempt
}

// failState is the per-run fault-injection state the simulation drives
// in a fixed order: the compiled timeline, a mutable mirror of the base
// topology whose refreezes feed the private routing state's scoped
// removal repair, the base-edge down set, the retry queue, and the
// survivability accumulators. Flow paths stay in base edge-id space
// (the capacity, load and water-fill arrays are base-indexed and
// persistent); curToBase translates the mirror snapshot's ids on every
// admission and reroute.
type failState struct {
	ctx  *simContext
	spec FailureSpec
	tl   *FailureTimeline

	mirror    *graph.Graph
	cur       *graph.Snapshot
	curEdges  []graph.Edge
	frt       *Routing
	baseID    map[int64]int32
	curToBase []int32

	linkDown   []bool // base edge id: administratively down
	nodeDown   []bool
	edgeAbsent []bool // base edge id: currently removed from the mirror
	linksDown  int
	nodesDown  int
	capTotal   float64

	flipped bool // the current epoch applied at least one op
	retryQ  []killedFlow

	killed, rerouted, retried int
	discSum, giantSum         float64
	giantMin                  float64
	epochsSeen                int
	curDisc, curGiant         float64
	firstFailT                float64 // +Inf when the timeline never fails
	fctPreSum, fctPostSum     float64
	fctPreN, fctPostN         int
	compMark                  []bool
	compID                    []int32
	compSizes                 []int32
	compBFS                   *metrics.BFSScratch
}

// newFailState compiles the workload's failure spec and builds the
// mirror topology and private routing state. masses feed the
// load-targeted ranking; r is the workload's root stream — the failure
// stream splits off it under a key no per-origin stream uses, and
// splitting is pure, so a failure run draws the exact arrival sample
// paths of the corresponding no-failure run.
func newFailState(ctx *simContext, masses []float64, r *rng.Rand) (*failState, error) {
	spec := *ctx.spec.Failures
	var linkLoad []float64
	if spec.Mode == FailLoad {
		gd, err := NewGravityDemand(masses, 1)
		if err != nil {
			return nil, err
		}
		// Rank with workers pinned to 1: the ranking must not move with
		// the worker count, and parallel load sums differ in final ulps.
		lr, err := RouteFrozenDemand(ctx.s, gd, false, 1)
		if err != nil {
			return nil, err
		}
		linkLoad = make([]float64, len(ctx.edges))
		byPair := make(map[int64]int32, len(ctx.edges))
		for id, e := range ctx.edges {
			byPair[pathKey(e.U, e.V)] = int32(id)
		}
		for _, l := range lr.Links {
			linkLoad[byPair[pathKey(l.U, l.V)]] = l.Load
		}
	}
	// The failure stream's key is outside the node-id range the
	// per-origin streams use, and Split is a pure function of (parent,
	// key), so drawing the timeline perturbs nothing else.
	tl, err := CompileFailures(ctx.s, spec, ctx.spec.Epochs, ctx.spec.EpochLen, r.Split(^uint64(0)), linkLoad)
	if err != nil {
		return nil, err
	}
	n := ctx.s.N()
	mirror := graph.New(n)
	for _, e := range ctx.edges {
		for k := 0; k < e.W; k++ {
			mirror.MustAddEdge(e.U, e.V)
		}
	}
	cur, err := mirror.FreezeChecked()
	if err != nil {
		return nil, err
	}
	fs := &failState{
		ctx: ctx, spec: spec, tl: tl,
		mirror: mirror, cur: cur, frt: NewRouting(cur),
		baseID:     make(map[int64]int32, len(ctx.edges)),
		linkDown:   make([]bool, len(ctx.edges)),
		nodeDown:   make([]bool, n),
		edgeAbsent: make([]bool, len(ctx.edges)),
		firstFailT: math.Inf(1),
		compMark:   make([]bool, n),
	}
	if tl.firstFail >= 0 {
		fs.firstFailT = float64(tl.firstFail) * ctx.spec.EpochLen
	}
	for id, e := range ctx.edges {
		fs.baseID[pathKey(e.U, e.V)] = int32(id)
		fs.capTotal += ctx.capEdge[id]
	}
	fs.rebuildCurToBase()
	fs.recomputeComponents()
	fs.giantMin = fs.curGiant
	return fs, nil
}

// rebuildCurToBase re-derives the mirror-snapshot → base edge-id
// translation after a refreeze. Mirror edges are always a subset of the
// base edge set, so every lookup hits.
func (fs *failState) rebuildCurToBase() {
	fs.curEdges = fs.cur.EdgeList()
	fs.curToBase = fs.curToBase[:0]
	for _, e := range fs.curEdges {
		fs.curToBase = append(fs.curToBase, fs.baseID[pathKey(e.U, e.V)])
	}
}

// recomputeComponents refreshes the disconnected-OD fraction and the
// giant-component capacity fraction from the current mirror snapshot.
// The scan runs on the pooled hybrid component kernel: labels and sizes
// instead of materialized node lists, so the per-failure-epoch refresh
// allocates nothing once the buffers are warm. ComponentsHybrid assigns
// the first maximal-size id to exactly the component Components() ranks
// first, so the giant choice matches the old list-based code.
func (fs *failState) recomputeComponents() {
	n := fs.cur.N()
	if fs.compBFS == nil {
		fs.compBFS = metrics.NewBFSScratch(n)
	}
	if len(fs.compID) < n {
		fs.compID = append(fs.compID, make([]int32, n-len(fs.compID))...)
	}
	fs.compSizes = metrics.ComponentsHybrid(fs.cur, fs.compBFS, fs.compID[:n], fs.compSizes[:0])
	var pairs float64
	giant := int32(0)
	for id, sz := range fs.compSizes {
		pairs += float64(sz) * float64(sz-1)
		if sz > fs.compSizes[giant] {
			giant = int32(id)
		}
	}
	fs.curDisc = 1 - pairs/(float64(n)*float64(n-1))
	for i := range fs.compMark {
		fs.compMark[i] = false
	}
	for v, id := range fs.compID[:n] {
		if id == giant {
			fs.compMark[v] = true
		}
	}
	var giantCap float64
	for i, e := range fs.curEdges {
		if fs.compMark[e.U] {
			giantCap += fs.ctx.capEdge[fs.curToBase[i]]
		}
	}
	fs.curGiant = 0
	if fs.capTotal > 0 {
		fs.curGiant = giantCap / fs.capTotal
	}
}

// setEdgePresence reconciles one base edge's mirror presence with the
// current down state, one multiplicity unit per base weight.
func (fs *failState) setEdgePresence(id int32) {
	e := fs.ctx.edges[id]
	present := !fs.linkDown[id] && !fs.nodeDown[e.U] && !fs.nodeDown[e.V]
	if present == !fs.edgeAbsent[id] {
		return
	}
	fs.edgeAbsent[id] = !present
	for k := 0; k < e.W; k++ {
		if present {
			fs.mirror.MustAddEdge(e.U, e.V)
		} else if err := fs.mirror.RemoveEdge(e.U, e.V); err != nil {
			panic("traffic: failure mirror out of sync: " + err.Error())
		}
	}
}

// beginEpoch applies the epoch's compiled ops to the mirror, refreezes
// it, advances the private routing state through the removal delta, and
// folds the epoch into the survivability accumulators. The simulation
// calls it exactly once per epoch, before reroutes, retries and
// arrivals; fs.flipped tells it whether any topology state moved.
func (fs *failState) beginEpoch(epoch int) error {
	fs.flipped = false
	if ops := fs.tl.ops[epoch]; len(ops) > 0 {
		arcEdge := fs.ctx.s.ArcEdgeIDs()
		for _, op := range ops {
			if op.node >= 0 {
				u := int(op.node)
				if fs.nodeDown[u] == !op.up {
					continue
				}
				fs.nodeDown[u] = !op.up
				if op.up {
					fs.nodesDown--
				} else {
					fs.nodesDown++
				}
				lo, hi := fs.ctx.s.ArcRange(u)
				for a := lo; a < hi; a++ {
					fs.setEdgePresence(arcEdge[a])
				}
				continue
			}
			id := fs.baseID[pathKey(int(op.u), int(op.v))]
			if fs.linkDown[id] == !op.up {
				continue
			}
			fs.linkDown[id] = !op.up
			if op.up {
				fs.linksDown--
			} else {
				fs.linksDown++
			}
			fs.setEdgePresence(id)
		}
		next, delta, err := fs.mirror.Refreeze(fs.cur)
		if err != nil {
			return err
		}
		fs.frt.Refresh(next, delta, fs.ctx.workers)
		fs.cur = next
		fs.rebuildCurToBase()
		fs.recomputeComponents()
		fs.flipped = true
	}
	fs.discSum += fs.curDisc
	fs.giantSum += fs.curGiant
	if fs.curGiant < fs.giantMin {
		fs.giantMin = fs.curGiant
	}
	fs.epochsSeen++
	return nil
}

// pathBroken reports whether any of the path's base edges is down.
func (fs *failState) pathBroken(path []int32) bool {
	for _, e := range path {
		if fs.edgeAbsent[e] {
			return true
		}
	}
	return false
}

// toBase translates a path of mirror-snapshot edge ids into base ids
// appended to the run's path arena. Always a copy: the input may alias
// the private routing state's memo, which the next refreeze remaps in
// place.
func (fs *failState) toBase(path []int32) []int32 {
	sc := fs.ctx.cfg.scratch
	off := len(sc.runPaths)
	for _, e := range path {
		sc.runPaths = append(sc.runPaths, fs.curToBase[e])
	}
	return sc.runPaths[off:len(sc.runPaths):len(sc.runPaths)]
}

// resolve routes (src, dst) over the surviving topology, returning the
// base-id path, or ok=false when no path survives.
func (fs *failState) resolve(src, dst int) ([]int32, bool) {
	if fs.nodeDown[src] || fs.nodeDown[dst] {
		return nil, false
	}
	rt := fs.frt
	path, ok, unreachable := rt.cachedPath(src, dst)
	if !ok {
		p, reachable := rt.Tree(src).appendPath(rt.rsPath[:0], dst)
		rt.rsPath = p
		rt.storePath(src, dst, p, reachable)
		path, unreachable = p, !reachable
	}
	if unreachable {
		return nil, false
	}
	return fs.toBase(path), true
}

// kill records one kill event and parks the flow for re-admission when
// retry budget and horizon allow.
func (fs *failState) kill(epoch int, id, src, dst int32, remaining, arrived float64, retries int32) {
	fs.killed++
	fs.requeue(epoch, killedFlow{id: id, src: src, dst: dst,
		remaining: remaining, arrived: arrived, retries: retries})
}

// requeue schedules a killed flow's next re-admission attempt, dropping
// it when the retry budget is spent or the horizon ends first.
func (fs *failState) requeue(epoch int, rf killedFlow) {
	if rf.retries >= int32(fs.spec.MaxRetries) {
		return
	}
	if at := epoch + fs.spec.RetryAfter; at < fs.ctx.spec.Epochs {
		rf.at = int32(at)
		fs.retryQ = append(fs.retryQ, rf)
	}
}

// takeRetries pops the flows due for a re-admission attempt at the
// given epoch, in kill order. The queue is at-sorted by construction:
// every entry is enqueued RetryAfter epochs past a monotone epoch
// counter.
func (fs *failState) takeRetries(epoch int) []killedFlow {
	k := 0
	for k < len(fs.retryQ) && fs.retryQ[k].at <= int32(epoch) {
		k++
	}
	if k == 0 {
		return nil
	}
	due := append([]killedFlow(nil), fs.retryQ[:k]...)
	fs.retryQ = fs.retryQ[:copy(fs.retryQ, fs.retryQ[k:])]
	return due
}

// noteFCT folds one completion into the pre-/post-failure FCT split by
// arrival instant.
func (fs *failState) noteFCT(arrived, fct float64) {
	if arrived >= fs.firstFailT {
		fs.fctPostSum += fct
		fs.fctPostN++
	} else {
		fs.fctPreSum += fct
		fs.fctPreN++
	}
}

// report finalizes the survivability aggregates.
func (fs *failState) report() *SurvivabilityReport {
	r := &SurvivabilityReport{
		LinksFailed: fs.tl.linksFailed, NodesFailed: fs.tl.nodesFailed,
		Killed: fs.killed, Rerouted: fs.rerouted, Retried: fs.retried,
		MinGiantCapacity: fs.giantMin,
	}
	if fs.epochsSeen > 0 {
		r.DisconnectedOD = fs.discSum / float64(fs.epochsSeen)
		r.MeanGiantCapacity = fs.giantSum / float64(fs.epochsSeen)
	} else {
		r.MeanGiantCapacity = fs.curGiant
	}
	if fs.fctPreN > 0 && fs.fctPostN > 0 {
		r.FCTInflation = (fs.fctPostSum / float64(fs.fctPostN)) / (fs.fctPreSum / float64(fs.fctPreN))
	}
	return r
}
