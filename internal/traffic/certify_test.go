package traffic

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/rng"
)

// The simulation certificate checks a whole run from first principles
// rather than against a second simulator. A test-only epoch hook sees
// every epoch's active flows right after their rates are solved, and
// the certifier asserts, without reusing the simulator's own sums:
//
//   - each flow follows a walk from its origin to its destination over
//     live links — a shortest one when no fault injection is active;
//   - the epoch's rates pass maxMinCertificate over the active paths and
//     the link capacities;
//   - each flow's remaining volume equals its size minus what its past
//     rates delivered, and a completed flow finishes inside the epoch it
//     was last rated in, at the instant its last rate drains it;
//   - the epoch rows' counts and utilizations match the rates;
//   - drawn = arrived + undelivered and arrived = completed + killed +
//     residual, with the residual volume and mean FCT recomputed from
//     the per-flow history.

// relClose reports |a-b| <= tol·max(1,|a|,|b|).
func relClose(a, b, tol float64) bool {
	scale := 1.0
	if m := math.Abs(a); m > scale {
		scale = m
	}
	if m := math.Abs(b); m > scale {
		scale = m
	}
	return math.Abs(a-b) <= tol*scale
}

// flowHistory is what the certifier knows of one traced flow.
type flowHistory struct {
	size      float64 // remaining volume when first seen
	delivered float64 // volume sent in epochs the flow survived
	last      int     // last epoch the flow was rated in
	rate      float64 // its rate then
	remaining float64 // its remaining volume then
}

// simCertifier accumulates a run's per-epoch observations and keeps
// the first violation it finds.
type simCertifier struct {
	err    error
	flows  map[int32]*flowHistory
	dists  map[int32][]int32 // BFS distance rows by origin
	queue  []int32
	active []int        // per epoch: flows rated
	util   [][2]float64 // per epoch: mean, max utilization from the rates
}

func newSimCertifier() *simCertifier {
	return &simCertifier{flows: map[int32]*flowHistory{}, dists: map[int32][]int32{}}
}

func (c *simCertifier) failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// epoch is the hook: it runs after the epoch's rates are solved and
// before any flow advances.
func (c *simCertifier) epoch(ctx *simContext, epoch int, active []*simFlow) {
	dt := ctx.spec.EpochLen
	paths := make([][]int32, len(active))
	rates := make([]float64, len(active))
	for i, f := range active {
		paths[i], rates[i] = f.path, f.rate
		c.checkPath(ctx, epoch, f)
		h := c.flows[f.id]
		if h == nil {
			h = &flowHistory{size: f.remaining, last: -1}
			c.flows[f.id] = h
		}
		if h.last == epoch {
			c.failf("epoch %d: flow %d is active twice", epoch, f.id)
		}
		if h.last >= 0 { // it survived its last epoch: that rate ran all of it
			h.delivered += h.rate * dt
		}
		if !relClose(f.remaining, h.size-h.delivered, 1e-9) {
			c.failf("epoch %d: flow %d holds %v, but its size %v less delivered %v leaves %v", epoch,
				f.id, f.remaining, h.size, h.delivered, h.size-h.delivered)
		}
		h.last, h.rate, h.remaining = epoch, f.rate, f.remaining
	}
	if err := maxMinCertificate(paths, ctx.capEdge, rates); err != nil {
		c.failf("epoch %d: %v", epoch, err)
	}
	load := make([]float64, len(ctx.capEdge))
	for i, p := range paths {
		for _, e := range p {
			load[e] += rates[i]
		}
	}
	var sum, top float64
	for e, l := range load {
		u := utilOf(math.Min(l, ctx.capEdge[e]), ctx.capEdge[e])
		sum += u
		top = math.Max(top, u)
	}
	c.active = append(c.active, len(active))
	c.util = append(c.util, [2]float64{sum / float64(len(load)), top})
}

// checkPath asserts f's path is a walk from its origin to its
// destination that avoids failed links, and without fault injection a
// shortest one.
func (c *simCertifier) checkPath(ctx *simContext, epoch int, f *simFlow) {
	at := f.dst // paths run from the destination back to the origin
	for _, e := range f.path {
		switch ed := ctx.edges[e]; at {
		case int32(ed.U):
			at = int32(ed.V)
		case int32(ed.V):
			at = int32(ed.U)
		default:
			c.failf("epoch %d: flow %d: path %v breaks at node %d", epoch, f.id, f.path, at)
		}
	}
	if at != f.src {
		c.failf("epoch %d: flow %d: path %v ends at %d, not %d", epoch, f.id, f.path, at, f.src)
	}
	if ctx.fail != nil {
		if ctx.fail.pathBroken(f.path) {
			c.failf("epoch %d: flow %d crosses a failed link", epoch, f.id)
		}
		return
	}
	dist := c.dists[f.src]
	if dist == nil {
		dist = make([]int32, ctx.s.N())
		if len(c.queue) < ctx.s.N() {
			c.queue = make([]int32, ctx.s.N())
		}
		metrics.BFSFrozen(ctx.s, int(f.src), dist, c.queue)
		c.dists[f.src] = dist
	}
	if int(dist[f.dst]) != len(f.path) {
		c.failf("epoch %d: flow %d: %d hops, shortest path has %d", epoch, f.id, len(f.path), dist[f.dst])
	}
}

// finish checks the report against the accumulated history.
func (c *simCertifier) finish(rep *SimReport, drawn int) {
	spec := rep.Spec
	dt := spec.EpochLen
	if rep.Arrived+rep.Undelivered != drawn {
		c.failf("%d arrived + %d undelivered != %d drawn", rep.Arrived, rep.Undelivered, drawn)
	}
	if len(rep.Flows) != rep.Arrived || len(c.flows) != rep.Arrived {
		c.failf("%d arrived, but %d traced and %d rated", rep.Arrived, len(rep.Flows), len(c.flows))
	}
	completedAt := make([]int, spec.Epochs)
	var killed, residual, reroutes, retries int
	var fctSum, residualSize float64
	for id, fr := range rep.Flows {
		h := c.flows[int32(id)]
		if h == nil {
			c.failf("flow %d was never rated", id)
			return
		}
		if h.size != fr.Size {
			c.failf("flow %d entered with %v, its size is %v", id, h.size, fr.Size)
		}
		reroutes += fr.Reroutes
		retries += fr.Retries
		switch {
		case fr.Done && fr.Killed:
			c.failf("flow %d both completed and killed", id)
		case fr.Done:
			start := float64(h.last) * dt
			if !(fr.Finished > start && fr.Finished <= start+dt*(1+1e-12)) {
				c.failf("flow %d finished at %v, outside its last epoch [%v, %v]", id, fr.Finished, start, start+dt)
			}
			if !relClose(h.rate*(fr.Finished-start), h.remaining, 1e-9) {
				c.failf("flow %d: rate %v until %v drains %v, not its remaining %v",
					id, h.rate, fr.Finished, h.rate*(fr.Finished-start), h.remaining)
			}
			completedAt[h.last]++
			fctSum += fr.Finished - fr.Arrived
		case fr.Killed:
			killed++
		default:
			if h.last != spec.Epochs-1 {
				c.failf("flow %d is residual but was last rated in epoch %d", id, h.last)
			}
			residual++
			residualSize += h.remaining - h.rate*dt
		}
	}
	completed := 0
	for _, k := range completedAt {
		completed += k
	}
	if rep.Completed != completed || rep.ResidualFlows != residual ||
		rep.Arrived != completed+killed+residual {
		c.failf("conservation: arrived %d, completed %d (report %d), killed %d, residual %d (report %d)",
			rep.Arrived, completed, rep.Completed, killed, residual, rep.ResidualFlows)
	}
	if !relClose(rep.ResidualSize, residualSize, 1e-9) {
		c.failf("residual size %v, flows leave %v", rep.ResidualSize, residualSize)
	}
	if completed > 0 && !relClose(rep.MeanFCT, fctSum/float64(completed), 1e-9) {
		c.failf("mean FCT %v, flows give %v", rep.MeanFCT, fctSum/float64(completed))
	}
	if len(rep.Epochs) != spec.Epochs || len(c.active) != spec.Epochs {
		c.failf("%d epoch rows, %d rated epochs, horizon %d", len(rep.Epochs), len(c.active), spec.Epochs)
		return
	}
	var arrived, rowKilled, rowRerouted, rowRetried int
	for e, row := range rep.Epochs {
		arrived += row.Arrived
		rowKilled += row.Killed
		rowRerouted += row.Rerouted
		rowRetried += row.Retried
		if row.Completed != completedAt[e] || row.Active != c.active[e]-completedAt[e] {
			c.failf("epoch %d row %+v: %d rated, %d completed", e, row, c.active[e], completedAt[e])
		}
		if !relClose(row.MeanUtil, c.util[e][0], 1e-9) || !relClose(row.MaxUtil, c.util[e][1], 1e-9) {
			c.failf("epoch %d utilization mean %v max %v, rates give %v, %v",
				e, row.MeanUtil, row.MaxUtil, c.util[e][0], c.util[e][1])
		}
	}
	if arrived != rep.Arrived {
		c.failf("epoch rows admit %d, report %d", arrived, rep.Arrived)
	}
	if f := rep.Failures; f != nil {
		if f.Killed != rowKilled || f.Rerouted != rowRerouted || f.Retried != rowRetried ||
			f.Rerouted != reroutes || f.Retried != retries {
			c.failf("failure counters %+v disagree with epoch rows (%d killed, %d rerouted, %d retried) or flow fates (%d reroutes, %d retries)",
				f, rowKilled, rowRerouted, rowRetried, reroutes, retries)
		}
	} else if killed+rowKilled+rowRerouted+rowRetried+reroutes+retries > 0 {
		c.failf("failure fates without a failure report")
	}
}

// runCertified simulates spec over s with a flow trace and certifies
// the whole run (see the top of this file).
func runCertified(t *testing.T, s *graph.Snapshot, masses []float64, spec WorkloadSpec, seed uint64, workers int, opts ...SimOption) *SimReport {
	t.Helper()
	c := newSimCertifier()
	hook := func(cfg *simConfig) { cfg.epochHook = c.epoch }
	rep, err := Simulate(s, masses, spec, rng.New(seed), workers,
		append(opts, WithFlowTrace(), hook)...)
	if err != nil {
		t.Fatal(err)
	}
	// The drawn arrival count, from a calendar of a fresh context.
	ctx, err := newSimContext(s, NewRouting(s), masses, spec, rng.New(seed), workers, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if c.finish(rep, len(buildCalendar(ctx).arr)); c.err != nil {
		t.Fatal(c.err)
	}
	return rep
}

// TestEventMatchesEpochEngine certifies whole simulations across
// topologies, arrival processes, size laws, load levels and seeds.
// The name predates the single simulator; the case IDs stay stable.
func TestEventMatchesEpochEngine(t *testing.T) {
	cases := []struct {
		name   string
		g      *graph.Graph
		masses []float64
		spec   WorkloadSpec
		seeds  []uint64
	}{
		{"mesh-light", meshGraph(40), UniformMasses(40),
			WorkloadSpec{LoadFactor: 0.05, Epochs: 25}, []uint64{1, 2, 3}},
		{"mesh-heavy-tail", meshGraph(60), UniformMasses(60),
			WorkloadSpec{LoadFactor: 0.8, Epochs: 15, TailIndex: 1.2}, []uint64{4, 5}},
		{"mesh-onoff-lognormal", meshGraph(50), UniformMasses(50),
			WorkloadSpec{LoadFactor: 0.6, Epochs: 20, Arrivals: "onoff", Sizes: "lognormal"}, []uint64{6, 7}},
		{"mesh-bursty-overload", meshGraph(40), UniformMasses(40),
			WorkloadSpec{LoadFactor: 1.5, Epochs: 20, Arrivals: "onoff", TailIndex: 1.3}, []uint64{21}},
		{"path-overload", pathGraph(12), UniformMasses(12),
			WorkloadSpec{LoadFactor: 3, Epochs: 12, Sizes: "exp"}, []uint64{8, 9}},
		{"two-nodes-persistent", func() *graph.Graph {
			g := graph.New(2)
			g.MustAddEdge(0, 1)
			return g
		}(), UniformMasses(2),
			WorkloadSpec{LoadFactor: 4, Epochs: 10, Sizes: "exp", MeanSize: 5}, []uint64{10}},
		{"disconnected", func() *graph.Graph {
			g := graph.New(6)
			g.MustAddEdge(0, 1)
			g.MustAddEdge(1, 2)
			g.MustAddEdge(3, 4)
			g.MustAddEdge(4, 5)
			return g
		}(), UniformMasses(6),
			WorkloadSpec{LoadFactor: 1, Epochs: 10}, []uint64{11, 12}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.g.Freeze()
			for _, seed := range tc.seeds {
				runCertified(t, s, tc.masses, tc.spec, seed, 2)
			}
		})
	}
}

// TestEventSpecEchoesEngine checks the resolved spec names the engine
// that ran, so sweep rows stay attributable, and that a spec naming the
// removed event engine fails with an error that says so.
func TestEventSpecEchoesEngine(t *testing.T) {
	s := meshGraph(20).Freeze()
	rep, err := Simulate(s, UniformMasses(20), WorkloadSpec{LoadFactor: 0.3, Epochs: 5}, rng.New(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spec.Engine != EngineEpoch {
		t.Fatalf("default engine %q, want %q", rep.Spec.Engine, EngineEpoch)
	}
	_, err = Simulate(s, UniformMasses(20), WorkloadSpec{Engine: "event", LoadFactor: 0.3, Epochs: 5}, rng.New(1), 1)
	if err == nil || !strings.Contains(err.Error(), "event engine was removed") {
		t.Fatalf("event spec: err = %v, want the removal notice", err)
	}
}

// TestCertifierRejects shows the simulation certificate is not vacuous:
// corrupting one flow's rate or path after an epoch's solve trips it.
func TestCertifierRejects(t *testing.T) {
	s := meshGraph(30).Freeze()
	spec := WorkloadSpec{LoadFactor: 0.6, Epochs: 6}
	for name, corrupt := range map[string]func(f *simFlow){
		"unfair rate":  func(f *simFlow) { f.rate *= 0.5 },
		"excess rate":  func(f *simFlow) { f.rate *= 2 },
		"broken path":  func(f *simFlow) { f.path = f.path[1:] },
		"lost volume":  func(f *simFlow) { f.remaining *= 0.5 },
		"stalled flow": func(f *simFlow) { f.rate = 0 },
	} {
		c := newSimCertifier()
		hook := func(cfg *simConfig) {
			cfg.epochHook = func(ctx *simContext, epoch int, active []*simFlow) {
				if epoch == 3 && len(active) > 0 {
					corrupt(active[len(active)/2])
				}
				c.epoch(ctx, epoch, active)
			}
		}
		if _, err := Simulate(s, UniformMasses(30), spec, rng.New(3), 1, WithFlowTrace(), hook); err != nil {
			t.Fatal(err)
		}
		if c.err == nil {
			t.Errorf("%s: certificate passed", name)
		} else {
			t.Logf("%s: %v", name, c.err)
		}
	}
}
