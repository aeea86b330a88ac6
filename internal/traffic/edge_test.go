package traffic

import (
	"math"
	"testing"

	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// The simulator edge cases: zero-capacity links, origin-destination
// pairs that straddle disconnected components, and flows that arrive
// and depart inside a single epoch interval.

// TestZeroCapacityLink pins the dead-link contract: flows routed across
// a zero-capacity link hold rate zero forever (they never complete and
// never progress), the link reports utilization zero instead of NaN,
// and flows avoiding the dead link are unaffected.
func TestZeroCapacityLink(t *testing.T) {
	// A 4-path: 0-1-2-3. Kill the middle link; 0↔1 and 2↔3 traffic
	// still flows, anything crossing 1-2 is stuck.
	g := pathGraph(4)
	s := g.Freeze()
	caps := make([]float64, s.M())
	dead := -1
	for i, e := range s.EdgeList() {
		caps[i] = 1
		if (e.U == 1 && e.V == 2) || (e.U == 2 && e.V == 1) {
			caps[i] = 0
			dead = i
		}
	}
	if dead < 0 {
		t.Fatal("middle link not found")
	}
	t.Run(EngineEpoch, func(t *testing.T) {
		spec := WorkloadSpec{LoadFactor: 0.5, Epochs: 15}
		rep := runCertified(t, s, UniformMasses(4), spec, 3, 1, WithLinkCapacities(caps))
		if rep.Arrived == 0 {
			t.Fatal("no arrivals")
		}
		crossing, completed := 0, 0
		for _, f := range rep.Flows {
			cross := (f.Src <= 1) != (f.Dst <= 1)
			if cross {
				crossing++
				if f.Done {
					t.Fatalf("flow %d→%d crossed the dead link and completed", f.Src, f.Dst)
				}
			}
			if f.Done {
				completed++
			}
		}
		if crossing == 0 {
			t.Fatal("workload never crossed the dead link; weak test")
		}
		if completed == 0 {
			t.Fatal("no same-side flow completed despite live links")
		}
		if crossing != rep.ResidualFlows {
			t.Fatalf("%d crossing flows but %d residual", crossing, rep.ResidualFlows)
		}
		// NaN must not leak out of the 0/0 utilization of the dead link.
		for _, v := range rep.Scalars() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite scalar in %v", rep.Scalars())
			}
		}
		for _, e := range rep.Epochs {
			if math.IsNaN(e.MeanUtil) || math.IsNaN(e.MaxUtil) {
				t.Fatalf("epoch %d utilization is NaN", e.Epoch)
			}
		}
		if rep.Links.MaxUtilization > 1+1e-9 {
			t.Fatalf("max utilization %v with a dead link", rep.Links.MaxUtilization)
		}
	})
}

// TestZeroCapacityValidation pins the capacity-override error paths.
func TestZeroCapacityValidation(t *testing.T) {
	s := pathGraph(3).Freeze()
	u := UniformMasses(3)
	spec := WorkloadSpec{LoadFactor: 1, Epochs: 2}
	if _, err := Simulate(s, u, spec, rng.New(1), 1, WithLinkCapacities([]float64{1})); err == nil {
		t.Fatal("capacity override of the wrong size should fail")
	}
	if _, err := Simulate(s, u, spec, rng.New(1), 1, WithLinkCapacities([]float64{1, -1})); err == nil {
		t.Fatal("negative capacity should fail")
	}
	if _, err := Simulate(s, u, spec, rng.New(1), 1, WithLinkCapacities([]float64{math.NaN(), 1})); err == nil {
		t.Fatal("NaN capacity should fail")
	}
	if _, err := Simulate(s, u, spec, rng.New(1), 1, WithLinkCapacities([]float64{0, 0})); err == nil {
		t.Fatal("all-dead network should fail (no capacity to offer load against)")
	}
}

// TestDisconnectedODPairs pins cross-component behavior: flows whose
// destination lies in another component are counted undelivered,
// never admitted, and never distort the rates of deliverable traffic.
func TestDisconnectedODPairs(t *testing.T) {
	g := graph.New(8)
	// Component A: dense square 0-1-2-3; component B: path 4-5-6-7.
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(3, 0)
	g.MustAddEdge(4, 5)
	g.MustAddEdge(5, 6)
	g.MustAddEdge(6, 7)
	s := g.Freeze()
	spec := WorkloadSpec{LoadFactor: 0.8, Epochs: 12}
	rep := runCertified(t, s, UniformMasses(8), spec, 11, 2)
	if rep.Undelivered == 0 {
		t.Fatal("cross-component flows must count undelivered")
	}
	for i, f := range rep.Flows {
		if (f.Src <= 3) != (f.Dst <= 3) {
			t.Fatalf("cross-component flow %d (%d→%d) was admitted", i, f.Src, f.Dst)
		}
	}
}

// TestFlowWithinOneInterval pins the sub-epoch lifecycle: a flow small
// enough to finish inside its arrival epoch completes in that epoch
// with a completion instant strictly inside the interval.
func TestFlowWithinOneInterval(t *testing.T) {
	// Two nodes, one link: every flow gets the whole link when alone.
	g := graph.New(2)
	g.MustAddEdge(0, 1)
	s := g.Freeze()
	t.Run(EngineEpoch, func(t *testing.T) {
		// Tiny deterministic-ish sizes: exp with mean far below
		// capacity·dt, light load so flows rarely overlap.
		spec := WorkloadSpec{LoadFactor: 0.05, Epochs: 10,
			Sizes: "exp", MeanSize: 0.01}
		rep, err := Simulate(s, UniformMasses(2), spec, rng.New(5), 1, WithFlowTrace())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Arrived == 0 {
			t.Skip("no arrivals drawn at this seed")
		}
		intra := 0
		for i, f := range rep.Flows {
			if !f.Done {
				continue
			}
			fct := f.Finished - f.Arrived
			if fct <= 0 {
				t.Fatalf("flow %d has non-positive FCT %v", i, fct)
			}
			if fct < 1 { // inside one epoch interval (dt = 1)
				intra++
				epoch := int(f.Arrived)
				row := rep.Epochs[epoch]
				if row.Completed == 0 {
					t.Fatalf("flow %d finished inside epoch %d but the row records no completion", i, epoch)
				}
			}
		}
		if intra == 0 {
			t.Fatal("no flow completed inside one interval; weak test")
		}
		// The run is light enough that every admitted flow finishes.
		if rep.Completed != rep.Arrived {
			t.Fatalf("completed %d of %d at trivial load", rep.Completed, rep.Arrived)
		}
	})
}

// TestIntraEpochAgreement certifies the intra-interval scenario, the
// sharpest sub-epoch timing case: every flow's completion instant must
// agree with the volume its rate drains inside its last epoch.
func TestIntraEpochAgreement(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1)
	s := g.Freeze()
	spec := WorkloadSpec{LoadFactor: 0.05, Epochs: 10, Sizes: "exp", MeanSize: 0.01}
	runCertified(t, s, UniformMasses(2), spec, 5, 2)
}
