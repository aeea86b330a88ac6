package main

import (
	"bytes"
	"fmt"
	"math"

	"netmodel/internal/core"
	"netmodel/internal/sweep"
)

// checkCells verifies the summary holds one cell per planned grid
// point, in grid order, with a finite score.
func checkCells(s *sweep.Summary, cells []core.Cell) error {
	if s == nil || len(s.Cells) != len(cells) {
		return fmt.Errorf("summary has the wrong number of cells")
	}
	for i, c := range s.Cells {
		want := cells[i]
		if c.Model != want.Model || c.N != want.N || c.Seed != want.Seed {
			return fmt.Errorf("cell %d is (%s, %d, %d), want (%s, %d, %d)",
				i, c.Model, c.N, c.Seed, want.Model, want.N, want.Seed)
		}
		if c.Report == nil || !finite(c.Score) || !finite(c.Report.Score) {
			return fmt.Errorf("cell %d (%s): score is not finite", i, c.Model)
		}
	}
	return nil
}

// checkLoad checks every workload report: flows are conserved, no link
// runs above capacity, every scalar is finite, and the simulation ran
// the planned number of epochs.
func checkLoad(s *sweep.Summary, cells []core.Cell, epochs int) error {
	if err := checkCells(s, cells); err != nil {
		return err
	}
	for i, c := range s.Cells {
		rep := c.Workload
		if rep == nil {
			return fmt.Errorf("cell %d has no workload report", i)
		}
		if got := rep.Completed + rep.Undelivered + rep.ResidualFlows; got != rep.Arrived {
			return fmt.Errorf("cell %d: %d flows arrived but %d completed + %d undelivered + %d residual",
				i, rep.Arrived, rep.Completed, rep.Undelivered, rep.ResidualFlows)
		}
		if len(rep.Epochs) != epochs || rep.Spec.Epochs != epochs {
			return fmt.Errorf("cell %d: %d epoch rows, spec %d, want %d", i, len(rep.Epochs), rep.Spec.Epochs, epochs)
		}
		if rep.MaxUtil > 1+1e-9 {
			return fmt.Errorf("cell %d: max utilization %v exceeds capacity", i, rep.MaxUtil)
		}
		for _, e := range rep.Epochs {
			if e.MaxUtil > 1+1e-9 || !finite(e.MaxUtil) || !finite(e.MeanUtil) || !finite(e.OverloadFrac) {
				return fmt.Errorf("cell %d epoch %d: utilization %v / %v out of range", i, e.Epoch, e.MeanUtil, e.MaxUtil)
			}
		}
		for j, v := range append(rep.Scalars(), rep.ResidualSize) {
			if !finite(v) {
				return fmt.Errorf("cell %d: workload scalar %d is %v", i, j, v)
			}
		}
	}
	return nil
}

// checkTrajectory checks that each model's table has a row per epoch
// and its written map equals the plain run's map at the same seed.
func checkTrajectory(r *result, plans []trajPlan, ref [][]byte) error {
	if len(r.maps) != len(plans) || len(r.rows) != len(plans) || len(ref) != len(plans) {
		return fmt.Errorf("trajectory run wrote %d maps for %d models", len(r.maps), len(plans))
	}
	for i, p := range plans {
		if r.rows[i] < p.n/p.every {
			return fmt.Errorf("%s: %d trajectory rows, want at least %d", p.model.Name, r.rows[i], p.n/p.every)
		}
		if !bytes.Equal(r.maps[i], ref[i]) {
			return fmt.Errorf("%s: map differs from the plain run at seed %d", p.model.Name, p.seed)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
