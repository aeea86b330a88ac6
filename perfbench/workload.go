package main

import (
	"bytes"
	"flag"
	"fmt"
	"strings"
	"time"

	"netmodel/internal/cliutil"
	"netmodel/internal/compare"
	"netmodel/internal/core"
	"netmodel/internal/engine"
	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/graphio"
	"netmodel/internal/metrics"
	"netmodel/internal/rng"
	"netmodel/internal/stats"
	"netmodel/internal/sweep"
	"netmodel/internal/traffic"
)

// workload is one benchmark input run the way a CLI runs it.
//
//   - setup parses the workload's spec and plans the run; it is what
//     setup_s times.
//   - prepare does untimed work the output checks need.
//   - run executes the CLI-equivalent pipeline and returns the bytes the
//     CLI would write. With a non-nil tracer it instead calls each
//     layer's public functions itself, inside spans, and must produce
//     the same bytes.
//   - probe runs untimed reference measurements after a traced run.
//   - check verifies a run's outputs.
type workload interface {
	setup() error
	prepare() error
	run(tr *tracer) (*result, error)
	probe(r *result) time.Duration
	check(r *result) error
}

// result is one run's output plus what the checks and the per-layer
// metrics read from it.
type result struct {
	out     []byte         // what the CLI writes
	summary *sweep.Summary // grid workloads
	maps    [][]byte       // trajectory: each model's written edge list
	rows    []int          // trajectory: rows in each model's table

	// Filled by traced runs only.
	snapshotBytes  int64             // Snapshot.MemBytes of every final snapshot
	routeSnaps     []*graph.Snapshot // snapshots the workload stage routed over
	treeBudgetFrac float64           // RoutingOf(eng).TreeBudget() / n, traffic cells
}

// sizes scales the workloads; the benchmark runs fullSizes and the
// smoke tests a tiny copy.
type sizes struct {
	routeN, allocN, allocEpochs int
	sweepN, sweepSources        int
	trajN, trajEvery, trajPivot int
}

var fullSizes = sizes{
	routeN: 3000, allocN: 1000, allocEpochs: 200,
	sweepN: 100000, sweepSources: 200,
	trajN: 100000, trajEvery: 1000, trajPivot: 64,
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"load-route", "load-alloc", "sweep", "trajectory"}

// newWorkload builds the named workload from the seed.
func newWorkload(name string, seed uint64, sz sizes) (workload, error) {
	switch name {
	case "load-route":
		// topoload defaults at n=3000: BA, load 0.5, 20 epochs, epoch
		// engine, 50 path sources, pool width GOMAXPROCS.
		return &gridWorkload{spec: fmt.Sprintf(`{"models": ["ba"], "sizes": [%d], "seeds": [%d],
			"target": "as", "path_sources": 50, "cell_workers": 1,
			"workload": {"spec": {"engine": "epoch", "arrivals": "poisson", "sizes": "pareto", "epochs": 20},
			"load_factors": [0.5]}}`, sz.routeN, seed), epochs: 20}, nil
	case "load-alloc":
		return &gridWorkload{spec: fmt.Sprintf(`{"models": ["ba"], "sizes": [%d], "seeds": [%d],
			"target": "as", "path_sources": 50, "cell_workers": 1,
			"workload": {"spec": {"engine": "epoch", "arrivals": "poisson", "sizes": "pareto", "epochs": %d},
			"load_factors": [0.3]}}`, sz.allocN, seed, sz.allocEpochs), epochs: sz.allocEpochs}, nil
	case "sweep":
		// toposweep -models ba,glp,pfp -sizes N -seeds S -workers 2.
		return &gridWorkload{spec: fmt.Sprintf(`{"models": ["ba", "glp", "pfp"], "sizes": [%d],
			"seeds": [%d], "target": "as", "path_sources": %d, "cell_workers": 1}`,
			sz.sweepN, seed, sz.sweepSources), workers: 2}, nil
	case "trajectory":
		// topogen -model M -n N -seed S -measure-every K -paths -path-sources P,
		// for glp and then ba.
		w := &trajWorkload{}
		for _, model := range []string{"glp", "ba"} {
			w.args = append(w.args, []string{"-model", model, "-n", fmt.Sprint(sz.trajN),
				"-seed", fmt.Sprint(seed), "-measure-every", fmt.Sprint(sz.trajEvery),
				"-paths", "-path-sources", fmt.Sprint(sz.trajPivot)})
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// gridWorkload is a toposweep -grid / topoload run: a JSON grid,
// sweep.RunWith, then the graphio JSON writer.
type gridWorkload struct {
	spec    string // the grid in toposweep's -grid JSON form
	workers int    // cell pool width (-workers); 0 = GOMAXPROCS
	epochs  int    // > 0: the grid has a workload stage of this many epochs

	grid  sweep.Grid
	cells []core.Cell
}

func (w *gridWorkload) setup() error {
	g, err := sweep.LoadGrid(strings.NewReader(w.spec))
	if err != nil {
		return err
	}
	cells, err := g.Cells()
	if err != nil {
		return err
	}
	if g.MeasureEvery > 0 {
		return fmt.Errorf("grid workloads do not decompose trajectory cells")
	}
	w.grid, w.cells = g, cells
	return nil
}

func (w *gridWorkload) prepare() error { return nil }

func (w *gridWorkload) run(tr *tracer) (*result, error) {
	if tr != nil {
		return w.runTraced(tr)
	}
	s, err := sweep.RunWith(w.grid, sweep.Options{Workers: w.workers, Cache: core.NewArtifactCache(0)})
	if err != nil {
		return nil, err
	}
	out, err := w.write(s, nil)
	if err != nil {
		return nil, err
	}
	return &result{out: out, summary: s}, nil
}

func (w *gridWorkload) write(s *sweep.Summary, tr *tracer) ([]byte, error) {
	var buf bytes.Buffer
	id := tr.begin("graphio.write")
	var err error
	if w.epochs > 0 {
		err = graphio.WriteWorkloadJSON(&buf, s)
	} else {
		err = graphio.WriteSweepJSON(&buf, s)
	}
	tr.end(id)
	return buf.Bytes(), err
}

// runTraced runs the planned cells one after another through the same
// layer calls core.RunCellsWith makes without a cache, then folds them
// the way sweep.RunWith does. Cells run sequentially so that spans never
// overlap and per-span allocation counts are exact.
func (w *gridWorkload) runTraced(tr *tracer) (*result, error) {
	r := &result{}
	cells := make([]sweep.CellResult, len(w.cells))
	for i, c := range w.cells {
		cr, err := runCellTraced(tr, c, r)
		if err != nil {
			return nil, fmt.Errorf("cell %d (%s, n=%d, seed=%d): %w", i, c.Model, c.N, c.Seed, err)
		}
		cells[i] = cr
	}
	s := foldSummary(w.grid, w.cells, cells)
	out, err := w.write(s, tr)
	if err != nil {
		return nil, err
	}
	r.out, r.summary = out, s
	return r, nil
}

// Stage stream indexes of a cell, in core's order (generate, measure,
// compare, workload).
const (
	streamGenerate = iota
	streamMeasure
	streamCompare
	streamWorkload
)

func runCellTraced(tr *tracer, c core.Cell, r *result) (sweep.CellResult, error) {
	root := rng.New(c.Seed)
	id := tr.begin("gen.generate")
	g, err := core.BuildModel(c.Model, c.N, c.Params)
	var top *gen.Topology
	if err == nil {
		top, err = gen.GenerateWith(g, root.Split(streamGenerate), c.Workers)
	}
	tr.end(id)
	if err != nil {
		return sweep.CellResult{}, err
	}

	id = tr.begin("graph.freeze")
	snap, err := top.G.FreezeChecked()
	tr.end(id)
	if err != nil {
		return sweep.CellResult{}, err
	}
	r.snapshotBytes += snap.MemBytes()

	id = tr.begin("engine.measure")
	eng := engine.New(snap, engine.WithWorkers(c.Workers))
	ms, err := eng.Measure(root.Split(streamMeasure), c.PathSources)
	tr.end(id)
	if err != nil {
		return sweep.CellResult{}, err
	}

	id = tr.begin("compare.score")
	rep, err := compare.AgainstFrozen(eng, c.Target,
		compare.Options{PathSources: c.PathSources, Rand: root.Split(streamCompare)})
	tr.end(id)
	if err != nil {
		return sweep.CellResult{}, err
	}

	cr := sweep.CellResult{Model: c.Model, N: c.N, Seed: c.Seed, Score: rep.Score, Report: rep, Snapshot: ms}
	if c.Workload == nil {
		return cr, nil
	}
	masses := make([]float64, snap.N())
	for u := range masses {
		masses[u] = float64(snap.Degree(u))
	}
	id = tr.begin("traffic.simulate")
	wl, err := traffic.SimulateWith(eng, masses, *c.Workload, root.Split(streamWorkload))
	tr.end(id)
	if err != nil {
		return sweep.CellResult{}, err
	}
	r.routeSnaps = append(r.routeSnaps, snap)
	r.treeBudgetFrac = float64(traffic.RoutingOf(eng).TreeBudget()) / float64(snap.N())
	cr.Workload = wl
	cr.LoadFactor, cr.TailIndex = wl.Spec.LoadFactor, wl.Spec.TailIndex
	if wl.Spec.Failures != nil {
		cr.Failure = wl.Spec.Failures.Label()
	}
	return cr, nil
}

// foldSummary folds per-cell results into a sweep.Summary exactly as
// sweep.RunWith does: cross-seed moments per (size, model, workload
// combo) group in grid order, and a ranking per size tier by each
// model's first-combo mean score.
func foldSummary(g sweep.Grid, cells []core.Cell, results []sweep.CellResult) *sweep.Summary {
	s := &sweep.Summary{Target: cells[0].Target.Name, Grid: g, Cells: results}
	nm, ns := len(g.Models), len(g.Seeds)
	nw := len(cells) / (len(g.Sizes) * nm * ns)
	wlNames := traffic.WorkloadMetricNames()
	for si, n := range g.Sizes {
		scores := make(map[string]float64, nm)
		for mi, model := range g.Models {
			for wi := 0; wi < nw; wi++ {
				base := ((si*nm+mi)*nw + wi) * ns
				group := results[base : base+ns]
				agg := sweep.Aggregate{Model: model, N: n, Seeds: ns,
					LoadFactor: group[0].LoadFactor, TailIndex: group[0].TailIndex,
					Failure: group[0].Failure}
				var score stats.Moments
				rows := make([]stats.Moments, len(group[0].Report.Rows))
				var wl []stats.Moments
				if group[0].Workload != nil {
					wl = make([]stats.Moments, len(wlNames))
				}
				for _, c := range group {
					score.Add(c.Score)
					for ri, row := range c.Report.Rows {
						rows[ri].Add(row.Measured)
					}
					if wl != nil {
						for ri, v := range c.Workload.Scalars() {
							wl[ri].Add(v)
						}
					}
				}
				agg.Score = moments("score", &score)
				for ri, row := range group[0].Report.Rows {
					agg.Metrics = append(agg.Metrics, moments(row.Name, &rows[ri]))
				}
				for ri := range wl {
					agg.Metrics = append(agg.Metrics, moments(wlNames[ri], &wl[ri]))
				}
				s.Aggregates = append(s.Aggregates, agg)
				if wi == 0 {
					scores[model] = agg.Score.Mean
				}
			}
		}
		s.Rankings = append(s.Rankings, sweep.Ranking{N: n, Models: compare.RankScores(scores)})
	}
	return s
}

func moments(name string, m *stats.Moments) sweep.MetricAggregate {
	return sweep.MetricAggregate{Name: name, Mean: m.Mean(), Std: m.Std(), Min: m.Min(), Max: m.Max()}
}

// probe builds every origin's routing tree exactly once on fresh
// routing state, in ascending batches no larger than the tree budget:
// the cost of routing without a single wasted rebuild.
func (w *gridWorkload) probe(r *result) time.Duration {
	var total time.Duration
	for _, snap := range r.routeSnaps {
		start := time.Now()
		rt := traffic.NewRouting(snap)
		budget := rt.TreeBudget()
		batch := make([]int, 0, budget)
		for lo := 0; lo < snap.N(); lo += budget {
			batch = batch[:0]
			for src := lo; src < lo+budget && src < snap.N(); src++ {
				batch = append(batch, src)
			}
			rt.Ensure(batch, 1)
		}
		total += time.Since(start)
	}
	return total
}

func (w *gridWorkload) check(r *result) error {
	if w.epochs > 0 {
		return checkLoad(r.summary, w.cells, w.epochs)
	}
	return checkCells(r.summary, w.cells)
}

// trajWorkload is a sequence of topogen trajectory runs: each argument
// list is parsed like topogen's flags, then generated with a
// core.TrajectoryObserver and written with core.WriteTrajectory and
// graphio.WriteEdgeList.
type trajWorkload struct {
	args  [][]string
	plans []trajPlan
	ref   [][]byte // plain gen.GenerateWith maps at the same seeds
}

type trajPlan struct {
	model                core.Model
	n, every, pathPivots int
	seed                 uint64
}

func parseTopogen(args []string) (trajPlan, error) {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	model := fs.String("model", "glp", "model family to generate")
	n := fs.Int("n", 11000, "target number of nodes")
	seed := fs.Uint64("seed", 1, "random seed")
	measureEvery := fs.Int("measure-every", 0, "trajectory stride")
	paths := fs.Bool("paths", false, "add incremental path metrics")
	pathSources := fs.Int("path-sources", 0, "pivot sample size for -paths (0 = exact)")
	if err := fs.Parse(args); err != nil {
		return trajPlan{}, err
	}
	if err := cliutil.FirstError(
		cliutil.PositiveInt("-n", *n),
		cliutil.PositiveInt("-measure-every", *measureEvery),
		cliutil.NonNegativeInt("-path-sources", *pathSources),
	); err != nil {
		return trajPlan{}, err
	}
	if !*paths {
		return trajPlan{}, fmt.Errorf("trajectory workloads run with -paths")
	}
	m, err := core.Lookup(*model)
	if err != nil {
		return trajPlan{}, err
	}
	return trajPlan{model: m, n: *n, every: *measureEvery, pathPivots: *pathSources, seed: *seed}, nil
}

func (w *trajWorkload) setup() error {
	plans := make([]trajPlan, 0, len(w.args))
	for _, a := range w.args {
		p, err := parseTopogen(a)
		if err != nil {
			return err
		}
		plans = append(plans, p)
	}
	w.plans = plans
	return nil
}

// prepare writes each model's map from a plain run at the same seed;
// observation must not perturb generation.
func (w *trajWorkload) prepare() error {
	w.ref = nil
	for _, p := range w.plans {
		top, err := gen.GenerateWith(p.model.Build(p.n), rng.New(p.seed), 1)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := graphio.WriteEdgeList(&buf, top.G); err != nil {
			return err
		}
		w.ref = append(w.ref, buf.Bytes())
	}
	return nil
}

func (w *trajWorkload) run(tr *tracer) (*result, error) {
	r := &result{}
	var out bytes.Buffer
	for _, p := range w.plans {
		var top *gen.Topology
		var points []core.TrajectoryPoint
		var err error
		if tr == nil {
			obs := core.NewTrajectoryObserver(1)
			obs.EnablePathMetrics(p.pathPivots, p.seed)
			top, err = gen.GenerateTrajectoryWith(p.model.Build(p.n), rng.New(p.seed), 1,
				gen.Trajectory{Every: p.every, Observe: obs.Observe})
			points = obs.Points()
		} else {
			obs := &tracedObserver{tr: tr, pathPivots: p.pathPivots, seed: p.seed}
			id := tr.begin("gen.generate")
			top, err = gen.GenerateTrajectoryWith(p.model.Build(p.n), rng.New(p.seed), 1,
				gen.Trajectory{Every: p.every, Observe: obs.observe})
			tr.end(id)
			points = obs.points
			if obs.prev != nil {
				r.snapshotBytes += obs.prev.MemBytes()
			}
		}
		if err != nil {
			return nil, err
		}
		// topogen writes the table to stderr and the map to stdout.
		var m bytes.Buffer
		id := tr.begin("graphio.write")
		err = core.WriteTrajectory(&out, points)
		if err == nil {
			err = graphio.WriteEdgeList(&m, top.G)
		}
		tr.end(id)
		if err != nil {
			return nil, err
		}
		out.Write(m.Bytes())
		r.maps = append(r.maps, m.Bytes())
		r.rows = append(r.rows, len(points))
	}
	r.out = out.Bytes()
	return r, nil
}

func (w *trajWorkload) probe(*result) time.Duration { return 0 }

func (w *trajWorkload) check(r *result) error {
	return checkTrajectory(r, w.plans, w.ref)
}

// tracedObserver is core.TrajectoryObserver's Observe in path-metric
// mode, with a span around each layer call.
type tracedObserver struct {
	tr         *tracer
	pathPivots int
	seed       uint64

	prev   *graph.Snapshot
	eng    *engine.Engine
	pivots []int32
	points []core.TrajectoryPoint
}

func (o *tracedObserver) observe(g *graph.Graph, _ int) error {
	var next *graph.Snapshot
	var d *graph.Delta
	var err error
	first := o.prev == nil
	if first {
		id := o.tr.begin("graph.freeze")
		next, err = g.FreezeChecked()
		o.tr.end(id)
		if err != nil {
			return err
		}
		id = o.tr.begin("engine.advance")
		o.eng = engine.New(next, engine.WithWorkers(1))
		o.tr.end(id)
	} else {
		id := o.tr.begin("graph.refreeze")
		next, d, err = g.Refreeze(o.prev)
		o.tr.end(id)
		if err != nil {
			return err
		}
		id = o.tr.begin("engine.advance")
		err = o.eng.Advance(next, d)
		o.tr.end(id)
		if err != nil {
			return err
		}
	}
	o.prev = next
	if first && o.pathPivots > 0 {
		o.pivots = metrics.PivotSources(rng.New(o.seed), next.N(), o.pathPivots)
	}
	id := o.tr.begin("engine.growth_paths")
	st := o.eng.MeasureGrowthPaths(o.pivots)
	o.tr.end(id)
	o.points = append(o.points, core.TrajectoryPoint{N: next.N(), M: next.M(), Refreshed: d != nil, Stats: st})
	return nil
}
