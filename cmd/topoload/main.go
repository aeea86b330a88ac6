// Command topoload runs flow-level traffic workloads over synthetic
// topologies: a (load factor × tail index × seed) grid of workload
// simulations on one model family, the toposweep-style front end of the
// traffic workload subsystem. Each cell generates the topology, routes
// flows arriving on gravity-weighted origin-destination pairs along
// shortest paths with max-min fair bandwidth sharing, and reports flow
// completion times, link-utilization CCDFs and overload fractions;
// cross-seed moments are folded per (load, tail) combination.
//
// Usage:
//
//	topoload -model ba -n 2000 -load 0.3,0.6,1.2 -tail 1.3,2.5 -seeds 1,2,3
//	topoload -model glp -n 5000 -arrivals onoff -sizes lognormal -format csv -o wl.csv
//	topoload -model ba -n 2000 -load 1 -epochs 50 -workers 8 -format json
//	topoload -model ba -n 100000 -load 0.7 -cell-workers 8
//
// -workers sizes the cell pool and never changes results: every cell
// draws only from streams split off its own seed and the simulation
// loop is sequential, so the same grid is byte-identical at every pool
// width. -cell-workers hands each cell an internal pool instead
// (sharded generation and parallel shortest-path tree builds) — the
// knob for few-huge-cell runs.
//
// -failures adds a failure-scenario axis next to the load and tail
// axes: each listed mode (none, random, degree, load) becomes one
// scenario built from the -fail-* sub-flags, and every cell reports
// survivability metrics — killed/rerouted/retried flows,
// disconnected-OD fraction, giant-component capacity — next to the
// usual workload scalars:
//
//	topoload -model ba -n 5000 -load 0.6 -failures none,random -fail-links 5 -mtbf 10 -mttr 3
//	topoload -model glp -n 2000 -failures degree -fail-nodes 2 -fail-at 5 -repair-at 15 -fail-retries 2
//
// Scheduled event lists are a JSON-grid feature (toposweep -grid with
// workload.failures), not a flag.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"netmodel/internal/cliutil"
	"netmodel/internal/core"
	"netmodel/internal/graphio"
	"netmodel/internal/sweep"
	"netmodel/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "topoload:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("topoload", flag.ContinueOnError)
	model := fs.String("model", "ba", "model family to load")
	n := fs.Int("n", 2000, "target number of nodes")
	seeds := fs.String("seeds", "1", "comma-separated replicate seeds")
	loads := fs.String("load", "0.5", "comma-separated load factors (offered load / total capacity)")
	tails := fs.String("tail", "", "comma-separated flow-size tail indexes (default: the distribution's)")
	arrivals := fs.String("arrivals", "poisson", "arrival process: poisson, onoff")
	sizes := fs.String("sizes", "pareto", "flow-size distribution: pareto, lognormal, exp")
	meanSize := fs.Float64("mean-size", 0, "mean flow size in capacity*time units (default 1)")
	meanOn := fs.Float64("mean-on", 0, "on-off mean on-duration (default 1)")
	meanOff := fs.Float64("mean-off", 0, "on-off mean off-duration (default 4)")
	epochs := fs.Int("epochs", 0, "simulated epochs (default 20)")
	dt := fs.Float64("dt", 0, "epoch length (default 1)")
	capacity := fs.Float64("capacity", 0, "capacity of a multiplicity-1 link (default 1)")
	target := fs.String("target", "as", "reference target: as, asplus")
	measureEvery := fs.Int("measure-every", 0, "record a growth trajectory per cell every k committed nodes")
	paths := fs.Bool("paths", false, "add incremental path metrics to trajectory rows (needs -measure-every)")
	sources := fs.Int("path-sources", 50, "BFS sources for path stats per cell (0 = exact)")
	workers := fs.Int("workers", 0, "cell pool width; 0 = GOMAXPROCS (never changes results)")
	cellWorkers := fs.Int("cell-workers", 1, "per-cell generation/simulation pool; >= 2 uses the sharded kernels")
	format := fs.String("format", "table", "output format: table, csv, json")
	out := fs.String("o", "", "output file (default stdout)")
	failures := fs.String("failures", "", "comma-separated failure scenarios to sweep: none, random, degree, load")
	failLinks := fs.Int("fail-links", 1, "links failing per scenario")
	failNodes := fs.Int("fail-nodes", 0, "nodes failing per scenario")
	mtbf := fs.Float64("mtbf", 10, "random failures: mean time between failures (epoch-length units)")
	mttr := fs.Float64("mttr", 2, "random failures: mean time to repair (0 = permanent)")
	failAt := fs.Int("fail-at", 1, "targeted failures: epoch the outage starts")
	repairAt := fs.Int("repair-at", 0, "targeted failures: epoch the outage is repaired (0 = never)")
	failRetries := fs.Int("fail-retries", 0, "retry budget for flows killed by an outage")
	failRetryAfter := fs.Int("fail-retry-after", 1, "epochs between a kill and its retry")
	cacheBudget := fs.String("cache-budget", "0", "artifact-cache byte budget (e.g. 256M, 1G; -1 = unbounded, 0 = off); reuses topology/metrics/routing artifacts across cells, never changing results")
	cacheStats := fs.Bool("cache-stats", false, "report per-stage artifact-cache hit/miss/eviction counters")
	prof := cliutil.ProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	budget, err := cliutil.ParseByteSize("-cache-budget", *cacheBudget)
	if err != nil {
		return err
	}
	loadFactors, err := cliutil.ParseFloats(*loads)
	if err != nil {
		return fmt.Errorf("-load: %w", err)
	}
	tailIndexes, err := cliutil.ParseFloats(*tails)
	if err != nil {
		return fmt.Errorf("-tail: %w", err)
	}
	seedList, err := cliutil.ParseSeeds(*seeds)
	if err != nil {
		return fmt.Errorf("-seeds: %w", err)
	}
	if err := cliutil.FirstError(
		cliutil.PositiveInt("-n", *n),
		cliutil.PositiveFloats("-load", loadFactors),
		cliutil.PositiveFloats("-tail", tailIndexes),
		cliutil.OneOf("-arrivals", *arrivals, "poisson", "onoff"),
		cliutil.OneOf("-sizes", *sizes, "pareto", "lognormal", "exp"),
		cliutil.OneOf("-format", *format, "table", "csv", "json"),
		cliutil.NonNegativeFloat("-mean-size", *meanSize),
		cliutil.NonNegativeFloat("-mean-on", *meanOn),
		cliutil.NonNegativeFloat("-mean-off", *meanOff),
		cliutil.NonNegativeInt("-epochs", *epochs),
		cliutil.NonNegativeFloat("-dt", *dt),
		cliutil.NonNegativeFloat("-capacity", *capacity),
		cliutil.NonNegativeInt("-measure-every", *measureEvery),
		cliutil.NonNegativeInt("-path-sources", *sources),
		cliutil.NonNegativeInt("-fail-links", *failLinks),
		cliutil.NonNegativeInt("-fail-nodes", *failNodes),
		cliutil.NonNegativeFloat("-mtbf", *mtbf),
		cliutil.NonNegativeFloat("-mttr", *mttr),
		cliutil.PositiveInt("-fail-at", *failAt),
		cliutil.NonNegativeInt("-repair-at", *repairAt),
		cliutil.NonNegativeInt("-fail-retries", *failRetries),
		cliutil.PositiveInt("-fail-retry-after", *failRetryAfter),
	); err != nil {
		return err
	}
	var failSpecs []traffic.FailureSpec
	for _, mode := range cliutil.SplitList(*failures) {
		if err := cliutil.OneOf("-failures", mode,
			traffic.FailNone, traffic.FailRandom, traffic.FailDegree, traffic.FailLoad); err != nil {
			return err
		}
		spec := traffic.FailureSpec{Mode: mode}
		switch mode {
		case traffic.FailRandom:
			spec.Links, spec.Nodes = *failLinks, *failNodes
			spec.MTBF, spec.MTTR = *mtbf, *mttr
		case traffic.FailDegree, traffic.FailLoad:
			spec.Links, spec.Nodes = *failLinks, *failNodes
			spec.FailAt, spec.RepairAt = *failAt, *repairAt
		}
		if mode != traffic.FailNone {
			spec.MaxRetries, spec.RetryAfter = *failRetries, *failRetryAfter
		}
		failSpecs = append(failSpecs, spec)
	}
	g := sweep.Grid{
		Models:          []string{*model},
		Sizes:           []int{*n},
		Seeds:           seedList,
		Target:          *target,
		PathSources:     *sources,
		CellWorkers:     *cellWorkers,
		MeasureEvery:    *measureEvery,
		TrajectoryPaths: *paths,
		Workload: &sweep.WorkloadAxes{
			Spec: traffic.WorkloadSpec{
				Engine:       traffic.EngineEpoch,
				Arrivals:     *arrivals,
				Sizes:        *sizes,
				MeanSize:     *meanSize,
				MeanOn:       *meanOn,
				MeanOff:      *meanOff,
				Epochs:       *epochs,
				EpochLen:     *dt,
				CapacityUnit: *capacity,
			},
			LoadFactors: loadFactors,
			TailIndexes: tailIndexes,
			Failures:    failSpecs,
		},
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()
	s, err := sweep.RunWith(g, sweep.Options{
		Workers:    *workers,
		Cache:      core.NewArtifactCache(budget),
		CacheStats: *cacheStats,
	})
	if err != nil {
		return err
	}
	if s.DuplicateCells > 0 {
		fmt.Fprintf(os.Stderr, "topoload: warning: %d duplicate cells deduplicated\n", s.DuplicateCells)
	}
	if err := cliutil.WriteOutput(*out, stdout, func(w io.Writer) error {
		switch *format {
		case "table":
			return graphio.WriteWorkloadTable(w, s)
		case "csv":
			return graphio.WriteWorkloadCSV(w, s)
		case "json":
			return graphio.WriteWorkloadJSON(w, s)
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
	}); err != nil {
		return err
	}
	return prof.Stop()
}
