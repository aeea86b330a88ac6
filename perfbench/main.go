// Command perfbench is netmodel's end-to-end benchmark. It runs one
// workload through the same public calls the CLIs make (topoload and
// toposweep: sweep.RunWith then a graphio writer; topogen: a trajectory
// run, core.WriteTrajectory and graphio.WriteEdgeList), checks every
// output, and prints each metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set (setup_s, wall_s,
// cpu_s, peak_rss_mb, alloc_mb). With -trace 1 the run alternates an
// untraced run with a traced one that calls each layer's public
// functions inside spans, checks that both write the same bytes,
// reports per-layer metrics and writes the last traced run's spans as
// Chrome trace-event JSON to .bench_build/traces/<workload>-<seed>.json.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload load-route --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A run times setupBatches batches of setupBatch set-ups before its
// first timed run and again after each one; setup_s is the median over
// all batches of a batch's mean. A batch is long enough for the clock
// to resolve, and spreading the batches over the run keeps one GC cycle
// or a slow moment of the host from setting the median.
const (
	setupBatches = 31
	setupBatch   = 64
)

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long to keep starting runs")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	w, err := newWorkload(*name, *seed, fullSizes)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d trace=%d seconds=%g nproc=%d gomaxprocs=%d go=%s\n",
		*name, *seed, *trace, *seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	budget := time.Duration(*seconds * float64(time.Second))
	var rep *report
	if *trace == 1 {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.json", *name, *seed))
		meta := map[string]any{"workload": *name, "seed": *seed, "nproc": runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version()}
		rep, err = measureTraced(w, budget, stdout, stderr, path, meta)
	} else {
		rep, err = measure(w, budget, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// timeSetup runs the workload's set-up in setupBatches batches and
// appends each batch's per-set-up time in seconds to times.
func timeSetup(w workload, times []float64) ([]float64, error) {
	for range setupBatches {
		start := time.Now()
		for range setupBatch {
			if err := w.setup(); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		times = append(times, time.Since(start).Seconds()/setupBatch)
	}
	return times, nil
}

// usage is the process's resource counters at one instant.
type usage struct {
	wall  time.Time
	cpu   time.Duration // user + system
	alloc uint64        // cumulative heap bytes allocated
	gcs   uint32
	pause time.Duration
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		gcs:   ms.NumGC,
		pause: time.Duration(ms.PauseTotalNs),
		wall:  time.Now(),
	}
}

// runOnce runs the workload from a collected heap and returns its
// result and the resource counters around it.
func runOnce(w workload, tr *tracer) (*result, usage, usage, error) {
	runtime.GC()
	before := readUsage()
	r, err := w.run(tr)
	after := readUsage()
	return r, before, after, err
}

// verifier counts failed output checks: a run fails when it errors,
// when its checks fail, or when its bytes differ from the first run's.
type verifier struct {
	w                 workload
	digest            [32]byte
	seen              bool
	attempted, failed int
	stderr            io.Writer
}

func (v *verifier) verify(r *result, err error) bool {
	v.attempted++
	if err == nil {
		err = v.w.check(r)
	}
	if err == nil {
		d := sha256.Sum256(r.out)
		if !v.seen {
			v.digest, v.seen = d, true
		} else if d != v.digest {
			err = fmt.Errorf("output differs from the first run's")
		}
	}
	if err != nil {
		v.failed++
		fmt.Fprintf(v.stderr, "perfbench: run %d failed: %v\n", v.attempted, err)
		return false
	}
	return true
}

// warmUp runs the workload once, untimed but checked, so that the
// heap has grown and lazy set-up has finished before the first timed
// run. It returns how long the run took.
func warmUp(w workload, v *verifier) time.Duration {
	r, before, after, err := runOnce(w, nil)
	v.verify(r, err)
	return after.wall.Sub(before.wall)
}

// more reports whether another step that takes about step still fits
// before the deadline: it does while more than half of it fits, so a
// run ends within half a step of its budget on either side.
func more(deadline time.Time, step time.Duration) bool {
	return time.Until(deadline) > step/2
}

// measure is the untraced run: timed set-ups, a warm-up run, then whole
// CLI-equivalent runs, each followed by more timed set-ups, until the
// time budget (which includes the warm-up) is spent, at least one.
func measure(w workload, budget time.Duration, stdout, stderr io.Writer) (*report, error) {
	setups, err := timeSetup(w, nil)
	if err != nil {
		return nil, err
	}
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	v := &verifier{w: w, stderr: stderr}
	var wall, cpu, alloc []float64
	deadline := time.Now().Add(budget)
	step := warmUp(w, v)
	for len(wall) == 0 || more(deadline, step) {
		r, before, after, err := runOnce(w, nil)
		v.verify(r, err)
		step = after.wall.Sub(before.wall)
		wall = append(wall, step.Seconds())
		cpu = append(cpu, (after.cpu - before.cpu).Seconds())
		alloc = append(alloc, float64(after.alloc-before.alloc)/1e6)
		runtime.GC() // so the set-ups' garbage cannot raise the peak resident set
		if setups, err = timeSetup(w, setups); err != nil {
			return nil, err
		}
	}
	setup := median(setups)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("peak resident set: %w", err)
	}
	m := map[string]metric{
		"setup_s":     {setup, "s"},
		"wall_s":      {median(wall), "s"},
		"cpu_s":       {median(cpu), "s"},
		"peak_rss_mb": {rss, "MB"},
		"alloc_mb":    {median(alloc), "MB"},
	}
	fmt.Fprintf(stdout, "%-12s %12.9f s   median of %d batches of %d set-ups\n", "setup_s", setup, len(setups), setupBatch)
	for _, s := range []struct {
		name, unit string
		xs         []float64
	}{{"wall_s", "s", wall}, {"cpu_s", "s", cpu}, {"alloc_mb", "MB", alloc}} {
		lo, hi := minMax(s.xs)
		fmt.Fprintf(stdout, "%-12s %12.6f %s  median of %d runs (min %.6f, max %.6f)\n",
			s.name, median(s.xs), s.unit, len(s.xs), lo, hi)
	}
	fmt.Fprintf(stdout, "%-12s %12.3f MB  process peak resident set\n", "peak_rss_mb", rss)
	fmt.Fprintf(stdout, "%-12s %12.6f     %d failed of %d attempted\n", "fail_ratio",
		float64(v.failed)/float64(v.attempted), v.failed, v.attempted)
	return &report{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: m}, nil
}

// layerMetric names one per-layer metric and its unit, in BENCHMARK.json
// order.
type layerMetric struct{ name, unit string }

var layerMetrics = []layerMetric{
	{"gen.generate_s", "s"}, {"gen.grow_s", "s"}, {"gen.alloc_mb", "MB"},
	{"graph.freeze_s", "s"}, {"graph.refreeze_s", "s"}, {"graph.refreeze_calls", "count"},
	{"graph.snapshot_mb", "MB"},
	{"engine.measure_s", "s"}, {"engine.advance_s", "s"}, {"engine.growth_paths_s", "s"},
	{"compare.score_s", "s"},
	{"traffic.simulate_s", "s"}, {"traffic.simulate_alloc_mb", "MB"}, {"traffic.flow_epochs", "count"},
	{"traffic.flows_arrived", "count"}, {"traffic.flows_completed", "count"},
	{"traffic.flows_residual", "count"}, {"traffic.tree_budget_frac", "ratio"},
	{"traffic.route_once_s", "s"},
	{"sweep.self_s", "s"},
	{"graphio.write_s", "s"}, {"graphio.bytes", "bytes"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_s", "s"},
	{"trace.wall_s", "s"}, {"trace.untraced_wall_s", "s"}, {"trace.overhead_s", "s"},
	{"trace.coverage", "ratio"},
}

// tracedValues computes one traced run's per-layer metrics.
func tracedValues(tr *tracer, r *result, before, after usage, untraced, probe time.Duration) map[string]float64 {
	lt, top := tr.layerTimes()
	get := func(name string) *layerTotal {
		if t := lt[name]; t != nil {
			return t
		}
		return &layerTotal{}
	}
	wall := after.wall.Sub(before.wall)
	v := map[string]float64{
		"gen.generate_s":            get("gen.generate").incl.Seconds(),
		"gen.grow_s":                get("gen.generate").self.Seconds(),
		"gen.alloc_mb":              float64(get("gen.generate").selfAlloc) / 1e6,
		"graph.freeze_s":            get("graph.freeze").incl.Seconds(),
		"graph.refreeze_s":          get("graph.refreeze").incl.Seconds(),
		"graph.refreeze_calls":      float64(get("graph.refreeze").calls),
		"graph.snapshot_mb":         float64(r.snapshotBytes) / 1e6,
		"engine.measure_s":          get("engine.measure").incl.Seconds(),
		"engine.advance_s":          get("engine.advance").incl.Seconds(),
		"engine.growth_paths_s":     get("engine.growth_paths").incl.Seconds(),
		"compare.score_s":           get("compare.score").incl.Seconds(),
		"traffic.simulate_s":        get("traffic.simulate").incl.Seconds(),
		"traffic.simulate_alloc_mb": float64(get("traffic.simulate").selfAlloc) / 1e6,
		"traffic.tree_budget_frac":  r.treeBudgetFrac,
		"traffic.route_once_s":      probe.Seconds(),
		"sweep.self_s":              (wall - top).Seconds(),
		"graphio.write_s":           get("graphio.write").incl.Seconds(),
		"graphio.bytes":             float64(len(r.out)),
		"runtime.gc_cycles":         float64(after.gcs - before.gcs),
		"runtime.gc_pause_s":        (after.pause - before.pause).Seconds(),
		"trace.wall_s":              wall.Seconds(),
		"trace.untraced_wall_s":     untraced.Seconds(),
		"trace.overhead_s":          (wall - untraced).Seconds(),
		"trace.coverage":            float64(top) / float64(wall),
	}
	if r.summary != nil {
		for _, c := range r.summary.Cells {
			if rep := c.Workload; rep != nil {
				v["traffic.flows_arrived"] += float64(rep.Arrived)
				v["traffic.flows_completed"] += float64(rep.Completed)
				v["traffic.flows_residual"] += float64(rep.ResidualFlows)
				for _, e := range rep.Epochs {
					v["traffic.flow_epochs"] += float64(e.Active)
				}
			}
		}
	}
	return v
}

// measureTraced runs a warm-up run, then alternates an untraced run with
// a traced one until the budget is spent, at least one pair. Each traced run must write the
// bytes the untraced runs wrote. Per-layer metrics are medians over the
// traced runs; the last traced run's spans go to tracePath.
func measureTraced(w workload, budget time.Duration, stdout, stderr io.Writer,
	tracePath string, meta map[string]any) (*report, error) {
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	v := &verifier{w: w, stderr: stderr}
	samples := make(map[string][]float64)
	var last *tracer
	deadline := time.Now().Add(budget)
	step := 2 * warmUp(w, v)
	for pairs := 0; pairs == 0 || more(deadline, step); pairs++ {
		start := time.Now()
		r, before, after, err := runOnce(w, nil)
		v.verify(r, err)
		untraced := after.wall.Sub(before.wall)
		tr := newTracer()
		r, before, after, err = runOnce(w, tr)
		if !v.verify(r, err) {
			continue
		}
		probe := w.probe(r)
		step = time.Since(start)
		for name, x := range tracedValues(tr, r, before, after, untraced, probe) {
			samples[name] = append(samples[name], x)
		}
		last = tr
	}
	m := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		m[lm.name] = metric{median(samples[lm.name]), lm.unit}
	}
	wall := m["trace.wall_s"].Value
	fmt.Fprintf(stdout, "%-26s %14s %8s   (medians of %d traced runs)\n", "layer metric", "value", "share", len(samples["trace.wall_s"]))
	for _, lm := range layerMetrics {
		share := ""
		if lm.unit == "s" && wall > 0 && !strings.HasPrefix(lm.name, "trace.") && lm.name != "traffic.route_once_s" {
			share = strconv.FormatFloat(100*m[lm.name].Value/wall, 'f', 1, 64) + "%"
		}
		fmt.Fprintf(stdout, "%-26s %14.6f %8s   %s\n", lm.name, m[lm.name].Value, share, lm.unit)
	}
	fmt.Fprintf(stdout, "%-26s %14.6f            %d failed of %d attempted\n", "fail_ratio",
		float64(v.failed)/float64(v.attempted), v.failed, v.attempted)
	if last != nil {
		if err := writeTrace(tracePath, last, meta); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "trace: %s (%d spans)\n", tracePath, len(last.spans))
	}
	return &report{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: m}, nil
}

func writeTrace(path string, tr *tracer, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf, meta); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if k := len(s); k%2 == 0 {
		return (s[k/2-1] + s[k/2]) / 2
	}
	return s[len(s)/2]
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}
