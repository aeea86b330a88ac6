package netmodel

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"netmodel/internal/benchutil"
	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/rng"
	"netmodel/internal/traffic"
)

// The traffic benchmarks time the flow-level workload simulator over a
// frozen BA map, flows pre-routed by an untimed warmup so the rows
// measure the simulation loop, not the shared BFS router. A second run
// at a wider pool width must be byte-identical — the determinism
// contract at benchmark scale. The water-fill kernel inside the loop is
// gated separately (kernels-waterfill-heap in BENCH_kernels.json). The
// JSON file records a 10k-node smoke row next to the acceptance row at
// -traffic-bench-n (100k by default):
//
//	make bench-traffic            # writes BENCH_traffic.json
//	go test -bench TrafficSim .   # standard benchmark rows
var (
	trafficBenchOut    = flag.String("traffic-bench-out", "", "write workload simulation timings to this JSON file")
	trafficBenchN      = flag.Int("traffic-bench-n", 100000, "workload acceptance row map size")
	trafficBenchEpochs = flag.Int("traffic-bench-epochs", 10, "workload benchmark epochs")
	trafficBenchFlows  = flag.Int("traffic-bench-flows", 4000, "target flow arrivals per epoch")
)

// trafficBenchSetup freezes a BA map of n nodes and derives the
// workload spec whose mean flow size puts the aggregate arrival rate at
// roughly flows per epoch (load factor fixed at 0.7).
func trafficBenchSetup(tb testing.TB, n, flows int) (*graph.Snapshot, []float64, traffic.WorkloadSpec) {
	tb.Helper()
	top, err := gen.GenerateWith(gen.BA{N: n, M: 2}, rng.New(1), genBenchWorkers)
	if err != nil {
		tb.Fatal(err)
	}
	snap, err := top.G.FreezeChecked()
	if err != nil {
		tb.Fatal(err)
	}
	masses := make([]float64, snap.N())
	for u := range masses {
		masses[u] = float64(snap.Degree(u))
	}
	var capTotal float64
	for _, e := range snap.EdgeList() {
		capTotal += float64(e.W)
	}
	const load = 0.7
	spec := traffic.WorkloadSpec{
		LoadFactor: load,
		Epochs:     *trafficBenchEpochs,
		MeanSize:   load * capTotal / float64(flows),
	}
	return snap, masses, spec
}

// runTrafficSim simulates the workload and returns the JSON encoding of
// its traced report (aggregate report and link loads), the identity
// worker-invariance is compared on. A non-nil rt shares routing state
// across runs (identical results, BFS paid once) so timed rows measure
// the simulator, not the router.
func runTrafficSim(tb testing.TB, snap *graph.Snapshot, masses []float64, spec traffic.WorkloadSpec, workers int, rt *traffic.Routing) []byte {
	tb.Helper()
	opts := []traffic.SimOption{traffic.WithFlowTrace()}
	if rt != nil {
		opts = append(opts, traffic.WithRouting(rt))
	}
	rep, err := traffic.Simulate(snap, masses, spec, rng.New(7), workers, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	if rep.Arrived == 0 {
		tb.Fatal("benchmark workload admitted no flows")
	}
	data, err := json.Marshal(rep)
	if err != nil {
		tb.Fatal(err)
	}
	links, err := json.Marshal(rep.Links)
	if err != nil {
		tb.Fatal(err)
	}
	return append(data, links...)
}

func benchTrafficSim(b *testing.B, workers int) {
	snap, masses, spec := trafficBenchSetup(b, 2000, 100)
	spec.Epochs = 5
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runTrafficSim(b, snap, masses, spec, workers, nil)
	}
}

func BenchmarkTrafficSimSequential(b *testing.B) { benchTrafficSim(b, 1) }
func BenchmarkTrafficSimParallel(b *testing.B)   { benchTrafficSim(b, genBenchWorkers) }

// TestTrafficBenchJSON times the workload simulation on the 10k smoke
// map and the acceptance map, checks the run is byte-identical at a
// wider pool width, and records the rows in the JSON file named by
// -traffic-bench-out (BENCH_traffic.json via `make bench-traffic`).
func TestTrafficBenchJSON(t *testing.T) {
	if *trafficBenchOut == "" {
		t.Skip("enable with -traffic-bench-out <file>")
	}
	type row struct {
		Name        string  `json:"name"`
		Engine      string  `json:"engine"`
		N           int     `json:"n"`
		Epochs      int     `json:"epochs"`
		Flows       int     `json:"flows_per_epoch"`
		Workers     int     `json:"workers"`
		Cores       int     `json:"cores"`
		NumCPU      int     `json:"num_cpu"`
		NsPerOp     int64   `json:"ns_per_op"`
		AllocsPerOp float64 `json:"allocs_per_op"`
		BytesPerOp  float64 `json:"bytes_per_op"`
	}
	cores, ncpu := runtime.GOMAXPROCS(0), runtime.NumCPU()
	// The 10k smoke row accompanies the acceptance row only when the
	// latter is larger, so a small -traffic-bench-n (the CI race smoke)
	// genuinely shrinks the run.
	sizes := []int{*trafficBenchN}
	if *trafficBenchN > 10000 {
		sizes = []int{10000, *trafficBenchN}
	}
	var rows []row
	for _, n := range sizes {
		snap, masses, spec := trafficBenchSetup(t, n, *trafficBenchFlows)
		// All runs share one routing state, pre-routed by an untimed
		// warmup at the wide pool width (every run draws the identical
		// flow population, so the warmup resolves every OD pair the
		// timed run will ask for).
		rt := traffic.NewRouting(snap)
		wide := runTrafficSim(t, snap, masses, spec, genBenchWorkers, rt)
		// The timed run doubles as an allocation window (the settling GC
		// runs before the timer starts, so it never pollutes ns_per_op);
		// the op of allocs_per_op is the same whole run ns_per_op times.
		var seq []byte
		var elapsed time.Duration
		allocs, bytesAlloc := benchutil.MeasureAllocs(func() {
			start := time.Now()
			seq = runTrafficSim(t, snap, masses, spec, 1, rt)
			elapsed = time.Since(start)
		})
		if !bytes.Equal(seq, wide) {
			t.Fatalf("n=%d: workers=1 diverged from workers=%d", n, genBenchWorkers)
		}
		rows = append(rows, row{Name: "traffic-sim-epoch", Engine: traffic.EngineEpoch,
			N: n, Epochs: *trafficBenchEpochs, Flows: *trafficBenchFlows,
			Workers: 1, Cores: cores, NumCPU: ncpu, NsPerOp: elapsed.Nanoseconds(),
			AllocsPerOp: float64(allocs), BytesPerOp: float64(bytesAlloc)})
		t.Logf("n=%d: %v (byte-identical at workers=%d)", n, elapsed, genBenchWorkers)
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*trafficBenchOut, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %d traffic benchmark rows to %s\n", len(rows), *trafficBenchOut)
}
