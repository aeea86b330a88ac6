package netmodel

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
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
// frozen BA map, engine against engine: the epoch loop (the pinned
// reference, full re-waterfill every epoch) versus the event engine
// (arrival/departure calendar, incremental bottleneck re-solve). Both
// run the same indexed-heap water-fill kernel; the epoch row records
// its speedup over the event row, which the traffic-sim-epoch floor
// gates so a per-round scan of every loaded link cannot come back. The
// event engine also runs at two pool widths, and its runs must be
// byte-identical — the determinism contract at benchmark scale. The
// JSON file records a 10k-node smoke row set next to the acceptance
// rows at -traffic-bench-n (100k by default):
//
//	make bench-traffic            # writes BENCH_traffic.json
//	go test -bench TrafficSim .   # standard benchmark rows
//
// -traffic-bench-engine restricts which engine's rows are timed and
// emitted ("both" by default); the cross-engine agreement check always
// runs, so a single-engine CI smoke still pins per-flow completion
// times against the other engine.
var (
	trafficBenchOut    = flag.String("traffic-bench-out", "", "write engine-vs-engine workload timings to this JSON file")
	trafficBenchN      = flag.Int("traffic-bench-n", 100000, "workload acceptance row map size")
	trafficBenchEpochs = flag.Int("traffic-bench-epochs", 10, "workload benchmark epochs")
	trafficBenchFlows  = flag.Int("traffic-bench-flows", 4000, "target flow arrivals per epoch")
	trafficBenchEngine = flag.String("traffic-bench-engine", "both", "engine rows to emit: epoch, event, both")
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

// runTrafficSim simulates the workload with the given engine and
// returns the traced report plus its JSON encoding (aggregate report
// and link loads), the identity worker-invariance is compared on. A
// non-nil rt shares routing state across runs (identical results, BFS
// paid once) so timed rows measure the engines, not the router.
func runTrafficSim(tb testing.TB, snap *graph.Snapshot, masses []float64, spec traffic.WorkloadSpec, engine string, workers int, rt *traffic.Routing) (*traffic.SimReport, []byte) {
	tb.Helper()
	spec.Engine = engine
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
	return rep, append(data, links...)
}

// checkFlowAgreement asserts the two engines agree on the flow
// population and on every flow's fate and completion time — the
// cross-engine contract the CI smoke runs under the race detector.
func checkFlowAgreement(tb testing.TB, epoch, event *traffic.SimReport) {
	tb.Helper()
	if len(epoch.Flows) != len(event.Flows) {
		tb.Fatalf("engines drew different flow populations: %d vs %d", len(epoch.Flows), len(event.Flows))
	}
	for i := range epoch.Flows {
		a, b := epoch.Flows[i], event.Flows[i]
		if a.Src != b.Src || a.Dst != b.Dst || a.Size != b.Size || a.Arrived != b.Arrived {
			tb.Fatalf("flow %d identity diverged: %+v vs %+v", i, a, b)
		}
		if a.Done != b.Done {
			tb.Fatalf("flow %d fate diverged between engines: epoch done=%v, event done=%v", i, a.Done, b.Done)
		}
		if a.Done {
			scale := math.Max(1, math.Abs(a.Finished))
			if math.Abs(a.Finished-b.Finished) > 1e-9*scale {
				tb.Fatalf("flow %d completion time diverged: epoch %v, event %v", i, a.Finished, b.Finished)
			}
		}
	}
}

func benchTrafficSim(b *testing.B, engine string, workers int) {
	snap, masses, spec := trafficBenchSetup(b, 2000, 100)
	spec.Epochs = 5
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runTrafficSim(b, snap, masses, spec, engine, workers, nil)
	}
}

// benchEngine resolves -traffic-bench-engine for the standing
// benchmark rows: "both" (the JSON-emitter default) times the epoch
// engine here, since BenchmarkTrafficSimEvent covers the other.
func benchEngine(b *testing.B) string {
	switch *trafficBenchEngine {
	case "both", "epoch":
		return traffic.EngineEpoch
	case "event":
		return traffic.EngineEvent
	}
	b.Fatalf("-traffic-bench-engine=%q: want epoch, event or both", *trafficBenchEngine)
	return ""
}

func BenchmarkTrafficSimSequential(b *testing.B) { benchTrafficSim(b, benchEngine(b), 1) }
func BenchmarkTrafficSimParallel(b *testing.B) {
	benchTrafficSim(b, benchEngine(b), genBenchWorkers)
}
func BenchmarkTrafficSimEvent(b *testing.B) {
	benchTrafficSim(b, traffic.EngineEvent, genBenchWorkers)
}

// TestTrafficBenchJSON times the workload simulation engine against
// engine on the 10k smoke map and the acceptance map, checks the event
// engine is byte-identical across pool widths and agrees with the
// epoch engine flow by flow, and records the rows in the JSON file
// named by -traffic-bench-out (BENCH_traffic.json via
// `make bench-traffic`).
func TestTrafficBenchJSON(t *testing.T) {
	if *trafficBenchOut == "" {
		t.Skip("enable with -traffic-bench-out <file>")
	}
	timeEpoch, timeEvent := true, true
	switch *trafficBenchEngine {
	case "both":
	case "epoch":
		timeEvent = false
	case "event":
		timeEpoch = false
	default:
		t.Fatalf("-traffic-bench-engine=%q: want epoch, event or both", *trafficBenchEngine)
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
		Speedup     float64 `json:"speedup,omitempty"`
		SpeedupVs   string  `json:"speedup_vs,omitempty"`
	}
	cores, ncpu := runtime.GOMAXPROCS(0), runtime.NumCPU()
	// The 10k smoke row set accompanies the acceptance rows only when
	// the latter is larger, so a small -traffic-bench-n (the CI race
	// smoke) genuinely shrinks the run.
	sizes := []int{*trafficBenchN}
	if *trafficBenchN > 10000 {
		sizes = []int{10000, *trafficBenchN}
	}
	var rows []row
	for _, n := range sizes {
		snap, masses, spec := trafficBenchSetup(t, n, *trafficBenchFlows)
		// All runs share one routing state, pre-routed by an untimed
		// warmup (both engines draw identical flow populations, so the
		// warmup resolves every OD pair the timed runs will ask for):
		// the timed rows compare the simulation engines, not the
		// shared BFS router both sit on.
		rt := traffic.NewRouting(snap)
		runTrafficSim(t, snap, masses, spec, traffic.EngineEvent, genBenchWorkers, rt)
		// Both engines always run — the agreement check is the point —
		// but only the engines selected by -traffic-bench-engine are
		// reported as timing rows.
		// Each timed run doubles as an allocation window (the settling GC
		// runs before the timer starts, so it never pollutes ns_per_op);
		// the op of allocs_per_op is the same whole run ns_per_op times.
		var epochRep, eventRep *traffic.SimReport
		var eventSeq, eventPar []byte
		var epochTime, eventTime, eventParTime time.Duration
		epochAllocs, epochBytes := benchutil.MeasureAllocs(func() {
			start := time.Now()
			epochRep, _ = runTrafficSim(t, snap, masses, spec, traffic.EngineEpoch, 1, rt)
			epochTime = time.Since(start)
		})
		eventAllocs, eventBytes := benchutil.MeasureAllocs(func() {
			start := time.Now()
			eventRep, eventSeq = runTrafficSim(t, snap, masses, spec, traffic.EngineEvent, 1, rt)
			eventTime = time.Since(start)
		})
		eventParAllocs, eventParBytes := benchutil.MeasureAllocs(func() {
			start := time.Now()
			_, eventPar = runTrafficSim(t, snap, masses, spec, traffic.EngineEvent, genBenchWorkers, rt)
			eventParTime = time.Since(start)
		})
		if !bytes.Equal(eventSeq, eventPar) {
			t.Fatalf("n=%d: event engine at workers=%d diverged from workers=1", n, genBenchWorkers)
		}
		checkFlowAgreement(t, epochRep, eventRep)
		epochVsEvent := float64(eventTime) / float64(epochTime)
		if timeEpoch {
			rows = append(rows, row{Name: "traffic-sim-epoch", Engine: traffic.EngineEpoch,
				N: n, Epochs: *trafficBenchEpochs, Flows: *trafficBenchFlows,
				Workers: 1, Cores: cores, NumCPU: ncpu, NsPerOp: epochTime.Nanoseconds(),
				AllocsPerOp: float64(epochAllocs), BytesPerOp: float64(epochBytes),
				Speedup: epochVsEvent, SpeedupVs: "traffic-sim-event"})
		}
		if timeEvent {
			rows = append(rows,
				row{Name: "traffic-sim-event", Engine: traffic.EngineEvent,
					N: n, Epochs: *trafficBenchEpochs, Flows: *trafficBenchFlows,
					Workers: 1, Cores: cores, NumCPU: ncpu, NsPerOp: eventTime.Nanoseconds(),
					AllocsPerOp: float64(eventAllocs), BytesPerOp: float64(eventBytes)},
				row{Name: "traffic-sim-event-parallel", Engine: traffic.EngineEvent,
					N: n, Epochs: *trafficBenchEpochs, Flows: *trafficBenchFlows,
					Workers: genBenchWorkers, Cores: cores, NumCPU: ncpu, NsPerOp: eventParTime.Nanoseconds(),
					AllocsPerOp: float64(eventParAllocs), BytesPerOp: float64(eventParBytes),
					Speedup: float64(eventTime) / float64(eventParTime), SpeedupVs: "traffic-sim-event"})
		}
		t.Logf("n=%d: epoch %v (%.2fx vs event), event %v, event@%d %v (byte-identical, flows agree)",
			n, epochTime, epochVsEvent, eventTime, genBenchWorkers, eventParTime)
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
