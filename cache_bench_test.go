package netmodel

import (
	"bytes"
	"flag"
	"fmt"
	"runtime"
	"testing"
	"time"

	"netmodel/internal/artifact"
	"netmodel/internal/benchutil"
	"netmodel/internal/core"
	"netmodel/internal/graphio"
	"netmodel/internal/sweep"
	"netmodel/internal/traffic"
)

// The cache benchmark measures the artifact-reuse speedup: one topology
// fanned out to eight workload variants, swept cold (cache disabled,
// the pre-cache baseline) and then warm (every stage served from a
// primed cache). The cold sweep pays generation + whole-graph metrics
// once per invocation — its path-length stage runs the batched
// multi-source BFS, 64 sources per traversal, so it is far cheaper
// than one BFS per source; the warm sweep pays only the workload
// stage, so the ratio is the amortization a repeated sweep — the
// toposerve-style usage — actually sees:
//
//	make bench-cache   # merges cold/warm rows into BENCH_sweep.json
var (
	cacheBenchOut = flag.String("cache-bench-out", "", "merge cold-vs-warm cached-sweep timings into this JSON file")
	cacheBenchN   = flag.Int("cache-bench-n", 100000, "cached-sweep benchmark topology size (also runs a 10k smoke tier when larger)")
)

// cacheBenchGrid fans one BA topology out to a 4 load × 2 tail workload
// grid. MeanSize scales with n so the flow population stays small and
// the workload stage stays cheap relative to the topology stage — the
// regime the cache is for (many variants, one expensive map).
func cacheBenchGrid(n int) sweep.Grid {
	return sweep.Grid{
		Models:      []string{"ba"},
		Sizes:       []int{n},
		Seeds:       []uint64{1},
		PathSources: 100,
		Workload: &sweep.WorkloadAxes{
			Spec:        traffic.WorkloadSpec{Epochs: 3, MeanSize: 4 * float64(n)},
			LoadFactors: []float64{0.3, 0.6, 0.9, 1.2},
			TailIndexes: []float64{1.3, 2.5},
		},
	}
}

// TestCacheBenchJSON times the workload grid three ways — cold with the
// cache disabled, a priming pass that fills a fresh unbounded cache,
// and a warm pass served from it — asserts all three summaries are
// byte-identical (the tentpole contract at benchmark scale), and merges
// sweep-cache-cold / sweep-cache-warm rows into the file named by
// -cache-bench-out (BENCH_sweep.json via `make bench-cache`), next to
// the sweep scaling rows.
func TestCacheBenchJSON(t *testing.T) {
	if *cacheBenchOut == "" {
		t.Skip("enable with -cache-bench-out <file>")
	}
	sizes := []int{*cacheBenchN}
	if *cacheBenchN > 10000 {
		sizes = []int{10000, *cacheBenchN}
	}
	type row struct {
		Name        string  `json:"name"`
		Models      string  `json:"models"`
		N           int     `json:"n"`
		Seeds       int     `json:"seeds"`
		Cells       int     `json:"cells"`
		Workers     int     `json:"workers"`
		Cores       int     `json:"cores"`
		NumCPU      int     `json:"num_cpu"`
		NsPerOp     int64   `json:"ns_per_op"`
		AllocsPerOp float64 `json:"allocs_per_op"`
		BytesPerOp  float64 `json:"bytes_per_op"`
		Speedup     float64 `json:"speedup,omitempty"`
	}
	var rows []row
	for _, n := range sizes {
		g := cacheBenchGrid(n)
		encode := func(s *sweep.Summary) []byte {
			var buf bytes.Buffer
			if err := graphio.WriteSweepJSON(&buf, s); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		run := func(ac *artifact.Cache) (*sweep.Summary, time.Duration, uint64, uint64) {
			var s *sweep.Summary
			var err error
			var elapsed time.Duration
			allocs, bytes := benchutil.MeasureAllocs(func() {
				start := time.Now()
				s, err = sweep.RunWith(g, sweep.Options{Workers: 1, Cache: ac})
				elapsed = time.Since(start)
			})
			if err != nil {
				t.Fatal(err)
			}
			return s, elapsed, allocs, bytes
		}
		cold, coldTime, coldAllocs, coldBytes := run(nil)
		ac := core.NewArtifactCache(-1)
		primed, _, _, _ := run(ac)
		want := encode(cold)
		if !bytes.Equal(want, encode(primed)) {
			t.Fatalf("n=%d: priming pass diverged from cache-disabled baseline", n)
		}
		// The warm pass is short enough that a stray GC or scheduler
		// hiccup can halve the measured ratio, so time it best-of-3 —
		// every repetition replays identical work from identical streams
		// and must keep reproducing the baseline bytes.
		var warm *sweep.Summary
		var warmTime time.Duration
		var warmAllocs, warmBytes uint64
		for rep := 0; rep < 3; rep++ {
			s, elapsed, al, by := run(ac)
			if rep == 0 || elapsed < warmTime {
				warm, warmTime, warmAllocs, warmBytes = s, elapsed, al, by
			}
			if !bytes.Equal(want, encode(s)) {
				t.Fatalf("n=%d: warm pass %d diverged from cache-disabled baseline", n, rep)
			}
		}
		for _, stage := range ac.Stats().Stages {
			if stage.Hits == 0 {
				t.Fatalf("n=%d: stage %s never hit across the warm pass", n, stage.Stage)
			}
		}
		speedup := float64(coldTime) / float64(warmTime)
		models := fmt.Sprintf("%v", g.Models)
		rows = append(rows,
			row{Name: "sweep-cache-cold", Models: models, N: n, Seeds: len(g.Seeds),
				Cells: len(cold.Cells), Workers: 1, Cores: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
				NsPerOp:     coldTime.Nanoseconds(),
				AllocsPerOp: float64(coldAllocs), BytesPerOp: float64(coldBytes)},
			row{Name: "sweep-cache-warm", Models: models, N: n, Seeds: len(g.Seeds),
				Cells: len(warm.Cells), Workers: 1, Cores: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
				NsPerOp:     warmTime.Nanoseconds(),
				AllocsPerOp: float64(warmAllocs), BytesPerOp: float64(warmBytes), Speedup: speedup})
		t.Logf("n=%d cells=%d: cold %v, warm %v, speedup %.2fx",
			n, len(cold.Cells), coldTime, warmTime, speedup)
	}
	if err := benchutil.MergeBenchRows(*cacheBenchOut, rows); err != nil {
		t.Fatal(err)
	}
}
