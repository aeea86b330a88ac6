package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var tinySizes = sizes{
	routeN: 300, allocN: 200, allocEpochs: 12,
	sweepN: 1500, sweepSources: 20,
	trajN: 2000, trajEvery: 500, trajPivot: 8,
}

func tinyWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := newWorkload(name, 3, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSmokeEveryWorkload runs every workload at a tiny size untraced and
// traced: both pass their checks, write the same bytes, and the spans
// show the layers the workload is meant to exercise.
func TestSmokeEveryWorkload(t *testing.T) {
	wantSpans := map[string][]string{
		"load-route": {"gen.generate", "graph.freeze", "engine.measure", "compare.score", "traffic.simulate", "graphio.write"},
		"load-alloc": {"gen.generate", "graph.freeze", "engine.measure", "compare.score", "traffic.simulate", "graphio.write"},
		"sweep":      {"gen.generate", "graph.freeze", "engine.measure", "compare.score", "graphio.write"},
		"trajectory": {"gen.generate", "graph.freeze", "graph.refreeze", "engine.advance", "engine.growth_paths", "graphio.write"},
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w := tinyWorkload(t, name)
			plain, err := w.run(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.check(plain); err != nil {
				t.Fatalf("untraced run fails its check: %v", err)
			}
			tr := newTracer()
			traced, err := w.run(tr)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.check(traced); err != nil {
				t.Fatalf("traced run fails its check: %v", err)
			}
			if !bytes.Equal(plain.out, traced.out) {
				t.Fatal("traced run writes different bytes than the untraced run")
			}
			lt, _ := tr.layerTimes()
			var got []string
			for n := range lt {
				got = append(got, n)
			}
			sort.Strings(got)
			want := append([]string(nil), wantSpans[name]...)
			sort.Strings(want)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("spans %v, want %v", got, want)
			}
			if probe := w.probe(traced); (probe > 0) != strings.HasPrefix(name, "load-") {
				t.Fatalf("route-once probe took %v", probe)
			}
		})
	}
}

// TestReportsMatchBenchmarkJSON runs both measurement modes once on a
// tiny workload and checks that they report exactly the metrics
// BENCHMARK.json declares, with its units.
func TestReportsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, wl := range bench.Workloads {
		names = append(names, wl.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
	w := tinyWorkload(t, "load-route")
	rep, err := measure(w, 0, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	matchDecls(t, "end_to_end", bench.EndToEnd, rep)
	path := filepath.Join(t.TempDir(), "trace.json")
	rep, err = measureTraced(w, 0, io.Discard, io.Discard, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	matchDecls(t, "per_layer", bench.PerLayer, rep)
	var chrome struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
		t.Fatalf("trace file holds no events (%v)", err)
	}
}

// decl is one metric declaration of BENCHMARK.json.
type decl struct{ Name, Unit string }

func matchDecls(t *testing.T, list string, decls []decl, rep *report) {
	t.Helper()
	if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
		t.Fatalf("%s run: correct=%v attempted=%d failed=%d", list, rep.Correct, rep.Attempted, rep.Failed)
	}
	if len(decls) != len(rep.Metrics) {
		t.Fatalf("%s: BENCHMARK.json declares %d metrics, run reports %d", list, len(decls), len(rep.Metrics))
	}
	for _, d := range decls {
		m, ok := rep.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) {
			t.Fatalf("%s: metric %s = %+v, declared unit %s", list, d.Name, m, d.Unit)
		}
	}
}

// TestCorruptedOutputFails checks that a broken report or a changed
// output counts as a failed run.
func TestCorruptedOutputFails(t *testing.T) {
	w := tinyWorkload(t, "load-alloc")
	r, err := w.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := map[string]func(r *result){
		"max util above capacity": func(r *result) { r.summary.Cells[0].Workload.MaxUtil = 1.5 },
		"epoch max util":          func(r *result) { r.summary.Cells[0].Workload.Epochs[3].MaxUtil = 1 + 1e-6 },
		"lost flow":               func(r *result) { r.summary.Cells[0].Workload.Completed-- },
		"non-finite scalar":       func(r *result) { r.summary.Cells[0].Workload.MeanFCT = math.NaN() },
		"missing epoch":           func(r *result) { wl := r.summary.Cells[0].Workload; wl.Epochs = wl.Epochs[1:] },
		"infinite score":          func(r *result) { r.summary.Cells[0].Score = math.Inf(1) },
		"missing cell":            func(r *result) { r.summary.Cells = r.summary.Cells[:0] },
	}
	for name, f := range corrupt {
		t.Run(name, func(t *testing.T) {
			bad, err := w.run(nil)
			if err != nil {
				t.Fatal(err)
			}
			f(bad)
			v := &verifier{w: w, stderr: io.Discard}
			v.verify(r, nil)
			v.verify(bad, nil)
			if v.attempted != 2 || v.failed != 1 {
				t.Fatalf("attempted %d, failed %d; want 2 and 1", v.attempted, v.failed)
			}
		})
	}
	t.Run("digest mismatch", func(t *testing.T) {
		other := *r
		other.out = append(append([]byte(nil), r.out...), ' ')
		v := &verifier{w: w, stderr: io.Discard}
		v.verify(r, nil)
		v.verify(&other, nil)
		v.verify(r, nil)
		if v.attempted != 3 || v.failed != 1 {
			t.Fatalf("attempted %d, failed %d; want 3 and 1", v.attempted, v.failed)
		}
	})
}

// TestTrajectoryMapMismatchFails checks that a trajectory map differing
// from the plain run's map fails the check.
func TestTrajectoryMapMismatchFails(t *testing.T) {
	w := tinyWorkload(t, "trajectory")
	r, err := w.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	tw := w.(*trajWorkload)
	tw.ref[1] = append(append([]byte(nil), tw.ref[1]...), "0 1\n"...)
	if err := w.check(r); err == nil {
		t.Fatal("a map differing from the plain run passed the check")
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sweep", "--trace", "2"},
		{"--bogus"},
	} {
		var out bytes.Buffer
		if code := benchMain(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Fatalf("%v: exit %d, printed %q", args, code, out.String())
		}
	}
}
