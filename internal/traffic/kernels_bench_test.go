package traffic

import (
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
	"netmodel/internal/metrics"
	"netmodel/internal/rng"
)

// The kernel benchmarks are the acceptance surface of the hot paths:
// the direction-optimizing hybrid BFS against the classic queue kernel
// on cold shortest-path-tree builds, the indexed-heap max-min
// water-fill against the scanFill oracle, the bit-parallel
// multi-source path histogram against one BFS per source, and the
// marginal allocation cost of one steady-state operation — a simulate
// epoch, a DistMap refresh, a Routing refresh — measured by
// differencing seeded-deterministic runs so one-time setup cancels
// exactly. The
// allocation rows are gated from above by benchcheck's
// max_allocs_per_op / max_bytes_per_op ceilings (0 for the steady
// states), the speedup rows from below by the usual floors:
//
//	make bench-kernels                      # writes BENCH_kernels.json
//	go test ./internal/traffic -run TestKernelsBenchJSON \
//	    -kernels-bench-out BENCH_kernels.json
//
// The emitter lives inside the traffic package because the water-fill
// rows need the kernel and its oracle, which a public caller cannot
// reach. The steady-state epoch row measures through Simulate, where
// the shared scratch already holds a calendar slab large enough for
// either horizon.
var (
	kernelsBenchOut = flag.String("kernels-bench-out", "", "write kernel speedup/allocation rows to this JSON file")
	kernelsBenchN   = flag.Int("kernels-bench-n", 100000, "acceptance row map size of the cold-tree and water-fill rows")
)

// kernelsRow is one BENCH_kernels.json row. The allocation fields are
// pointers so an explicit measured zero is emitted (omitempty would
// drop it) while rows that measure only time omit the fields — and
// benchcheck fails a ceiling against an absent field rather than
// passing it vacuously.
type kernelsRow struct {
	Name        string   `json:"name"`
	N           int      `json:"n"`
	Epochs      int      `json:"epochs,omitempty"`
	Sources     int      `json:"sources,omitempty"`
	Flows       int      `json:"flows,omitempty"`
	Workers     int      `json:"workers"`
	Cores       int      `json:"cores"`
	NumCPU      int      `json:"num_cpu"`
	NsPerOp     int64    `json:"ns_per_op"`
	Speedup     float64  `json:"speedup,omitempty"`
	SpeedupVs   string   `json:"speedup_vs,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
}

func fptr(v float64) *float64 { return &v }

// kernelsFreezeBA freezes a BA map of n nodes for the kernel rows.
// M=4 (average degree 8) matches the density band of measured AS-level
// topologies — and is where the direction-optimizing tradeoff operates:
// sparser maps leave the bottom-up sweep little to skip, denser ones
// make it trivially dominant.
func kernelsFreezeBA(tb testing.TB, n int, seed uint64) *graph.Snapshot {
	tb.Helper()
	top, err := gen.BA{N: n, M: 4}.Generate(rng.New(seed))
	if err != nil {
		tb.Fatal(err)
	}
	snap, err := top.G.FreezeChecked()
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// kernelsColdTreeRows times the cold build of nsrc shortest-path
// distance trees — the work DistMap rebuilds, Routing.Ensure and the
// per-node metric kernels all sit on — classic queue BFS against the
// hybrid kernel, pinning bit-identical distances along the way.
func kernelsColdTreeRows(t *testing.T, n int, rows []kernelsRow) []kernelsRow {
	t.Helper()
	const nsrc = 64
	snap := kernelsFreezeBA(t, n, 1)
	srcs := make([]int, nsrc)
	for i := range srcs {
		srcs[i] = i * snap.N() / nsrc
	}
	distC := make([]int32, snap.N())
	distH := make([]int32, snap.N())
	queue := make([]int32, snap.N())
	sc := metrics.NewBFSScratch(snap.N())

	// Warm both kernels (page in the CSR, size the scratch), pinning
	// equivalence on every source while at it.
	for _, src := range srcs {
		metrics.BFSFrozen(snap, src, distC, queue)
		metrics.BFSHybrid(snap, src, distH, sc)
		for v := range distC {
			if distC[v] != distH[v] {
				t.Fatalf("n=%d src=%d: hybrid dist[%d]=%d, classic %d", n, src, v, distH[v], distC[v])
			}
		}
	}
	start := time.Now()
	for _, src := range srcs {
		metrics.BFSFrozen(snap, src, distC, queue)
	}
	classic := time.Since(start)
	start = time.Now()
	for _, src := range srcs {
		metrics.BFSHybrid(snap, src, distH, sc)
	}
	hybrid := time.Since(start)
	// Difference a one-pass against a three-pass run: the warm kernel
	// itself must be allocation-free, and one-off background-runtime
	// allocations that land inside a single long window cancel out.
	allocsPerOp, bytesPerOp := benchutil.MarginalAllocs(nsrc, 3*nsrc, func(ops int) {
		for i := 0; i < ops; i++ {
			metrics.BFSHybrid(snap, srcs[i%nsrc], distH, sc)
		}
	})
	speedup := float64(classic) / float64(hybrid)
	cores, ncpu := runtime.GOMAXPROCS(0), runtime.NumCPU()
	t.Logf("coldtree n=%d: classic %v, hybrid %v (%.2fx), warm hybrid %g allocs/op", n, classic, hybrid, speedup, allocsPerOp)
	return append(rows,
		kernelsRow{Name: "kernels-coldtree-classic", N: n, Sources: nsrc, Workers: 1,
			Cores: cores, NumCPU: ncpu, NsPerOp: classic.Nanoseconds() / nsrc},
		kernelsRow{Name: "kernels-coldtree-hybrid", N: n, Sources: nsrc, Workers: 1,
			Cores: cores, NumCPU: ncpu, NsPerOp: hybrid.Nanoseconds() / nsrc,
			Speedup: speedup, SpeedupVs: "kernels-coldtree-classic",
			AllocsPerOp: fptr(allocsPerOp), BytesPerOp: fptr(bytesPerOp)})
}

// kernelsPathRows times the path-length histogram of nsrc sampled
// sources over the giant component of the BA map: one hybrid BFS per
// source with its distance row folded pair by pair, against the
// bit-parallel multi-source kernel the engine runs, which carries 64
// sources per traversal and folds level popcounts. Both must produce
// the same histogram.
func kernelsPathRows(t *testing.T, n int, rows []kernelsRow) []kernelsRow {
	t.Helper()
	const nsrc = 200
	snap, _ := kernelsFreezeBA(t, n, 1).GiantComponent()
	srcs, err := metrics.PathSources(snap.N(), rng.New(3), nsrc)
	if err != nil {
		t.Fatal(err)
	}
	dist := make([]int32, snap.N())
	bfs := metrics.NewBFSScratch(snap.N())
	perSource := func() metrics.PathHistogram {
		var h metrics.PathHistogram
		for _, src := range srcs {
			metrics.BFSHybrid(snap, src, dist, bfs)
			for v, d := range dist {
				if v == src || d <= 0 {
					continue
				}
				for int(d) >= len(h.Counts) {
					h.Counts = append(h.Counts, 0)
				}
				h.Counts[d]++
				h.Sum += int64(d)
				h.Total++
			}
		}
		return h
	}
	ms := metrics.NewMSBFSScratch(snap.N())
	multi := func() metrics.PathHistogram {
		var h metrics.PathHistogram
		h.AccumulateSources(snap, srcs, ms)
		return h
	}
	// Warm both kernels and pin the histograms equal.
	want, got := perSource(), multi()
	if got.Sum != want.Sum || got.Total != want.Total {
		t.Fatalf("n=%d: multi-source sum %d total %d, per-source %d %d", n, got.Sum, got.Total, want.Sum, want.Total)
	}
	for d, c := range want.Counts {
		if d < len(got.Counts) && got.Counts[d] != c || d >= len(got.Counts) && c != 0 {
			t.Fatalf("n=%d: multi-source and per-source histograms differ at d=%d", n, d)
		}
	}
	start := time.Now()
	perSource()
	single := time.Since(start)
	start = time.Now()
	multi()
	batched := time.Since(start)
	speedup := float64(single) / float64(batched)
	cores, ncpu := runtime.GOMAXPROCS(0), runtime.NumCPU()
	t.Logf("paths n=%d (giant %d), %d sources: per-source %v, multi-source %v (%.2fx)",
		n, snap.N(), nsrc, single, batched, speedup)
	return append(rows,
		kernelsRow{Name: "kernels-paths-persource", N: n, Sources: nsrc, Workers: 1,
			Cores: cores, NumCPU: ncpu, NsPerOp: single.Nanoseconds()},
		kernelsRow{Name: "kernels-paths-msbfs", N: n, Sources: nsrc, Workers: 1,
			Cores: cores, NumCPU: ncpu, NsPerOp: batched.Nanoseconds(),
			Speedup: speedup, SpeedupVs: "kernels-paths-persource"})
}

// kernelsWorkload derives a steady workload over a frozen BA map: load
// factor 0.7, mean flow size set for roughly flows arrivals per epoch.
func kernelsWorkload(tb testing.TB, n, flows int) (*graph.Snapshot, []float64, WorkloadSpec) {
	tb.Helper()
	snap := kernelsFreezeBA(tb, n, 1)
	masses := make([]float64, snap.N())
	for u := range masses {
		masses[u] = float64(snap.Degree(u))
	}
	var capTotal float64
	for _, e := range snap.EdgeList() {
		capTotal += float64(e.W)
	}
	const load = 0.7
	spec := WorkloadSpec{
		LoadFactor: load,
		MeanSize:   load * capTotal / float64(flows),
	}
	return snap, masses, spec
}

// kernelsWaterfillRows times one max-min solve of a fixed instance:
// about 20k flows routed over the canonical shortest-path trees of 200
// origins in a BA map of n nodes, with the multiplicities as
// capacities. The heap row runs the simulator's pooled kernel warm, as
// a steady-state epoch does; the scan row runs the scanFill oracle,
// which rescans every loaded link per bottleneck round (and allocates
// its arrays per call). Both must produce bit-identical rates.
func kernelsWaterfillRows(t *testing.T, n int, rows []kernelsRow) []kernelsRow {
	t.Helper()
	const (
		origins   = 200
		perOrigin = 100
		reps      = 5
	)
	snap := kernelsFreezeBA(t, n, 1)
	arcEdge := snap.ArcEdgeIDs()
	r := rng.New(2)
	caps := make([]float64, snap.M())
	for i, e := range snap.EdgeList() {
		caps[i] = float64(e.W)
	}
	var paths [][]int32
	for o := 0; o < origins; o++ {
		src := r.Intn(snap.N())
		tree := buildTree(snap, arcEdge, src)
		for k := 0; k < perOrigin; k++ {
			if dst := r.Intn(snap.N()); dst != src {
				if p, ok := tree.appendPath(nil, dst); ok {
					paths = append(paths, p)
				}
			}
		}
	}
	active := make([]*simFlow, len(paths))
	for i, p := range paths {
		active[i] = &simFlow{path: p}
	}
	wf := &wfState{}
	wf.ensure(len(caps))
	heapFill := func() {
		wf.fill(active, caps)
		for _, e := range wf.links {
			wf.nflows[e] = 0
		}
	}
	heapFill() // warm the pooled state
	want, _, _ := scanFill(paths, caps)
	for i, f := range active {
		if !sameBits(f.rate, want[i]) {
			t.Fatalf("n=%d flow %d: heap rate %v, scan %v", n, i, f.rate, want[i])
		}
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		heapFill()
	}
	heap := time.Since(start) / reps
	start = time.Now()
	for i := 0; i < reps; i++ {
		scanFill(paths, caps)
	}
	scan := time.Since(start) / reps
	speedup := float64(scan) / float64(heap)
	cores, ncpu := runtime.GOMAXPROCS(0), runtime.NumCPU()
	t.Logf("waterfill n=%d, %d flows: scan %v, heap %v (%.2fx)", n, len(paths), scan, heap, speedup)
	return append(rows,
		kernelsRow{Name: "kernels-waterfill-scan", N: n, Sources: origins, Flows: len(paths),
			Workers: 1, Cores: cores, NumCPU: ncpu, NsPerOp: scan.Nanoseconds()},
		kernelsRow{Name: "kernels-waterfill-heap", N: n, Sources: origins, Flows: len(paths),
			Workers: 1, Cores: cores, NumCPU: ncpu, NsPerOp: heap.Nanoseconds(),
			Speedup: speedup, SpeedupVs: "kernels-waterfill-scan"})
}

// kernelsEpochSteadyRow measures the simulator's marginal allocations
// per steady-state epoch. Both timed runs share a routing state
// pre-warmed over the longer horizon (both draw the identical seeded
// arrival stream, so the warmup resolves every OD pair either run will
// ask for) — what remains in the difference is exactly the per-epoch
// cost of the simulation loop.
func kernelsEpochSteadyRow(t *testing.T, rows []kernelsRow) []kernelsRow {
	t.Helper()
	const (
		n     = 2000
		flows = 200
		e1    = 16
		e2    = 40
	)
	snap, masses, spec := kernelsWorkload(t, n, flows)
	rt := NewRouting(snap)
	scr := NewSimScratch()
	run := func(epochs int) {
		s := spec
		s.Epochs = epochs
		if _, err := Simulate(snap, masses, s, rng.New(7), 1, WithRouting(rt), WithSimScratch(scr)); err != nil {
			t.Fatal(err)
		}
	}
	run(e2) // warm the shared routing state over the long horizon
	start := time.Now()
	run(e1)
	t1 := time.Since(start)
	allocsPerOp, bytesPerOp := benchutil.MarginalAllocs(e1, e2, run)
	start = time.Now()
	run(e2)
	t2 := time.Since(start)
	nsPerOp := (t2 - t1).Nanoseconds() / int64(e2-e1)
	if nsPerOp < 0 {
		nsPerOp = 0 // timing noise on tiny maps
	}
	cores, ncpu := runtime.GOMAXPROCS(0), runtime.NumCPU()
	t.Logf("epoch steady: %.3f allocs/epoch, %.1f B/epoch, ~%dns/epoch", allocsPerOp, bytesPerOp, nsPerOp)
	return append(rows, kernelsRow{
		Name: "kernels-epoch-steady", N: n, Epochs: e2 - e1, Workers: 1,
		Cores: cores, NumCPU: ncpu, NsPerOp: nsPerOp,
		AllocsPerOp: fptr(allocsPerOp), BytesPerOp: fptr(bytesPerOp),
	})
}

// kernelsRefreshRows drives a fixed-n churn sequence — removals and
// insertions each epoch, no growth — and measures the allocations of
// exactly the DistMap.Refresh and Routing.Refresh calls after a warmup
// phase has every pooled buffer at its high-water mark. Steady-state
// refreshes on the repair path must allocate nothing.
func kernelsRefreshRows(t *testing.T, rows []kernelsRow) []kernelsRow {
	t.Helper()
	const (
		n       = 4000
		pivots  = 32
		trees   = 24
		warmup  = 96
		measure = 12
	)
	top, err := gen.BA{N: n, M: 2}.Generate(rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	g := top.G.Copy()
	prev, err := g.FreezeChecked()
	if err != nil {
		t.Fatal(err)
	}
	dm := metrics.NewDistMapSampled(prev, rng.New(5), pivots, 1)
	rt := NewRouting(prev)
	srcs := make([]int, trees)
	for i := range srcs {
		srcs[i] = i
	}
	rt.Ensure(srcs, 1)

	r := rng.New(11)
	var dmAllocs, dmBytes, rtAllocs, rtBytes uint64
	var dmTime, rtTime time.Duration
	for epoch := 0; epoch < warmup+measure; epoch++ {
		// Exactly 8 removals and 8 insertions, so the edge count is
		// constant: every edge-sized refresh buffer reaches its
		// high-water mark during warmup and the measured phase sees the
		// repair path's true steady-state allocation count.
		edges := prev.EdgeList()
		for removed := 0; removed < 8; {
			e := edges[r.Intn(len(edges))]
			if g.HasEdge(e.U, e.V) {
				if err := g.RemoveEdge(e.U, e.V); err != nil {
					t.Fatal(err)
				}
				removed++
			}
		}
		for added := 0; added < 8; {
			u, v := r.Intn(g.N()), r.Intn(g.N())
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
				added++
			}
		}
		next, d, err := g.Refreeze(prev)
		if err != nil {
			t.Fatal(err)
		}
		if d == nil {
			t.Fatal("churn epoch expected a delta refresh")
		}
		if epoch < warmup {
			dm.Refresh(next, d, 1)
			rt.Refresh(next, d, 1)
		} else {
			start := time.Now()
			a, b := benchutil.MeasureAllocs(func() { dm.Refresh(next, d, 1) })
			dmTime += time.Since(start)
			dmAllocs += a
			dmBytes += b
			start = time.Now()
			a, b = benchutil.MeasureAllocs(func() { rt.Refresh(next, d, 1) })
			rtTime += time.Since(start)
			rtAllocs += a
			rtBytes += b
		}
		prev = next
	}
	cores, ncpu := runtime.GOMAXPROCS(0), runtime.NumCPU()
	t.Logf("refresh churn: distmap %d allocs / %d epochs, routing %d allocs / %d epochs",
		dmAllocs, measure, rtAllocs, measure)
	return append(rows,
		kernelsRow{Name: "kernels-distmap-refresh", N: n, Epochs: measure, Sources: pivots, Workers: 1,
			Cores: cores, NumCPU: ncpu, NsPerOp: dmTime.Nanoseconds() / measure,
			AllocsPerOp: fptr(float64(dmAllocs) / measure), BytesPerOp: fptr(float64(dmBytes) / measure)},
		kernelsRow{Name: "kernels-routing-refresh", N: n, Epochs: measure, Sources: trees, Workers: 1,
			Cores: cores, NumCPU: ncpu, NsPerOp: rtTime.Nanoseconds() / measure,
			AllocsPerOp: fptr(float64(rtAllocs) / measure), BytesPerOp: fptr(float64(rtBytes) / measure)})
}

// kernelsRoutingResetRow measures the marginal allocations of moving a
// Routing between topologies with Reset: alternate two same-size frozen
// maps, Reset to the other map and Ensure a fixed source set each
// cycle. After a warmup phase has the tree freelist, the Ensure
// staging buffers and the BFS scratch at their high-water marks, a
// Reset/Ensure cycle must allocate nothing — the property that lets
// sweeps recycle one Routing across every topology of a group instead
// of paying NewRouting per cell.
func kernelsRoutingResetRow(t *testing.T, rows []kernelsRow) []kernelsRow {
	t.Helper()
	const (
		n       = 4000
		trees   = 24
		warmup  = 8
		measure = 12
	)
	snaps := []*graph.Snapshot{kernelsFreezeBA(t, n, 1), kernelsFreezeBA(t, n, 2)}
	srcs := make([]int, trees)
	for i := range srcs {
		srcs[i] = i * n / trees
	}
	rt := NewRouting(snaps[0])
	rt.Ensure(srcs, 1)
	for cycle := 0; cycle < warmup; cycle++ {
		rt.Reset(snaps[(cycle+1)%2])
		rt.Ensure(srcs, 1)
	}
	var resetAllocs, resetBytes uint64
	var resetTime time.Duration
	for cycle := 0; cycle < measure; cycle++ {
		next := snaps[(warmup+cycle+1)%2]
		start := time.Now()
		a, b := benchutil.MeasureAllocs(func() {
			rt.Reset(next)
			rt.Ensure(srcs, 1)
		})
		resetTime += time.Since(start)
		resetAllocs += a
		resetBytes += b
	}
	// Pin correctness alongside the allocation claim: the recycled
	// routing must route exactly like a fresh one over the same map.
	cur := snaps[(warmup+measure)%2]
	fresh := NewRouting(cur)
	fresh.Ensure(srcs, 1)
	for _, src := range srcs {
		a, okA := rt.trees[src]
		b, okB := fresh.trees[src]
		if !okA || !okB {
			t.Fatalf("src %d: tree missing after reset cycle (reused %v, fresh %v)", src, okA, okB)
		}
		for v := 0; v < n; v++ {
			if a.dist[v] != b.dist[v] {
				t.Fatalf("src %d: reused tree dist[%d]=%d, fresh %d", src, v, a.dist[v], b.dist[v])
			}
		}
	}
	cores, ncpu := runtime.GOMAXPROCS(0), runtime.NumCPU()
	t.Logf("routing reset: %d allocs / %d cycles (%d trees each)", resetAllocs, measure, trees)
	return append(rows, kernelsRow{
		Name: "kernels-routing-reset", N: n, Epochs: measure, Sources: trees, Workers: 1,
		Cores: cores, NumCPU: ncpu, NsPerOp: resetTime.Nanoseconds() / measure,
		AllocsPerOp: fptr(float64(resetAllocs) / measure), BytesPerOp: fptr(float64(resetBytes) / measure),
	})
}

// TestKernelsBenchJSON emits BENCH_kernels.json: cold-tree-build
// speedup rows (hybrid vs classic BFS), water-fill speedup rows
// (indexed heap vs scan) and path-histogram speedup rows (multi-source
// vs per-source BFS), each at the 10k smoke plus the acceptance size,
// and the steady-state allocation rows both benchcheck ceilings and
// the CI race smoke run against. Disabled unless -kernels-bench-out
// is set.
func TestKernelsBenchJSON(t *testing.T) {
	if *kernelsBenchOut == "" {
		t.Skip("enable with -kernels-bench-out <file>")
	}
	sizes := []int{*kernelsBenchN}
	if *kernelsBenchN > 10000 {
		sizes = []int{10000, *kernelsBenchN}
	}
	var rows []kernelsRow
	for _, n := range sizes {
		rows = kernelsColdTreeRows(t, n, rows)
	}
	for _, n := range sizes {
		rows = kernelsWaterfillRows(t, n, rows)
	}
	for _, n := range sizes {
		rows = kernelsPathRows(t, n, rows)
	}
	rows = kernelsEpochSteadyRow(t, rows)
	rows = kernelsRefreshRows(t, rows)
	rows = kernelsRoutingResetRow(t, rows)
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*kernelsBenchOut, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %d kernel benchmark rows to %s\n", len(rows), *kernelsBenchOut)
}
