package traffic

import (
	"fmt"
	"math"
	"testing"

	"netmodel/internal/gen"
	"netmodel/internal/rng"
)

// The water-fill kernel is checked two ways, neither of which shares
// code with it: bit for bit against scanFill, the O(links)-per-round
// scan allocator the indexed heap replaced, and semantically against
// maxMinCertificate, which sees only paths, capacities and rates.

// scanFill is the reference water-filler: every bottleneck round
// rescans every loaded link for the smallest equal share, ties to the
// earliest first-use link. It returns the rates, the loaded links in
// first-use order and the per-link unclaimed capacity.
func scanFill(paths [][]int32, caps []float64) (rates []float64, links []int32, capRem []float64) {
	nflows := make([]int32, len(caps))
	capRem = make([]float64, len(caps))
	lflows := make([][]int32, len(caps))
	rates = make([]float64, len(paths))
	for fi, p := range paths {
		rates[fi] = -1
		for _, e := range p {
			if nflows[e] == 0 {
				links = append(links, e)
				capRem[e] = caps[e]
			}
			nflows[e]++
			lflows[e] = append(lflows[e], int32(fi))
		}
	}
	for unfixed := len(paths); unfixed > 0; {
		best := int32(-1)
		var bestShare float64
		for _, e := range links {
			if nflows[e] == 0 {
				continue
			}
			share := capRem[e] / float64(nflows[e])
			if best < 0 || share < bestShare {
				best, bestShare = e, share
			}
		}
		if best < 0 {
			break
		}
		if bestShare < 0 {
			bestShare = 0
		}
		for _, fi := range lflows[best] {
			if rates[fi] >= 0 {
				continue
			}
			rates[fi] = bestShare
			unfixed--
			for _, e := range paths[fi] {
				capRem[e] -= bestShare
				nflows[e]--
			}
		}
		capRem[best] = 0
	}
	return rates, links, capRem
}

// maxMinCertificate checks that rates are a max-min fair allocation of
// caps over paths from first principles (Bertsekas–Gallager): every
// link is feasible — its rates sum to at most its capacity — and every
// flow has a bottleneck, a saturated link on its path on which no other
// flow gets a higher rate. Tolerances are relative, 1e-9 of capacity.
func maxMinCertificate(paths [][]int32, caps, rates []float64) error {
	load := make([]float64, len(caps))
	top := make([]float64, len(caps))
	for f, p := range paths {
		if !(rates[f] >= 0) {
			return fmt.Errorf("flow %d: rate %v, want a non-negative allocation", f, rates[f])
		}
		for _, e := range p {
			load[e] += rates[f]
			top[e] = math.Max(top[e], rates[f])
		}
	}
	for e, c := range caps {
		if load[e] > c*(1+1e-9) {
			return fmt.Errorf("link %d infeasible: load %v over capacity %v", e, load[e], c)
		}
	}
	for f, p := range paths {
		bottleneck := false
		for _, e := range p {
			tol := 1e-9 * caps[e]
			if load[e] >= caps[e]-tol && top[e] <= rates[f]+tol {
				bottleneck = true
				break
			}
		}
		if !bottleneck {
			return fmt.Errorf("flow %d (rate %v, path %v) has no bottleneck link", f, rates[f], p)
		}
	}
	return nil
}

// wfInstance is one water-filling problem: per-link capacities and
// per-flow paths of distinct link ids.
type wfInstance struct {
	caps  []float64
	paths [][]int32
}

// randomWFInstance draws an instance built to hit the kernel's corner
// cases: zero-capacity links, all-equal capacities, flows duplicating
// an earlier flow's path (forced share ties), one-hop flows, and flows
// crossing every link.
func randomWFInstance(r *rng.Rand) wfInstance {
	nl := 1 + r.Intn(40)
	equal := r.Intn(3) == 0
	caps := make([]float64, nl)
	for e := range caps {
		switch {
		case r.Intn(8) == 0:
			caps[e] = 0
		case equal:
			caps[e] = 3
		case r.Intn(2) == 0:
			caps[e] = float64(1 + r.Intn(4))
		default:
			caps[e] = 0.1 + 5*r.Float64()
		}
	}
	all := make([]int32, nl)
	for i, e := range r.Perm(nl) {
		all[i] = int32(e)
	}
	paths := make([][]int32, 1+r.Intn(80))
	for f := range paths {
		switch k := r.Intn(6); {
		case k == 0 && f > 0:
			paths[f] = paths[r.Intn(f)]
		case k == 1:
			paths[f] = []int32{int32(r.Intn(nl))}
		case k == 2:
			paths[f] = all
		default:
			perm := r.Perm(nl)
			p := make([]int32, 1+r.Intn(min(nl, 8)))
			for i := range p {
				p[i] = int32(perm[i])
			}
			paths[f] = p
		}
	}
	return wfInstance{caps: caps, paths: paths}
}

// baWFInstance routes random origin–destination pairs over the
// canonical shortest-path trees of a BA map, as the simulator does.
// Capacities are the edge multiplicities, or with randomCaps random
// values including dead links.
func baWFInstance(tb testing.TB, seed uint64, flows int, randomCaps bool) wfInstance {
	tb.Helper()
	top, err := gen.BA{N: 400, M: 2}.Generate(rng.New(seed))
	if err != nil {
		tb.Fatal(err)
	}
	s := top.G.Freeze()
	arcEdge := s.ArcEdgeIDs()
	r := rng.New(seed + 100)
	caps := make([]float64, s.M())
	for i, e := range s.EdgeList() {
		caps[i] = float64(e.W)
		if randomCaps {
			caps[i] = float64(r.Intn(5)) * r.Float64()
		}
	}
	trees := map[int]*rtree{}
	var paths [][]int32
	for len(paths) < flows {
		src, dst := r.Intn(s.N()), r.Intn(s.N())
		if src == dst {
			continue
		}
		t, ok := trees[src]
		if !ok {
			t = buildTree(s, arcEdge, src)
			trees[src] = t
		}
		if p, ok := t.appendPath(nil, dst); ok && len(p) > 0 {
			paths = append(paths, p)
		}
	}
	return wfInstance{caps: caps, paths: paths}
}

// epochFill runs the simulator's pooled fill on inst, returning the
// rates and leaving wf as the observation pass would find it; callers
// then zero nflows over wf.links as that pass does.
func epochFill(wf *wfState, inst wfInstance) []float64 {
	wf.ensure(len(inst.caps))
	active := make([]*simFlow, len(inst.paths))
	for i, p := range inst.paths {
		active[i] = &simFlow{path: p}
	}
	wf.fill(active, inst.caps)
	rates := make([]float64, len(active))
	for i, f := range active {
		rates[i] = f.rate
	}
	return rates
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkAgainstScan asserts the indexed-heap kernel reproduces the scan
// allocator bit for bit.
func checkAgainstScan(t *testing.T, name string, inst wfInstance, wf *wfState) {
	t.Helper()
	rates := epochFill(wf, inst)
	wantRates, wantLinks, wantCap := scanFill(inst.paths, inst.caps)
	for i := range rates {
		if !sameBits(rates[i], wantRates[i]) {
			t.Fatalf("%s: flow %d rate %v, scan %v", name, i, rates[i], wantRates[i])
		}
	}
	if len(wf.links) != len(wantLinks) {
		t.Fatalf("%s: %d loaded links, scan %d", name, len(wf.links), len(wantLinks))
	}
	for i, e := range wf.links {
		if e != wantLinks[i] {
			t.Fatalf("%s: links[%d] = %d, scan %d", name, i, e, wantLinks[i])
		}
		if !sameBits(wf.capRem[e], wantCap[e]) {
			t.Fatalf("%s: link %d capRem %v, scan %v", name, e, wf.capRem[e], wantCap[e])
		}
		wf.nflows[e] = 0
	}
}

// TestWaterFillMatchesScan pins the indexed-heap kernel to the scan
// oracle on seeded random instances and on BA routing-tree instances,
// reusing one pooled state throughout as the simulator does.
func TestWaterFillMatchesScan(t *testing.T) {
	wf := &wfState{}
	r := rng.New(42)
	for i := 0; i < 2000; i++ {
		checkAgainstScan(t, fmt.Sprintf("random instance %d", i), randomWFInstance(r), wf)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		for _, randomCaps := range []bool{false, true} {
			inst := baWFInstance(t, seed, 300*int(seed), randomCaps)
			checkAgainstScan(t, fmt.Sprintf("BA seed %d randomCaps=%v", seed, randomCaps), inst, wf)
		}
	}
}

// TestWaterFillCertificate checks the kernel's output against the
// independent max-min certificate.
func TestWaterFillCertificate(t *testing.T) {
	wf := &wfState{}
	check := func(name string, inst wfInstance) {
		t.Helper()
		rates := epochFill(wf, inst)
		for _, e := range wf.links {
			wf.nflows[e] = 0
		}
		if err := maxMinCertificate(inst.paths, inst.caps, rates); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	r := rng.New(7)
	for i := 0; i < 2000; i++ {
		check(fmt.Sprintf("random instance %d", i), randomWFInstance(r))
	}
	for seed := uint64(1); seed <= 4; seed++ {
		for _, randomCaps := range []bool{false, true} {
			check(fmt.Sprintf("BA seed %d randomCaps=%v", seed, randomCaps), baWFInstance(t, seed, 300*int(seed), randomCaps))
		}
	}
}

// TestMaxMinCertificateRejects shows the certificate is not vacuous:
// over-capacity, under-allocated and unfairly split allocations of a
// two-link line each fail it.
func TestMaxMinCertificateRejects(t *testing.T) {
	// Links 0 (cap 1) and 1 (cap 2); flow 0 crosses both, flows 1 and 2
	// one each. Max-min: link 0 shares 1/2, then flow 2 takes 1.5.
	paths := [][]int32{{0, 1}, {0}, {1}}
	caps := []float64{1, 2}
	if err := maxMinCertificate(paths, caps, []float64{0.5, 0.5, 1.5}); err != nil {
		t.Fatalf("max-min allocation rejected: %v", err)
	}
	for _, bad := range [][]float64{
		{0.5, 0.6, 1.5}, // link 0 over capacity
		{0.5, 0.5, 1.0}, // flow 2 could grow: link 1 unsaturated
		{0.2, 0.8, 1.8}, // flow 0's only saturated link favors flow 1
	} {
		if err := maxMinCertificate(paths, caps, bad); err == nil {
			t.Fatalf("rates %v passed the certificate", bad)
		}
	}
}
