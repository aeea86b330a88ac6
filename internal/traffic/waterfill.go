package traffic

// This file is the simulator's max-min water-filling kernel: an
// indexed binary min-heap over the links still carrying unfixed flows,
// keyed by (equal share, rank). Each bottleneck round pops the root,
// fixes its unfixed flows at the root's share, releases their claim on
// the rest of their paths, and re-keys each link those paths touched
// exactly once — sifting it up or down, or dropping it when its last
// unfixed flow is fixed. A round costs O(touched · log L) over L loaded
// links instead of a rescan of every loaded link.
//
// The arithmetic is the original scan's, bit for bit: the key is the
// same capRem/nflows division on the same values, the rank reproduces
// the scan's strict-< tie-break (first-use order), flows fix in
// per-link admission order with the same per-link subtraction order,
// and the exhausted bottleneck's residue snaps to exactly zero. The
// state is pooled in wfState so a steady-state epoch allocates
// nothing. The ROADMAP's pluggable SharingPolicy layer will slot
// alternative allocators beside this one, which is why it lives behind
// its own seam.

// wfEntry is one heap entry: live link e offers its unfixed flows
// share; rank breaks share ties.
type wfEntry struct {
	share float64
	rank  int32
	e     int32
}

func wfLess(x, y wfEntry) bool {
	return x.share < y.share || (x.share == y.share && x.rank < y.rank)
}

// wfState is the pooled water-filling state: per-link arrays sized to
// the topology, the heap, and the round scratch. Every per-link entry
// is initialized when its link first carries a flow in a fill, so
// values left over from earlier fills are never read. Ranks are unique,
// so (share, rank) is a total order and the pop sequence is independent
// of how the heap was built.
type wfState struct {
	nflows []int32   // flows still unfixed across the link
	capRem []float64 // capacity not yet claimed by fixed flows
	hpos   []int32   // index in the heap; -1 once removed
	mark   []bool    // touched in the current round
	lflows [][]int32 // per-link flow indexes, admission order
	links  []int32   // links carrying active flows, first-use order

	heap    []wfEntry
	fixed   [][]int32 // paths of the flows the round fixed
	touched []int32   // links those paths touched
}

// ensure grows the per-link arrays to cover nlinks, for a state pooled
// across runs on different snapshots. fill's invariant — nflows
// all-zero between calls, every other entry initialized at first use —
// holds across runs, so growth is the only work.
func (wf *wfState) ensure(nlinks int) {
	if n := len(wf.nflows); n < nlinks {
		wf.nflows = append(wf.nflows, make([]int32, nlinks-n)...)
		wf.capRem = append(wf.capRem, make([]float64, nlinks-n)...)
		wf.hpos = append(wf.hpos, make([]int32, nlinks-n)...)
		wf.mark = append(wf.mark, make([]bool, nlinks-n)...)
		wf.lflows = append(wf.lflows, make([][]int32, nlinks-n)...)
		// The heap and the touched list never hold more than every
		// link once; sizing them up front spares their doubling copies.
		wf.heap = make([]wfEntry, 0, nlinks)
		wf.touched = make([]int32, 0, nlinks)
	}
}

func (wf *wfState) up(i int) {
	a := wf.heap
	x := a[i]
	for i > 0 {
		p := (i - 1) / 2
		if !wfLess(x, a[p]) {
			break
		}
		a[i] = a[p]
		wf.hpos[a[i].e] = int32(i)
		i = p
	}
	a[i] = x
	wf.hpos[x.e] = int32(i)
}

func (wf *wfState) down(i int) {
	a := wf.heap
	n := len(a)
	x := a[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && wfLess(a[r], a[c]) {
			c = r
		}
		if !wfLess(a[c], x) {
			break
		}
		a[i] = a[c]
		wf.hpos[a[i].e] = int32(i)
		i = c
	}
	a[i] = x
	wf.hpos[x.e] = int32(i)
}

// remove drops the entry at heap index i.
func (wf *wfState) remove(i int) {
	wf.hpos[wf.heap[i].e] = -1
	last := len(wf.heap) - 1
	x := wf.heap[last]
	wf.heap = wf.heap[:last]
	if i == last {
		return
	}
	wf.heap[i] = x
	if i > 0 && wfLess(x, wf.heap[(i-1)/2]) {
		wf.up(i)
	} else {
		wf.down(i)
	}
}

// settle closes the round on bottleneck best. fill has set the rates of
// the flows it fixed at share and queued their paths in wf.fixed, in
// per-link admission order; each link on those paths gives up share of
// its remaining capacity and one unfixed flow per path, the
// bottleneck's residue snaps to zero, and each touched link still in
// the heap is re-keyed once, or dropped when it has no unfixed flow
// left. Fixing rates before claiming capacity keeps the loop over the
// bottleneck's flows free of other work, so the cache misses on
// scattered flow records overlap instead of queueing behind it.
func (wf *wfState) settle(best int32, share float64) {
	for _, path := range wf.fixed {
		for _, e := range path {
			wf.capRem[e] -= share
			wf.nflows[e]--
			if !wf.mark[e] {
				wf.mark[e] = true
				wf.touched = append(wf.touched, e)
			}
		}
	}
	wf.fixed = wf.fixed[:0]
	// The bottleneck's flows all just fixed at capRem/n, so its
	// remaining capacity is exactly zero; snapping away the subtraction
	// chain's ulp residue makes a saturated bottleneck read utilization
	// 1.0 exactly, which keeps the CCDF's knife-edge ≥1 bin stable.
	wf.capRem[best] = 0
	for _, e := range wf.touched {
		wf.mark[e] = false
		i := int(wf.hpos[e])
		if i < 0 {
			continue // the popped bottleneck
		}
		if wf.nflows[e] == 0 {
			wf.remove(i)
			continue
		}
		old := wf.heap[i].share
		wf.heap[i].share = wf.capRem[e] / float64(wf.nflows[e])
		if wf.heap[i].share < old {
			wf.up(i)
		} else {
			wf.down(i)
		}
	}
	wf.touched = wf.touched[:0]
}

// fill computes the epoch's max-min fair rates over the active flows:
// repeatedly take the bottleneck link (smallest equal share among
// links still carrying unfixed flows, ties to the earliest first use),
// fix its flows at that share, and release their claim on the rest of
// their paths. Afterwards wf.links lists the carrying links for the
// observation pass, with wf.capRem holding their unclaimed capacity;
// the caller zeroes wf.nflows as it consumes them.
func (wf *wfState) fill(active []*simFlow, capEdge []float64) {
	wf.links = wf.links[:0]
	for fi, f := range active {
		f.rate = -1
		for _, e := range f.path {
			if wf.nflows[e] == 0 {
				wf.links = append(wf.links, e)
				wf.capRem[e] = capEdge[e]
				wf.lflows[e] = wf.lflows[e][:0]
			}
			wf.nflows[e]++
			wf.lflows[e] = append(wf.lflows[e], int32(fi))
		}
	}
	// Stage every carrying link, then order the heap in place (Floyd,
	// O(L)).
	wf.heap = wf.heap[:0]
	for rank, e := range wf.links {
		wf.heap = append(wf.heap, wfEntry{wf.capRem[e] / float64(wf.nflows[e]), int32(rank), e})
		wf.hpos[e] = int32(rank)
	}
	for i := len(wf.heap)/2 - 1; i >= 0; i-- {
		wf.down(i)
	}
	for unfixed := len(active); unfixed > 0 && len(wf.heap) > 0; {
		// Pop the round's bottleneck, its share clamped at zero against
		// floating-point slack.
		best, share := wf.heap[0].e, wf.heap[0].share
		wf.remove(0)
		if share < 0 {
			share = 0
		}
		for _, fi := range wf.lflows[best] {
			if f := active[fi]; f.rate < 0 {
				f.rate = share
				wf.fixed = append(wf.fixed, f.path)
			}
		}
		unfixed -= len(wf.fixed)
		wf.settle(best, share)
	}
}
