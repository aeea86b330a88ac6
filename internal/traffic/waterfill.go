package traffic

// This file is the max-min water-filling kernel both engines run: an
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
// the scan's strict-< tie-break (first-use order in the epoch engine,
// edge id in the event engine), flows fix in per-link admission order
// with the same per-link subtraction order, and the exhausted
// bottleneck's residue snaps to exactly zero. The epoch engine pools
// its state behind wfState so a steady-state epoch allocates nothing;
// the event engine keeps one wfLinks over the whole topology and one
// wfHeap per solver worker. The ROADMAP's pluggable SharingPolicy
// layer will slot alternative allocators beside this one, which is why
// it lives behind its own seam.

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

// wfHeap is one solver's heap plus its round scratch: the paths of the
// flows the round fixed and the links those paths touched. Ranks are
// unique, so (share, rank) is a total order and the pop sequence is
// independent of how the heap was built.
type wfHeap struct {
	a       []wfEntry
	fixed   [][]int32
	touched []int32
}

// wfLinks holds the kernel's per-link arrays. Solvers working on
// link-disjoint components may share one wfLinks, each with its own
// wfHeap. Every entry is initialized when its link enters a heap, so
// values left over from earlier solves are never read.
type wfLinks struct {
	nflows []int32   // flows still unfixed across the link
	capRem []float64 // capacity not yet claimed by fixed flows
	hpos   []int32   // index in the solver's heap; -1 once removed
	mark   []bool    // touched in the current round
}

// grow extends the per-link arrays to cover nlinks.
func (k *wfLinks) grow(nlinks int) {
	if n := len(k.nflows); n < nlinks {
		k.nflows = append(k.nflows, make([]int32, nlinks-n)...)
		k.capRem = append(k.capRem, make([]float64, nlinks-n)...)
		k.hpos = append(k.hpos, make([]int32, nlinks-n)...)
		k.mark = append(k.mark, make([]bool, nlinks-n)...)
	}
}

// push stages link e, whose capRem and nflows (> 0) are set, with the
// given rank. Call heapify once every link is staged.
func (k *wfLinks) push(h *wfHeap, e, rank int32) {
	h.a = append(h.a, wfEntry{k.capRem[e] / float64(k.nflows[e]), rank, e})
}

// heapify orders the staged entries into a heap (Floyd, O(L)).
func (k *wfLinks) heapify(h *wfHeap) {
	for i, en := range h.a {
		k.hpos[en.e] = int32(i)
	}
	for i := len(h.a)/2 - 1; i >= 0; i-- {
		k.down(h, i)
	}
}

func (k *wfLinks) up(h *wfHeap, i int) {
	a := h.a
	x := a[i]
	for i > 0 {
		p := (i - 1) / 2
		if !wfLess(x, a[p]) {
			break
		}
		a[i] = a[p]
		k.hpos[a[i].e] = int32(i)
		i = p
	}
	a[i] = x
	k.hpos[x.e] = int32(i)
}

func (k *wfLinks) down(h *wfHeap, i int) {
	a := h.a
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
		k.hpos[a[i].e] = int32(i)
		i = c
	}
	a[i] = x
	k.hpos[x.e] = int32(i)
}

// remove drops the entry at heap index i.
func (k *wfLinks) remove(h *wfHeap, i int) {
	k.hpos[h.a[i].e] = -1
	last := len(h.a) - 1
	x := h.a[last]
	h.a = h.a[:last]
	if i == last {
		return
	}
	h.a[i] = x
	if i > 0 && wfLess(x, h.a[(i-1)/2]) {
		k.up(h, i)
	} else {
		k.down(h, i)
	}
}

// next pops the round's bottleneck — the smallest (share, rank) among
// live links — and returns it with its share clamped at zero against
// floating-point slack; ok is false once no link is live.
func (k *wfLinks) next(h *wfHeap) (best int32, share float64, ok bool) {
	if len(h.a) == 0 {
		return -1, 0, false
	}
	best, share = h.a[0].e, h.a[0].share
	k.remove(h, 0)
	if share < 0 {
		share = 0
	}
	return best, share, true
}

// settle closes the round on bottleneck best. The engine has set the
// rates of the flows it fixed at share and queued their paths in
// h.fixed, in per-link admission order; each link on those paths gives
// up share of its remaining capacity and one unfixed flow per path,
// the bottleneck's residue snaps to zero, and each touched link still
// in the heap is re-keyed once, or dropped when it has no unfixed flow
// left. Fixing rates before claiming capacity keeps the engines' loops
// over the bottleneck's flows free of other work, so the cache misses
// on scattered flow records overlap instead of queueing behind it.
func (k *wfLinks) settle(h *wfHeap, best int32, share float64) {
	for _, path := range h.fixed {
		for _, e := range path {
			k.capRem[e] -= share
			k.nflows[e]--
			if !k.mark[e] {
				k.mark[e] = true
				h.touched = append(h.touched, e)
			}
		}
	}
	h.fixed = h.fixed[:0]
	// The bottleneck's flows all just fixed at capRem/n, so its
	// remaining capacity is exactly zero; snapping away the subtraction
	// chain's ulp residue makes a saturated bottleneck read utilization
	// 1.0 exactly — in both engines, which keeps the CCDF's knife-edge
	// ≥1 bin agreeing.
	k.capRem[best] = 0
	for _, e := range h.touched {
		k.mark[e] = false
		i := int(k.hpos[e])
		if i < 0 {
			continue // the popped bottleneck
		}
		if k.nflows[e] == 0 {
			k.remove(h, i)
			continue
		}
		old := h.a[i].share
		h.a[i].share = k.capRem[e] / float64(k.nflows[e])
		if h.a[i].share < old {
			k.up(h, i)
		} else {
			k.down(h, i)
		}
	}
	h.touched = h.touched[:0]
}

// wfState is the epoch engine's pooled water-filling state.
type wfState struct {
	wfLinks
	links  []int32   // links carrying active flows, first-use order
	lflows [][]int32 // per-link flow indexes, admission order
	heap   wfHeap
}

// ensure grows the per-link arrays to cover nlinks, for a state pooled
// across runs on different snapshots. fill's invariant — nflows
// all-zero between calls, every other entry initialized at first use —
// holds across runs, so growth is the only work.
func (wf *wfState) ensure(nlinks int) {
	wf.grow(nlinks)
	if n := len(wf.lflows); n < nlinks {
		wf.lflows = append(wf.lflows, make([][]int32, nlinks-n)...)
		// The heap and the touched list never hold more than every
		// link once; sizing them up front spares their doubling copies.
		wf.heap.a = make([]wfEntry, 0, nlinks)
		wf.heap.touched = make([]int32, 0, nlinks)
	}
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
	h := &wf.heap
	h.a = h.a[:0]
	for rank, e := range wf.links {
		wf.push(h, e, int32(rank))
	}
	wf.heapify(h)
	for unfixed := len(active); unfixed > 0; {
		best, share, ok := wf.next(h)
		if !ok {
			break // unreachable: every flow crosses at least one link
		}
		for _, fi := range wf.lflows[best] {
			if f := active[fi]; f.rate < 0 {
				f.rate = share
				h.fixed = append(h.fixed, f.path)
			}
		}
		unfixed -= len(h.fixed)
		wf.settle(h, best, share)
	}
}
