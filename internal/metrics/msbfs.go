package metrics

import (
	"math/bits"

	"netmodel/internal/graph"
)

// This file is the bit-parallel multi-source BFS behind the path-length
// statistics (Then et al., "The More the Merrier", VLDB 2015). One
// traversal carries up to 64 sources at once: bit i of a node's word
// belongs to source i, so OR-ing a frontier word along an arc advances
// every source that reached the arc's tail in the same step. The
// histogram only needs how many (source, node) pairs settle at each
// level, which is a popcount of each node's newly set bits — no
// distance row is ever written.
//
// Levels run top-down (scatter each frontier word to the neighbours)
// or bottom-up (gather the neighbours' frontier words into each node
// that still misses some source, stopping at the first arc that covers
// all of them), chosen per level by the same frontier-arc heuristic as
// BFSHybrid. The pairs settled at a level are the same either way, so
// the histogram is exactly the one the per-source traversals produce.

// MSBatch is the number of sources one multi-source traversal carries:
// the bits of a word.
const MSBatch = 64

// msAlpha is the direction switch of the multi-source kernel: a level
// runs bottom-up when its frontier's arcs exceed 1/msAlpha of the arcs
// out of nodes some source has not reached yet. A bottom-up row can
// stop early only once every source is covered, so the gather pays off
// later than in the single-source kernel's bfsAlpha.
const msAlpha = 2

// MSBFSScratch is the reusable state of the multi-source kernel: the
// seen, frontier and next-frontier masks of every node. It grows
// monotonically and is not safe for concurrent use.
type MSBFSScratch struct {
	seen, front, next []uint64
}

// NewMSBFSScratch allocates scratch for an n-node snapshot; the scratch
// grows on demand when later used on larger graphs.
func NewMSBFSScratch(n int) *MSBFSScratch {
	sc := &MSBFSScratch{}
	sc.ensure(n)
	return sc
}

func (sc *MSBFSScratch) ensure(n int) {
	if len(sc.seen) < n {
		sc.seen = make([]uint64, n)
		sc.front = make([]uint64, n)
		sc.next = make([]uint64, n)
	}
}

// AccumulateSources folds the (source, node) distance pairs of every
// source in srcs into h, MSBatch sources per traversal. Sources must be
// distinct node ids of s. The result equals folding one single-source
// BFS distance row per source, pair for pair.
func (h *PathHistogram) AccumulateSources(s *graph.Snapshot, srcs []int, sc *MSBFSScratch) {
	for lo := 0; lo < len(srcs); lo += MSBatch {
		h.accumulateBatch(s, srcs[lo:min(lo+MSBatch, len(srcs))], sc)
	}
}

// accumulateBatch runs one multi-source traversal over at most MSBatch
// sources.
func (h *PathHistogram) accumulateBatch(s *graph.Snapshot, srcs []int, sc *MSBFSScratch) {
	n := s.N()
	sc.ensure(n)
	offs, ends, nbrs := s.CSR()
	seen, front, next := sc.seen[:n], sc.front[:n], sc.next[:n]
	clear(seen)
	clear(front)
	clear(next)
	full := ^uint64(0) >> (MSBatch - len(srcs))
	// arcsLeft counts arcs out of nodes some source has not reached;
	// frontArcs counts arcs out of the frontier.
	arcsLeft, frontArcs := 2*s.M(), 0
	for i, src := range srcs {
		seen[src] = 1 << i
		front[src] = 1 << i
		frontArcs += int(ends[src] - offs[src])
	}
	// next is all zero at the start of every level.
	for d := int64(1); frontArcs > 0; d++ {
		if frontArcs*msAlpha > arcsLeft {
			// Bottom-up: every node still missing a source gathers the
			// frontier masks of its neighbours, stopping once no source
			// is left to gather.
			for u, su := range seen {
				if su == full {
					continue
				}
				var acc uint64
				for j := offs[u]; j < ends[u]; j++ {
					if acc |= front[nbrs[j]]; acc|su == full {
						break
					}
				}
				next[u] = acc
			}
		} else {
			// Top-down: every frontier node scatters its mask.
			for v, f := range front {
				if f == 0 {
					continue
				}
				for j := offs[v]; j < ends[v]; j++ {
					next[nbrs[j]] |= f
				}
			}
		}
		// Settle the level: the newly reached bits become the frontier.
		var cnt int64
		frontArcs = 0
		for u, nw := range next {
			nw &^= seen[u]
			next[u] = 0
			front[u] = nw
			if nw == 0 {
				continue
			}
			su := seen[u] | nw
			seen[u] = su
			cnt += int64(bits.OnesCount64(nw))
			deg := int(ends[u] - offs[u])
			frontArcs += deg
			if su == full {
				arcsLeft -= deg
			}
		}
		if cnt == 0 {
			break
		}
		h.addPairs(d, cnt)
	}
}

// addPairs counts c more pairs at distance d.
func (h *PathHistogram) addPairs(d, c int64) {
	for d >= int64(len(h.Counts)) {
		h.Counts = append(h.Counts, make([]int64, len(h.Counts)+8)...)
	}
	h.Counts[d] += c
	h.Sum += d * c
	h.Total += c
}
