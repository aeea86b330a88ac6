package traffic

import (
	"slices"

	"netmodel/internal/rng"
)

// SimScratch pools the simulator's run-to-run state: the arrival
// calendar and admission buffers, the water-filling allocator, and the
// flow freelist and active buffer. A fresh Simulate call builds all of
// this from nothing and lets it die with the run; a caller that simulates
// repeatedly — a sweep, a policy search, the steady-state benchmarks —
// passes one SimScratch through WithSimScratch and every buffer keeps
// its high-water capacity across runs, so a run whose demands stay
// under a predecessor's allocates nothing at all.
//
// The scratch carries capacity, never results: each run truncates and
// restamps what it reuses, and rebuilds the destination sampler unless
// its masses equal the last run's, so reports are bit-identical with
// and without a shared scratch (pinned by TestSimScratchReuseIdentical).
// The zero value is ready. Not safe for concurrent use — one scratch
// serves one Simulate call at a time.
type SimScratch struct {
	wf        wfState
	freeFlows []*simFlow
	active    []*simFlow

	// Admission state: the pre-drawn calendar, the per-origin resolve
	// and admit cursors, the origins with arrivals left to admit, the
	// origins a routing segment owes BFS rows, and the run arena of
	// paths that live outside the routing memo.
	cal          flatCalendar
	resAt, admAt []int32
	live, need   []int32
	rowSrcs      []int
	runPaths     []int32

	// The destination sampler of the last run and a copy of the masses
	// it was built over: runs over unchanged masses (a sweep's workload
	// variants) skip rebuilding it.
	alias     *rng.Alias
	aliasMass []float64
}

// aliasFor returns the destination sampler over masses, reusing the
// previous run's when the masses are unchanged.
func (sc *SimScratch) aliasFor(masses []float64) (*rng.Alias, error) {
	if sc.alias != nil && slices.Equal(sc.aliasMass, masses) {
		return sc.alias, nil
	}
	alias, err := rng.NewAliasTable(masses)
	if err != nil {
		return nil, err
	}
	sc.alias, sc.aliasMass = alias, append(sc.aliasMass[:0], masses...)
	return alias, nil
}

// NewSimScratch returns an empty scratch ready to thread through
// Simulate calls via WithSimScratch.
func NewSimScratch() *SimScratch { return &SimScratch{} }

// WithSimScratch reuses sc's pooled buffers for the run. See
// SimScratch for the contract.
func WithSimScratch(sc *SimScratch) SimOption {
	return func(cfg *simConfig) { cfg.scratch = sc }
}
