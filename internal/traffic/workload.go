package traffic

import (
	"errors"
	"fmt"
	"math"

	"netmodel/internal/rng"
)

// This file is the workload layer of the traffic package: instead of a
// single-shot matrix routed once, demand is a population of flows that
// arrive over time on gravity-weighted origin-destination pairs, carry
// heavy-tailed sizes, and share link bandwidth while they live — the
// flow-level abstraction of the congestion-control and flow-level
// stability literature (Garg-Young, Feuillet). Arrival processes and
// size distributions are pluggable; every random draw comes from a
// stream split off the workload seed per source node, so a simulation
// is a pure function of (snapshot, masses, spec, seed) — bit-identical
// at every worker count.

// SizeDist draws flow sizes (in capacity·time units: a size-1 flow
// saturates a unit-capacity link for one time unit).
type SizeDist interface {
	// Name identifies the distribution family ("pareto", ...).
	Name() string
	// Sample draws one flow size > 0 from the given stream.
	Sample(r *rng.Rand) float64
}

// ParetoSizes is the canonical heavy-tailed flow-size law: Pareto with
// the given mean and tail index Alpha > 1 (the minimum size is derived
// as Mean·(Alpha-1)/Alpha). Smaller Alpha means heavier tails: the
// mice-and-elephants mix sharpens as Alpha drops toward 1.
type ParetoSizes struct {
	Mean, Alpha float64
}

// Name implements SizeDist.
func (p ParetoSizes) Name() string { return "pareto" }

// Sample implements SizeDist.
func (p ParetoSizes) Sample(r *rng.Rand) float64 {
	xm := p.Mean * (p.Alpha - 1) / p.Alpha
	return r.Pareto(xm, p.Alpha)
}

// LognormalSizes draws lognormal flow sizes with the given mean and
// log-space standard deviation Sigma (the location parameter is derived
// so the arithmetic mean is Mean).
type LognormalSizes struct {
	Mean, Sigma float64
}

// Name implements SizeDist.
func (l LognormalSizes) Name() string { return "lognormal" }

// Sample implements SizeDist.
func (l LognormalSizes) Sample(r *rng.Rand) float64 {
	mu := math.Log(l.Mean) - l.Sigma*l.Sigma/2
	return math.Exp(r.Normal(mu, l.Sigma))
}

// ExpSizes draws exponential flow sizes — the light-tailed reference
// against which the heavy-tailed laws are compared.
type ExpSizes struct {
	Mean float64
}

// Name implements SizeDist.
func (e ExpSizes) Name() string { return "exp" }

// Sample implements SizeDist.
func (e ExpSizes) Sample(r *rng.Rand) float64 { return r.Exp(1 / e.Mean) }

// ArrivalProcess mints per-source arrival sources. Each source owns its
// own split random stream, which keeps the arrival sample paths of
// distinct nodes independent and the whole workload deterministic.
type ArrivalProcess interface {
	// Name identifies the process family ("poisson", "onoff").
	Name() string
	// NewSource returns the arrival state of one origin node with the
	// given long-run mean arrival rate (flows per unit time), drawing
	// only from r (which the source retains).
	NewSource(r *rng.Rand, rate float64) ArrivalSource
}

// ArrivalSource is the evolving arrival state of one origin node.
type ArrivalSource interface {
	// Arrivals advances the source by dt time units and returns how many
	// flows arrived in that window.
	Arrivals(dt float64) int
}

// PoissonArrivals is the memoryless session-arrival process: counts per
// window are Poisson with mean rate·dt.
type PoissonArrivals struct{}

// Name implements ArrivalProcess.
func (PoissonArrivals) Name() string { return "poisson" }

// poissonSource caches exp(-rate·dt) for the last window length: runs
// advance every source by the same epoch length, so the exponential is
// computed once per source instead of once per epoch.
type poissonSource struct {
	r        *rng.Rand
	rate     float64
	dt, expm float64
}

// NewSource implements ArrivalProcess.
func (PoissonArrivals) NewSource(r *rng.Rand, rate float64) ArrivalSource {
	return &poissonSource{r: r, rate: rate}
}

func (s *poissonSource) Arrivals(dt float64) int {
	if dt != s.dt {
		s.dt, s.expm = dt, math.Exp(-s.rate*dt)
	}
	return s.r.PoissonExp(s.rate*dt, s.expm)
}

// OnOffArrivals is the Markov-modulated burst process: a source
// alternates between exponential on-periods (mean MeanOn) and
// off-periods (mean MeanOff), emitting Poisson arrivals only while on,
// at an intensity scaled by (MeanOn+MeanOff)/MeanOn so the long-run
// mean rate matches the requested one. The initial state is drawn from
// the stationary distribution.
type OnOffArrivals struct {
	MeanOn, MeanOff float64
}

// Name implements ArrivalProcess.
func (OnOffArrivals) Name() string { return "onoff" }

type onOffSource struct {
	r               *rng.Rand
	on              bool
	left            float64 // time left in the current state
	lambdaOn        float64 // arrival intensity while on
	meanOn, meanOff float64
}

// NewSource implements ArrivalProcess.
func (p OnOffArrivals) NewSource(r *rng.Rand, rate float64) ArrivalSource {
	s := &onOffSource{
		r:        r,
		lambdaOn: rate * (p.MeanOn + p.MeanOff) / p.MeanOn,
		meanOn:   p.MeanOn,
		meanOff:  p.MeanOff,
	}
	s.on = r.Float64() < p.MeanOn/(p.MeanOn+p.MeanOff)
	if s.on {
		s.left = r.Exp(1 / s.meanOn)
	} else {
		s.left = r.Exp(1 / s.meanOff)
	}
	return s
}

func (s *onOffSource) Arrivals(dt float64) int {
	var onTime float64
	for dt > 0 {
		step := dt
		if s.left < step {
			step = s.left
		}
		if s.on {
			onTime += step
		}
		dt -= step
		s.left -= step
		if s.left <= 0 {
			s.on = !s.on
			if s.on {
				s.left = s.r.Exp(1 / s.meanOn)
			} else {
				s.left = s.r.Exp(1 / s.meanOff)
			}
		}
	}
	if onTime == 0 {
		return 0
	}
	return s.r.Poisson(s.lambdaOn * onTime)
}

// WorkloadSpec is the flag- and JSON-friendly description of a flow
// workload: plain numbers and names, so sweep grids can serialize it
// and vary LoadFactor and TailIndex as sweep axes. The zero value of
// every optional field means its documented default.
type WorkloadSpec struct {
	// Engine names the simulator: "epoch", the default and only value,
	// re-solves the max-min allocation every epoch. The field stays so
	// specs and grids that name it keep parsing, and reports echo it.
	Engine string `json:"engine,omitempty"`
	// Arrivals names the arrival process: "poisson" (default) or
	// "onoff".
	Arrivals string `json:"arrivals,omitempty"`
	// Sizes names the flow-size law: "pareto" (default), "lognormal" or
	// "exp".
	Sizes string `json:"sizes,omitempty"`
	// LoadFactor scales the aggregate offered bit-rate to LoadFactor ×
	// total link capacity. Since each flow consumes capacity on every
	// hop of its path, links begin to saturate near 1/(mean hops); the
	// overload metrics report where that transition lands. Required.
	LoadFactor float64 `json:"load_factor"`
	// TailIndex shapes the size tail: the Pareto tail exponent alpha
	// (> 1; default 1.5) or the lognormal sigma (default 1). Ignored by
	// "exp".
	TailIndex float64 `json:"tail_index,omitempty"`
	// MeanSize is the mean flow size in capacity·time units (default 1).
	MeanSize float64 `json:"mean_size,omitempty"`
	// MeanOn and MeanOff are the on-off state durations (defaults 1 and
	// 4). Ignored by "poisson".
	MeanOn  float64 `json:"mean_on,omitempty"`
	MeanOff float64 `json:"mean_off,omitempty"`
	// Epochs is the simulated horizon in epochs (default 20).
	Epochs int `json:"epochs,omitempty"`
	// EpochLen is the epoch duration dt (default 1): arrivals batch at
	// epoch starts and max-min rates hold within an epoch.
	EpochLen float64 `json:"epoch_len,omitempty"`
	// CapacityUnit is the capacity of a multiplicity-1 link (default 1);
	// a link's capacity is its edge multiplicity times this.
	CapacityUnit float64 `json:"capacity_unit,omitempty"`
	// OverloadAt is the utilization at or above which a link-epoch
	// counts as overloaded (default 0.999 — saturated under max-min
	// sharing).
	OverloadAt float64 `json:"overload_at,omitempty"`
	// Failures optionally injects link/node outages into the horizon
	// (see FailureSpec). nil — or mode "none" — is the pinned no-failure
	// path: the simulation is bit-identical to one without the field.
	Failures *FailureSpec `json:"failures,omitempty"`
}

// EngineEpoch is the simulator WorkloadSpec.Engine names: a full
// max-min water-filling pass over every active flow, every epoch.
const EngineEpoch = "epoch"

// workloadDefaults are the resolved fallbacks of WorkloadSpec.
const (
	defaultTailAlpha = 1.5
	defaultTailSigma = 1.0
	defaultMeanSize  = 1.0
	defaultMeanOn    = 1.0
	defaultMeanOff   = 4.0
	defaultEpochs    = 20
	defaultEpochLen  = 1.0
	defaultCapUnit   = 1.0
	defaultOverload  = 0.999
)

// withDefaults resolves every zero-valued optional field to its
// documented default, so the spec echoed in reports is fully explicit.
func (sp WorkloadSpec) withDefaults() WorkloadSpec {
	if sp.Engine == "" {
		sp.Engine = EngineEpoch
	}
	if sp.Arrivals == "" {
		sp.Arrivals = "poisson"
	}
	if sp.Sizes == "" {
		sp.Sizes = "pareto"
	}
	if sp.TailIndex == 0 {
		if sp.Sizes == "lognormal" {
			sp.TailIndex = defaultTailSigma
		} else {
			sp.TailIndex = defaultTailAlpha
		}
	}
	if sp.MeanSize == 0 {
		sp.MeanSize = defaultMeanSize
	}
	if sp.MeanOn == 0 {
		sp.MeanOn = defaultMeanOn
	}
	if sp.MeanOff == 0 {
		sp.MeanOff = defaultMeanOff
	}
	if sp.Epochs == 0 {
		sp.Epochs = defaultEpochs
	}
	if sp.EpochLen == 0 {
		sp.EpochLen = defaultEpochLen
	}
	if sp.CapacityUnit == 0 {
		sp.CapacityUnit = defaultCapUnit
	}
	if sp.OverloadAt == 0 {
		sp.OverloadAt = defaultOverload
	}
	if sp.Failures != nil {
		f := sp.Failures.withDefaults()
		sp.Failures = &f
	}
	return sp
}

// Validate checks a spec after default resolution and reports the first
// violation.
func (sp WorkloadSpec) Validate() error {
	sp = sp.withDefaults()
	for _, v := range []float64{sp.LoadFactor, sp.TailIndex, sp.MeanSize,
		sp.MeanOn, sp.MeanOff, sp.EpochLen, sp.CapacityUnit, sp.OverloadAt} {
		// Comparisons below are false for NaN, so reject non-finite
		// knobs explicitly — "-load nan" must fail here, not simulate.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("traffic: workload spec values must be finite")
		}
	}
	switch sp.Engine {
	case EngineEpoch:
	case "event":
		return errors.New(`traffic: the event engine was removed; omit "engine" or set it to "epoch"`)
	default:
		return fmt.Errorf("traffic: unknown engine %q (have %s)", sp.Engine, EngineEpoch)
	}
	switch sp.Arrivals {
	case "poisson", "onoff":
	default:
		return fmt.Errorf("traffic: unknown arrival process %q (have poisson, onoff)", sp.Arrivals)
	}
	switch sp.Sizes {
	case "pareto", "lognormal", "exp":
	default:
		return fmt.Errorf("traffic: unknown size distribution %q (have pareto, lognormal, exp)", sp.Sizes)
	}
	if sp.LoadFactor <= 0 {
		return errors.New("traffic: workload load factor must be positive")
	}
	if sp.Sizes == "pareto" && sp.TailIndex <= 1 {
		return errors.New("traffic: pareto tail index must exceed 1 for a finite mean size")
	}
	if sp.TailIndex < 0 {
		return errors.New("traffic: tail index must not be negative")
	}
	if sp.MeanSize <= 0 || sp.MeanOn <= 0 || sp.MeanOff <= 0 ||
		sp.EpochLen <= 0 || sp.CapacityUnit <= 0 {
		return errors.New("traffic: workload sizes, durations, epoch length and capacity unit must be positive")
	}
	if sp.Epochs < 0 {
		return errors.New("traffic: workload epochs must not be negative")
	}
	if sp.Failures != nil {
		if err := sp.Failures.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// arrivalProcess resolves the named process.
func (sp WorkloadSpec) arrivalProcess() ArrivalProcess {
	if sp.Arrivals == "onoff" {
		return OnOffArrivals{MeanOn: sp.MeanOn, MeanOff: sp.MeanOff}
	}
	return PoissonArrivals{}
}

// sizeDist resolves the named size law.
func (sp WorkloadSpec) sizeDist() SizeDist {
	switch sp.Sizes {
	case "lognormal":
		return LognormalSizes{Mean: sp.MeanSize, Sigma: sp.TailIndex}
	case "exp":
		return ExpSizes{Mean: sp.MeanSize}
	default:
		return ParetoSizes{Mean: sp.MeanSize, Alpha: sp.TailIndex}
	}
}
