// Package load is the trace-driven load and SLO harness behind
// cmd/fhload: it synthesizes open-loop arrival traces from named shape
// presets (Poisson, heavy-tailed Pareto, diurnal sinusoid, square-wave
// flash crowds — all seeded, no wall clock), drives them either
// in-process against a service.Core or over HTTP against a live fhd,
// and distills the outcome into a schema-versioned SLO report: global
// and per-tenant p50/p99/p999 completion and queueing-delay
// percentiles, shed/429 accounting, and attainment against declared
// per-tenant objectives.
//
// Open-loop means arrival instants are fixed by the trace, not by the
// service's responses — the arrival process never slows down because
// the server is struggling, which is the regime that exposes queueing
// collapse (the online generalized machine model of arXiv:1502.02304
// motivates exactly this). Every latency in the report is simulated
// time, so reports are bit-deterministic: identical seed, shape and
// machine give identical percentiles, shed sequences and fingerprints
// on any host and across the in-process and HTTP drive modes. Wall-clock throughput (decisions/sec, ops/sec)
// is stamped alongside but excluded from the fingerprint and never
// hard-gated by Compare.
package load

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"fhs/internal/service"
)

// Shape names.
const (
	// ShapeUniform is the legacy fhgen -arrivals process: gaps uniform
	// on [0, 2·MeanGap]. Kept byte-compatible with
	// service.GenerateTrace so existing golden traces stay valid.
	ShapeUniform = "uniform"
	// ShapePoisson draws exponential inter-arrival gaps — the
	// memoryless baseline.
	ShapePoisson = "poisson"
	// ShapePareto draws Pareto(α) gaps: many near-simultaneous
	// arrivals punctuated by long quiet stretches, the heavy-tailed
	// burstiness of real tenant traffic.
	ShapePareto = "pareto"
	// ShapeDiurnal modulates a Poisson process with a sinusoid of the
	// configured period — the day/night cycle compressed into
	// simulated time.
	ShapeDiurnal = "diurnal"
	// ShapeBurst modulates a Poisson process with a square wave: a
	// flash crowd of BurstFactor× the base rate for Duty of every
	// period.
	ShapeBurst = "burst"
)

// Shapes lists the shape presets in documentation order.
func Shapes() []string {
	return []string{ShapeUniform, ShapePoisson, ShapePareto, ShapeDiurnal, ShapeBurst}
}

// TraceConfig parameterizes Synthesize. The zero value of every shape
// parameter means its documented default, so callers set only what
// they mean to change.
type TraceConfig struct {
	// Shape names the arrival process; empty means ShapePoisson.
	Shape string
	// Jobs is the number of submits. Required, > 0.
	Jobs int
	// MeanGap is the target mean inter-arrival gap in simulated time
	// units; <= 0 defaults to 4.
	MeanGap int64
	// Tenants cycle by random draw; empty defaults to one tenant "a"
	// of weight 1.
	Tenants []service.TenantSpec
	// CancelFrac is the fraction of jobs that receive a later cancel.
	CancelFrac float64
	// Classes are the workload classes to rotate through; empty
	// defaults to ep, tree, ir.
	Classes []string
	// K is the job/machine type count. Required, > 0.
	K int
	// Scale is the JobSpec scale ("" = small).
	Scale string
	// SeedBase seeds the trace draw and offsets per-job spec seeds
	// (job i draws spec seed SeedBase + i).
	SeedBase int64
	// PriorityLevels > 1 assigns uniform priorities in
	// [0, PriorityLevels).
	PriorityLevels int

	// ParetoAlpha is the Pareto tail index; <= 0 defaults to 1.5.
	// Must be > 1 so the mean gap exists.
	ParetoAlpha float64
	// Period is the diurnal/burst cycle length; <= 0 derives
	// max(4·MeanGap, Jobs·MeanGap/4) so a trace always spans several
	// cycles.
	Period int64
	// Amplitude is the diurnal rate swing in [0, 1); <= 0 defaults
	// to 0.8 (rate varies 5:1 trough to crest at the default).
	Amplitude float64
	// BurstFactor is the flash-crowd rate multiplier; <= 0 defaults
	// to 6. Must satisfy Duty·BurstFactor < 1 so the off-burst rate
	// stays positive.
	BurstFactor float64
	// Duty is the fraction of each period spent at the burst rate in
	// (0, 1); <= 0 defaults to 0.1.
	Duty float64
}

// fillDefaults resolves zero values to the documented defaults.
func (tc TraceConfig) fillDefaults() TraceConfig {
	if tc.Shape == "" {
		tc.Shape = ShapePoisson
	}
	if tc.MeanGap <= 0 {
		tc.MeanGap = 4
	}
	if len(tc.Tenants) == 0 {
		tc.Tenants = []service.TenantSpec{{Name: "a", Weight: 1}}
	}
	if len(tc.Classes) == 0 {
		tc.Classes = []string{"ep", "tree", "ir"}
	}
	if tc.ParetoAlpha <= 0 {
		tc.ParetoAlpha = 1.5
	}
	if tc.Period <= 0 {
		tc.Period = int64(tc.Jobs) * tc.MeanGap / 4
		if min := 4 * tc.MeanGap; tc.Period < min {
			tc.Period = min
		}
	}
	if tc.Amplitude <= 0 {
		tc.Amplitude = 0.8
	}
	if tc.BurstFactor <= 0 {
		tc.BurstFactor = 6
	}
	if tc.Duty <= 0 {
		tc.Duty = 0.1
	}
	return tc
}

func (tc TraceConfig) validate() error {
	if tc.Jobs <= 0 {
		return fmt.Errorf("load: %d jobs, want > 0", tc.Jobs)
	}
	if tc.K <= 0 {
		return fmt.Errorf("load: K=%d, want > 0", tc.K)
	}
	if tc.CancelFrac < 0 || tc.CancelFrac > 1 {
		return fmt.Errorf("load: cancel fraction %g outside [0,1]", tc.CancelFrac)
	}
	switch tc.Shape {
	case ShapeUniform, ShapePoisson:
	case ShapePareto:
		if tc.ParetoAlpha <= 1 {
			return fmt.Errorf("load: pareto alpha %g, want > 1 (finite mean gap)", tc.ParetoAlpha)
		}
	case ShapeDiurnal:
		if tc.Amplitude >= 1 {
			return fmt.Errorf("load: diurnal amplitude %g, want < 1 (rate must stay positive)", tc.Amplitude)
		}
	case ShapeBurst:
		if tc.Duty >= 1 {
			return fmt.Errorf("load: burst duty %g, want < 1", tc.Duty)
		}
		if tc.BurstFactor < 1 {
			return fmt.Errorf("load: burst factor %g, want >= 1", tc.BurstFactor)
		}
		if tc.Duty*tc.BurstFactor >= 1 {
			return fmt.Errorf("load: duty %g × burst factor %g = %g, want < 1 (off-burst rate must stay positive)",
				tc.Duty, tc.BurstFactor, tc.Duty*tc.BurstFactor)
		}
	default:
		return fmt.Errorf("load: unknown shape %q (want one of %v)", tc.Shape, Shapes())
	}
	return nil
}

// gap draws the next inter-arrival gap at current instant t. Gaps are
// rounded to the integer simulated-time grid; zero gaps (simultaneous
// arrivals) are legal and are exactly what bursty shapes produce.
func (tc TraceConfig) gap(t int64, rng *rand.Rand) int64 {
	mean := float64(tc.MeanGap)
	var g float64
	switch tc.Shape {
	case ShapePoisson:
		g = rng.ExpFloat64() * mean
	case ShapePareto:
		// Pareto(xm, α) has mean α·xm/(α−1); choose xm so the mean
		// gap matches the configured one.
		xm := mean * (tc.ParetoAlpha - 1) / tc.ParetoAlpha
		u := rng.Float64()
		if u < 1e-12 {
			u = 1e-12 // cap the tail so a single draw cannot overflow time
		}
		g = xm * math.Pow(u, -1/tc.ParetoAlpha)
	case ShapeDiurnal:
		// Local rate r(t) = (1 + A·sin(2πt/P)) / MeanGap: exponential
		// gaps with the instantaneous mean — a deterministic
		// discretization of a nonhomogeneous Poisson process.
		mod := 1 + tc.Amplitude*math.Sin(2*math.Pi*float64(t)/float64(tc.Period))
		g = rng.ExpFloat64() * mean / mod
	case ShapeBurst:
		// Square wave: BurstFactor× the base rate for the first
		// Duty·P of every period, and the mass-conserving low rate
		// (1 − Duty·BF)/(1 − Duty) otherwise, so the long-run mean
		// gap stays MeanGap.
		mod := (1 - tc.Duty*tc.BurstFactor) / (1 - tc.Duty)
		if float64(t%tc.Period) < tc.Duty*float64(tc.Period) {
			mod = tc.BurstFactor
		}
		g = rng.ExpFloat64() * mean / mod
	}
	if g < 0 || math.IsNaN(g) {
		return 0
	}
	if g > 1e15 {
		g = 1e15
	}
	return int64(math.Round(g))
}

// Synthesize draws a deterministic open-loop arrival trace from rng in
// the fhd arrival-trace JSONL format (see service.Op): Jobs submits
// with shape-distributed gaps, tenants and classes drawn per job, and
// a CancelFrac fraction of jobs cancelled at a later instant. The
// uniform shape delegates to service.GenerateTrace so fhgen's legacy
// output stays byte-identical.
func Synthesize(tc TraceConfig, rng *rand.Rand) ([]service.Op, error) {
	filled := tc.fillDefaults()
	if err := filled.validate(); err != nil {
		return nil, err
	}
	if filled.Shape == ShapeUniform {
		return service.GenerateTrace(service.GenConfig{
			Jobs:           tc.Jobs,
			Tenants:        tc.Tenants,
			MeanGap:        tc.MeanGap,
			CancelFrac:     tc.CancelFrac,
			Classes:        tc.Classes,
			K:              tc.K,
			Scale:          tc.Scale,
			SeedBase:       tc.SeedBase,
			PriorityLevels: tc.PriorityLevels,
		}, rng)
	}
	tc = filled
	ops := make([]service.Op, 0, tc.Jobs)
	t := int64(0)
	for i := 0; i < tc.Jobs; i++ {
		t += tc.gap(t, rng)
		ten := tc.Tenants[rng.Intn(len(tc.Tenants))]
		prio := 0
		if tc.PriorityLevels > 1 {
			prio = rng.Intn(tc.PriorityLevels)
		}
		id := fmt.Sprintf("%s-%d", ten.Name, i)
		ops = append(ops, service.Op{
			T: t, Op: "submit", ID: id,
			Tenant: ten.Name, Priority: prio, Weight: ten.Weight,
			Spec: service.JobSpec{
				Class:  tc.Classes[i%len(tc.Classes)],
				K:      tc.K,
				Seed:   tc.SeedBase + int64(i),
				Scale:  tc.Scale,
				Typing: "layered",
			},
		})
		if tc.CancelFrac > 0 && rng.Float64() < tc.CancelFrac {
			ops = append(ops, service.Op{
				T:  t + 1 + rng.Int63n(4*tc.MeanGap+1),
				Op: "cancel", ID: id,
			})
		}
	}
	// Cancels land at later instants; restore global time order. The
	// stable sort keeps every cancel after its own submit.
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].T < ops[j].T })
	return ops, nil
}

// SynthesizeSeeded is Synthesize with the rng derived from
// tc.SeedBase — the one-call form fhload and fhgen share, so "same
// flags" means "same trace" everywhere.
func SynthesizeSeeded(tc TraceConfig) ([]service.Op, error) {
	return Synthesize(tc, rand.New(rand.NewSource(tc.SeedBase)))
}
