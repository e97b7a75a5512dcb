package load

import (
	"fmt"
	"io"
	"math"
)

// Gate configures the comparator's thresholds. For latency rows
// (percentiles, makespan) both are relative fractions of the old
// value; for rate rows (shed rate, SLO attainment) they are absolute
// deltas in rate points — a 0.05 noise band on a shed rate means
// ±5 percentage points. The zero value means the defaults.
type Gate struct {
	// Noise is the band within which a change reads as "ok".
	// Default 0.05.
	Noise float64
	// Fail is the worsening beyond which a row counts as a regression
	// and Comparison.Failed reports true. Default 0.25.
	Fail float64
}

func (g Gate) fillDefaults() Gate {
	if g.Noise <= 0 {
		g.Noise = 0.05
	}
	if g.Fail <= 0 {
		g.Fail = 0.25
	}
	return g
}

// Verdict classifies one row of the diff.
type Verdict string

const (
	// VerdictOK: within the noise band.
	VerdictOK Verdict = "ok"
	// VerdictBetter: improved beyond the noise band.
	VerdictBetter Verdict = "better"
	// VerdictWorse: worsened beyond noise but under the fail gate.
	VerdictWorse Verdict = "worse"
	// VerdictRegression: worsened beyond the fail gate; fails the
	// comparison.
	VerdictRegression Verdict = "regression"
	// VerdictInfo marks rows that are never gated: wall-clock
	// throughput (host-dependent noise) and decision counts
	// (informational context for the latency rows).
	VerdictInfo Verdict = "info"
)

// Delta is one row of the comparison.
type Delta struct {
	Name     string
	Old, New float64
	// Change is (new−old)/max(old,1) for latency rows and new−old for
	// rate rows; NaN on info rows where a ratio would mislead.
	Change  float64
	Verdict Verdict
}

// Comparison is the full diff of two SLO reports.
type Comparison struct {
	Gate   Gate
	Deltas []Delta
}

// Failed reports whether the comparison should gate a merge.
func (c *Comparison) Failed() bool {
	for _, d := range c.Deltas {
		if d.Verdict == VerdictRegression {
			return true
		}
	}
	return false
}

// Regressions lists the rows that tripped the gate.
func (c *Comparison) Regressions() []string {
	var names []string
	for _, d := range c.Deltas {
		if d.Verdict == VerdictRegression {
			names = append(names, d.Name)
		}
	}
	return names
}

// identity returns the workload-identity rendering used for the
// mismatch error.
func identity(r *Report) string {
	return fmt.Sprintf("shape=%s seed=%d jobs=%d gap=%d cancel=%g k=%d procs=%v sched=%s quota=%d backlog=%d",
		r.Shape, r.Seed, r.Jobs, r.MeanGap, r.CancelFrac, r.K, r.Procs, r.Scheduler, r.DefaultQuota, r.MaxBacklog)
}

// Compare diffs two SLO reports row by row. The reports must describe
// the same workload — same shape, seed, scale, machine and admission
// config — or the deltas would compare different work; that is an
// error, not a wall of bogus rows. Mode is deliberately not part of
// the identity: an in-process baseline legitimately gates
// an HTTP run of the same workload (their deterministic outcomes are
// identical by construction). Wall-clock rows (ops/sec,
// decisions/sec) are always VerdictInfo and never gated, which is
// what keeps the CI soak stable across runner hardware.
func Compare(old, new *Report, g Gate) (*Comparison, error) {
	g = g.fillDefaults()
	if oi, ni := identity(old), identity(new); oi != ni {
		return nil, fmt.Errorf("load: workload identity mismatch:\n  old: %s\n  new: %s", oi, ni)
	}
	c := &Comparison{Gate: g}

	// Latency rows: lower is better, relative thresholds. A zero old
	// value (no observations in that histogram) compares against a
	// denominator of 1 so any new latency mass still registers.
	lat := func(name string, o, n int64) {
		denom := float64(o)
		if denom < 1 {
			denom = 1
		}
		ch := (float64(n) - float64(o)) / denom
		c.Deltas = append(c.Deltas, Delta{Name: name, Old: float64(o), New: float64(n), Change: ch, Verdict: verdictFor(ch, g)})
	}
	// Rate rows: absolute thresholds; sign chooses which direction is
	// worse (+1: higher is worse, e.g. shed rate; −1: lower is worse,
	// e.g. attainment).
	rate := func(name string, o, n, sign float64) {
		ch := n - o
		c.Deltas = append(c.Deltas, Delta{Name: name, Old: o, New: n, Change: ch, Verdict: verdictFor(sign*ch, g)})
	}
	info := func(name string, o, n float64) {
		c.Deltas = append(c.Deltas, Delta{Name: name, Old: o, New: n, Change: math.NaN(), Verdict: VerdictInfo})
	}
	// SLO rows: a met→missed flip is a regression outright — the
	// contract broke, no threshold softens that. missed→met is better.
	flip := func(name string, o, n bool) {
		d := Delta{Name: name, Old: b2f(o), New: b2f(n), Change: b2f(n) - b2f(o), Verdict: VerdictOK}
		switch {
		case o && !n:
			d.Verdict = VerdictRegression
		case !o && n:
			d.Verdict = VerdictBetter
		}
		c.Deltas = append(c.Deltas, d)
	}

	lat("makespan", old.Makespan, new.Makespan)
	lat("queue_delay/p50", old.QueueDelay.P50, new.QueueDelay.P50)
	lat("queue_delay/p99", old.QueueDelay.P99, new.QueueDelay.P99)
	lat("queue_delay/p999", old.QueueDelay.P999, new.QueueDelay.P999)
	lat("flow/p50", old.Flow.P50, new.Flow.P50)
	lat("flow/p99", old.Flow.P99, new.Flow.P99)
	lat("flow/p999", old.Flow.P999, new.Flow.P999)
	rate("shed_rate", old.ShedRate, new.ShedRate, +1)
	flip("slo_met", old.SLOMet, new.SLOMet)

	newTen := make(map[string]*TenantReport, len(new.Tenants))
	for i := range new.Tenants {
		newTen[new.Tenants[i].Tenant] = &new.Tenants[i]
	}
	if len(old.Tenants) != len(new.Tenants) {
		return nil, fmt.Errorf("load: tenant set mismatch: old has %d tenants, new has %d (same workload identity must yield the same tenants)",
			len(old.Tenants), len(new.Tenants))
	}
	for i := range old.Tenants {
		ot := &old.Tenants[i]
		nt := newTen[ot.Tenant]
		if nt == nil {
			return nil, fmt.Errorf("load: tenant %q present only in the old report", ot.Tenant)
		}
		pfx := "tenant/" + ot.Tenant + "/"
		lat(pfx+"queue_delay/p99", ot.QueueDelay.P99, nt.QueueDelay.P99)
		lat(pfx+"flow/p99", ot.Flow.P99, nt.Flow.P99)
		switch {
		case ot.SLOMet != nil && nt.SLOMet != nil:
			rate(pfx+"attainment", ot.Attainment, nt.Attainment, -1)
			flip(pfx+"slo_met", *ot.SLOMet, *nt.SLOMet)
		case ot.SLOMet != nil || nt.SLOMet != nil:
			// Objective declared on one side only: a harness-config
			// change, not an outcome change — surface it, don't gate it.
			info(pfx+"slo_declared", b2f(ot.SLOMet != nil), b2f(nt.SLOMet != nil))
		}
	}

	info("decisions", float64(old.Decisions), float64(new.Decisions))
	info("ops_per_sec", old.OpsPerSec, new.OpsPerSec)
	info("decisions_per_sec", old.DecisionsPerSec, new.DecisionsPerSec)
	return c, nil
}

// verdictFor maps a signed worsening (positive = worse) to a verdict.
func verdictFor(worse float64, g Gate) Verdict {
	switch {
	case worse > g.Fail:
		return VerdictRegression
	case worse > g.Noise:
		return VerdictWorse
	case worse < -g.Noise:
		return VerdictBetter
	default:
		return VerdictOK
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// WriteComparison renders the diff as an aligned table plus a one-line
// summary — the output the CI soak job posts.
func WriteComparison(w io.Writer, c *Comparison) error {
	if _, err := fmt.Fprintf(w, "%-34s %14s %14s %10s  %s\n",
		"metric", "old", "new", "delta", "verdict"); err != nil {
		return err
	}
	var regressions int
	for _, d := range c.Deltas {
		if d.Verdict == VerdictRegression {
			regressions++
		}
		if _, err := fmt.Fprintf(w, "%-34s %14.4g %14.4g %10s  %s\n",
			d.Name, d.Old, d.New, delta(d.Change), d.Verdict); err != nil {
			return err
		}
	}
	status := "PASS"
	if c.Failed() {
		status = "FAIL"
	}
	_, err := fmt.Fprintf(w, "%s: %d metrics, %d regressions (gate %.0f%%, noise ±%.0f%%)\n",
		status, len(c.Deltas), regressions, c.Gate.Fail*100, c.Gate.Noise*100)
	return err
}

func delta(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%+.4f", v)
}
