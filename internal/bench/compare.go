package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Gate configures the comparator's thresholds, both as relative
// fractions of the old ns/op. The zero value means the defaults.
type Gate struct {
	// Noise is the |delta| below which a change is reported as noise
	// ("ok"). Default 0.05 (5%).
	Noise float64
	// Fail is the slowdown beyond which a benchmark counts as a
	// regression and Comparison.Failed reports true. Default 0.25.
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

// Verdict classifies one benchmark's delta.
type Verdict string

const (
	// VerdictOK: |delta| within the noise threshold.
	VerdictOK Verdict = "ok"
	// VerdictFaster: speedup beyond the noise threshold.
	VerdictFaster Verdict = "faster"
	// VerdictSlower: slowdown beyond noise but under the fail gate.
	VerdictSlower Verdict = "slower"
	// VerdictRegression: slowdown beyond the fail gate.
	VerdictRegression Verdict = "regression"
	// VerdictAdded / VerdictRemoved: present in only one report; never
	// gated, so adding or retiring benchmarks cannot fail CI.
	VerdictAdded   Verdict = "added"
	VerdictRemoved Verdict = "removed"
)

// Delta is one benchmark's comparison row.
type Delta struct {
	Name         string
	OldNs, NewNs float64
	// Change is (new-old)/old on ns/op; NaN for added/removed rows.
	Change float64
	// AllocChange is (new-old)/old on allocs/op, informational only
	// (never gated); NaN when the old report measured zero allocs.
	AllocChange float64
	Verdict     Verdict
	// FingerprintMismatch warns that the two runs did different work
	// (scale drift); the row's delta is then meaningless and the
	// comparison fails regardless of thresholds.
	FingerprintMismatch bool
}

// Comparison is the full diff of two reports.
type Comparison struct {
	Gate   Gate
	Deltas []Delta
}

// Failed reports whether the comparison should gate a merge: any
// regression beyond Gate.Fail, or any fingerprint mismatch.
func (c *Comparison) Failed() bool {
	for _, d := range c.Deltas {
		if d.Verdict == VerdictRegression || d.FingerprintMismatch {
			return true
		}
	}
	return false
}

// Regressions returns the names of benchmarks whose slowdown tripped
// the timing gate. Fingerprint drift is reported separately by Drifted:
// a drifted row's delta is meaningless, so calling it a "regression"
// would misdirect whoever triages the failure toward a timing problem
// that may not exist.
func (c *Comparison) Regressions() []string {
	var names []string
	for _, d := range c.Deltas {
		if d.Verdict == VerdictRegression {
			names = append(names, d.Name)
		}
	}
	return names
}

// Drifted returns the names of benchmarks whose result fingerprints
// disagree between the two reports — the runs did different work, so
// their timing rows (still printed, still classified) cannot be
// trusted. Drift alone fails the comparison even when every timing
// verdict is "ok".
func (c *Comparison) Drifted() []string {
	var names []string
	for _, d := range c.Deltas {
		if d.FingerprintMismatch {
			names = append(names, d.Name)
		}
	}
	return names
}

// Compare diffs two reports benchmark by benchmark. Reports must share
// the schema (enforced at load time), the scale and GOMAXPROCS —
// differing seed or instance counts would compare different work, and
// differing GOMAXPROCS different parallelism (exp rows size their
// worker pools from it), so either is an error rather than a wall of
// bogus deltas.
func Compare(old, new *Report, g Gate) (*Comparison, error) {
	g = g.fillDefaults()
	if old.Seed != new.Seed || old.Instances != new.Instances {
		return nil, fmt.Errorf("bench: scale mismatch: old seed=%d instances=%d, new seed=%d instances=%d",
			old.Seed, old.Instances, new.Seed, new.Instances)
	}
	if old.GOMAXPROCS != new.GOMAXPROCS {
		return nil, fmt.Errorf("bench: gomaxprocs mismatch: old %d, new %d (rerun with GOMAXPROCS=%d)",
			old.GOMAXPROCS, new.GOMAXPROCS, old.GOMAXPROCS)
	}
	c := &Comparison{Gate: g}
	seen := make(map[string]bool, len(old.Results))
	for _, o := range old.Results {
		seen[o.Name] = true
		n := new.Result(o.Name)
		if n == nil {
			c.Deltas = append(c.Deltas, Delta{Name: o.Name, OldNs: o.NsPerOp, Change: math.NaN(), AllocChange: math.NaN(), Verdict: VerdictRemoved})
			continue
		}
		d := Delta{
			Name:                o.Name,
			OldNs:               o.NsPerOp,
			NewNs:               n.NsPerOp,
			Change:              (n.NsPerOp - o.NsPerOp) / o.NsPerOp,
			AllocChange:         math.NaN(),
			FingerprintMismatch: o.Fingerprint != n.Fingerprint,
		}
		if o.AllocsPerOp > 0 {
			d.AllocChange = (n.AllocsPerOp - o.AllocsPerOp) / o.AllocsPerOp
		}
		switch {
		case d.Change > g.Fail:
			d.Verdict = VerdictRegression
		case d.Change > g.Noise:
			d.Verdict = VerdictSlower
		case d.Change < -g.Noise:
			d.Verdict = VerdictFaster
		default:
			d.Verdict = VerdictOK
		}
		c.Deltas = append(c.Deltas, d)
	}
	for _, n := range new.Results {
		if !seen[n.Name] {
			c.Deltas = append(c.Deltas, Delta{Name: n.Name, NewNs: n.NsPerOp, Change: math.NaN(), AllocChange: math.NaN(), Verdict: VerdictAdded})
		}
	}
	sort.Slice(c.Deltas, func(i, j int) bool { return c.Deltas[i].Name < c.Deltas[j].Name })
	return c, nil
}

// WriteComparison renders the diff as an aligned table plus a one-line
// summary — the output the CI bench job posts.
func WriteComparison(w io.Writer, c *Comparison) error {
	if _, err := fmt.Fprintf(w, "%-32s %14s %14s %9s %9s  %s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "allocs", "verdict"); err != nil {
		return err
	}
	for _, d := range c.Deltas {
		verdict := string(d.Verdict)
		if d.FingerprintMismatch {
			verdict += " FINGERPRINT-MISMATCH"
		}
		if _, err := fmt.Fprintf(w, "%-32s %14.0f %14.0f %9s %9s  %s\n",
			d.Name, d.OldNs, d.NewNs, pct(d.Change), pct(d.AllocChange), verdict); err != nil {
			return err
		}
	}
	status := "PASS"
	if c.Failed() {
		status = "FAIL"
	}
	_, err := fmt.Fprintf(w, "%s: %d benchmarks, %d regressions, %d fingerprint drifts (gate %+.0f%%, noise ±%.0f%%)\n",
		status, len(c.Deltas), len(c.Regressions()), len(c.Drifted()), c.Gate.Fail*100, c.Gate.Noise*100)
	return err
}

func pct(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", v*100)
}
