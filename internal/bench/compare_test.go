package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// report builds a minimal report with one result per (name, ns) pair.
func report(ns map[string]float64) *Report {
	r := NewReport(Scale{Seed: 1, Instances: 10})
	for name, v := range ns {
		r.Results = append(r.Results, Result{
			Name:        name,
			NsPerOp:     v,
			AllocsPerOp: 100,
			Fingerprint: Fingerprint{Instances: 10, Checksum: 42},
		})
	}
	return r
}

// TestCompareRegressionGate: a synthetic >25% slowdown must fail the
// comparison (the acceptance criterion the CI gate rests on), while
// noise-level jitter and sub-gate slowdowns must not.
func TestCompareRegressionGate(t *testing.T) {
	old := report(map[string]float64{
		"engine/np/mqb": 1000,
		"dag/typed":     500,
		"exp/fig4a":     2000,
	})
	new := report(map[string]float64{
		"engine/np/mqb": 1300, // +30%: beyond the 25% gate
		"dag/typed":     510,  // +2%: noise
		"exp/fig4a":     2200, // +10%: slower but under the gate
	})
	c, err := Compare(old, new, Gate{})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Failed() {
		t.Fatal("30% regression did not fail the comparison")
	}
	if got := c.Regressions(); len(got) != 1 || got[0] != "engine/np/mqb" {
		t.Fatalf("Regressions() = %v, want [engine/np/mqb]", got)
	}
	verdicts := map[string]Verdict{}
	for _, d := range c.Deltas {
		verdicts[d.Name] = d.Verdict
	}
	if verdicts["engine/np/mqb"] != VerdictRegression {
		t.Errorf("mqb verdict = %s, want regression", verdicts["engine/np/mqb"])
	}
	if verdicts["dag/typed"] != VerdictOK {
		t.Errorf("typed verdict = %s, want ok", verdicts["dag/typed"])
	}
	if verdicts["exp/fig4a"] != VerdictSlower {
		t.Errorf("fig4a verdict = %s, want slower", verdicts["exp/fig4a"])
	}

	var buf bytes.Buffer
	if err := WriteComparison(&buf, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FAIL: 3 benchmarks, 1 regressions, 0 fingerprint drifts") {
		t.Errorf("comparison output missing FAIL summary:\n%s", buf.String())
	}
}

// TestComparePassesWithinGate: an all-improvements diff passes.
func TestComparePassesWithinGate(t *testing.T) {
	old := report(map[string]float64{"a": 1000, "b": 2000})
	new := report(map[string]float64{"a": 600, "b": 1900})
	c, err := Compare(old, new, Gate{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Failed() {
		t.Fatalf("improvement-only comparison failed: %v", c.Regressions())
	}
	for _, d := range c.Deltas {
		if d.Name == "a" && d.Verdict != VerdictFaster {
			t.Errorf("a verdict = %s, want faster", d.Verdict)
		}
	}
}

// TestCompareAddedRemoved: suite membership changes never gate.
func TestCompareAddedRemoved(t *testing.T) {
	old := report(map[string]float64{"kept": 1000, "retired": 500})
	new := report(map[string]float64{"kept": 1000, "fresh": 700})
	c, err := Compare(old, new, Gate{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Failed() {
		t.Fatal("added/removed benchmarks must not fail the gate")
	}
	verdicts := map[string]Verdict{}
	for _, d := range c.Deltas {
		verdicts[d.Name] = d.Verdict
	}
	if verdicts["retired"] != VerdictRemoved || verdicts["fresh"] != VerdictAdded {
		t.Fatalf("verdicts = %v, want retired=removed fresh=added", verdicts)
	}
}

// TestCompareFingerprintMismatch: same timings but different work is a
// failure — the numbers are not comparable. Drift is reported on its
// own channel: the timing verdict stays "ok", Regressions() stays
// empty, Drifted() names the row, and the rendered table still carries
// the full timing data so the triager sees both dimensions at once.
func TestCompareFingerprintMismatch(t *testing.T) {
	old := report(map[string]float64{"a": 1000, "b": 2000})
	new := report(map[string]float64{"a": 1000, "b": 2000})
	new.Results[0].Fingerprint.Checksum++
	drifted := new.Results[0].Name
	c, err := Compare(old, new, Gate{})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Failed() {
		t.Fatal("fingerprint mismatch did not fail the comparison")
	}
	if got := c.Regressions(); len(got) != 0 {
		t.Errorf("Regressions() = %v, want none: drift is not a timing regression", got)
	}
	if got := c.Drifted(); len(got) != 1 || got[0] != drifted {
		t.Errorf("Drifted() = %v, want [%s]", got, drifted)
	}
	var buf bytes.Buffer
	if err := WriteComparison(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ok FINGERPRINT-MISMATCH") {
		t.Errorf("drifted row lost its timing verdict:\n%s", out)
	}
	if !strings.Contains(out, "FAIL: 2 benchmarks, 0 regressions, 1 fingerprint drifts") {
		t.Errorf("summary does not report drift independently of regressions:\n%s", out)
	}
	// The timing table must survive a drift-only failure: both rows
	// render with their ns/op columns.
	for _, name := range []string{"a", "b"} {
		if !strings.Contains(out, name) {
			t.Errorf("row %q missing from drift-failed table:\n%s", name, out)
		}
	}
}

// TestCompareScaleMismatch: differing seed, instance count or
// GOMAXPROCS is an error, not a wall of bogus deltas.
func TestCompareScaleMismatch(t *testing.T) {
	old := report(nil)
	new := report(nil)
	new.Seed = 2
	if _, err := Compare(old, new, Gate{}); err == nil {
		t.Fatal("seed mismatch did not error")
	}
	new.Seed = old.Seed
	new.Instances = 99
	if _, err := Compare(old, new, Gate{}); err == nil {
		t.Fatal("instance-count mismatch did not error")
	}
	new.Instances = old.Instances
	new.GOMAXPROCS = old.GOMAXPROCS + 1
	if _, err := Compare(old, new, Gate{}); err == nil {
		t.Fatal("gomaxprocs mismatch did not error")
	}
}

// TestCompareCustomGate: thresholds are configurable; a 30% slowdown
// passes a 50% gate and fails a 10% gate.
func TestCompareCustomGate(t *testing.T) {
	old := report(map[string]float64{"a": 1000})
	new := report(map[string]float64{"a": 1300})
	if c, err := Compare(old, new, Gate{Fail: 0.5}); err != nil || c.Failed() {
		t.Fatalf("30%% slowdown vs 50%% gate: failed=%v err=%v", c.Failed(), err)
	}
	if c, err := Compare(old, new, Gate{Fail: 0.1}); err != nil || !c.Failed() {
		t.Fatalf("30%% slowdown vs 10%% gate: failed=%v err=%v", c.Failed(), err)
	}
}

// TestReportJSONRoundTrip: the committed BENCH format survives a
// write/read cycle bit-exactly, and schema mismatches are rejected.
func TestReportJSONRoundTrip(t *testing.T) {
	r := report(map[string]float64{"a": 123.5})
	r.Note = "round-trip"
	r.Results[0].InstancesPerSec = 1e6
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Note != r.Note || got.Seed != r.Seed || len(got.Results) != 1 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	if got.Results[0] != r.Results[0] {
		t.Fatalf("result round-trip mismatch:\n got %+v\nwant %+v", got.Results[0], r.Results[0])
	}

	bad := strings.Replace(buf.String(), `"schema": 1`, `"schema": 999`, 1)
	if _, err := ReadReport(strings.NewReader(bad)); err == nil {
		t.Fatal("schema mismatch not rejected")
	}
}

// TestDeltaNaNRendering: added/removed rows render "-" rather than
// NaN percentages.
func TestDeltaNaNRendering(t *testing.T) {
	if got := pct(math.NaN()); got != "-" {
		t.Fatalf("pct(NaN) = %q, want -", got)
	}
}
