package load

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"fhs/internal/obs"
	"fhs/internal/service"
)

// sheddingWorkload is a burst-shaped trace against a tight backlog
// cap: flash crowds overrun the cap, so the shed (429) path is
// genuinely exercised.
func sheddingWorkload() (RunConfig, TraceConfig) {
	tc := TraceConfig{
		Shape:      ShapeBurst,
		Jobs:       80,
		MeanGap:    2,
		Tenants:    []service.TenantSpec{{Name: "acme", Weight: 2}, {Name: "blob", Weight: 1}},
		CancelFrac: 0.1,
		K:          2,
		SeedBase:   11,
	}
	cfg := RunConfig{
		Procs:           []int{1, 1},
		MaxBacklogTasks: 12,
	}
	return cfg, tc
}

// newTestServer starts a fresh fhd-equivalent HTTP server configured
// like cfg. Each caller gets a pristine clock, as a freshly started
// fhd would.
func newTestServer(t *testing.T, cfg RunConfig) *httptest.Server {
	t.Helper()
	c, err := service.New(service.Config{
		Procs:           cfg.Procs,
		Scheduler:       cfg.Scheduler,
		DefaultQuota:    cfg.DefaultQuota,
		Quotas:          cfg.Quotas,
		NoFairShare:     cfg.NoFairShare,
		MaxBacklogTasks: cfg.MaxBacklogTasks,
		Metrics:         obs.NewRegistry(),
		Obs:             obs.NewTracer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(c))
	t.Cleanup(srv.Close)
	return srv
}

// TestRunDeterministic: two identical in-process runs produce
// byte-identical fingerprints and shed sequences, and the workload
// really sheds (otherwise the 429 path went untested).
func TestRunDeterministic(t *testing.T) {
	cfg, tc := sheddingWorkload()
	a, err := Run(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Shed == 0 {
		t.Fatal("workload shed nothing; the 429 path is untested")
	}
	if a.Fingerprint != b.Fingerprint {
		t.Errorf("fingerprints differ:\n%s\n%s", a.Fingerprint, b.Fingerprint)
	}
	if a.ShedSeqHash != b.ShedSeqHash {
		t.Errorf("shed sequences differ")
	}
	if a.Done == 0 || a.Decisions == 0 {
		t.Errorf("empty outcome: done=%d decisions=%d", a.Done, a.Decisions)
	}
	if a.Flow.P99 < a.Flow.P50 || a.QueueDelay.P99 < a.QueueDelay.P50 {
		t.Errorf("percentiles not monotone: flow=%+v qdelay=%+v", a.Flow, a.QueueDelay)
	}
}

// TestHTTPMatchesInProcess is the shed-path determinism contract: the
// same seed and shape driven in-process and against a live server over
// HTTP produce the identical 429/Retry-After sequence and SLO report
// fingerprint (Mode is outside the fingerprint).
func TestHTTPMatchesInProcess(t *testing.T) {
	cfg, tc := sheddingWorkload()
	want, err := Run(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	if want.Shed == 0 {
		t.Fatal("no sheds; the 429 comparison is vacuous")
	}
	srv := newTestServer(t, cfg)
	c := cfg
	c.URL = srv.URL
	rep, err := Run(c, tc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "http" {
		t.Fatalf("mode %q, want http", rep.Mode)
	}
	if rep.Fingerprint != want.Fingerprint {
		t.Errorf("http fingerprint %s, inproc %s", rep.Fingerprint, want.Fingerprint)
	}
	if rep.ShedSeqHash != want.ShedSeqHash {
		t.Errorf("http 429/Retry-After sequence diverged from inproc")
	}
}

// TestAuditBothModes: the independent stream audit accepts an honest
// run in both drive modes (shedding, cancels and all).
func TestAuditBothModes(t *testing.T) {
	cfg, tc := sheddingWorkload()
	cfg.Audit = true
	if _, err := Run(cfg, tc); err != nil {
		t.Fatalf("inproc audit: %v", err)
	}
	srv := newTestServer(t, cfg)
	cfg.URL = srv.URL
	if _, err := Run(cfg, tc); err != nil {
		t.Fatalf("http audit: %v", err)
	}
}

// TestSLOAttainment: declared objectives are judged from exact job
// records — a generous budget is met, an impossible one is missed and
// flips the global SLOMet, and an objective for an unknown tenant is
// a config error.
func TestSLOAttainment(t *testing.T) {
	cfg, tc := sheddingWorkload()
	cfg.SLOs = []SLO{{Tenant: "acme", FlowBudget: 1 << 40}, {Tenant: "blob", FlowBudget: 1, Target: 0.99}}
	rep, err := Run(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SLOMet {
		t.Error("global SLOMet true despite an impossible objective")
	}
	for _, tr := range rep.Tenants {
		switch tr.Tenant {
		case "acme":
			if tr.SLOMet == nil || !*tr.SLOMet || tr.Attainment != 1 {
				t.Errorf("acme: generous budget not met: %+v", tr)
			}
		case "blob":
			if tr.SLOMet == nil || *tr.SLOMet {
				t.Errorf("blob: impossible budget reported met: %+v", tr)
			}
			if tr.Attainment < 0 || tr.Attainment > 1 {
				t.Errorf("blob: attainment %g outside [0,1]", tr.Attainment)
			}
		}
	}

	cfg.SLOs = []SLO{{Tenant: "ghost", FlowBudget: 10}}
	if _, err := Run(cfg, tc); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("unknown SLO tenant: err = %v, want mention of ghost", err)
	}
}

// TestReportRoundTrip: WriteJSON → ReadReport preserves every field
// the fingerprint covers, and the stored fingerprint re-derives.
func TestReportRoundTrip(t *testing.T) {
	cfg, tc := sheddingWorkload()
	rep, err := Run(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != rep.Fingerprint {
		t.Error("fingerprint lost in round trip")
	}
	if got.fingerprint() != got.Fingerprint {
		t.Error("stored fingerprint does not re-derive from the decoded fields")
	}
	bad := strings.Replace(buf.String(), `"schema": 1`, `"schema": 99`, 1)
	_ = bad // buf was consumed; rebuild
	var buf2 bytes.Buffer
	rep.Schema = 99
	if err := rep.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(&buf2); err == nil {
		t.Error("schema 99 accepted")
	}
}

// TestCompareGate: the noise-aware gate — a seeded synthetic p99
// regression fails the comparison, small drift reads as noise,
// wall-clock throughput swings are never gated, and an SLO flip is an
// outright regression.
func TestCompareGate(t *testing.T) {
	cfg, tc := sheddingWorkload()
	cfg.SLOs = []SLO{{Tenant: "acme", FlowBudget: 1 << 40}}
	old, err := Run(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}

	// Identical reports pass.
	same, err := Compare(old, old, Gate{})
	if err != nil {
		t.Fatal(err)
	}
	if same.Failed() {
		t.Fatalf("self-comparison failed: %v", same.Regressions())
	}

	// Synthetic p99 regression: +2× flow p99 trips the 25% gate.
	worse := *old
	worse.Flow.P99 = old.Flow.P99 * 2
	cmp, err := Compare(old, &worse, Gate{})
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Failed() {
		t.Fatal("2x flow p99 did not fail the gate")
	}
	found := false
	for _, name := range cmp.Regressions() {
		if name == "flow/p99" {
			found = true
		}
	}
	if !found {
		t.Errorf("regressions %v, want flow/p99", cmp.Regressions())
	}

	// Small drift stays inside the noise band.
	drift := *old
	drift.Makespan = old.Makespan + old.Makespan/50 // +2%
	cmp, err = Compare(old, &drift, Gate{})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Failed() {
		t.Errorf("2%% makespan drift failed the gate: %v", cmp.Regressions())
	}

	// Wall-clock throughput collapse is informational, never gated.
	slow := *old
	slow.DecisionsPerSec = old.DecisionsPerSec / 100
	slow.OpsPerSec = old.OpsPerSec / 100
	slow.ElapsedSec = old.ElapsedSec * 100
	cmp, err = Compare(old, &slow, Gate{})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Failed() {
		t.Errorf("wall-clock swing failed the gate: %v", cmp.Regressions())
	}

	// SLO met→missed flips are regressions regardless of thresholds.
	missed := *old
	missed.SLOMet = false
	cmp, err = Compare(old, &missed, Gate{Fail: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Failed() {
		t.Error("SLO flip passed the gate")
	}

	// Different workloads refuse to compare.
	other := *old
	other.Seed = old.Seed + 1
	if _, err := Compare(old, &other, Gate{}); err == nil {
		t.Error("seed mismatch compared without error")
	}

	// The table renders and states the verdict.
	var buf bytes.Buffer
	if err := WriteComparison(&buf, same); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "PASS") {
		t.Errorf("comparison table missing PASS line:\n%s", buf.String())
	}
}

// TestRunRejectsBadConfig: the config rejection matrix.
func TestRunRejectsBadConfig(t *testing.T) {
	cfg, tc := sheddingWorkload()

	bad := cfg
	bad.Procs = nil
	if _, err := Run(bad, tc); err == nil {
		t.Error("empty machine accepted")
	}

	bad = cfg
	bad.Procs = []int{1, 1, 1} // K=2 trace on a 3-pool machine
	if _, err := Run(bad, tc); err == nil {
		t.Error("K mismatch accepted")
	}

	bad = cfg
	bad.SLOs = []SLO{{Tenant: "acme", FlowBudget: 0}}
	if _, err := Run(bad, tc); err == nil {
		t.Error("zero flow budget accepted")
	}
}
