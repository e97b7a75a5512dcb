package lint

import (
	"path/filepath"
	"testing"
)

// TestAnalyzers drives every analyzer over its analysistest fixture.
// Each fixture seeds the bugs its analyzer exists to catch, so this
// test fails if an analyzer stops detecting (unmatched // want) or
// starts overreporting (unexpected diagnostic). It is part of the
// tier-1 `go test ./...` path on purpose: a lint regression fails the
// test suite, not just the lint job.
func TestAnalyzers(t *testing.T) {
	cases := []struct {
		a   *Analyzer
		dir string
	}{
		{Detrand, "detrand"},
		{Mapiter, "mapiter"},
		{Memosafety, "memosafety"},
		{Seedflow, "seedflow"},
		{Locksafe, "locksafe"},
		{Durorder, "durorder"},
		{Errsink, "errsink"},
		{Goleak, "goleak"},
		{Tickstop, "tickstop"},
		{Nilness, "nilness"},
		{Shadow, "shadow"},
		{Unusedwrite, "unusedwrite"},
		// The suppression-filter fixture runs under detrand: directives
		// must be honored, analyzer-scoped, and carry a reason.
		{Detrand, "ignore"},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			AnalyzerTest(t, tc.a, filepath.Join("testdata", "src", tc.dir))
		})
	}
}

// TestSuiteRegistry pins the suite composition: every analyzer is
// registered exactly once with a name and a doc, since //fhlint:ignore
// validation and CI output both key off the names.
func TestSuiteRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v missing name or doc", a)
		}
		if seen[a.Name] {
			t.Errorf("analyzer %q registered twice", a.Name)
		}
		seen[a.Name] = true
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run", a.Name)
		}
	}
	for _, want := range []string{
		"detrand", "mapiter", "memosafety", "seedflow",
		"locksafe", "durorder", "errsink", "goleak", "tickstop",
		"nilness", "shadow", "unusedwrite",
	} {
		if !seen[want] {
			t.Errorf("suite is missing analyzer %q", want)
		}
	}
}

// TestRepoIsClean runs the full suite over the module exactly as
// cmd/fhlint does and fails on any finding. This is the source-level
// determinism gate: `go test ./...` (tier 1) fails if a nondeterminism
// pattern lands anywhere in production code, even before CI's
// dedicated lint job runs.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module; skipped in -short")
	}
	loader, err := SharedLoader(".")
	if err != nil {
		t.Fatalf("SharedLoader: %v", err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; loader is missing module packages", len(pkgs))
	}
	suite := Analyzers()
	for _, pkg := range pkgs {
		diags, err := Run(pkg, suite, true)
		if err != nil {
			t.Fatalf("Run(%s): %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}

// TestSharedLoaderCaches: the shared loader memoizes the typechecked
// package set per module root, so a second Load is a pure cache hit —
// the typecheck counter must not move. This is what keeps
// TestRepoIsClean paying the whole-module typecheck once per binary.
func TestSharedLoaderCaches(t *testing.T) {
	l1, err := SharedLoader(".")
	if err != nil {
		t.Fatalf("SharedLoader: %v", err)
	}
	if _, err := l1.Load("./internal/lint"); err != nil {
		t.Fatalf("Load: %v", err)
	}
	before := l1.TypecheckCount()
	if before == 0 {
		t.Fatal("TypecheckCount is 0 after a Load; the counter is not wired")
	}
	l2, err := SharedLoader(".")
	if err != nil {
		t.Fatalf("SharedLoader: %v", err)
	}
	if l2 != l1 {
		t.Fatal("SharedLoader returned a fresh loader for the same module root")
	}
	if _, err := l2.Load("./internal/lint"); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got := l2.TypecheckCount(); got != before {
		t.Errorf("second Load typechecked %d more packages; want a pure cache hit", got-before)
	}
}

// TestDetrandScope pins the driver-level scoping policy: detrand
// guards the determinism-critical packages and stays out of the
// benchmark/CLI layers that legitimately read the wall clock.
func TestDetrandScope(t *testing.T) {
	for _, in := range []string{
		"fhs/internal/core", "fhs/internal/dag", "fhs/internal/sim",
		"fhs/internal/fault", "fhs/internal/exp", "fhs/internal/opt",
	} {
		if !Detrand.Applies(in) {
			t.Errorf("detrand should apply to %s", in)
		}
	}
	for _, out := range []string{"fhs", "fhs/internal/bench", "fhs/cmd/fhbench", "fhs/cmd/fhsim", "fhs/internal/corex"} {
		if Detrand.Applies(out) {
			t.Errorf("detrand should not apply to %s", out)
		}
	}
	if Seedflow.Applies("fhs/cmd/fhgen") {
		t.Error("seedflow should exempt cmd/fhgen")
	}
	if !Seedflow.Applies("fhs/internal/workload") {
		t.Error("seedflow should apply to internal/workload")
	}
}

// TestDataflowScope pins the scoping policy of the dataflow analyzers:
// locksafe watches the shared-state packages, durorder only the WAL,
// errsink the durability/load paths; goleak and tickstop run
// module-wide (nil Applies).
func TestDataflowScope(t *testing.T) {
	for _, in := range []string{
		"fhs/internal/service", "fhs/internal/service/wal",
		"fhs/internal/obs", "fhs/internal/crashpoint",
	} {
		if !Locksafe.Applies(in) {
			t.Errorf("locksafe should apply to %s", in)
		}
	}
	for _, out := range []string{"fhs/internal/core", "fhs/cmd/fhbench", "fhs/internal/servicex"} {
		if Locksafe.Applies(out) {
			t.Errorf("locksafe should not apply to %s", out)
		}
	}
	if !Durorder.Applies("fhs/internal/service/wal") {
		t.Error("durorder should apply to internal/service/wal")
	}
	for _, out := range []string{"fhs/internal/service", "fhs/internal/service/walx", "fhs/internal/bench"} {
		if Durorder.Applies(out) {
			t.Errorf("durorder should not apply to %s", out)
		}
	}
	for _, in := range []string{
		"fhs/internal/service", "fhs/internal/service/wal",
		"fhs/internal/load", "fhs/internal/bench", "fhs/cmd/fhd",
	} {
		if !Errsink.Applies(in) {
			t.Errorf("errsink should apply to %s", in)
		}
	}
	for _, out := range []string{"fhs/cmd/fhsim", "fhs/internal/exp", "fhs/internal/loadx"} {
		if Errsink.Applies(out) {
			t.Errorf("errsink should not apply to %s", out)
		}
	}
	if Goleak.Applies != nil || Tickstop.Applies != nil {
		t.Error("goleak and tickstop are module-wide; Applies must be nil")
	}
}
