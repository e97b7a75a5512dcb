package service

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fhs/internal/crashpoint"
	"fhs/internal/fault"
	"fhs/internal/service/wal"
)

// crashScript is the canonical op sequence of the crash-equivalence
// proofs: enough submits, advances, cancels and a drain to cross every
// WAL crash site when journaled with tiny segments and frequent
// snapshots.
func crashScript() []Rec {
	sub := func(id string, seed int64) Rec {
		req := SubmitRequest{ID: id, Tenant: "acme", Spec: spec(2, seed)}
		return Rec{Op: "submit", Submit: &req}
	}
	return []Rec{
		sub("j0", 1),
		sub("j1", 2),
		{Op: "advance", To: 2},
		sub("j2", 3),
		{Op: "cancel", ID: "j1"},
		{Op: "advance", To: 6},
		sub("j3", 4),
		sub("j4", 5),
		{Op: "advance", To: 9},
		{Op: "cancel", ID: "ghost"},
		{Op: "drain"},
	}
}

// crashJournalOptions journals with every durability knob turned
// hostile: fsync per append (so the after-sync site fires), 160-byte
// segments (so rotation fires) and a snapshot every 3 appends (so all
// three snapshot sites fire).
func crashJournalOptions() JournalOptions {
	return JournalOptions{
		WAL:           wal.Options{Fsync: wal.FsyncAlways, SegmentBytes: 160},
		SnapshotEvery: 3,
	}
}

// runRecs journals then applies each record — the handler's
// write-ahead order.
func runRecs(jn *Journal, c *Core, recs []Rec) error {
	for i := range recs {
		if err := jn.Record(recs[i]); err != nil {
			return err
		}
		if err := ApplyRecs(c, recs[i:i+1]); err != nil {
			return err
		}
	}
	return nil
}

// uninterruptedFingerprint runs crashScript on a fresh core with no
// journal and no crashes — the ground truth every recovery must match.
func uninterruptedFingerprint(t *testing.T) string {
	t.Helper()
	c, err := RecoverCore(Config{Procs: []int{2, 2}}, crashScript())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := Fingerprint(c.cfg.Obs.Events(), c.cfg.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// recoverAndContinue reopens a WAL directory left behind by a crashed
// run, rebuilds the core from the journaled prefix, plays the rest of
// crashScript, and returns the final fingerprint.
func recoverAndContinue(t *testing.T, dir string) string {
	t.Helper()
	jn, recs, _, err := OpenJournal(dir, crashJournalOptions())
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer jn.Close()
	script := crashScript()
	if len(recs) > len(script) {
		t.Fatalf("recovered %d ops, script has only %d", len(recs), len(script))
	}
	c, err := RecoverCore(Config{Procs: []int{2, 2}}, recs)
	if err != nil {
		t.Fatalf("recover core: %v", err)
	}
	if err := runRecs(jn, c, script[len(recs):]); err != nil {
		t.Fatalf("continue after recovery: %v", err)
	}
	fp, err := Fingerprint(c.cfg.Obs.Events(), c.cfg.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestCrashScriptChild is the re-exec child of TestCrashEquivalence:
// it journals and applies crashScript in a fresh WAL directory with a
// crashpoint armed via FH_CRASHPOINT, dying mid-operation with exit
// code 86. It skips when run as part of the normal test suite.
func TestCrashScriptChild(t *testing.T) {
	dir := os.Getenv("FH_CRASH_WALDIR")
	if dir == "" {
		t.Skip("crash-harness child; driven by TestCrashEquivalence")
	}
	jn, recs, _, err := OpenJournal(dir, crashJournalOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	if len(recs) != 0 {
		t.Fatalf("fresh WAL dir recovered %d ops", len(recs))
	}
	c, err := RecoverCore(Config{Procs: []int{2, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := runRecs(jn, c, crashScript()); err != nil {
		t.Fatal(err)
	}
	// The armed site was never reached: report the fingerprint so the
	// parent can still check equivalence.
	fp, err := Fingerprint(c.cfg.Obs.Events(), c.cfg.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("CHILD_FINGERPRINT=%s\n", fp)
}

// TestCrashEquivalence is the crashpoint chaos harness: for every
// registered WAL crash site and every hit count until the script
// outruns the site, a child process dies mid-operation (a real
// os.Exit, not a simulated error), and the parent proves that
// recover-then-continue produces a fingerprint bit-identical to the
// uninterrupted run.
func TestCrashEquivalence(t *testing.T) {
	if os.Getenv("FH_CRASH_WALDIR") != "" {
		t.Skip("crash-harness child")
	}
	if testing.Short() {
		t.Skip("re-exec harness, skipped in -short")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	want := uninterruptedFingerprint(t)
	var sites []string
	for _, s := range crashpoint.Sites() {
		if strings.HasPrefix(s, "wal.") {
			sites = append(sites, s)
		}
	}
	if len(sites) == 0 {
		t.Fatal("no WAL crash sites registered")
	}
	for _, site := range sites {
		t.Run(site, func(t *testing.T) {
			t.Parallel()
			crashes := 0
			for n := 1; n <= 64; n++ {
				dir := t.TempDir()
				cmd := exec.Command(exe, "-test.run", "^TestCrashScriptChild$")
				dieWithParent(cmd)
				cmd.Env = append(os.Environ(),
					"FH_CRASH_WALDIR="+dir,
					fmt.Sprintf("%s=%s:%d", crashpoint.EnvVar, site, n),
				)
				out, err := cmd.CombinedOutput()
				if err == nil {
					// The script finished before the n-th crossing: the
					// site is exhausted. The un-crashed child must agree
					// with the ground truth too.
					if !strings.Contains(string(out), "CHILD_FINGERPRINT="+want) {
						t.Errorf("hit %d: child completed with wrong fingerprint:\n%s", n, out)
					}
					if crashes == 0 {
						t.Errorf("site never crashed the child; script does not reach it")
					}
					return
				}
				var ee *exec.ExitError
				if !errors.As(err, &ee) || ee.ExitCode() != crashpoint.ExitCode {
					t.Fatalf("hit %d: child died abnormally (%v), want exit %d:\n%s",
						n, err, crashpoint.ExitCode, out)
				}
				crashes++
				if got := recoverAndContinue(t, dir); got != want {
					t.Errorf("hit %d: recovered fingerprint %s, uninterrupted run %s", n, got, want)
				}
			}
			t.Fatalf("site still crashing after 64 hits; script should have outrun it")
		})
	}
}

// TestJournalEveryCutRecovers truncates a completed journal at every
// byte offset and proves each cut recovers to a state from which
// continuing the script reproduces the uninterrupted fingerprint —
// the torn-write equivalence proof at the journal layer.
func TestJournalEveryCutRecovers(t *testing.T) {
	want := uninterruptedFingerprint(t)
	script := crashScript()

	// Build the full journal once, in a single segment with no
	// snapshots so every byte of history is cuttable.
	opts := JournalOptions{WAL: wal.Options{Fsync: wal.FsyncOff}}
	src := t.TempDir()
	jn, _, _, err := OpenJournal(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := RecoverCore(Config{Procs: []int{2, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := runRecs(jn, c, script); err != nil {
		t.Fatal(err)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}
	const seg = "seg-00000001.wal"
	data, err := os.ReadFile(filepath.Join(src, seg))
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(data); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, seg), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jn2, recs, rec, err := OpenJournal(dir, opts)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if cut < len(data) && rec.TruncatedBytes == 0 && len(recs) == len(script) {
			t.Fatalf("cut %d: whole script recovered from a truncated file", cut)
		}
		c2, err := RecoverCore(Config{Procs: []int{2, 2}}, recs)
		if err != nil {
			t.Fatalf("cut %d: recover: %v", cut, err)
		}
		if err := runRecs(jn2, c2, script[len(recs):]); err != nil {
			t.Fatalf("cut %d: continue: %v", cut, err)
		}
		fp, err := Fingerprint(c2.cfg.Obs.Events(), c2.cfg.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		if fp != want {
			t.Fatalf("cut %d: fingerprint %s, uninterrupted run %s", cut, fp, want)
		}
		jn2.Close()
	}
}

// TestChaosSoak interleaves everything at once: a generated arrival
// trace over a seeded MTTF/MTTR fault plan, a tight backlog bound that
// sheds load, and a simulated process crash every few operations
// (journal abandoned mid-stream, state rebuilt from the WAL). The
// final fingerprint must match the run with no restarts, and the
// stream must satisfy the full churn audit.
func TestChaosSoak(t *testing.T) {
	fc := fault.Config{MTTF: 25, MTTR: 5, Horizon: 300, MaxRetries: 3}
	plan := fc.NewPlan([]int{2, 2}, rand.New(rand.NewSource(3)))
	plan.Seed = 0 // no completion-failure coin in the service core
	cfg := func() Config {
		return Config{Procs: []int{2, 2}, Faults: plan, MaxBacklogTasks: 12}
	}
	ops, err := GenerateTrace(GenConfig{
		Jobs: 24, K: 2, MeanGap: 3, CancelFrac: 0.25, PriorityLevels: 2,
		Tenants: []TenantSpec{{Name: "a", Weight: 1}, {Name: "b", Weight: 2}},
	}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	var script []Rec
	now := int64(0)
	for i := range ops {
		if ops[i].T > now {
			now = ops[i].T
			script = append(script, Rec{Op: "advance", To: now})
		}
		switch ops[i].Op {
		case "submit":
			req := ops[i].SubmitRequest()
			script = append(script, Rec{Op: "submit", Submit: &req})
		case "cancel":
			script = append(script, Rec{Op: "cancel", ID: ops[i].ID})
		}
	}
	script = append(script, Rec{Op: "drain"})

	// Ground truth: one uninterrupted pass.
	base, err := RecoverCore(cfg(), script)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Fingerprint(base.cfg.Obs.Events(), base.cfg.Metrics)
	if err != nil {
		t.Fatal(err)
	}

	// Churned pass: restart from the WAL every 7 ops without closing
	// the abandoned journal — file state as a SIGKILL would leave it.
	dir := t.TempDir()
	opts := JournalOptions{
		WAL:           wal.Options{Fsync: wal.FsyncBatch, BatchEvery: 4, SegmentBytes: 512},
		SnapshotEvery: 10,
	}
	applied := 0
	var lastCore *Core
	for applied < len(script) {
		jn, recs, _, err := OpenJournal(dir, opts)
		if err != nil {
			t.Fatalf("restart at op %d: %v", applied, err)
		}
		if len(recs) != applied {
			t.Fatalf("restart at op %d recovered %d ops", applied, len(recs))
		}
		c, err := RecoverCore(cfg(), recs)
		if err != nil {
			t.Fatalf("restart at op %d: %v", applied, err)
		}
		stop := applied + 7
		if stop > len(script) {
			stop = len(script)
		}
		if err := runRecs(jn, c, script[applied:stop]); err != nil {
			t.Fatalf("ops %d..%d: %v", applied, stop, err)
		}
		applied = stop
		lastCore = c
		if applied == len(script) {
			jn.Close()
		} else if err := jn.Sync(); err != nil {
			// Abandon without Close, but force the batch out: a kill
			// loses unsynced appends, which is real durability loss —
			// the restart check above pins exactly-once recovery.
			t.Fatal(err)
		}
	}
	got, err := Fingerprint(lastCore.cfg.Obs.Events(), lastCore.cfg.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("chaos soak diverged:\nrestarts: %s\nstraight:  %s", got, want)
	}
	sum := lastCore.Summary()
	if sum.Kills == 0 {
		t.Error("soak plan produced no kills; weaken the timeline check or reseed")
	}
	if sum.Done == 0 {
		t.Error("soak finished no jobs")
	}
	audit(t, lastCore)
}

// TestOpenJournalCorruptFrame: a WAL payload that is not a valid Rec
// must fail OpenJournal with the frame index, and the underlying log
// must be closed on the way out — the directory stays reusable.
func TestOpenJournalCorruptFrame(t *testing.T) {
	dir := t.TempDir()
	log, _, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append([]byte(`{"op":"submit"}`)); err != nil { // valid JSON, invalid Rec
		t.Fatal(err)
	}
	if err := log.Append([]byte(`not json at all`)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = OpenJournal(dir, JournalOptions{WAL: wal.Options{Fsync: wal.FsyncOff}})
	if err == nil {
		t.Fatal("OpenJournal accepted a corrupt journal")
	}
	if !strings.Contains(err.Error(), "journal frame 0") {
		t.Fatalf("error %q does not name the corrupt frame", err)
	}
	// The failed open released the log: a fresh wal.Open sees the same
	// frames, untouched.
	_, rec, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Payloads) != 2 {
		t.Fatalf("recovered %d payloads after failed OpenJournal, want 2", len(rec.Payloads))
	}
}
