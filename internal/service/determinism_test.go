package service

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// TestReplayRepeatability: five replays of the same trace produce five
// identical fingerprints — the bit-identical-replay acceptance bar.
func TestReplayRepeatability(t *testing.T) {
	ops, err := GenerateTrace(GenConfig{
		Jobs: 15,
		Tenants: []TenantSpec{
			{Name: "a", Weight: 2}, {Name: "b", Weight: 1}, {Name: "c", Weight: 1},
		},
		MeanGap: 3, CancelFrac: 0.2, K: 3, SeedBase: 900, PriorityLevels: 2,
	}, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for run := 0; run < 5; run++ {
		res, err := Replay(Config{Procs: []int{2, 3, 2}}, ops)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = res.Fingerprint
		} else if res.Fingerprint != first {
			t.Fatalf("run %d fingerprint %s, run 0 had %s", run, res.Fingerprint, first)
		}
	}
}

// TestRestartMidTrace models a server crash and WAL recovery: a core
// consumes a prefix of the trace and dies; a fresh core replays the
// full logged prefix from scratch and continues with the remainder.
// The recovered run's fingerprint must equal the uninterrupted run's —
// the core's state is a pure function of the op prefix.
func TestRestartMidTrace(t *testing.T) {
	ops, err := GenerateTrace(GenConfig{
		Jobs: 14,
		Tenants: []TenantSpec{
			{Name: "acme", Weight: 2}, {Name: "blob", Weight: 1},
		},
		MeanGap: 3, CancelFrac: 0.2, K: 2, SeedBase: 300,
	}, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	uninterrupted, err := Replay(Config{Procs: []int{2, 2}}, ops)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, len(ops) / 3, len(ops) / 2, len(ops) - 1} {
		// The doomed server serves ops[:cut] live, then crashes. Its
		// in-memory state dies; only the logged ops survive.
		doomed := newTestCore(t, nil)
		for i := 0; i < cut; i++ {
			applyOp(t, doomed, &ops[i])
		}
		crashRecords := doomed.Records()

		// Recovery: a fresh core replays the logged prefix from
		// scratch. Its reconstructed state — clock, job records and
		// emitted events — must match what the doomed server held at
		// the crash instant.
		recovered := newTestCore(t, nil)
		for i := 0; i < cut; i++ {
			applyOp(t, recovered, &ops[i])
		}
		if recovered.Now() != doomed.Now() {
			t.Fatalf("cut=%d: recovered clock %d, crashed server held %d", cut, recovered.Now(), doomed.Now())
		}
		if !reflect.DeepEqual(recovered.Records(), crashRecords) {
			t.Fatalf("cut=%d: recovered job records diverge from the crashed server's", cut)
		}
		de, re := doomed.cfg.Obs.Events(), recovered.cfg.Obs.Events()
		if len(de) != len(re) {
			t.Fatalf("cut=%d: recovery re-emitted %d events, crash had %d", cut, len(re), len(de))
		}
		for i := range de {
			if de[i] != re[i] {
				t.Fatalf("cut=%d: recovery event %d is %+v, crash had %+v", cut, i, re[i], de[i])
			}
		}

		// The recovered server then serves the rest of the stream live;
		// the whole run must fingerprint like the uninterrupted one.
		for i := cut; i < len(ops); i++ {
			applyOp(t, recovered, &ops[i])
		}
		recovered.Drain()
		fp, err := Fingerprint(recovered.cfg.Obs.Events(), recovered.cfg.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		if fp != uninterrupted.Fingerprint {
			t.Errorf("cut=%d: restarted run fingerprint %s, uninterrupted %s", cut, fp, uninterrupted.Fingerprint)
		}
	}
}

// applyOp feeds one op into a live core, tolerating the same expected
// stream outcomes Replay tolerates (quota rejections, cancels of
// finished jobs).
func applyOp(t *testing.T, c *Core, op *Op) {
	t.Helper()
	if err := c.AdvanceTo(op.T); err != nil {
		t.Fatal(err)
	}
	switch op.Op {
	case "submit":
		if _, err := c.Submit(op.SubmitRequest()); err != nil && !errors.Is(err, ErrQuotaExceeded) {
			t.Fatal(err)
		}
	case "cancel":
		if _, err := c.Cancel(op.ID); err != nil && !errors.Is(err, ErrJobDone) && !errors.Is(err, ErrJobCancelled) && !errors.Is(err, ErrUnknownJob) {
			t.Fatal(err)
		}
	}
}
