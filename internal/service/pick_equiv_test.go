package service

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"fhs/internal/dag"
	"fhs/internal/fault"
	"fhs/internal/metrics"
)

// refPick is the reference formulation of the service's MQB pick: score
// every candidate with a full sort against the given pool sizes and
// keep the first metrics.LexLess best. It returns the winner's queue
// position, its score (the smallest x-utilization), and whether another
// candidate's snapshot equals the winner's.
func refPick(c *Core, alpha dag.Type, cands []int, procs []int) (int, float64, bool) {
	q := c.queues[alpha]
	var best []float64
	bestQi, equal := -1, 0
	for _, qi := range cands {
		e := q[qi]
		v := make([]float64, c.k)
		for a := range v {
			work := float64(c.qwork[a]) + e.j.desc[e.task][a]
			if dag.Type(a) == alpha {
				work -= float64(e.j.graph.Task(e.task).Work)
			}
			switch {
			case procs[a] > 0:
				v[a] = work / float64(procs[a])
			case work > 0:
				v[a] = math.Inf(1)
			}
		}
		sort.Float64s(v)
		switch {
		case best == nil || metrics.LexLess(best, v):
			best, bestQi, equal = v, qi, 1
		case !metrics.LexLess(v, best):
			equal++
		}
	}
	return bestQi, best[0], equal > 1
}

// pickCounts tallies what the equivalence checks exercised.
type pickCounts struct {
	checks   int // contested picks compared against the reference
	ties     int // picks where two candidates had equal snapshots
	degraded int // picks while some pool ran below its nominal size
	liveDiff int // degraded picks that live-capacity scoring would change
}

// checkPicks compares pick with refPick on every pool holding two or
// more candidates at the core's current (settled) instant.
func checkPicks(t *testing.T, c *Core, label string, n *pickCounts) {
	t.Helper()
	degraded := false
	for a := range c.cap {
		degraded = degraded || c.cap[a] < c.cfg.Procs[a]
	}
	for a := 0; a < c.k; a++ {
		alpha := dag.Type(a)
		if len(c.queues[a]) == 0 {
			continue
		}
		cands := c.candidates(alpha)
		if len(cands) < 2 {
			continue
		}
		got, gotScore := c.pick(alpha, cands)
		want, wantScore, tie := refPick(c, alpha, cands, c.cfg.Procs)
		if got != want || gotScore != wantScore {
			t.Fatalf("%s: pool %d at t=%d over %d candidates: pick (%d, %v), full scan (%d, %v)",
				label, a, c.now, len(cands), got, gotScore, want, wantScore)
		}
		n.checks++
		if tie {
			n.ties++
		}
		if degraded {
			n.degraded++
			if live, _, _ := refPick(c, alpha, cands, c.cap); live != want {
				n.liveDiff++
			}
		}
	}
}

// TestServicePickEquivalence: at every settled instant of generated
// traces (several tenants and priority classes, duplicated job specs,
// capacity churn), the service's MQB pick equals a full-scan reference
// that scores against the nominal pool sizes, with fair share on and
// off.
func TestServicePickEquivalence(t *testing.T) {
	var n pickCounts
	for seed := int64(1); seed <= 4; seed++ {
		procs := []int{3, 2, 2}
		ops, err := GenerateTrace(GenConfig{
			Jobs: 30, K: len(procs), MeanGap: 2, CancelFrac: 0.15, PriorityLevels: 2,
			Tenants:  []TenantSpec{{Name: "a", Weight: 1}, {Name: "b", Weight: 2}, {Name: "c", Weight: 1}},
			SeedBase: 100 * seed,
		}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		// Every third submit repeats the previous one's spec, so whole
		// jobs tie with each other, not just tasks within one job.
		var prev JobSpec
		for i, submits := 0, 0; i < len(ops); i++ {
			if ops[i].Op != "submit" {
				continue
			}
			if submits%3 == 2 {
				ops[i].Spec = prev
			}
			prev = ops[i].Spec
			submits++
		}
		fc := fault.Config{MTTF: 10, MTTR: 4, Horizon: 200, MaxRetries: 40}
		plan := fc.NewPlan(procs, rand.New(rand.NewSource(seed)))
		plan.Seed = 0 // no completion-failure coin in the service core
		for _, noFair := range []bool{false, true} {
			label := fmt.Sprintf("seed%d/nofair=%v", seed, noFair)
			c, err := New(Config{Procs: procs, Faults: plan, NoFairShare: noFair})
			if err != nil {
				t.Fatal(err)
			}
			advance := func(to int64) {
				for c.now < to {
					if err := c.AdvanceTo(c.now + 1); err != nil {
						t.Fatal(err)
					}
					checkPicks(t, c, label, &n)
				}
			}
			for i := range ops {
				op := &ops[i]
				advance(op.T)
				switch op.Op {
				case "submit":
					if _, err := c.Submit(op.SubmitRequest()); err != nil {
						t.Fatalf("%s: op %d: %v", label, i, err)
					}
				case "cancel":
					if _, err := c.Cancel(op.ID); err != nil && !errors.Is(err, ErrJobDone) &&
						!errors.Is(err, ErrJobCancelled) && !errors.Is(err, ErrJobFailed) {
						t.Fatalf("%s: op %d: %v", label, i, err)
					}
				}
				checkPicks(t, c, label, &n)
			}
			for limit := c.now + 10000; !c.Idle(); {
				if c.now >= limit {
					t.Fatalf("%s: core not idle by t=%d", label, c.now)
				}
				advance(c.now + 1)
			}
		}
	}
	t.Logf("%d contested picks, %d ties, %d under churn, %d where live-capacity scoring picks differently",
		n.checks, n.ties, n.degraded, n.liveDiff)
	if n.ties == 0 || n.degraded == 0 || n.liveDiff == 0 {
		t.Fatalf("cases never exercised a path: %+v", n)
	}
}
