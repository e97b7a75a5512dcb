package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"fhs/internal/dag"
	"fhs/internal/fault"
	"fhs/internal/metrics"
	"fhs/internal/sim"
	_ "fhs/internal/verify" // register the Paranoid auditor
	"fhs/internal/workload"
)

// refMQB is the reference formulation of MQB's Pick: walk the whole
// ready queue in order, re-read the queue state per candidate, build
// the full snapshot, sort it with the stdlib and compare via
// metrics.LexLess (or the ablated scalar rule), keeping the first best
// candidate. The optimized Pick (class buckets, hoisted state,
// incremental early-exit selection sort, shared descendant memo) must
// make bit-identical decisions: this is the schedule-equivalence guard
// for the hot-path optimizations.
//
// Its descendant rows are those MQB would use: recomputed from scratch
// for precise information, so the check also covers the shared memo,
// and drawn by an identically seeded MQB for the perturbed models.
type refMQB struct {
	opts       MQBOptions
	desc       [][]float64
	cand, best []float64
}

func (*refMQB) Name() string { return "refMQB" }

func (m *refMQB) Prepare(g *dag.Graph, cfg sim.Config) error {
	switch {
	case m.opts.Info != InfoPrecise:
		twin := NewMQB(m.opts)
		if err := twin.Prepare(g, cfg); err != nil {
			return err
		}
		m.desc = twin.desc
	case m.opts.Lookahead == LookaheadOneStep:
		m.desc = dag.OneStepTypedDescendantValues(g)
	default:
		m.desc = dag.TypedDescendantValues(g)
	}
	m.cand = make([]float64, g.K())
	m.best = make([]float64, g.K())
	return nil
}

func (m *refMQB) Pick(st *sim.State, alpha dag.Type) (dag.TaskID, bool) {
	q := st.Ready(alpha)
	if len(q) == 0 {
		return dag.NoTask, false
	}
	k := st.K()
	best := dag.NoTask
	var bestScore float64
	for _, id := range q {
		for a := 0; a < k; a++ {
			work := float64(st.QueueWork(dag.Type(a))) + m.desc[id][a]
			if dag.Type(a) == alpha {
				work -= float64(st.Remaining(id))
			}
			if procs := st.Procs(dag.Type(a)); procs > 0 {
				m.cand[a] = work / float64(procs)
			} else if work > 0 {
				m.cand[a] = inf()
			} else {
				m.cand[a] = 0
			}
		}
		var sum float64 // in type order, as MQB sums
		for _, v := range m.cand {
			sum += v
		}
		sort.Float64s(m.cand)
		switch m.opts.Balance {
		case BalanceLex:
			if best == dag.NoTask || metrics.LexLess(m.best, m.cand) {
				best = id
				m.best, m.cand = m.cand, m.best
			}
		case BalanceMinOnly:
			if best == dag.NoTask || m.cand[0] > bestScore {
				best, bestScore = id, m.cand[0]
			}
		case BalanceSum:
			if best == dag.NoTask || sum > bestScore {
				best, bestScore = id, sum
			}
		}
	}
	return best, true
}

func inf() float64 { return 1.0 / zero }

var zero float64 // 0; defeats constant folding complaints

// mqbChecker runs MQB and, before every Pick, asks refMQB on the same
// State. Any disagreement fails the test; agreement on every pick makes
// the run the schedule refMQB alone would produce.
type mqbChecker struct {
	*MQB
	ref   refMQB
	t     *testing.T
	label string
	picks int
}

func (c *mqbChecker) Prepare(g *dag.Graph, cfg sim.Config) error {
	c.ref.opts = c.opts
	if err := c.ref.Prepare(g, cfg); err != nil {
		return err
	}
	return c.MQB.Prepare(g, cfg)
}

func (c *mqbChecker) Pick(st *sim.State, alpha dag.Type) (dag.TaskID, bool) {
	wantID, wantOK := c.ref.Pick(st, alpha)
	id, ok := c.MQB.Pick(st, alpha)
	if id != wantID || ok != wantOK {
		c.t.Fatalf("%s: pick %d on pool %d at t=%d (queue %d): classes (%d, %v), scan (%d, %v)",
			c.label, c.picks, alpha, st.Now(), st.QueueLen(alpha), id, ok, wantID, wantOK)
	}
	c.picks++
	return id, ok
}

// mqbVariants are the eight registered MQB schedulers: every lookahead
// and information model, and both ablated balance rules.
var mqbVariants = []string{
	"MQB", "MQB+All+Exp", "MQB+All+Noise",
	"MQB+1Step+Pre", "MQB+1Step+Exp", "MQB+1Step+Noise",
	"MQB/MinOnly", "MQB/Sum",
}

// crashToZero is a fault plan whose timeline takes pool 0, and pool 1
// when there is one, down to zero processors for a while: running tasks
// there are killed, and the snapshot's fully-crashed-pool branch (0 or
// +Inf) decides picks in the meantime.
func crashToZero(procs []int) *fault.Plan {
	tl := fault.NewTimeline(procs)
	tl.MustSet(0, 3, 0)
	tl.MustSet(0, 17, procs[0])
	if len(procs) > 1 {
		tl.MustSet(1, 9, 0)
		tl.MustSet(1, 12, 1)
		tl.MustSet(1, 25, procs[1])
	}
	return &fault.Plan{Timeline: tl, MaxRetries: 1000}
}

// TestMQBPickEquivalence: for all eight MQB variants, every Pick
// returns exactly what the full queue scan returns on the same State —
// over every workload class and typing, in both engine modes, with and
// without a kill+failure fault plan, and under a timeline that crashes
// pools to zero processors. The verify auditor runs inline (Paranoid)
// over the optimized path.
func TestMQBPickEquivalence(t *testing.T) {
	var kills, failures, preemptions, crashedPicks int64
	// Smaller trees keep the scan reference affordable under -race;
	// their ready queues stay as wide as the figures' trees.
	cases := drawKeyedCases(t, 42, func(wc *workload.Config) { wc.Tree.MaxNodes = 2000 })
	for i, c := range cases {
		plans := []func(procs []int) sim.Config{c.cfg}
		if i%2 == 0 {
			// Crash-to-zero on the fault-free case of every (class,
			// typing, mode).
			plans = append(plans, func(procs []int) sim.Config {
				cfg := c.cfg(procs)
				cfg.Faults = crashToZero(procs)
				return cfg
			})
		}
		for p, plan := range plans {
			for v, name := range mqbVariants {
				if v > 0 && name != "MQB+1Step+Pre" && (i/8+i/4+v)%2 != 0 {
					// The other six variants each take half the (class,
					// typing) groups — every class, both typings — with
					// both modes, both fault settings and the crash plan.
					continue
				}
				label := fmt.Sprintf("%s/plan%d/%s", c.name, p, name)
				cfg := plan(c.procs)
				cfg.Paranoid = true
				checked := &mqbChecker{MQB: MustNew(name, Params{Seed: 3}).(*MQB), t: t, label: label}
				res, err := sim.Run(c.g, checked, cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if checked.picks == 0 && c.g.NumTasks() > 0 {
					t.Fatalf("%s: checker saw no picks", label)
				}
				kills += res.Kills
				failures += res.Failures
				for _, ev := range res.Trace {
					if ev.Kind == sim.EventPreempt {
						preemptions++
					}
					if ev.Kind == sim.EventStart && p == 1 && ev.Time >= 9 && ev.Time < 17 {
						crashedPicks++
					}
				}
			}
		}
	}
	if kills == 0 || failures == 0 || preemptions == 0 || crashedPicks == 0 {
		t.Fatalf("cases never exercised a path: %d kills, %d failures, %d preemptions, %d picks while a pool was down",
			kills, failures, preemptions, crashedPicks)
	}
}

// TestSortBeatsMatchesLexLess: property check of the early-exit
// comparison against the spec — sort both vectors fully, compare with
// metrics.LexLess — over random vectors including ties, duplicates and
// infinities, with and without ties winning.
func TestSortBeatsMatchesLexLess(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20000; trial++ {
		k := 1 + rng.Intn(6)
		cand := make([]float64, k)
		best := make([]float64, k)
		for i := 0; i < k; i++ {
			// Coarse values force frequent ties; occasional infinities
			// model fully crashed pools.
			cand[i] = float64(rng.Intn(4))
			best[i] = float64(rng.Intn(4))
			if rng.Intn(16) == 0 {
				cand[i] = inf()
			}
			if rng.Intn(16) == 0 {
				best[i] = inf()
			}
		}
		sort.Float64s(best)
		sorted := append([]float64(nil), cand...)
		sort.Float64s(sorted)
		want := metrics.LexLess(best, sorted)

		winTies := rng.Intn(2) == 0
		if winTies {
			// Ties win: cand beats unless it is strictly worse.
			want = !metrics.LexLess(sorted, best)
		}
		got := sortBeats(cand, best, winTies)
		if got != want {
			t.Fatalf("sortBeats(%v, %v, %v) = %v, want %v", sorted, best, winTies, got, want)
		}
		if got {
			// Winning vectors must come out fully sorted: they become
			// the next incumbent.
			for i := range cand {
				if cand[i] != sorted[i] {
					t.Fatalf("winning cand not sorted: %v want %v", cand, sorted)
				}
			}
		}
	}
}

// TestSharedLookaheadsMatchFresh: the graph memo returns exactly what
// a fresh computation returns, and repeated calls return the same
// backing slices (no recompute).
func TestSharedLookaheadsMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, err := workload.Generate(workload.DefaultIR(4, workload.Layered), rng)
	if err != nil {
		t.Fatal(err)
	}
	typed := g.SharedTypedDescendantValues()
	fresh := dag.TypedDescendantValues(g)
	for v := range fresh {
		for a := range fresh[v] {
			if typed[v][a] != fresh[v][a] {
				t.Fatalf("task %d type %d: shared %g != fresh %g", v, a, typed[v][a], fresh[v][a])
			}
		}
	}
	if &g.SharedTypedDescendantValues()[0][0] != &typed[0][0] {
		t.Fatal("second SharedTypedDescendantValues call recomputed")
	}
	one := g.SharedOneStepTypedDescendantValues()
	freshOne := dag.OneStepTypedDescendantValues(g)
	for v := range freshOne {
		for a := range freshOne[v] {
			if one[v][a] != freshOne[v][a] {
				t.Fatalf("one-step task %d type %d: shared %g != fresh %g", v, a, one[v][a], freshOne[v][a])
			}
		}
	}
}

// TestPerturbedInfoDoesNotTouchSharedCache: MQB+Exp/Noise perturb a
// private copy; the graph's memo must stay exact for the next
// scheduler preparing on the same job.
func TestPerturbedInfoDoesNotTouchSharedCache(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g, err := workload.Generate(workload.DefaultEP(3, workload.Layered), rng)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), g.SharedTypedDescendantValues()[0]...)
	for _, name := range []string{"MQB+All+Exp", "MQB+All+Noise"} {
		s := MustNew(name, Params{Seed: 5})
		if err := s.Prepare(g, sim.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	got := g.SharedTypedDescendantValues()[0]
	for a := range want {
		if got[a] != want[a] {
			t.Fatalf("shared cache mutated at type %d: %g != %g", a, got[a], want[a])
		}
	}
}
