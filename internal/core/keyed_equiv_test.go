package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fhs/internal/dag"
	"fhs/internal/fault"
	"fhs/internal/sim"
	"fhs/internal/workload"
)

// pickMax returns the ready alpha-task with the largest score. Ties go
// to the earliest-ready task because the queue is FIFO-ordered and the
// comparison is strict. ok is false on an empty queue.
//
// pickMax and pickMin are the linear scans the static-priority
// schedulers picked with before keyedQueue. They are kept here as the
// reference the heap-backed picks must agree with.
func pickMax(st *sim.State, alpha dag.Type, score func(dag.TaskID) float64) (dag.TaskID, bool) {
	q := st.Ready(alpha)
	if len(q) == 0 {
		return dag.NoTask, false
	}
	best := q[0]
	bestScore := score(best)
	for _, id := range q[1:] {
		if s := score(id); s > bestScore {
			best, bestScore = id, s
		}
	}
	return best, true
}

// pickMin is pickMax with the order reversed.
func pickMin(st *sim.State, alpha dag.Type, score func(dag.TaskID) float64) (dag.TaskID, bool) {
	return pickMax(st, alpha, func(id dag.TaskID) float64 { return -score(id) })
}

// scanPick is the linear-scan formulation of a keyed scheduler's Pick,
// reading the data the scheduler computed in Prepare.
func scanPick(s sim.Scheduler, st *sim.State, alpha dag.Type) (dag.TaskID, bool) {
	switch s := s.(type) {
	case *LSpan:
		return pickMax(st, alpha, func(id dag.TaskID) float64 {
			return float64(s.spans[id] - st.Executed(id))
		})
	case *DType:
		return pickMin(st, alpha, func(id dag.TaskID) float64 { return float64(s.dist[id]) })
	case *MaxDP:
		return pickMax(st, alpha, func(id dag.TaskID) float64 { return s.desc[id] })
	case *ShiftBT:
		return pickMin(st, alpha, func(id dag.TaskID) float64 {
			if s.rank[id] != math.MaxInt64 {
				return float64(s.rank[id])
			}
			return float64(math.MaxInt32) + float64(s.due[id])
		})
	case *eddSched:
		if s.unlimited[alpha] {
			q := st.Ready(alpha)
			if len(q) == 0 {
				return dag.NoTask, false
			}
			return q[0], true
		}
		if ranks := s.fixedRank[alpha]; ranks != nil {
			return pickMin(st, alpha, func(id dag.TaskID) float64 { return float64(ranks[id]) })
		}
		return pickMin(st, alpha, func(id dag.TaskID) float64 { return float64(s.due[id]) })
	}
	panic(fmt.Sprintf("no scan reference for %T", s))
}

// pickChecker runs a keyed scheduler and, before every Pick, asks the
// scan reference on the same State. Any disagreement fails the test.
type pickChecker struct {
	sim.Scheduler
	t     *testing.T
	picks int
}

func (c *pickChecker) Pick(st *sim.State, alpha dag.Type) (dag.TaskID, bool) {
	q := st.Ready(alpha)
	for i := 1; i < len(q); i++ {
		if st.ReadySeq(q[i-1]) >= st.ReadySeq(q[i]) {
			c.t.Fatalf("%s: pool %d at t=%d: Ready not in ReadySeq order at %d", c.Name(), alpha, st.Now(), i)
		}
	}
	wantID, wantOK := scanPick(c.Scheduler, st, alpha)
	id, ok := c.Scheduler.Pick(st, alpha)
	if id != wantID || ok != wantOK {
		c.t.Fatalf("%s: pick %d on pool %d at t=%d: heap (%d, %v), scan (%d, %v)",
			c.Name(), c.picks, alpha, st.Now(), id, ok, wantID, wantOK)
	}
	c.picks++
	return id, ok
}

// scanSched is a keyed scheduler with its Pick replaced by the scan.
type scanSched struct{ sim.Scheduler }

func (s scanSched) Pick(st *sim.State, alpha dag.Type) (dag.TaskID, bool) {
	return scanPick(s.Scheduler, st, alpha)
}

// keyedCase is one instance of the pick-equivalence check.
type keyedCase struct {
	name  string
	g     *dag.Graph
	procs []int
	cfg   func(procs []int) sim.Config
}

// drawKeyedCases covers every workload class and typing in both engine
// modes, each with and without a fault plan whose churn kills tasks
// and whose coin fails them transiently.
func drawKeyedCases(t *testing.T, seed int64) []keyedCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var cases []keyedCase
	for _, class := range []workload.Class{workload.EP, workload.Tree, workload.IR} {
		for _, typing := range []workload.Typing{workload.Layered, workload.Random} {
			for _, preemptive := range []bool{false, true} {
				for _, faulty := range []bool{false, true} {
					k := 2 + rng.Intn(3)
					g, err := workload.Generate(workload.Default(class, k, typing), rng)
					if err != nil {
						t.Fatal(err)
					}
					planSeed := rng.Int63()
					cases = append(cases, keyedCase{
						name:  fmt.Sprintf("%v/%v/preemptive=%v/faults=%v", class, typing, preemptive, faulty),
						g:     g,
						procs: workload.SmallMachine.Sample(k, rng),
						cfg: func(procs []int) sim.Config {
							cfg := sim.Config{Procs: procs, Preemptive: preemptive, CollectTrace: true}
							if faulty {
								fc := fault.Config{MTTF: 120, MTTR: 40, Horizon: 2048, FailureProb: 0.05, MaxRetries: 80}
								cfg.Faults = fc.NewPlan(procs, rand.New(rand.NewSource(planSeed)))
							}
							return cfg
						},
					})
				}
			}
		}
	}
	return cases
}

// runKeyedPair runs s under the pick checker and scan, a second
// instance of the same policy, through the linear scan, and fails
// unless both produce the same schedule.
func runKeyedPair(t *testing.T, label string, g *dag.Graph, cfg sim.Config, s, scan sim.Scheduler) sim.Result {
	t.Helper()
	checked := &pickChecker{Scheduler: s, t: t}
	got, errGot := sim.Run(g, checked, cfg)
	want, errWant := sim.Run(g, scanSched{scan}, cfg)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("%s: error divergence: heap %v, scan %v", label, errGot, errWant)
	}
	if errGot != nil {
		t.Logf("%s: both failed: %v", label, errGot)
		return got
	}
	if got.CompletionTime != want.CompletionTime || got.Decisions != want.Decisions ||
		got.Kills != want.Kills || got.Failures != want.Failures {
		t.Fatalf("%s: heap (T=%d, %d decisions, %d kills, %d failures) != scan (T=%d, %d, %d, %d)", label,
			got.CompletionTime, got.Decisions, got.Kills, got.Failures,
			want.CompletionTime, want.Decisions, want.Kills, want.Failures)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("%s: trace length %d != %d", label, len(got.Trace), len(want.Trace))
	}
	for i := range got.Trace {
		if got.Trace[i] != want.Trace[i] {
			t.Fatalf("%s: trace event %d: %+v != %+v", label, i, got.Trace[i], want.Trace[i])
		}
	}
	if checked.picks == 0 && g.NumTasks() > 0 {
		t.Fatalf("%s: checker saw no picks", label)
	}
	return got
}

// TestKeyedPickEquivalence: every heap-backed Pick returns exactly what
// the linear scan returns on the same State, and the schedules are
// identical event for event, for LSpan, DType, MaxDP and ShiftBT.
// Preemptive LSpan covers keys that change between enqueues; the
// fault plans cover kill and failure re-enqueues.
func TestKeyedPickEquivalence(t *testing.T) {
	var kills, failures, preemptive int64
	for _, c := range drawKeyedCases(t, 23) {
		for _, name := range []string{"LSpan", "DType", "MaxDP", "ShiftBT"} {
			cfg := c.cfg(c.procs)
			res := runKeyedPair(t, c.name+"/"+name, c.g, cfg, MustNew(name, Params{}), MustNew(name, Params{}))
			kills += res.Kills
			failures += res.Failures
			if cfg.Preemptive && name == "LSpan" {
				for _, ev := range res.Trace {
					if ev.Kind == sim.EventPreempt {
						preemptive++
					}
				}
			}
		}
	}
	if kills == 0 || failures == 0 || preemptive == 0 {
		t.Fatalf("cases never exercised a re-enqueue path: %d kills, %d failures, %d LSpan preemptions",
			kills, failures, preemptive)
	}
}

// TestKeyedEDDRelaxationEquivalence checks ShiftBT's relaxation policy
// the same way, on relaxation machines with some types frozen. In a
// non-preemptive fault-free run it also checks the start-recording
// rule (the recorded candidate picks are exactly the trace's candidate
// starts, in order) and that head picks on unlimited pools record the
// same starts as EDD picks there.
func TestKeyedEDDRelaxationEquivalence(t *testing.T) {
	for _, c := range drawKeyedCases(t, 29) {
		sb := NewShiftBT()
		if err := sb.Prepare(c.g, sim.Config{Procs: c.procs}); err != nil {
			t.Fatal(err)
		}
		k := c.g.K()
		typeCount := c.g.TypeCount()
		fixedRank := make([][]int64, k)
		for a := 0; a < k/2; a++ {
			ranks := make([]int64, c.g.NumTasks())
			for i := range ranks {
				ranks[i] = math.MaxInt64
				if c.g.Task(dag.TaskID(i)).Type == dag.Type(a) {
					ranks[i] = sb.rank[i]
				}
			}
			fixedRank[a] = ranks
		}
		candidate := dag.Type(k - 1)
		procs := make([]int, k)
		unlimited := make([]bool, k)
		for a := range procs {
			procs[a] = c.procs[a]
			if fixedRank[a] == nil && dag.Type(a) != candidate {
				procs[a] = max(typeCount[a], 1)
				unlimited[a] = true
			}
		}
		cfg := c.cfg(procs)
		newEDD := func(unlimited []bool) *eddSched {
			return &eddSched{due: sb.due, fixedRank: fixedRank, unlimited: unlimited, candidate: candidate}
		}
		edd := newEDD(unlimited)
		res := runKeyedPair(t, c.name+"/EDD", c.g, cfg, edd, newEDD(unlimited))
		if cfg.Preemptive || cfg.Faults != nil {
			continue
		}
		// Taking the head on unlimited pools instead of the EDD order
		// leaves every start time, so the candidate's starts, unchanged.
		allEDD := newEDD(make([]bool, k))
		runKeyedPair(t, c.name+"/EDD-everywhere", c.g, cfg, allEDD, newEDD(make([]bool, k)))
		if !slices.Equal(edd.starts, allEDD.starts) {
			t.Fatalf("%s: head picks on unlimited pools moved the candidate's starts", c.name)
		}
		var want []taskStart
		for _, ev := range res.Trace {
			if ev.Kind == sim.EventStart && ev.Type == candidate {
				want = append(want, taskStart{t: ev.Time, id: ev.Task})
			}
		}
		if len(edd.starts) != len(want) {
			t.Fatalf("%s: recorded %d candidate starts, trace has %d", c.name, len(edd.starts), len(want))
		}
		for i := range want {
			if edd.starts[i] != want[i] {
				t.Fatalf("%s: candidate start %d: recorded %+v, trace %+v", c.name, i, edd.starts[i], want[i])
			}
		}
	}
}
