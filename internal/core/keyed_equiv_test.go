package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
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
// schedulers picked with before rankQueue. They are kept here as the
// reference the rank-queue picks must agree with.
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

// scanPick is the linear-scan formulation of a keyed scheduler's Pick.
// It reads the raw keys from the graph, not the ranks the scheduler
// computed from them, except for ShiftBT's frozen start order.
func scanPick(s sim.Scheduler, st *sim.State, alpha dag.Type) (dag.TaskID, bool) {
	g := st.Graph()
	switch s := s.(type) {
	case *LSpan:
		return pickMax(st, alpha, func(id dag.TaskID) float64 {
			return float64(g.TaskSpan(id) - st.Executed(id))
		})
	case *DType:
		dist := g.SharedDifferentTypeDistances()
		return pickMin(st, alpha, func(id dag.TaskID) float64 { return float64(dist[id]) })
	case *MaxDP:
		desc := g.SharedDescendantValues()
		return pickMax(st, alpha, func(id dag.TaskID) float64 { return desc[id] })
	case *ShiftBT:
		return pickMin(st, alpha, func(id dag.TaskID) float64 { return float64(s.rank[id]) })
	case *eddSched:
		if s.unlimited[alpha] {
			q := st.Ready(alpha)
			if len(q) == 0 {
				return dag.NoTask, false
			}
			return q[0], true
		}
		if s.fixed[alpha] {
			return pickMin(st, alpha, func(id dag.TaskID) float64 { return float64(s.rank[id]) })
		}
		return pickMin(st, alpha, func(id dag.TaskID) float64 { return float64(g.Span() - g.TaskSpan(id)) })
	case *rankFuzzSched:
		return pickMin(st, alpha, func(id dag.TaskID) float64 { return float64(s.key(st, id)) })
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
		c.t.Fatalf("%s: pick %d on pool %d at t=%d: rank queue (%d, %v), scan (%d, %v)",
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
// and whose coin fails them transiently. A non-nil tweak adjusts each
// workload configuration before its graph is drawn.
func drawKeyedCases(t *testing.T, seed int64, tweak func(*workload.Config)) []keyedCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var cases []keyedCase
	for _, class := range []workload.Class{workload.EP, workload.Tree, workload.IR} {
		for _, typing := range []workload.Typing{workload.Layered, workload.Random} {
			for _, preemptive := range []bool{false, true} {
				for _, faulty := range []bool{false, true} {
					k := 2 + rng.Intn(3)
					wc := workload.Default(class, k, typing)
					if tweak != nil {
						tweak(&wc)
					}
					g, err := workload.Generate(wc, rng)
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
		t.Fatalf("%s: error divergence: rank queue %v, scan %v", label, errGot, errWant)
	}
	if errGot != nil {
		t.Logf("%s: both failed: %v", label, errGot)
		return got
	}
	if got.CompletionTime != want.CompletionTime || got.Decisions != want.Decisions ||
		got.Kills != want.Kills || got.Failures != want.Failures {
		t.Fatalf("%s: rank queue (T=%d, %d decisions, %d kills, %d failures) != scan (T=%d, %d, %d, %d)", label,
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

// TestKeyedPickEquivalence: every rank-queue Pick returns exactly what
// the linear scan returns on the same State, and the schedules are
// identical event for event, for LSpan, DType, MaxDP and ShiftBT.
// Preemptive LSpan covers keys that change between enqueues; the
// fault plans cover kill and failure re-enqueues.
func TestKeyedPickEquivalence(t *testing.T) {
	var kills, failures, preemptive int64
	for _, c := range drawKeyedCases(t, 23, nil) {
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
	for _, c := range drawKeyedCases(t, 29, nil) {
		sb := NewShiftBT()
		if err := sb.Prepare(c.g, sim.Config{Procs: c.procs}); err != nil {
			t.Fatal(err)
		}
		k := c.g.K()
		typeCount := c.g.TypeCount()
		fixed := make([]bool, k)
		for a := 0; a < k/2; a++ {
			fixed[a] = true
		}
		candidate := dag.Type(k - 1)
		procs := make([]int, k)
		unlimited := make([]bool, k)
		for a := range procs {
			procs[a] = c.procs[a]
			if !fixed[a] && dag.Type(a) != candidate {
				procs[a] = max(typeCount[a], 1)
				unlimited[a] = true
			}
		}
		cfg := c.cfg(procs)
		newEDD := func(unlimited []bool) *eddSched {
			return &eddSched{rank: sb.rank, dueRank: sb.spans.rank, fixed: fixed, unlimited: unlimited, candidate: candidate}
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

// TestShiftBTRanksEveryTask: Prepare freezes an order for every type
// with tasks, so each type's ranks are exactly 0..|α-tasks|−1 and Pick
// never meets an unranked task. One job leaves a type without tasks.
func TestShiftBTRanksEveryTask(t *testing.T) {
	b := dag.NewBuilder(3)
	x, y := b.AddTask(0, 2), b.AddTask(2, 3)
	b.AddEdge(x, y)
	b.AddTask(2, 1)
	cases := append(drawKeyedCases(t, 31, nil), keyedCase{name: "empty type", g: b.MustBuild(), procs: []int{1, 1, 1}})
	sb := NewShiftBT() // reused, so stale ranks from the last job would show
	for _, c := range cases {
		if err := sb.Prepare(c.g, sim.Config{Procs: c.procs}); err != nil {
			t.Fatal(err)
		}
		seen := make([][]bool, c.g.K())
		for a, n := range c.g.TypeCount() {
			seen[a] = make([]bool, n)
		}
		for i := 0; i < c.g.NumTasks(); i++ {
			a, r := c.g.Task(dag.TaskID(i)).Type, sb.rank[i]
			if r < 0 || int(r) >= len(seen[a]) || seen[a][r] {
				t.Fatalf("%s: task %d of type %d has rank %d, not a fresh place in 0..%d", c.name, i, a, r, len(seen[a])-1)
			}
			seen[a][r] = true
		}
	}
}

// rankFuzzSched picks through a rankQueue by a static key per task,
// optionally re-keyed by the executed amount as preemptive LSpan's is,
// which sends re-enqueued tasks to gap slots.
type rankFuzzSched struct {
	keys   []int64
	rekey  int64 // 0, +1 or −1: the key moves by rekey·executed
	static ranking[int64]
	q      rankQueue
}

func (*rankFuzzSched) Name() string { return "rank-fuzz" }

func (s *rankFuzzSched) Prepare(g *dag.Graph, _ sim.Config) error {
	s.static.compute(g, false, func(id dag.TaskID) int64 { return s.keys[id] })
	s.q.reset(g, 2)
	return nil
}

func (s *rankFuzzSched) key(st *sim.State, id dag.TaskID) int64 {
	return s.keys[id] + s.rekey*st.Executed(id)
}

func (s *rankFuzzSched) Pick(st *sim.State, alpha dag.Type) (dag.TaskID, bool) {
	return s.q.pick(st, alpha, func(id dag.TaskID) (int32, int64) {
		k := s.key(st, id)
		return s.static.gapSlot(alpha, k), k
	})
}

// FuzzRankQueue checks every rank-queue pick against a linear scan for
// the smallest (key, ReadySeq). Keys come from a small range, so many
// tie; preemption and fault plans re-enqueue tasks into non-empty
// slots; re-keying by the executed amount puts them in gap slots.
func FuzzRankQueue(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(3), uint8(1))
	f.Add(int64(3), uint8(2), uint8(3))
	f.Add(int64(4), uint8(5), uint8(5))
	f.Add(int64(5), uint8(9), uint8(7))
	f.Add(int64(6), uint8(1), uint8(15))
	f.Fuzz(func(t *testing.T, seed int64, keyRange, flags uint8) {
		rng := rand.New(rand.NewSource(seed))
		class := []workload.Class{workload.EP, workload.Tree, workload.IR}[rng.Intn(3)]
		k := 1 + rng.Intn(4)
		wc := workload.Small(class, k, workload.Random)
		wc.WorkMax = 9
		g, err := workload.Generate(wc, rng)
		if err != nil {
			t.Skip(err)
		}
		s := &rankFuzzSched{keys: make([]int64, g.NumTasks())}
		for i := range s.keys {
			s.keys[i] = rng.Int63n(int64(keyRange) + 1)
		}
		procs := workload.SmallMachine.Sample(k, rng)
		cfg := sim.Config{Procs: procs, Preemptive: flags&1 != 0}
		if flags&2 != 0 {
			s.rekey = 1 - 2*int64(flags>>2&1)
		}
		if flags&8 != 0 {
			fc := fault.Config{MTTF: 30, MTTR: 10, Horizon: 512, FailureProb: 0.1, MaxRetries: 200}
			cfg.Faults = fc.NewPlan(procs, rng)
		}
		checked := &pickChecker{Scheduler: s, t: t}
		if _, err := sim.Run(g, checked, cfg); err != nil && !strings.Contains(err.Error(), "retry budget") {
			t.Fatal(err)
		}
	})
}
