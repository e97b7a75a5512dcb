package sim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fhs/internal/dag"
)

// fifo is a minimal scheduler for engine tests: first ready task wins.
// It and lifo check the ready queue's ReadySeq order on every Pick.
type fifo struct{}

func (fifo) Name() string                     { return "fifo" }
func (fifo) Prepare(*dag.Graph, Config) error { return nil }
func (fifo) Pick(st *State, a dag.Type) (dag.TaskID, bool) {
	mustBeInSeqOrder(st, a)
	q := st.Ready(a)
	if len(q) == 0 {
		return dag.NoTask, false
	}
	return q[0], true
}

// lifo picks the most recently readied task, exercising non-FIFO paths.
type lifo struct{}

func (lifo) Name() string                     { return "lifo" }
func (lifo) Prepare(*dag.Graph, Config) error { return nil }
func (lifo) Pick(st *State, a dag.Type) (dag.TaskID, bool) {
	mustBeInSeqOrder(st, a)
	q := st.Ready(a)
	if len(q) == 0 {
		return dag.NoTask, false
	}
	return q[len(q)-1], true
}

// refuser never picks anything, to exercise stall detection.
type refuser struct{}

func (refuser) Name() string                     { return "refuser" }
func (refuser) Prepare(*dag.Graph, Config) error { return nil }
func (refuser) Pick(*State, dag.Type) (dag.TaskID, bool) {
	return dag.NoTask, false
}

// serial is a deliberately-idling scheduler: it refuses to run more
// than one task at a time machine-wide, starving every other
// processor. It exists to prove MaxTime turns such policies into
// errors instead of hangs or silent crawl.
type serial struct {
	last   dag.TaskID
	active bool
}

func (*serial) Name() string { return "serial" }
func (s *serial) Prepare(*dag.Graph, Config) error {
	s.active = false
	return nil
}
func (s *serial) Pick(st *State, a dag.Type) (dag.TaskID, bool) {
	if s.active && st.Remaining(s.last) > 0 {
		return dag.NoTask, false
	}
	q := st.Ready(a)
	if len(q) == 0 {
		return dag.NoTask, false
	}
	s.last, s.active = q[0], true
	return q[0], true
}

// rogue picks a task that is not ready (the completed root), to
// exercise contract enforcement.
type rogue struct{ fired bool }

func (*rogue) Name() string                     { return "rogue" }
func (*rogue) Prepare(*dag.Graph, Config) error { return nil }
func (r *rogue) Pick(st *State, a dag.Type) (dag.TaskID, bool) {
	q := st.Ready(a)
	if len(q) == 0 {
		return dag.NoTask, false
	}
	if !r.fired {
		r.fired = true
		return q[0], true
	}
	return dag.TaskID(0), true // task 0 has already run
}

func mustChain(t *testing.T, k int, works []int64, types []dag.Type) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder(k)
	var prev dag.TaskID = dag.NoTask
	for i := range works {
		id := b.AddTask(types[i], works[i])
		if prev != dag.NoTask {
			b.AddEdge(prev, id)
		}
		prev = id
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestChainRunsSerially(t *testing.T) {
	g := mustChain(t, 2, []int64{3, 5, 2}, []dag.Type{0, 1, 0})
	res, err := Run(g, fifo{}, Config{Procs: []int{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTime != 10 {
		t.Errorf("completion = %d, want 10", res.CompletionTime)
	}
	if res.BusyTime[0] != 5 || res.BusyTime[1] != 5 {
		t.Errorf("busy = %v, want [5 5]", res.BusyTime)
	}
}

func TestIndependentTasksRunInParallel(t *testing.T) {
	b := dag.NewBuilder(1)
	for i := 0; i < 4; i++ {
		b.AddTask(0, 2)
	}
	g := b.MustBuild()
	res, err := Run(g, fifo{}, Config{Procs: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTime != 2 {
		t.Errorf("completion = %d, want 2 (all parallel)", res.CompletionTime)
	}
	res, err = Run(g, fifo{}, Config{Procs: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTime != 4 {
		t.Errorf("completion = %d, want 4 (two waves)", res.CompletionTime)
	}
}

func TestHeterogeneousPoolsOnlyRunMatchingTasks(t *testing.T) {
	// One type-0 and one type-1 task, independent; one processor per
	// type: both run at time 0 in parallel.
	b := dag.NewBuilder(2)
	b.AddTask(0, 4)
	b.AddTask(1, 6)
	g := b.MustBuild()
	res, err := Run(g, fifo{}, Config{Procs: []int{1, 1}, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTime != 6 {
		t.Errorf("completion = %d, want 6", res.CompletionTime)
	}
	for _, ev := range res.Trace {
		if ev.Kind == EventStart && ev.Time != 0 {
			t.Errorf("task %d started at %d, want 0", ev.Task, ev.Time)
		}
	}
}

func TestFigure1LowerBoundAchievableWithManyProcs(t *testing.T) {
	g := dag.Figure1()
	// With ample processors the completion time is the span.
	res, err := Run(g, fifo{}, Config{Procs: []int{7, 4, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTime != g.Span() {
		t.Errorf("completion = %d, want span %d", res.CompletionTime, g.Span())
	}
}

func TestEmptyJobCompletesAtZero(t *testing.T) {
	g := dag.NewBuilder(2).MustBuild()
	res, err := Run(g, fifo{}, Config{Procs: []int{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTime != 0 {
		t.Errorf("completion = %d, want 0", res.CompletionTime)
	}
}

func TestConfigValidation(t *testing.T) {
	g := dag.Figure1()
	cases := []Config{
		{Procs: []int{1, 1}},                 // wrong K
		{Procs: []int{1, 0, 1}},              // zero pool
		{Procs: []int{1, -2, 1}},             // negative pool
		{Procs: []int{1, 1, 1}, Quantum: -1}, // negative quantum
	}
	for i, cfg := range cases {
		if _, err := Run(g, fifo{}, cfg); err == nil {
			t.Errorf("case %d: Run accepted invalid config %+v", i, cfg)
		}
	}
}

func TestStallDetection(t *testing.T) {
	g := mustChain(t, 1, []int64{1, 1}, []dag.Type{0, 0})
	_, err := Run(g, refuser{}, Config{Procs: []int{1}})
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Errorf("want stall error, got %v", err)
	}
	_, err = Run(g, refuser{}, Config{Procs: []int{1}, Preemptive: true})
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Errorf("preemptive: want stall error, got %v", err)
	}
}

func TestRogueSchedulerRejected(t *testing.T) {
	g := mustChain(t, 1, []int64{1, 1, 1}, []dag.Type{0, 0, 0})
	_, err := Run(g, &rogue{}, Config{Procs: []int{1}})
	if err == nil || !strings.Contains(err.Error(), "not ready") {
		t.Errorf("want contract violation error, got %v", err)
	}
}

func TestMaxTimeAborts(t *testing.T) {
	g := mustChain(t, 1, []int64{100}, []dag.Type{0})
	_, err := Run(g, fifo{}, Config{Procs: []int{1}, MaxTime: 10})
	if err == nil || !strings.Contains(err.Error(), "MaxTime") {
		t.Errorf("want MaxTime error, got %v", err)
	}
	_, err = Run(g, fifo{}, Config{Procs: []int{1}, MaxTime: 10, Preemptive: true})
	if err == nil || !strings.Contains(err.Error(), "MaxTime") {
		t.Errorf("preemptive: want MaxTime error, got %v", err)
	}
}

func TestStarvingSchedulerTripsMaxTimeWithClock(t *testing.T) {
	// 20 independent unit tasks on 4 processors finish at t=5 under any
	// work-conserving policy, but the serial idler needs t=20. With
	// MaxTime=5 both engines must abort — naming the offending clock
	// value — rather than crawl or hang.
	b := dag.NewBuilder(1)
	for i := 0; i < 20; i++ {
		b.AddTask(0, 1)
	}
	g := b.MustBuild()
	for _, preemptive := range []bool{false, true} {
		_, err := Run(g, &serial{}, Config{Procs: []int{4}, MaxTime: 5, Preemptive: preemptive})
		if err == nil {
			t.Fatalf("preemptive=%v: starving scheduler finished under MaxTime", preemptive)
		}
		if !strings.Contains(err.Error(), "MaxTime=5") {
			t.Errorf("preemptive=%v: error does not name the limit: %v", preemptive, err)
		}
		if !strings.Contains(err.Error(), "clock 6") {
			t.Errorf("preemptive=%v: error does not include the clock value: %v", preemptive, err)
		}
	}
	// Sanity: the same machine under a greedy policy finishes in time.
	res, err := Run(g, fifo{}, Config{Procs: []int{4}, MaxTime: 5})
	if err != nil || res.CompletionTime != 5 {
		t.Errorf("fifo baseline: completion %d, err %v; want 5, nil", res.CompletionTime, err)
	}
}

func TestParanoidRequiresAuditor(t *testing.T) {
	// The sim test binary does not link internal/verify, so no auditor
	// is registered and Paranoid must fail loudly instead of skipping
	// the audit.
	g := mustChain(t, 1, []int64{1}, []dag.Type{0})
	_, err := Run(g, fifo{}, Config{Procs: []int{1}, Paranoid: true})
	if err == nil || !strings.Contains(err.Error(), "no auditor") {
		t.Errorf("want missing-auditor error, got %v", err)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	// Two unit tasks on a 2-processor pool: both run at t=0, makespan 1,
	// utilization 1.0. With one extra idle pool type... K=1 here.
	b := dag.NewBuilder(1)
	b.AddTask(0, 1)
	b.AddTask(0, 1)
	g := b.MustBuild()
	res, err := Run(g, fifo{}, Config{Procs: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization[0] != 1.0 {
		t.Errorf("utilization = %v, want 1.0", res.Utilization[0])
	}
}

func TestTraceEventsConsistent(t *testing.T) {
	g := dag.Figure1()
	res, err := Run(g, fifo{}, Config{Procs: []int{2, 1, 1}, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	starts := map[dag.TaskID]int64{}
	finishes := map[dag.TaskID]int64{}
	for _, ev := range res.Trace {
		switch ev.Kind {
		case EventStart:
			starts[ev.Task] = ev.Time
		case EventFinish:
			finishes[ev.Task] = ev.Time
		}
	}
	if len(starts) != g.NumTasks() || len(finishes) != g.NumTasks() {
		t.Fatalf("trace covers %d starts, %d finishes of %d tasks", len(starts), len(finishes), g.NumTasks())
	}
	for i := 0; i < g.NumTasks(); i++ {
		id := dag.TaskID(i)
		if finishes[id]-starts[id] != g.Task(id).Work {
			t.Errorf("task %d ran %d, work %d", i, finishes[id]-starts[id], g.Task(id).Work)
		}
		// Precedence respected.
		for _, c := range g.Children(id) {
			if starts[c] < finishes[id] {
				t.Errorf("task %d started at %d before parent %d finished at %d", c, starts[c], i, finishes[id])
			}
		}
	}
}

func TestEventKindString(t *testing.T) {
	if EventStart.String() != "start" || EventPreempt.String() != "preempt" || EventFinish.String() != "finish" {
		t.Error("EventKind strings wrong")
	}
	if !strings.Contains(EventKind(9).String(), "9") {
		t.Error("unknown EventKind should include the number")
	}
}

func TestPreemptiveMatchesNonPreemptiveOnChain(t *testing.T) {
	// A chain has no scheduling freedom: both modes take the same time.
	g := mustChain(t, 2, []int64{3, 4, 5}, []dag.Type{0, 1, 0})
	np, err := Run(g, fifo{}, Config{Procs: []int{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Run(g, fifo{}, Config{Procs: []int{1, 1}, Preemptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if np.CompletionTime != p.CompletionTime {
		t.Errorf("non-preemptive %d != preemptive %d", np.CompletionTime, p.CompletionTime)
	}
}

func TestPreemptiveTraceHasPreemptEvents(t *testing.T) {
	// LIFO with quantum 1 on two long tasks and one processor keeps
	// switching to the most recently queued task.
	b := dag.NewBuilder(1)
	b.AddTask(0, 3)
	b.AddTask(0, 3)
	g := b.MustBuild()
	res, err := Run(g, lifo{}, Config{Procs: []int{1}, Preemptive: true, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	preempts := 0
	for _, ev := range res.Trace {
		if ev.Kind == EventPreempt {
			preempts++
		}
	}
	if preempts == 0 {
		t.Error("expected preempt events with quantum switching")
	}
	if res.CompletionTime != 6 {
		t.Errorf("completion = %d, want 6 (work conserving)", res.CompletionTime)
	}
}

// randomJob builds a random K-DAG for engine property tests.
func randomJob(rng *rand.Rand) *dag.Graph {
	k := 1 + rng.Intn(3)
	n := 1 + rng.Intn(30)
	b := dag.NewBuilder(k)
	for i := 0; i < n; i++ {
		b.AddTask(dag.Type(rng.Intn(k)), 1+rng.Int63n(5))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.15 {
				b.AddEdge(dag.TaskID(i), dag.TaskID(j))
			}
		}
	}
	return b.MustBuild()
}

func randomProcs(rng *rand.Rand, k int) []int {
	procs := make([]int, k)
	for i := range procs {
		procs[i] = 1 + rng.Intn(4)
	}
	return procs
}

// lowerBound mirrors metrics.LowerBound locally to avoid an import
// cycle in tests.
func lowerBound(g *dag.Graph, procs []int) float64 {
	lb := float64(g.Span())
	for a, p := range procs {
		if v := float64(g.TypedWork(dag.Type(a))) / float64(p); v > lb {
			lb = v
		}
	}
	return lb
}

func TestPropertyCompletionRespectsBounds(t *testing.T) {
	// Any work-conserving schedule completes within [L(J), span + Σα T1α/Pα]
	// (the KGreedy-style upper bound holds for every greedy scheduler).
	check := func(seed int64, preemptive bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomJob(rng)
		procs := randomProcs(rng, g.K())
		res, err := Run(g, fifo{}, Config{Procs: procs, Preemptive: preemptive})
		if err != nil {
			return false
		}
		lb := lowerBound(g, procs)
		if float64(res.CompletionTime) < lb {
			return false
		}
		upper := float64(g.Span())
		for a, p := range procs {
			upper += float64(g.TypedWork(dag.Type(a))) / float64(p)
		}
		return float64(res.CompletionTime) <= upper+1
	}
	if err := quick.Check(func(seed int64) bool { return check(seed, false) }, nil); err != nil {
		t.Errorf("non-preemptive: %v", err)
	}
	if err := quick.Check(func(seed int64) bool { return check(seed, true) }, nil); err != nil {
		t.Errorf("preemptive: %v", err)
	}
}

func TestPropertyBusyTimeEqualsTypedWork(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomJob(rng)
		procs := randomProcs(rng, g.K())
		for _, pre := range []bool{false, true} {
			res, err := Run(g, fifo{}, Config{Procs: procs, Preemptive: pre})
			if err != nil {
				return false
			}
			for a := range procs {
				if res.BusyTime[a] != g.TypedWork(dag.Type(a)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyDeterministicRuns(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomJob(rng)
		procs := randomProcs(rng, g.K())
		r1, err1 := Run(g, fifo{}, Config{Procs: procs})
		r2, err2 := Run(g, fifo{}, Config{Procs: procs})
		return err1 == nil && err2 == nil && r1.CompletionTime == r2.CompletionTime
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyPreemptiveNeverSlowerThanSerial(t *testing.T) {
	// Sanity: preemption with quantum 1 is still work-conserving, so
	// completion is at most total work (single processor equivalent).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomJob(rng)
		procs := randomProcs(rng, g.K())
		res, err := Run(g, lifo{}, Config{Procs: procs, Preemptive: true})
		return err == nil && res.CompletionTime <= g.TotalWork()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantumLargerThanOne(t *testing.T) {
	g := mustChain(t, 1, []int64{10}, []dag.Type{0})
	res, err := Run(g, fifo{}, Config{Procs: []int{1}, Preemptive: true, Quantum: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTime != 10 {
		t.Errorf("completion = %d, want 10", res.CompletionTime)
	}
}

func TestStateAccessors(t *testing.T) {
	g := dag.Figure1()
	cfg := &Config{Procs: []int{2, 2, 2}}
	st := newState(g, cfg)
	if st.K() != 3 || st.Now() != 0 || st.Graph() != g {
		t.Error("basic accessors wrong")
	}
	if st.Procs(1) != 2 {
		t.Errorf("Procs(1) = %d, want 2", st.Procs(1))
	}
	// Only the single root (c0) is ready initially.
	if st.QueueLen(0) != 1 || st.QueueLen(1) != 0 || st.QueueLen(2) != 0 {
		t.Errorf("initial queues = %d,%d,%d want 1,0,0", st.QueueLen(0), st.QueueLen(1), st.QueueLen(2))
	}
	if st.QueueWork(0) != 1 {
		t.Errorf("QueueWork(0) = %d, want 1", st.QueueWork(0))
	}
	if st.NumCompleted() != 0 || st.Completed(0) {
		t.Error("nothing should be complete initially")
	}
	if st.Remaining(0) != 1 || st.Executed(0) != 0 {
		t.Error("remaining/executed wrong for fresh task")
	}
}
