package core

import (
	"cmp"
	"fmt"
	"math"
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

// eddRef is the reference policy for ShiftBT's relaxations, run
// through the engine: fixed types dispatch by their frozen rank, every
// other type earliest due date first, ties to the earliest ready.
type eddRef struct {
	rank  []int32
	fixed []bool
}

func (*eddRef) Name() string { return "EDD-reference" }

func (*eddRef) Prepare(*dag.Graph, sim.Config) error { return nil }

func (r *eddRef) Pick(st *sim.State, alpha dag.Type) (dag.TaskID, bool) {
	g := st.Graph()
	if r.fixed[alpha] {
		return pickMin(st, alpha, func(id dag.TaskID) float64 { return float64(r.rank[id]) })
	}
	return pickMin(st, alpha, func(id dag.TaskID) float64 { return float64(g.Span() - g.TaskSpan(id)) })
}

// referenceRelax computes candidate's relaxation with eddRef on the
// engine: the candidate and the fixed types keep procs, and every
// other type gets one processor per task. It returns the candidate's
// maximum lateness and its starts from the trace, by (time, ID).
func referenceRelax(t *testing.T, g *dag.Graph, procs []int, rank []int32, fixed []bool, candidate dag.Type) (int64, []dag.TaskID) {
	t.Helper()
	relaxed := slices.Clone(procs)
	for a, c := range g.TypeCount() {
		if !fixed[a] && dag.Type(a) != candidate {
			relaxed[a] = max(c, 1)
		}
	}
	res, err := sim.Run(g, &eddRef{rank: rank, fixed: fixed}, sim.Config{Procs: relaxed, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	var starts []sim.Event
	for _, ev := range res.Trace {
		if ev.Kind == sim.EventStart && ev.Type == candidate {
			starts = append(starts, ev)
		}
	}
	slices.SortFunc(starts, func(x, y sim.Event) int {
		return cmp.Or(cmp.Compare(x.Time, y.Time), cmp.Compare(x.Task, y.Task))
	})
	lateness := int64(math.MinInt64)
	order := make([]dag.TaskID, len(starts))
	for i, ev := range starts {
		lateness = max(lateness, ev.Time-(g.Span()-g.TaskSpan(ev.Task)))
		order[i] = ev.Task
	}
	return lateness, order
}

// checkRelaxations replays ShiftBT's rounds on g, computing every
// relaxation twice, by the kernel and by referenceRelax, and fails
// unless each (lateness, order) pair agrees and the kernel leaves its
// queue empty. Each round freezes the reference's bottleneck, and the
// ranks the rounds end with must be Prepare's. It returns the number of
// relaxations compared.
func checkRelaxations(t *testing.T, name string, g *dag.Graph, procs []int) int {
	t.Helper()
	sb := NewShiftBT()
	if err := sb.Prepare(g, sim.Config{Procs: procs}); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if g.NumTasks() == 0 {
		return 0
	}
	want := slices.Clone(sb.rank)
	// Prepare left sb sized for g. An unfixed type's rank is -1, so a
	// relaxation that reads one fails.
	for i := range sb.rank {
		sb.rank[i] = -1
	}
	for a, c := range g.TypeCount() {
		sb.fixed[a] = c == 0
	}
	compared := 0
	for {
		bestType := -1
		var bestLateness int64
		var bestOrder []dag.TaskID
		for a := 0; a < g.K(); a++ {
			if sb.fixed[a] {
				continue
			}
			candidate := dag.Type(a)
			wantLateness, wantOrder := referenceRelax(t, g, procs, sb.rank, slices.Clone(sb.fixed), candidate)
			lateness := sb.relax(g, procs, candidate)
			if lateness != wantLateness || !slices.Equal(sb.order, wantOrder) {
				t.Fatalf("%s: relaxation %d (candidate %d, fixed %v): kernel lateness %d order %v, reference %d %v",
					name, compared, candidate, sb.fixed, lateness, sb.order, wantLateness, wantOrder)
			}
			for b := 0; b < g.K(); b++ {
				if id, ok := sb.q.pop(dag.Type(b)); ok {
					t.Fatalf("%s: relaxation %d left task %d queued", name, compared, id)
				}
			}
			compared++
			if bestType < 0 || wantLateness > bestLateness {
				bestType, bestLateness, bestOrder = a, wantLateness, wantOrder
			}
		}
		if bestType < 0 {
			break
		}
		for pos, id := range bestOrder {
			sb.rank[id] = int32(pos)
		}
		sb.fixed[bestType] = true
	}
	if !slices.Equal(sb.rank, want) {
		t.Fatalf("%s: reference rounds rank %v, Prepare %v", name, sb.rank, want)
	}
	return compared
}

// tiedSpanJob has four unit-work leaves of type 1, all with span 1, so
// they share one EDD slot. Both roots finish at 2, and the engine
// readies the leaves as it retires the roots in ID order, each in its
// Children order: 4, 5, 2, 3. The candidate's starts follow that order,
// not the IDs.
func tiedSpanJob() *dag.Graph {
	b := dag.NewBuilder(2)
	r0, r1 := b.AddTask(0, 2), b.AddTask(0, 2)
	x, y, z, w := b.AddTask(1, 1), b.AddTask(1, 1), b.AddTask(1, 1), b.AddTask(1, 1)
	b.AddEdge(r0, z)
	b.AddEdge(r0, y)
	b.AddEdge(r1, w)
	b.AddEdge(r1, x)
	b.AddEdge(r1, y)
	return b.MustBuild()
}

// emptyTypeJob is a K=3 job without type-1 tasks.
func emptyTypeJob() *dag.Graph {
	b := dag.NewBuilder(3)
	x, y := b.AddTask(0, 2), b.AddTask(2, 3)
	b.AddEdge(x, y)
	b.AddTask(2, 1)
	return b.MustBuild()
}

// TestKeyedEDDRelaxationEquivalence checks every relaxation ShiftBT's
// Prepare runs against the engine reference: the keyed cases of every
// workload class, a K=1 job, a job with a type without tasks and a job
// whose tied spans are readied out of ID order.
func TestKeyedEDDRelaxationEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	single, err := workload.Generate(workload.Default(workload.IR, 1, workload.Random), rng)
	if err != nil {
		t.Fatal(err)
	}
	cases := append(drawKeyedCases(t, 29, nil),
		keyedCase{name: "K=1", g: single, procs: []int{3}},
		keyedCase{name: "empty type", g: emptyTypeJob(), procs: []int{1, 1, 1}},
		keyedCase{name: "tied spans", g: tiedSpanJob(), procs: []int{1, 1}},
		keyedCase{name: "tied spans, two processors", g: tiedSpanJob(), procs: []int{2, 2}})
	compared := 0
	for _, c := range cases {
		compared += checkRelaxations(t, c.name, c.g, c.procs)
	}
	t.Logf("%d relaxations compared over %d jobs", compared, len(cases))
}

// TestShiftBTRelaxationStartOrder pins the tied-span job's first
// relaxation, candidate type 1 on one processor, to the engine's
// readiness order.
func TestShiftBTRelaxationStartOrder(t *testing.T) {
	g := tiedSpanJob()
	sb := NewShiftBT()
	if err := sb.Prepare(g, sim.Config{Procs: []int{1, 1}}); err != nil {
		t.Fatal(err)
	}
	sb.fixed[0], sb.fixed[1] = false, false
	if l := sb.relax(g, []int{1, 1}, 1); l != 3 || !slices.Equal(sb.order, []dag.TaskID{4, 5, 2, 3}) {
		t.Fatalf("lateness %d, order %v; want 3, [4 5 2 3]", l, sb.order)
	}
}

// TestShiftBTRejectsBadPools: Prepare reports a pool list of the wrong
// length and a pool without processors instead of simulating them.
func TestShiftBTRejectsBadPools(t *testing.T) {
	g := tiedSpanJob()
	for _, procs := range [][]int{nil, {1}, {1, 1, 1}, {1, 0}, {-2, 1}} {
		if err := NewShiftBT().Prepare(g, sim.Config{Procs: procs}); err == nil {
			t.Errorf("Procs %v: Prepare succeeded", procs)
		}
	}
}

// FuzzShiftBTRelaxation checks every relaxation of a random small job
// against the engine reference, as TestKeyedEDDRelaxationEquivalence
// does. Tasks get a random topological order and edges a random
// insertion order, so Children order and IDs disagree; small work
// makes finishing instants and spans tie.
func FuzzShiftBTRelaxation(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(1))
	f.Add(int64(2), uint8(3), uint8(2))
	f.Add(int64(3), uint8(1), uint8(3))
	f.Add(int64(4), uint8(5), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, kMax, workMax uint8) {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + int(kMax)%6
		n := rng.Intn(40)
		b := dag.NewBuilder(k)
		for i := 0; i < n; i++ {
			b.AddTask(dag.Type(rng.Intn(k)), 1+rng.Int63n(int64(workMax)%8+1))
		}
		topo := rng.Perm(n)
		var edges [][2]dag.TaskID
		p := rng.Float64() * 0.3
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < p {
					edges = append(edges, [2]dag.TaskID{dag.TaskID(topo[i]), dag.TaskID(topo[j])})
				}
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for _, e := range edges {
			b.AddEdge(e[0], e[1])
		}
		procs := make([]int, k)
		for a := range procs {
			procs[a] = 1 + rng.Intn(3)
		}
		checkRelaxations(t, "fuzz", b.MustBuild(), procs)
	})
}

// TestShiftBTRanksEveryTask: Prepare freezes an order for every type
// with tasks, so each type's ranks are exactly 0..|α-tasks|−1 and Pick
// never meets an unranked task. One job leaves a type without tasks.
func TestShiftBTRanksEveryTask(t *testing.T) {
	cases := append(drawKeyedCases(t, 31, nil), keyedCase{name: "empty type", g: emptyTypeJob(), procs: []int{1, 1, 1}})
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
