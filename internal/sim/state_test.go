package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fhs/internal/dag"
	"fhs/internal/fault"
)

// newState returns a fresh State for one run of g on cfg, as a Runner
// sets it up.
func newState(g *dag.Graph, cfg *Config) *State {
	st := new(State)
	st.reset(g, cfg)
	return st
}

// mustBeInSeqOrder panics unless alpha's ready queue is in strictly
// increasing ReadySeq order. The test schedulers call it on every
// Pick, so every engine test checks the order keyed policies rely on.
func mustBeInSeqOrder(st *State, alpha dag.Type) {
	q := st.Ready(alpha)
	for i := 1; i < len(q); i++ {
		if st.ReadySeq(q[i-1]) >= st.ReadySeq(q[i]) {
			panic(fmt.Sprintf("sim: pool %d at t=%d: Ready not in ReadySeq order at %d", alpha, st.Now(), i))
		}
	}
}

// stateCapture delegates to a scheduler and keeps the run's State, so
// a test can read the enqueue log after Run returns.
type stateCapture struct {
	Scheduler
	st *State
}

func (c *stateCapture) Pick(st *State, a dag.Type) (dag.TaskID, bool) {
	c.st = st
	return c.Scheduler.Pick(st, a)
}

// logFromTrace derives the expected enqueue log from a run's trace:
// the roots, then, in trace order, the children each finish readies
// and the task of each preempt, kill and fail event.
func logFromTrace(g *dag.Graph, trace []Event) [][]dag.TaskID {
	want := make([][]dag.TaskID, g.K())
	push := func(id dag.TaskID) {
		a := g.Task(id).Type
		want[a] = append(want[a], id)
	}
	pending := make([]int, g.NumTasks())
	for i := range pending {
		pending[i] = g.NumParents(dag.TaskID(i))
	}
	for _, r := range g.Roots() {
		push(r)
	}
	for _, ev := range trace {
		switch ev.Kind {
		case EventFinish:
			for _, c := range g.Children(ev.Task) {
				if pending[c]--; pending[c] == 0 {
					push(c)
				}
			}
		case EventPreempt, EventKill, EventFail:
			push(ev.Task)
		}
	}
	return want
}

// TestEnqueueLogGolden pins the log on the crash and failure goldens:
// the kill victim, the preempted tasks and the failed task each
// reappear, in the order the engine re-enqueued them.
func TestEnqueueLogGolden(t *testing.T) {
	g, plan := twoTasks(t)
	failG := mustChain(t, 1, []int64{3}, []dag.Type{0})
	failPlan := &fault.Plan{FailureProb: 0.5, MaxRetries: 3}
	for !failPlan.FailsCompletion(0, 0) || failPlan.FailsCompletion(0, 1) {
		failPlan.Seed++ // first attempt fails, second passes
	}
	cases := []struct {
		name string
		g    *dag.Graph
		cfg  Config
		want []dag.TaskID
	}{
		// A and B start; the crash at t=3 kills A, which re-enters.
		{"kill", g, Config{Procs: []int{2}, Faults: plan}, []dag.TaskID{0, 1, 0}},
		// Quantum 2: both preempted at t=2; at t=3 the crash kills A
		// (more remaining) before B is preempted; A alone is preempted
		// at t=5.
		{"preempt+kill", g, Config{Procs: []int{2}, Preemptive: true, Quantum: 2, Faults: plan}, []dag.TaskID{0, 1, 0, 1, 0, 1, 0}},
		// The first completion fails and the task re-enters once.
		{"fail", failG, Config{Procs: []int{1}, Faults: failPlan}, []dag.TaskID{0, 0}},
		{"preempt+fail", failG, Config{Procs: []int{1}, Preemptive: true, Quantum: 2, Faults: failPlan}, []dag.TaskID{0, 0, 0, 0}},
	}
	for _, c := range cases {
		s := &stateCapture{Scheduler: fifo{}}
		if _, err := Run(c.g, s, c.cfg); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := s.st.Enqueued(0); !slices.Equal(got, c.want) {
			t.Errorf("%s: enqueue log %v, want %v", c.name, got, c.want)
		}
	}
}

// TestEnqueueLogMatchesTrace: on random jobs in both modes, with and
// without churn and transient failures, the log holds exactly the
// enqueues the trace implies, in trace order.
func TestEnqueueLogMatchesTrace(t *testing.T) {
	var reenqueues [EventFail + 1]int
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomJob(rng)
		procs := randomProcs(rng, g.K())
		cfg := Config{Procs: procs, Preemptive: seed%2 == 1, CollectTrace: true}
		if seed%3 != 0 {
			fc := fault.Config{MTTF: 8, MTTR: 3, Horizon: 64, FailureProb: 0.2, MaxRetries: 200}
			cfg.Faults = fc.NewPlan(procs, rng)
		}
		var sched Scheduler = fifo{}
		if seed%4 >= 2 {
			sched = lifo{}
		}
		s := &stateCapture{Scheduler: sched}
		res, err := Run(g, s, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, ev := range res.Trace {
			reenqueues[ev.Kind]++
		}
		want := logFromTrace(g, res.Trace)
		for a := range want {
			if got := s.st.Enqueued(dag.Type(a)); !slices.Equal(got, want[a]) {
				t.Fatalf("seed %d type %d: enqueue log %v, trace implies %v", seed, a, got, want[a])
			}
		}
	}
	for _, k := range []EventKind{EventPreempt, EventKill, EventFail} {
		if reenqueues[k] == 0 {
			t.Errorf("no %v events: the cases never re-enqueue that way", k)
		}
	}
}

// TestDequeueMatchesNaiveModel drives one queue through random
// removals, re-enqueues and first enqueues, and checks Ready and
// QueueWork against a remove-from-slice model kept in ReadySeq order.
func TestDequeueMatchesNaiveModel(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 64
		b := dag.NewBuilder(1)
		root := b.AddTask(0, 1)
		for i := 1; i < n; i++ {
			id := b.AddTask(0, 1+rng.Int63n(9))
			if rng.Intn(2) == 0 {
				b.AddEdge(root, id) // not ready until enqueued by hand
			}
		}
		g := b.MustBuild()
		st := newState(g, &Config{Procs: []int{1}})
		model := append([]dag.TaskID(nil), st.Ready(0)...)
		var out []dag.TaskID // left the queue; may re-enter
		var fresh []dag.TaskID
		for i := 1; i < n; i++ {
			if g.NumParents(dag.TaskID(i)) > 0 {
				fresh = append(fresh, dag.TaskID(i))
			}
		}
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(3); {
			case op == 0 && len(model) > 0:
				i := rng.Intn(len(model))
				if rng.Intn(4) == 0 {
					i = 0 // head pops, as FIFO picks do
				}
				id := model[i]
				if !st.dequeue(id) {
					t.Fatalf("seed %d step %d: dequeue(%d) failed", seed, step, id)
				}
				model = append(model[:i], model[i+1:]...)
				out = append(out, id)
			case op == 1 && len(out) > 0:
				i := rng.Intn(len(out))
				id := out[i]
				out = append(out[:i], out[i+1:]...)
				st.enqueue(id)
				model = insertBySeq(st, model, id)
			case op == 2 && len(fresh) > 0:
				id := fresh[0]
				fresh = fresh[1:]
				st.enqueue(id)
				model = insertBySeq(st, model, id)
			}
			if got := st.Ready(0); !slices.Equal(got, model) {
				t.Fatalf("seed %d step %d: Ready %v, model %v", seed, step, got, model)
			}
			var work int64
			for _, id := range model {
				work += st.Remaining(id)
			}
			if st.QueueWork(0) != work || st.QueueLen(0) != len(model) {
				t.Fatalf("seed %d step %d: QueueWork %d len %d, model %d len %d",
					seed, step, st.QueueWork(0), st.QueueLen(0), work, len(model))
			}
		}
		for _, id := range append(out, fresh...) {
			if st.dequeue(id) {
				t.Fatalf("seed %d: dequeue of task %d, which is not queued, succeeded", seed, id)
			}
		}
	}
}

// insertBySeq inserts id into the model at its ReadySeq position.
func insertBySeq(st *State, model []dag.TaskID, id dag.TaskID) []dag.TaskID {
	i := 0
	for i < len(model) && st.ReadySeq(model[i]) < st.ReadySeq(id) {
		i++
	}
	model = append(model, 0)
	copy(model[i+1:], model[i:])
	model[i] = id
	return model
}
