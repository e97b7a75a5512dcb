package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
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

// TestHoleQueueMatchesModel drives every queue of a three-type job
// through random first enqueues, removals anywhere, re-enqueues with an
// old ReadySeq and occasional reads of Ready, and checks QueueLen and
// QueueWork after every step and Ready whenever it is read against a
// slice model kept in ReadySeq order. Reading Ready rarely lets holes
// pile up, so re-enqueues find their holes, lose them to a squeeze, or
// land below the head; the small queues also fill their buffers.
func TestHoleQueueMatchesModel(t *testing.T) {
	const k, n = 3, 90
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := dag.NewBuilder(k)
		root := b.AddTask(0, 1)
		for i := 1; i < n; i++ {
			id := b.AddTask(dag.Type(rng.Intn(k)), 1+rng.Int63n(9))
			if rng.Intn(3) > 0 {
				b.AddEdge(root, id) // not ready until enqueued by hand
			}
		}
		g := b.MustBuild()
		st := newState(g, &Config{Procs: []int{1, 1, 1}})
		model := make([][]dag.TaskID, k)
		var out, fresh []dag.TaskID // left the queue / never ready yet
		for i := 0; i < n; i++ {
			id := dag.TaskID(i)
			if g.NumParents(id) > 0 {
				fresh = append(fresh, id)
			} else {
				a := g.Task(id).Type
				model[a] = append(model[a], id)
			}
		}
		readEvery := 1 + rng.Intn(16)
		for step := 0; step < 3000; step++ {
			a := dag.Type(rng.Intn(k))
			switch op := rng.Intn(4); {
			case op == 0 && len(model[a]) > 0:
				i := rng.Intn(len(model[a]))
				if rng.Intn(3) == 0 {
					i = 0 // head pops, as FIFO picks do
				}
				id := model[a][i]
				if !st.dequeue(id) {
					t.Fatalf("seed %d step %d: dequeue(%d) failed", seed, step, id)
				}
				model[a] = slices.Delete(model[a], i, i+1)
				out = append(out, id)
			case op == 1 && len(out) > 0:
				i := rng.Intn(len(out))
				if rng.Intn(2) == 0 {
					i = len(out) - 1 // the latest to leave, as preemption re-enqueues
				}
				id := out[i]
				out = slices.Delete(out, i, i+1)
				st.enqueue(id)
				a := g.Task(id).Type
				model[a] = insertBySeq(st, model[a], id)
			case op == 2 && len(fresh) > 0 && rng.Intn(10) == 0:
				// Rare, so re-enqueues can fill a buffer before the
				// last first enqueue arrives.
				id := fresh[0]
				fresh = fresh[1:]
				st.enqueue(id)
				a := g.Task(id).Type
				model[a] = insertBySeq(st, model[a], id)
			case op == 3 && len(out) > 0:
				if id := out[rng.Intn(len(out))]; st.dequeue(id) {
					t.Fatalf("seed %d step %d: dequeue of task %d, which is not queued, succeeded", seed, step, id)
				}
			}
			for a := dag.Type(0); a < k; a++ {
				var work int64
				for _, id := range model[a] {
					work += st.Remaining(id)
				}
				if st.QueueWork(a) != work || st.QueueLen(a) != len(model[a]) {
					t.Fatalf("seed %d step %d type %d: QueueWork %d len %d, model %d len %d",
						seed, step, a, st.QueueWork(a), st.QueueLen(a), work, len(model[a]))
				}
				if err := holeInvariants(st, a); err != nil {
					t.Fatalf("seed %d step %d type %d: %v", seed, step, a, err)
				}
				if step%readEvery == 0 && rng.Intn(k) == 0 {
					if got := st.Ready(a); !slices.Equal(got, model[a]) {
						t.Fatalf("seed %d step %d type %d: Ready %v, model %v", seed, step, a, got, model[a])
					}
				}
			}
		}
	}
}

// holeInvariants checks a queue's bookkeeping: only holes below the
// head, holes counted and bounded by last, queued tasks counted, and
// every queued task found through its position.
func holeInvariants(st *State, a dag.Type) error {
	q := &st.queues[a]
	holes, n := 0, 0
	for p, v := range q.buf {
		switch {
		case p < q.head && v >= 0:
			return fmt.Errorf("slot %d below head %d holds task %d", p, q.head, v)
		case p >= q.head && v < 0:
			holes++
			if p > q.last {
				return fmt.Errorf("hole at %d past last %d", p, q.last)
			}
		case v >= 0:
			n++
			if int(st.pos[v]) != p {
				return fmt.Errorf("task %d at slot %d has position %d", v, p, st.pos[v])
			}
		}
	}
	if holes != q.holes || n != q.n {
		return fmt.Errorf("%d holes and %d tasks, counted %d and %d", holes, n, q.holes, q.n)
	}
	return nil
}

// slotThief picks a task that is not at the head, then on its next
// Pick reads Ready, which squeezes the hole that task left and moves a
// queued task into its old slot, and returns the first task again.
type slotThief struct {
	first  dag.TaskID
	reused bool // the old slot held a queued task at the second pick
}

func (*slotThief) Name() string                     { return "slot-thief" }
func (*slotThief) Prepare(*dag.Graph, Config) error { return nil }
func (s *slotThief) Pick(st *State, a dag.Type) (dag.TaskID, bool) {
	q := st.Ready(a)
	if s.first == dag.NoTask {
		s.first = q[len(q)-2]
		return s.first, true
	}
	buf := st.queues[a].buf
	p := int(st.pos[s.first])
	s.reused = p < len(buf) && buf[p] >= 0 && buf[p] != s.first
	return s.first, true
}

// TestEngineRejectsPickOfLeftTask: a scheduler that returns a task it
// already started, or one that has completed, is rejected even after
// the squeeze has handed that task's old slot to another task.
func TestEngineRejectsPickOfLeftTask(t *testing.T) {
	g := dag.NewBuilder(1)
	for i := 0; i < 4; i++ {
		g.AddTask(0, 1)
	}
	job := g.MustBuild()
	for _, c := range []struct {
		name  string
		procs int // 2: picked again while running; 1: after completing
	}{{"started", 2}, {"completed", 1}} {
		for _, preemptive := range []bool{false, true} {
			s := &slotThief{first: dag.NoTask}
			_, err := Run(job, s, Config{Procs: []int{c.procs}, Preemptive: preemptive})
			if err == nil || !strings.Contains(err.Error(), "not ready") {
				t.Errorf("%s, preemptive=%v: want contract violation, got %v", c.name, preemptive, err)
			}
			if !s.reused {
				t.Errorf("%s, preemptive=%v: the picked task's old slot was not reused", c.name, preemptive)
			}
		}
	}
}
