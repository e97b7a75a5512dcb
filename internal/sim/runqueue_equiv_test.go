package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fhs/internal/dag"
	"fhs/internal/fault"
)

// heapTask is the binary-heap entry the non-preemptive engine kept its
// running tasks in before RadixHeap: earliest finish first, ties to the
// lowest task ID. It is kept here as the reference the radix heap must
// agree with.
type heapTask struct {
	finish int64
	start  int64
	id     dag.TaskID
}

func (rt heapTask) Less(o heapTask) bool {
	if rt.finish != o.finish {
		return rt.finish < o.finish
	}
	return rt.id < o.id
}

// heapRun is the non-preemptive engine as it was on Heap[heapTask],
// without the obs stream and metrics, which do not feed Result.
func heapRun(g *dag.Graph, s Scheduler, cfg Config) (Result, error) {
	if err := s.Prepare(g, cfg); err != nil {
		return Result{}, err
	}
	st := newState(g, &cfg)
	res := Result{BusyTime: make([]int64, g.K()), WastedWork: make([]int64, g.K())}
	tl := timeline(&cfg)
	runBusy := make([]int, g.K())
	var running Heap[heapTask]
	n := g.NumTasks()
	for st.nCompleted < n {
		for a := 0; a < g.K(); a++ {
			alpha := dag.Type(a)
			for runBusy[a] < st.cap[a] && st.QueueLen(alpha) > 0 {
				id, ok := s.Pick(st, alpha)
				if !ok {
					break
				}
				if g.Task(id).Type != alpha || !st.dequeue(id) {
					return res, fmt.Errorf("sim: scheduler %s picked task %d which is not ready on pool %d", s.Name(), id, a)
				}
				runBusy[a]++
				res.Decisions++
				running.Push(heapTask{finish: st.now + st.remaining[id], start: st.now, id: id})
				res.Trace = append(res.Trace, Event{Time: st.now, Task: id, Type: alpha, Kind: EventStart})
			}
		}
		next := int64(-1)
		if len(running) > 0 {
			next = running[0].finish
		}
		nextChange := int64(-1)
		if tl != nil {
			nextChange = tl.NextChangeAfter(st.now)
		}
		if nextChange >= 0 && (next < 0 || nextChange < next) {
			next = nextChange
		}
		if next < 0 {
			return res, fmt.Errorf("sim: scheduler %s stalled at t=%d with %d/%d tasks complete", s.Name(), st.now, st.nCompleted, n)
		}
		t := next
		st.now = t
		for len(running) > 0 && running[0].finish == t {
			rt := running.Pop()
			alpha := g.Task(rt.id).Type
			work := st.remaining[rt.id]
			res.BusyTime[alpha] += work
			runBusy[alpha]--
			if cfg.Faults.FailsCompletion(rt.id, st.attempts[rt.id]) {
				res.WastedWork[alpha] += work
				res.Failures++
				if err := st.retry(rt.id); err != nil {
					return res, err
				}
				res.Trace = append(res.Trace, Event{Time: t, Task: rt.id, Type: alpha, Kind: EventFail})
				continue
			}
			st.remaining[rt.id] = 0
			st.complete(rt.id)
			res.Trace = append(res.Trace, Event{Time: t, Task: rt.id, Type: alpha, Kind: EventFinish})
		}
		if tl != nil && nextChange == t {
			for a := 0; a < g.K(); a++ {
				alpha := dag.Type(a)
				st.cap[a] = tl.CapAt(alpha, t)
				for runBusy[a] > st.cap[a] {
					victim := -1
					for i := range running {
						if g.Task(running[i].id).Type != alpha {
							continue
						}
						if victim < 0 || running[i].finish > running[victim].finish ||
							(running[i].finish == running[victim].finish && running[i].id > running[victim].id) {
							victim = i
						}
					}
					rt := running.Remove(victim)
					elapsed := t - rt.start
					res.BusyTime[alpha] += elapsed
					res.WastedWork[alpha] += elapsed
					res.Kills++
					runBusy[a]--
					if err := st.retry(rt.id); err != nil {
						return res, err
					}
					res.Trace = append(res.Trace, Event{Time: t, Task: rt.id, Type: alpha, Kind: EventKill})
				}
			}
		}
	}
	res.CompletionTime = st.now
	res.Utilization = utilization(res.BusyTime, &cfg, st.now)
	return res, nil
}

// workJob draws a random K-DAG whose task work comes from work.
func workJob(rng *rand.Rand, n int, work func() int64) *dag.Graph {
	k := 1 + rng.Intn(3)
	b := dag.NewBuilder(k)
	for i := 0; i < n; i++ {
		b.AddTask(dag.Type(rng.Intn(k)), work())
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 3/float64(n) {
				b.AddEdge(dag.TaskID(i), dag.TaskID(j))
			}
		}
	}
	return b.MustBuild()
}

// TestRunQueueMatchesHeap runs the engine and the heap reference on
// graphs with work far beyond the figures' few ticks, with and without
// a churn timeline that kills tasks and a coin that fails them, and
// requires identical traces, Results and errors.
func TestRunQueueMatchesHeap(t *testing.T) {
	works := []struct {
		name string
		draw func(rng *rand.Rand) int64
	}{
		{"small", func(rng *rand.Rand) int64 { return 1 + rng.Int63n(6) }},
		{"huge", func(rng *rand.Rand) int64 { return 1 + rng.Int63n(1<<40) }},
		// Log-uniform: every bucket of the radix heap sees traffic.
		{"mixed", func(rng *rand.Rand) int64 { return 1 + rng.Int63n(int64(1)<<rng.Intn(41)) }},
	}
	var kills, failures int64
	for _, w := range works {
		for seed := int64(1); seed <= 30; seed++ {
			for _, churn := range []bool{false, true} {
				rng := rand.New(rand.NewSource(seed))
				g := workJob(rng, 10+rng.Intn(90), func() int64 { return w.draw(rng) })
				procs := randomProcs(rng, g.K())
				cfg := Config{Procs: procs, CollectTrace: true}
				if churn {
					mean := float64(g.TotalWork()) / float64(g.NumTasks())
					fc := fault.Config{MTTF: 4 * mean, MTTR: mean, Horizon: int64(10 * mean * float64(g.NumTasks())),
						FailureProb: 0.2, MaxRetries: 50}
					cfg.Faults = fc.NewPlan(procs, rng)
				}
				for _, s := range []Scheduler{fifo{}, lifo{}} {
					name := fmt.Sprintf("%s/seed%d/churn=%v/%s", w.name, seed, churn, s.Name())
					want, werr := heapRun(g, s, cfg)
					got, err := Run(g, s, cfg)
					if fmt.Sprint(err) != fmt.Sprint(werr) {
						t.Fatalf("%s: error %v, heap reference %v", name, err, werr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Result differs from the heap reference:\n got %+v\nwant %+v", name, got, want)
					}
					kills += got.Kills
					failures += got.Failures
				}
			}
		}
	}
	if kills == 0 || failures == 0 {
		t.Fatalf("cases never exercised a re-enqueue path: %d kills, %d failures", kills, failures)
	}
}

// FuzzRunQueue drives the engine's RadixHeap and the reference heap
// with the same pushes, peeks, kills and retirements at monotone
// times, as the engine issues them, and requires the same answers.
// The engine sorts each retired set by ID, and so does the check.
func FuzzRunQueue(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 2, 3, 2})
	f.Add([]byte{0, 255, 0, 40, 0, 40, 2, 3, 1, 2, 2})
	f.Add([]byte{0, 7, 0, 7, 0, 9, 3, 1, 2, 0, 200, 3, 0, 2, 2, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// Task i has type i%2 in the victim search.
		b := dag.NewBuilder(2)
		for i := 0; i < 256; i++ {
			b.AddTask(dag.Type(i%2), 1)
		}
		g := b.MustBuild()
		var (
			q    RadixHeap
			ref  Heap[heapTask]
			now  int64
			next dag.TaskID
		)
		popSorted := func(now int64) []dag.TaskID {
			due := q.PopAt(now)
			slices.Sort(due)
			return due
		}
		byte1 := func(i *int) int64 {
			*i++
			if *i < len(ops) {
				return int64(ops[*i])
			}
			return 0
		}
		for i := 0; i < len(ops); i++ {
			switch ops[i] % 4 {
			case 0: // start a task at now
				if next == 256 {
					continue
				}
				// Work up to 2^54, so 256 tasks end before 2^62.
				work := 1 + byte1(&i)<<(byte1(&i)%47)
				e := heapTask{finish: now + work, start: now, id: next}
				next++
				q.Push(e.finish, e.id)
				ref.Push(e)
			case 1: // a capacity breakpoint, at or before the next finish
				d := int64(255)
				if len(ref) > 0 {
					d = ref[0].finish - now
				}
				now += byte1(&i) % (d + 1)
				var want []dag.TaskID
				for len(ref) > 0 && ref[0].finish == now {
					want = append(want, ref.Pop().id)
				}
				if got := popSorted(now); !slices.Equal(got, want) {
					t.Fatalf("t=%d: PopAt = %v, heap pops %v", now, got, want)
				}
			case 2: // peek, then retire what is due at the next finish
				tq, ok := q.Min()
				if ok != (len(ref) > 0) || ok && tq != ref[0].finish {
					t.Fatalf("Min() = %d, %v; heap minimum %v", tq, ok, ref)
				}
				if !ok {
					continue
				}
				now = tq
				var want []dag.TaskID
				for len(ref) > 0 && ref[0].finish == now {
					want = append(want, ref.Pop().id)
				}
				if got := popSorted(now); !slices.Equal(got, want) {
					t.Fatalf("t=%d: PopAt = %v, heap pops %v", now, got, want)
				}
			case 3: // a crash kills one running task of a type
				alpha := dag.Type(byte1(&i) % 2)
				victim := -1
				for j := range ref {
					if g.Task(ref[j].id).Type != alpha {
						continue
					}
					if victim < 0 || ref[j].finish > ref[victim].finish ||
						(ref[j].finish == ref[victim].finish && ref[j].id > ref[victim].id) {
						victim = j
					}
				}
				if victim < 0 {
					continue
				}
				want := ref.Remove(victim)
				if finish, id := q.removeVictim(g, alpha); finish != want.finish || id != want.id {
					t.Fatalf("t=%d: removeVictim(%d) = (%d, %d), heap %+v", now, alpha, finish, id, want)
				}
			}
			if q.n != len(ref) {
				t.Fatalf("len %d, heap %d", q.n, len(ref))
			}
		}
	})
}
