package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"fhs/internal/dag"
	"fhs/internal/fault"
)

// stateChecker is fifo that checks, at every Pick, the State a reused
// Runner must have reset: no ready task reads as completed, and
// QueueWork is the remaining work of the ready queue.
type stateChecker struct{ t *testing.T }

func (stateChecker) Name() string                     { return "state-checker" }
func (stateChecker) Prepare(*dag.Graph, Config) error { return nil }
func (c stateChecker) Pick(st *State, a dag.Type) (dag.TaskID, bool) {
	var work int64
	for _, id := range st.Ready(a) {
		if st.Completed(id) {
			c.t.Fatalf("t=%d: ready task %d reads as completed", st.Now(), id)
		}
		work += st.Remaining(id)
	}
	if st.QueueWork(a) != work {
		c.t.Fatalf("t=%d: QueueWork(%d) = %d, ready work %d", st.Now(), a, st.QueueWork(a), work)
	}
	return fifo{}.Pick(st, a)
}

// TestRunnerReuseAfterAbort reuses a Runner after runs that ended
// mid-schedule, on a MaxTime abort or an exhausted retry budget, with
// tasks still running and queued. Each following run must equal a
// one-shot Run.
func TestRunnerReuseAfterAbort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var run Runner
	for i := 0; i < 20; i++ {
		g := workJob(rng, 20+rng.Intn(60), func() int64 { return 2 + rng.Int63n(9) })
		procs := randomProcs(rng, g.K())
		// The makespan is at least the span, so this clock guard trips.
		abort := Config{Procs: procs, MaxTime: 1 + rng.Int63n(g.Span()-1)}
		if i%2 == 1 {
			fc := fault.Config{MTTF: 3, MTTR: 2, Horizon: 1000, FailureProb: 0.5}
			abort = Config{Procs: procs, Faults: fc.NewPlan(procs, rng)}
		}
		if _, err := run.Run(g, stateChecker{t}, abort); err == nil {
			t.Fatalf("case %d: the aborting run completed", i)
		}
		cfg := Config{Procs: procs, CollectTrace: true}
		want, err := Run(g, stateChecker{t}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := run.Run(g, stateChecker{t}, cfg)
		if err != nil {
			t.Fatalf("case %d: run after an abort: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: run after an abort differs from a one-shot Run", i)
		}
	}
}
