package verify_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fhs/internal/core"
	"fhs/internal/dag"
	"fhs/internal/fault"
	"fhs/internal/sim"
	"fhs/internal/workload"
)

// cloneResult deep-copies a Result so later runs cannot reach it.
func cloneResult(r sim.Result) sim.Result {
	r.BusyTime = slices.Clone(r.BusyTime)
	r.WastedWork = slices.Clone(r.WastedWork)
	r.Utilization = slices.Clone(r.Utilization)
	r.Trace = slices.Clone(r.Trace)
	return r
}

// TestRunnerReuseInvisible runs one job sequence on one sim.Runner:
// a large graph then small ones, K changing between runs, faults on
// then off, both engine modes and Paranoid audits. Every Result and
// trace must equal a one-shot sim.Run, and no Result may change after
// it is returned.
func TestRunnerReuseInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	big := workload.MustGenerate(workload.DefaultTree(4, workload.Random), rng)
	small := workload.MustGenerate(workload.Small(workload.EP, 2, workload.Layered), rng)
	mid := workload.MustGenerate(workload.DefaultIR(3, workload.Layered), rng)
	churn := func(procs []int) *fault.Plan {
		fc := fault.Config{MTTF: 6, MTTR: 3, Horizon: 80, FailureProb: 0.15, MaxRetries: 50}
		return fc.NewPlan(procs, rand.New(rand.NewSource(int64(len(procs)))))
	}
	steps := []struct {
		g     *dag.Graph
		sched string
		cfg   sim.Config
	}{
		{big, "MQB", sim.Config{Procs: []int{3, 3, 3, 3}, CollectTrace: true}},
		{small, "ShiftBT", sim.Config{Procs: []int{2, 2}, CollectTrace: true, Faults: churn([]int{2, 2})}},
		{small, "KGreedy", sim.Config{Procs: []int{2, 2}, Paranoid: true}},
		{mid, "LSpan", sim.Config{Procs: []int{2, 3, 2}, Preemptive: true, Quantum: 2, CollectTrace: true}},
		{big, "ShiftBT", sim.Config{Procs: []int{4, 2, 3, 2}, Paranoid: true, CollectTrace: true}},
		{mid, "MQB", sim.Config{Procs: []int{2, 2, 2}, Preemptive: true, Paranoid: true, CollectTrace: true, Faults: churn([]int{2, 2, 2})}},
		{small, "DType", sim.Config{Procs: []int{1, 3}, Faults: churn([]int{1, 3}), Paranoid: true, CollectTrace: true}},
		{big, "MaxDP", sim.Config{Procs: []int{2, 2, 2, 2}, Preemptive: true, CollectTrace: true}},
		{small, "MQB", sim.Config{Procs: []int{3, 1}, CollectTrace: true}},
	}
	var (
		run             sim.Runner
		results         []sim.Result
		snapshots       []sim.Result
		kills, failures int64
	)
	for i, s := range steps {
		name := fmt.Sprintf("step %d (%s, K=%d, n=%d)", i, s.sched, s.g.K(), s.g.NumTasks())
		want, werr := sim.Run(s.g, core.MustNew(s.sched, core.Params{Seed: 7}), s.cfg)
		got, err := run.Run(s.g, core.MustNew(s.sched, core.Params{Seed: 7}), s.cfg)
		if err != nil || werr != nil {
			t.Fatalf("%s: reused Runner: %v; one-shot Run: %v", name, err, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: reused Runner result differs from one-shot Run:\n got %+v\nwant %+v", name, got, want)
		}
		if s.cfg.CollectTrace && len(got.Trace) == 0 {
			t.Fatalf("%s: empty trace", name)
		}
		results = append(results, got)
		snapshots = append(snapshots, cloneResult(got))
		kills += got.Kills
		failures += got.Failures
	}
	if kills == 0 || failures == 0 {
		t.Fatalf("the fault steps never killed (%d) or failed (%d) a task", kills, failures)
	}
	for i := range results {
		if !reflect.DeepEqual(results[i], snapshots[i]) {
			t.Fatalf("step %d: Result changed after later runs on the same Runner", i)
		}
	}
}

// TestRunnerNotReentrant checks that a scheduler simulating on the
// Runner that is running it gets an error instead of a corrupted run.
func TestRunnerNotReentrant(t *testing.T) {
	g := workload.MustGenerate(workload.Small(workload.EP, 2, workload.Layered), rand.New(rand.NewSource(1)))
	var run sim.Runner
	inner := &reentrant{Scheduler: core.MustNew("KGreedy", core.Params{}), run: &run}
	if _, err := run.Run(g, inner, sim.Config{Procs: []int{2, 2}}); err != nil {
		t.Fatal(err)
	}
	if inner.err == nil {
		t.Fatal("Run inside the same Runner's Run succeeded")
	}
	if _, err := run.Run(g, core.MustNew("KGreedy", core.Params{}), sim.Config{Procs: []int{2, 2}}); err != nil {
		t.Fatalf("Runner unusable after a rejected reentrant call: %v", err)
	}
}

// reentrant calls Run on the Runner it is being run by from Prepare.
type reentrant struct {
	sim.Scheduler
	run *sim.Runner
	err error
}

func (r *reentrant) Prepare(g *dag.Graph, cfg sim.Config) error {
	_, r.err = r.run.Run(g, r.Scheduler, cfg)
	return r.Scheduler.Prepare(g, cfg)
}
