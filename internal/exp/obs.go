package exp

import (
	"fmt"
	"math/rand"

	"fhs/internal/core"
	"fhs/internal/dag"
	"fhs/internal/fault"
	"fhs/internal/obs"
	"fhs/internal/sim"
	"fhs/internal/workload"
)

// expMetrics holds the harness's pre-resolved metric handles; all nil
// (discarding) when Spec.Metrics is unset.
type expMetrics struct {
	instances  *obs.Counter   // exp_instances_total: instances attempted
	dropped    *obs.Counter   // exp_instances_dropped_total
	sims       *obs.Counter   // exp_sims_total: completed simulations
	completion *obs.Histogram // exp_completion_time: T(J) of each simulation
}

func newExpMetrics(reg *obs.Registry) expMetrics {
	if reg == nil {
		return expMetrics{}
	}
	return expMetrics{
		instances:  reg.Counter("exp_instances_total"),
		dropped:    reg.Counter("exp_instances_dropped_total"),
		sims:       reg.Counter("exp_sims_total"),
		completion: reg.Histogram("exp_completion_time"),
	}
}

// TracedRun is one scheduler's traced re-run of an instance.
type TracedRun struct {
	Scheduler string
	Result    sim.Result
	// Events is this scheduler's slice of the tracer's stream, between
	// (and excluding) its scope markers.
	Events []obs.Event
}

// TraceInstance re-runs instance i of a panel with full observability:
// the job, machine, fault plan and scheduler seeds derive exactly as in
// Run, so the traced schedules are the ones the panel's aggregates
// included. Each scheduler's events are bracketed in a scope named
// after it on the supplied tracer (which may already hold other
// scopes); traces are also collected on each Result so the verify
// auditor can cross-check the two streams. Returns the instance's
// graph and sampled machine alongside the per-scheduler runs.
func TraceInstance(spec Spec, i int, tr *obs.Tracer) (*dag.Graph, []int, []TracedRun, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if i < 0 || i >= spec.Instances {
		return nil, nil, nil, fmt.Errorf("exp: %s: instance %d out of range [0, %d)", spec.Name, i, spec.Instances)
	}
	if !tr.Enabled() {
		return nil, nil, nil, fmt.Errorf("exp: TraceInstance needs an enabled tracer")
	}

	seed := instSeed(spec.Seed, i)
	rng := rand.New(rand.NewSource(seed))
	g, err := workload.Generate(spec.Workload, rng)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("exp: %s: instance %d: %w", spec.Name, i, err)
	}
	procs := spec.Machine.Sample(g.K(), rng)
	if spec.SkewFactor > 1 {
		procs = workload.SkewFirstType(procs, spec.SkewFactor)
	}
	var plan *fault.Plan
	if spec.Faults.Active() {
		plan = spec.Faults.NewPlan(procs, rng)
	}
	maxTime := spec.MaxTime
	if maxTime == 0 && !spec.NoMaxTime {
		maxTime = deriveMaxTime(g, procs, plan)
	}

	runs := make([]TracedRun, 0, len(spec.Schedulers))
	var run sim.Runner
	for s, name := range spec.Schedulers {
		sch, err := newScheduler(name, core.Params{Seed: seed ^ int64(s+1)<<32})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("exp: %s: %w", spec.Name, err)
		}
		cfg := sim.Config{
			Procs:        procs,
			Preemptive:   spec.Preemptive,
			Paranoid:     spec.Paranoid,
			Faults:       plan,
			MaxTime:      maxTime,
			CollectTrace: true,
			Obs:          tr,
			Metrics:      spec.Metrics,
		}
		tr.BeginScope(name)
		lo := tr.Len()
		res, err := run.Run(g, sch, cfg)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("exp: %s: instance %d (seed %d) %s: %w", spec.Name, i, seed, name, err)
		}
		hi := tr.Len()
		tr.EndScope(name)
		runs = append(runs, TracedRun{Scheduler: name, Result: res, Events: tr.Events()[lo:hi]})
	}
	return g, procs, runs, nil
}
