package bench

import (
	"fhs/internal/core"
	"fhs/internal/obs"
	"fhs/internal/sim"
	"fhs/internal/workload"
)

// TraceRun executes the suite's standard engine workload — the same
// fixed IR graph and machine the engine/np/* benchmarks run — once per
// engine scheduler (KGreedy, then MQB) with full observability, each
// bracketed in a scope named after its scheduler. It backs fhbench
// -trace: the hot loops the suite times are exactly the ones emitting
// here, so the trace shows what the benchmarks exercise.
func TraceRun(sc Scale) ([]obs.Event, []obs.MetricSnapshot, error) {
	g, procs, err := benchGraph(sc, workload.IR)
	if err != nil {
		return nil, nil, err
	}
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	var r sim.Runner
	for _, name := range []string{"KGreedy", "MQB"} {
		s, err := core.New(name, core.Params{Seed: sc.Seed})
		if err != nil {
			return nil, nil, err
		}
		cfg := sim.Config{Procs: procs, Obs: tr, Metrics: reg}
		tr.BeginScope(name)
		if _, err := r.Run(g, s, cfg); err != nil {
			return nil, nil, err
		}
		tr.EndScope(name)
	}
	return tr.Events(), reg.Snapshot(), nil
}
