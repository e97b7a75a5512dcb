package bench

import (
	"math/rand"

	"fhs/internal/core"
	"fhs/internal/dag"
	"fhs/internal/exp"
	"fhs/internal/metrics"
	"fhs/internal/sim"
	"fhs/internal/workload"
)

// Suite returns the named benchmark suite in execution order. Names
// are stable identifiers — the comparator matches on them — grouped as
// engine/* (one full simulation per op), core/* (scheduler hot paths),
// dag/* and workload/* (lookahead computation and generation), exp/*
// (figure-scale harness runs, reporting instances/sec) and sim/*
// (auditing overhead).
func Suite() []Benchmark {
	return []Benchmark{
		{Name: "engine/np/kgreedy-ir", Setup: engineBench("KGreedy", workload.IR, false, false)},
		{Name: "engine/np/mqb-ir", Setup: engineBench("MQB", workload.IR, false, false)},
		{Name: "engine/np/mqb-tree", Setup: engineBench("MQB", workload.Tree, false, false)},
		{Name: "engine/np/shiftbt-ir", Setup: engineBench("ShiftBT", workload.IR, false, false)},
		{Name: "engine/np/shiftbt-tree", Setup: engineBench("ShiftBT", workload.Tree, false, false)},
		{Name: "engine/p/kgreedy-ir", Setup: engineBench("KGreedy", workload.IR, true, false)},
		{Name: "engine/p/mqb-ir", Setup: engineBench("MQB", workload.IR, true, false)},
		{Name: "engine/p/lspan-ir", Setup: engineBench("LSpan", workload.IR, true, false)},
		{Name: "sim/paranoid/mqb-ir", Setup: engineBench("MQB", workload.IR, false, true)},
		{Name: "service/replay-mqb", Setup: serviceReplayBench("MQB")},
		{Name: "service/replay-kgreedy", Setup: serviceReplayBench("KGreedy")},
		{Name: "service/wal-append", Setup: walAppendBench},
		{Name: "load/soak-pareto", Setup: loadSoakBench},
		{Name: "service/wal-recover", Setup: walRecoverBench},
		{Name: "core/mqb-pick-wide-ep", Setup: mqbPickBench},
		{Name: "dag/typed-descendants", Setup: typedDescBench},
		{Name: "dag/onestep-descendants", Setup: oneStepDescBench},
		{Name: "workload/generate-layered-ir", Setup: generateBench(workload.IR)},
		{Name: "workload/generate-layered-ep", Setup: generateBench(workload.EP)},
		{Name: "metrics/lex-kernel-tree", Setup: lexKernelBench},
		{Name: "exp/figure4a-small-ep", Setup: expBench(0)},
		{Name: "exp/runall-shard-4ad", Setup: expRunAllBench},
	}
}

// benchGraph draws the suite's standard fixed graph for a workload
// class: a default-scale layered job with K=4 on 15 processors per
// type, seeded from the scale.
func benchGraph(sc Scale, class workload.Class) (*dag.Graph, []int, error) {
	rng := rand.New(rand.NewSource(sc.Seed + 2))
	g, err := workload.Generate(workload.Default(class, 4, workload.Layered), rng)
	if err != nil {
		return nil, nil, err
	}
	return g, []int{15, 15, 15, 15}, nil
}

// engineBench measures one full simulation per op: a fixed graph under
// a fixed machine, non-preemptive or preemptive, optionally with the
// Paranoid auditor inline (sim/* entries watch its overhead). One
// Runner serves every op, as in the experiment harness.
func engineBench(scheduler string, class workload.Class, preemptive, paranoid bool) func(Scale) (func() (Fingerprint, error), error) {
	return func(sc Scale) (func() (Fingerprint, error), error) {
		g, procs, err := benchGraph(sc, class)
		if err != nil {
			return nil, err
		}
		s, err := core.New(scheduler, core.Params{Seed: sc.Seed})
		if err != nil {
			return nil, err
		}
		cfg := sim.Config{Procs: procs, Preemptive: preemptive, Paranoid: paranoid}
		var r sim.Runner
		return func() (Fingerprint, error) {
			res, err := r.Run(g, s, cfg)
			if err != nil {
				return Fingerprint{}, err
			}
			return Fingerprint{
				Instances: float64(g.NumTasks()),
				Decisions: float64(res.Decisions),
				Checksum:  float64(res.CompletionTime),
			}, nil
		}, nil
	}
}

// mqbPickBench isolates MQB's Pick: a wide layered EP job on a
// starved machine keeps the ready queues long, so nearly all time goes
// into candidate comparison rather than event handling.
func mqbPickBench(sc Scale) (func() (Fingerprint, error), error) {
	rng := rand.New(rand.NewSource(sc.Seed + 3))
	g, err := workload.Generate(workload.DefaultEP(4, workload.Layered), rng)
	if err != nil {
		return nil, err
	}
	s := core.NewMQB(core.MQBOptions{})
	cfg := sim.Config{Procs: []int{2, 2, 2, 2}}
	var r sim.Runner
	return func() (Fingerprint, error) {
		res, err := r.Run(g, s, cfg)
		if err != nil {
			return Fingerprint{}, err
		}
		return Fingerprint{
			Instances: float64(g.NumTasks()),
			Decisions: float64(res.Decisions),
			Checksum:  float64(res.CompletionTime),
		}, nil
	}, nil
}

// typedDescBench measures the uncached full-lookahead computation —
// the cost one graph pays the first time MQB prepares on it.
func typedDescBench(sc Scale) (func() (Fingerprint, error), error) {
	g, _, err := benchGraph(sc, workload.IR)
	if err != nil {
		return nil, err
	}
	return func() (Fingerprint, error) {
		d := dag.TypedDescendantValues(g)
		var sum float64
		for _, v := range d[0] {
			sum += v
		}
		return Fingerprint{Instances: float64(g.NumTasks()), Checksum: sum}, nil
	}, nil
}

func oneStepDescBench(sc Scale) (func() (Fingerprint, error), error) {
	g, _, err := benchGraph(sc, workload.IR)
	if err != nil {
		return nil, err
	}
	return func() (Fingerprint, error) {
		d := dag.OneStepTypedDescendantValues(g)
		var sum float64
		for _, v := range d[0] {
			sum += v
		}
		return Fingerprint{Instances: float64(g.NumTasks()), Checksum: sum}, nil
	}, nil
}

// generateBench measures workload generation, reseeding per iteration
// so every op draws the identical graph.
func generateBench(class workload.Class) func(Scale) (func() (Fingerprint, error), error) {
	return func(sc Scale) (func() (Fingerprint, error), error) {
		cfg := workload.Default(class, 4, workload.Layered)
		seed := sc.Seed + 4
		return func() (Fingerprint, error) {
			rng := rand.New(rand.NewSource(seed))
			g, err := workload.Generate(cfg, rng)
			if err != nil {
				return Fingerprint{}, err
			}
			return Fingerprint{
				Instances: float64(g.NumTasks()),
				Checksum:  float64(g.TotalWork()) + float64(g.Span()),
			}, nil
		}, nil
	}
}

// lexKernelBench measures MQB's balance kernel (core.Balancer), the
// snapshot and lexicographic comparison both MQB pickers run per
// candidate, as a tournament over a fixed batch of load vectors, plus
// the graph lower bounds. Each load vector is offered as a descendant
// row over zero queued work with nothing removed, so its snapshot is
// load/procs. Batching keeps the op in the microsecond range: a
// single LowerBound or Offer call is a handful of nanoseconds, far too
// small to compare reliably under a relative regression gate.
func lexKernelBench(sc Scale) (func() (Fingerprint, error), error) {
	const (
		graphs  = 64
		vectors = 512
	)
	rng := rand.New(rand.NewSource(sc.Seed + 5))
	cfg := workload.DefaultTree(4, workload.Layered)
	gs := make([]*dag.Graph, graphs)
	procs := []int{15, 15, 15, 15}
	for i := range gs {
		g, err := workload.Generate(cfg, rng)
		if err != nil {
			return nil, err
		}
		gs[i] = g
	}
	loads := make([][]float64, vectors)
	for i := range loads {
		loads[i] = make([]float64, len(procs))
		for a := range loads[i] {
			loads[i][a] = float64(rng.Intn(1 << 16))
		}
	}
	var bal core.Balancer
	return func() (Fingerprint, error) {
		var sum float64
		for _, g := range gs {
			lb, err := metrics.LowerBound(g, procs)
			if err != nil {
				return Fingerprint{}, err
			}
			sum += lb
		}
		base, pools := bal.Reset(len(procs))
		for a, p := range procs {
			base[a], pools[a] = 0, float64(p)
		}
		for _, load := range loads {
			bal.Offer(0, load, 0, false)
		}
		return Fingerprint{
			Instances: graphs,
			Decisions: vectors,
			Checksum:  sum + bal.Score(),
		}, nil
	}, nil
}

// expSpec builds a reduced figure panel from the suite scale.
func expSpec(sc Scale, panel int) exp.Spec {
	spec := exp.Figure4(exp.Options{Instances: sc.Instances, Seed: sc.Seed, Workers: sc.Workers})[panel]
	return spec
}

// expFingerprint folds a finished table into a fingerprint: the mean
// ratios are the exact quantities the figures plot, so their sum makes
// a sharp determinism check, and surviving instances drive the
// instances/sec throughput metric.
func expFingerprint(t exp.Table, instances int) Fingerprint {
	var sum float64
	var n float64
	for _, r := range t.Rows {
		sum += r.Mean
		n += float64(r.N)
	}
	return Fingerprint{Instances: float64(instances), Decisions: n, Checksum: sum}
}

// expBench measures one figure panel per op at reduced scale —
// instances/sec here is the number that bounds full reproduction runs.
func expBench(panel int) func(Scale) (func() (Fingerprint, error), error) {
	return func(sc Scale) (func() (Fingerprint, error), error) {
		spec := expSpec(sc, panel)
		return func() (Fingerprint, error) {
			t, err := exp.Run(spec)
			if err != nil {
				return Fingerprint{}, err
			}
			return expFingerprint(t, spec.Instances), nil
		}, nil
	}
}

// expRunAllBench measures exp.RunAll over a two-panel shard (Figure
// 4(a) and 4(d)), the sequential-panels path cmd/fhsim takes.
func expRunAllBench(sc Scale) (func() (Fingerprint, error), error) {
	specs := []exp.Spec{expSpec(sc, 0), expSpec(sc, 3)}
	return func() (Fingerprint, error) {
		tables, err := exp.RunAll(specs)
		if err != nil {
			return Fingerprint{}, err
		}
		var fp Fingerprint
		for i, t := range tables {
			f := expFingerprint(t, specs[i].Instances)
			fp.Instances += f.Instances
			fp.Decisions += f.Decisions
			fp.Checksum += f.Checksum
		}
		return fp, nil
	}, nil
}
