package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"fhs"
	"fhs/internal/sim"
)

// fig4Batch is how many figure instances make one batch: what fhsim
// -figure 4 -instances 8 -workers 1 computes.
const fig4Batch = 8

// runFig4 measures the Figure 4 batch. One operation is one figure
// instance: a (job, machine) instance of each of the six panels with
// all six schedulers, each run by the experiment harness exactly as
// fhsim -figure 4 runs an instance. One worker runs them. On a
// two-vCPU VM a second worker made the run-to-run spread of the same
// seed several times wider (IQR/median 0.16-0.20 against 0.02-0.04
// over five 20 s runs). Traced runs compute the same instances through
// the library calls the harness makes, with a span around each layer.
func runFig4(e env) (*sample, error) {
	s := &sample{}
	var specs []fhs.ExperimentSpec
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		sp, err := fig4Setup()
		if err != nil {
			return nil, err
		}
		s.setup = append(s.setup, time.Since(start))
		specs = sp
	}

	var first [][]float64 // instance 0 outcomes, for the audit
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for batch := 0; batch == 0 || time.Since(start) < e.window; batch++ {
		batchStart := time.Now()
		for i := 0; i < fig4Batch; i++ {
			inst := batch*fig4Batch + i
			opStart := time.Now()
			out, err := figureInstance(specs, e.seed, inst, e.traced, false, &s.layers)
			s.lat = append(s.lat, time.Since(opStart))
			s.ops++
			if err != nil {
				s.fail(err)
			}
			if inst == 0 {
				first = out
			}
		}
		s.batches = append(s.batches, time.Since(batchStart))
	}
	s.opsWall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	s.layers.total = s.opsWall
	s.layers.ops = s.ops
	s.layers.allocs = ms1.Mallocs - ms0.Mallocs

	// Instance 0 again through the harness with every schedule checked
	// by the Paranoid auditor: the audit must pass and the outcomes must
	// equal the measured ones. In a traced run this also proves that the
	// timed calls computed what the harness computes.
	out, err := figureInstance(specs, e.seed, 0, false, true, &layers{})
	switch {
	case err != nil:
		s.check(fmt.Errorf("paranoid re-run: %w", err))
	case fmt.Sprint(out) != fmt.Sprint(first):
		s.check(fmt.Errorf("paranoid harness re-run gave ratios %v, measured run %v", out, first))
	}
	return s, nil
}

// figureInstance computes figure instance inst of a run: one instance
// of each panel, drawn from the run seed, returning each panel's
// completion-time ratios.
func figureInstance(specs []fhs.ExperimentSpec, seed int64, inst int, traced, paranoid bool, l *layers) ([][]float64, error) {
	outs := make([][]float64, len(specs))
	for p, spec := range specs {
		spec.Seed = seed*1_000_003 + int64(inst*len(specs)+p) + 1
		spec.Paranoid = paranoid
		var err error
		if traced {
			outs[p], err = fig4Layered(spec, l)
		} else {
			outs[p], err = fig4Harness(spec)
		}
		if err != nil {
			return nil, fmt.Errorf("%s, seed %d: %w", spec.Name, spec.Seed, err)
		}
	}
	return outs, nil
}

// fig4Setup is what a Figure 4 run does before its first measured
// instance: build and validate the six panel specs (validation builds
// every scheduler) and run one warm-up instance of each panel at a
// fixed seed, so lazy initialization is not charged to the first
// operations.
func fig4Setup() ([]fhs.ExperimentSpec, error) {
	specs, err := fhs.FigureSpecs("4", fhs.ExperimentOptions{Instances: 1, Seed: 1, Workers: 1})
	if err != nil {
		return nil, err
	}
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
		if _, err := fig4Harness(specs[i]); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return specs, nil
}

// fig4Harness runs one instance of a panel through the experiment
// harness and returns each scheduler's completion-time ratio.
func fig4Harness(spec fhs.ExperimentSpec) ([]float64, error) {
	table, err := fhs.RunExperiment(spec)
	if err != nil {
		return nil, err
	}
	if table.Dropped > 0 {
		return nil, fmt.Errorf("instance dropped: %v", table.Errors[0])
	}
	out := make([]float64, len(table.Rows))
	for i, row := range table.Rows {
		if row.N != 1 {
			return nil, fmt.Errorf("%s: %d observations, want 1", row.Scheduler, row.N)
		}
		out[i] = row.Mean
	}
	return out, checkRatios(spec.Schedulers, out)
}

// fig4Layered computes a panel's instance 0 through the calls the
// harness makes per instance — draw the job and the machine, bound the
// completion time, simulate each scheduler — with the harness's seeds
// and clock guard, timing each layer. A Paranoid spec audits every
// simulated schedule. Figure 4 panels have no faults, skew or shards,
// so those harness branches are left out; runFig4 checks instance 0
// against the harness itself.
func fig4Layered(spec fhs.ExperimentSpec, l *layers) ([]float64, error) {
	seed := instSeed(spec.Seed, 0)
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	g, err := fhs.GenerateWorkload(spec.Workload, rng)
	if err != nil {
		return nil, err
	}
	procs := spec.Machine.Sample(g.K(), rng)
	lb, err := fhs.LowerBound(g, procs)
	if err != nil {
		return nil, err
	}
	cfg := fhs.SimConfig{Procs: procs, Paranoid: spec.Paranoid, MaxTime: maxTime(g, procs)}
	l.dag += time.Since(start)
	out := make([]float64, len(spec.Schedulers))
	for i, name := range spec.Schedulers {
		inner, err := fhs.NewScheduler(name, fhs.SchedulerParams{Seed: seed ^ int64(i+1)<<32})
		if err != nil {
			return nil, err
		}
		ts := &timedScheduler{Scheduler: inner}
		simStart := time.Now()
		res, err := fhs.Simulate(g, ts, cfg)
		d := time.Since(simStart)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		l.dag += ts.prepare
		l.pick += ts.pick
		l.engine += d - ts.prepare - ts.pick
		out[i] = fhs.CompletionRatio(res.CompletionTime, lb)
	}
	return out, checkRatios(spec.Schedulers, out)
}

// instSeed is the experiment harness's seed for instance i of a panel
// seeded base (internal/exp/runner.go).
func instSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// maxTime is the harness's clock guard for a fault-free instance
// (deriveMaxTime in internal/exp/runner.go).
func maxTime(g *fhs.Job, procs []int) int64 {
	base := g.Span()
	for a, p := range procs {
		base += (g.TypedWork(fhs.ResourceType(a)) + int64(p) - 1) / int64(p)
	}
	return 16*base + 1024
}

// checkRatios rejects a completion-time ratio below 1: no schedule can
// finish before the lower bound L(J).
func checkRatios(names []string, ratios []float64) error {
	for i, r := range ratios {
		if !(r >= 1-1e-9) || math.IsInf(r, 0) {
			return fmt.Errorf("%s: completion-time ratio %g, want a finite value >= 1", names[i], r)
		}
	}
	return nil
}

// timedScheduler times the two calls the engine makes into a
// scheduler: Prepare, where offline policies precompute descendant
// values over the DAG, and Pick, the pick kernel.
type timedScheduler struct {
	fhs.Scheduler
	prepare, pick time.Duration
}

func (t *timedScheduler) Prepare(g *fhs.Job, cfg fhs.SimConfig) error {
	start := time.Now()
	err := t.Scheduler.Prepare(g, cfg)
	t.prepare += time.Since(start)
	return err
}

func (t *timedScheduler) Pick(st *sim.State, alpha fhs.ResourceType) (fhs.TaskID, bool) {
	start := time.Now()
	id, ok := t.Scheduler.Pick(st, alpha)
	t.pick += time.Since(start)
	return id, ok
}
