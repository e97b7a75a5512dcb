// Package exp is the experiment harness that regenerates the paper's
// evaluation (Figures 4-8) plus the beyond-paper robustness study. A
// Spec describes one plotted panel: a job distribution, a machine
// distribution, an execution mode, an optional fault distribution and
// a set of schedulers. Run draws N independent (job, machine)
// instances, runs every scheduler on each instance — the same jobs,
// machines and fault plans for every algorithm, as in the paper — and
// aggregates completion-time ratios T(J)/L(J) into a Table.
//
// Instances execute on a worker pool; every random draw derives from
// the Spec seed and the instance index, so results are deterministic
// and independent of the worker count. The harness is hardened against
// misbehaving policy/fault combinations: a scheduler panic or error is
// recovered per instance and surfaced as a structured InstanceError
// carrying the instance seed (the whole instance is dropped so rows
// stay paired), and every simulation gets a derived MaxTime guard so
// no combination can hang a run (Spec.NoMaxTime opts out).
package exp

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"fhs/internal/core"
	"fhs/internal/dag"
	"fhs/internal/fault"
	"fhs/internal/metrics"
	"fhs/internal/obs"
	"fhs/internal/sim"
	_ "fhs/internal/verify" // registers the Paranoid-mode auditor
	"fhs/internal/workload"
)

// Spec describes one experiment panel.
type Spec struct {
	// Name labels the panel in reports, e.g. "Figure 4(d): Small Layered EP".
	Name string

	// Workload is the job distribution instances are drawn from.
	Workload workload.Config

	// Machine is the per-type pool-size distribution.
	Machine workload.ResourceRange

	// SkewFactor, when > 1, divides the first type's sampled pool by
	// this factor (Section V-E). 0 or 1 means no skew.
	SkewFactor int

	// Preemptive selects quantum-based rescheduling for all schedulers.
	Preemptive bool

	// Faults, when active, draws one fault plan per instance from this
	// distribution (seeded from the instance seed, shared by all
	// schedulers on that instance) and injects it into every
	// simulation. Nil or an inactive config keeps the machine reliable.
	Faults *fault.Config

	// Schedulers lists registry names (see core.New) to compare.
	Schedulers []string

	// Instances is the number of (job, machine) draws; the paper uses
	// 5000 per plotted point.
	Instances int

	// Seed roots all randomness of the experiment.
	Seed int64

	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int

	// Paranoid audits every simulated schedule with internal/verify
	// (sim.Config.Paranoid): an invariant violation drops the instance
	// and is reported in Table.Errors instead of contaminating the
	// figures.
	Paranoid bool

	// MaxTime caps each simulation's clock. 0 derives a generous
	// default from the instance — c·(Σα Wα/Pα + T∞), scaled for
	// worst-case fault churn — so degenerate policy/fault combinations
	// fail fast with the engine's progress-reporting error instead of
	// spinning. Set NoMaxTime to run uncapped.
	MaxTime int64

	// NoMaxTime disables the derived MaxTime default.
	NoMaxTime bool

	// Metrics, when set, aggregates harness counters (exp_* names) and
	// every simulation's engine metrics (sim_*) into the registry. The
	// registry is shared by all workers; only order-independent
	// instruments are touched, so the aggregated totals are identical
	// for any Workers setting — asserted by the determinism test in
	// obs_test.go. Nil disables.
	Metrics *obs.Registry
}

// Validate reports malformed specs before any work is spent.
func (s *Spec) Validate() error {
	if s.Instances <= 0 {
		return fmt.Errorf("exp: %s: instances = %d, want > 0", s.Name, s.Instances)
	}
	if len(s.Schedulers) == 0 {
		return fmt.Errorf("exp: %s: no schedulers", s.Name)
	}
	if s.MaxTime < 0 {
		return fmt.Errorf("exp: %s: negative MaxTime %d", s.Name, s.MaxTime)
	}
	if err := s.Workload.Validate(); err != nil {
		return fmt.Errorf("exp: %s: %w", s.Name, err)
	}
	if err := s.Machine.Validate(); err != nil {
		return fmt.Errorf("exp: %s: %w", s.Name, err)
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return fmt.Errorf("exp: %s: %w", s.Name, err)
		}
	}
	for _, name := range s.Schedulers {
		if _, err := core.New(name, core.Params{}); err != nil {
			return fmt.Errorf("exp: %s: %w", s.Name, err)
		}
	}
	return nil
}

// Row aggregates one scheduler's per-instance observations over all
// surviving instances of a panel.
type Row struct {
	Scheduler string
	Mean      float64 // average completion-time ratio (the figures' y-axis)
	Max       float64 // worst ratio observed (Figure 8 reports this too)
	Min       float64
	StdDev    float64
	P50       float64 // median ratio
	P95       float64 // 95th-percentile ratio
	N         int64

	// Fault metrics, all zero on reliable machines: Wasted is the mean
	// wasted-work fraction (lost processor-time over total busy time),
	// Kills the mean crash kills per instance, Recoveries the mean
	// successful re-enqueues (kills + transient failures) per instance.
	Wasted     float64
	Kills      float64
	Recoveries float64
}

// InstanceError describes one dropped instance: which draw failed,
// the seed that reproduces it, the scheduler that was running (empty
// for generation failures) and the error or recovered panic.
type InstanceError struct {
	Instance  int
	Seed      int64
	Scheduler string
	Err       string
}

func (e InstanceError) Error() string {
	who := e.Scheduler
	if who == "" {
		who = "setup"
	}
	return fmt.Sprintf("instance %d (seed %d) %s: %s", e.Instance, e.Seed, who, e.Err)
}

// maxReportedErrors bounds Table.Errors; Dropped always counts every
// dropped instance.
const maxReportedErrors = 25

// Table is one finished panel.
type Table struct {
	Name string
	Rows []Row

	// Faulty marks panels run under a fault distribution, so reports
	// know to show the fault columns.
	Faulty bool

	// Errors holds up to maxReportedErrors structured failures from
	// dropped instances, sorted by (instance, scheduler); Dropped is
	// the total number of instances excluded from the aggregates.
	Errors  []InstanceError
	Dropped int
}

// Row returns the row for a scheduler name, or nil if absent.
func (t *Table) Row(scheduler string) *Row {
	for i := range t.Rows {
		if t.Rows[i].Scheduler == scheduler {
			return &t.Rows[i]
		}
	}
	return nil
}

// instSeed derives the RNG seed of instance i. SplitMix64-style mixing
// keeps neighboring instances decorrelated.
func instSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// measurement is one scheduler's observations on one instance.
type measurement struct {
	ratio  float64
	wasted float64 // wasted-work fraction of busy time
	kills  float64
	recov  float64 // kills + transient failures
}

// newScheduler builds registry schedulers; a variable so harness tests
// can inject misbehaving policies.
var newScheduler = core.New

// Run executes a panel and returns its aggregated table. Instance
// failures — scheduler errors, audit violations, recovered panics —
// drop the affected instance and are reported in Table.Errors; Run
// itself errors only for invalid specs or when every instance failed.
func Run(spec Spec) (Table, error) {
	if err := spec.Validate(); err != nil {
		return Table{}, err
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > spec.Instances {
		workers = spec.Instances
	}

	nSched := len(spec.Schedulers)
	observations := make([]measurement, spec.Instances*nSched)
	valid := make([]bool, spec.Instances)

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		failed []InstanceError
	)
	// The channel holds every index up front so no producer can block
	// regardless of how workers exit.
	jobs := make(chan int, spec.Instances)
	for i := 0; i < spec.Instances; i++ {
		jobs <- i
	}
	close(jobs)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ierr := runInstance(&spec, i, observations[i*nSched:(i+1)*nSched]); ierr != nil {
					mu.Lock()
					failed = append(failed, *ierr)
					mu.Unlock()
					continue
				}
				valid[i] = true
			}
		}()
	}
	wg.Wait()

	// Worker interleaving must not leak into the output: errors sort by
	// instance (at most one per instance — the first failure aborts it).
	sort.Slice(failed, func(i, j int) bool { return failed[i].Instance < failed[j].Instance })
	newExpMetrics(spec.Metrics).dropped.Add(int64(len(failed)))
	table := Table{
		Name:    spec.Name,
		Rows:    make([]Row, nSched),
		Faulty:  spec.Faults.Active(),
		Dropped: len(failed),
	}
	if len(failed) > 0 {
		table.Errors = failed
		if len(table.Errors) > maxReportedErrors {
			table.Errors = table.Errors[:maxReportedErrors]
		}
	}
	if table.Dropped == spec.Instances {
		return Table{}, fmt.Errorf("exp: %s: all %d instances failed; first: %s", spec.Name, spec.Instances, failed[0].Error())
	}

	sample := make([]float64, 0, spec.Instances)
	for s, name := range spec.Schedulers {
		var sum metrics.Summary
		var wasted, kills, recov float64
		sample = sample[:0]
		for i := 0; i < spec.Instances; i++ {
			if !valid[i] {
				continue
			}
			o := observations[i*nSched+s]
			sum.Add(o.ratio)
			sample = append(sample, o.ratio)
			wasted += o.wasted
			kills += o.kills
			recov += o.recov
		}
		sort.Float64s(sample)
		n := float64(len(sample))
		table.Rows[s] = Row{
			Scheduler:  name,
			Mean:       sum.Mean(),
			Max:        sum.Max(),
			Min:        sum.Min(),
			StdDev:     sum.StdDev(),
			P50:        percentile(sample, 0.50),
			P95:        percentile(sample, 0.95),
			N:          sum.N(),
			Wasted:     wasted / n,
			Kills:      kills / n,
			Recoveries: recov / n,
		}
	}
	return table, nil
}

// percentile returns the p-quantile of a sorted sample using the
// nearest-rank method (index ⌈p·N⌉, clamped).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// deriveMaxTime builds the default clock guard for one instance: a
// generous multiple of the trivial schedule-length bound Σα ⌈Wα/Pα⌉ +
// T∞, scaled by the retry budget under faults (each re-enqueue can
// re-execute work) and extended past the churn timeline so a run never
// fails merely for sleeping through an outage.
func deriveMaxTime(g *dag.Graph, procs []int, plan *fault.Plan) int64 {
	base := g.Span()
	for a, p := range procs {
		w := g.TypedWork(dag.Type(a))
		base += (w + int64(p) - 1) / int64(p)
	}
	guard := 16*base + 1024
	if plan.Active() {
		guard *= int64(plan.MaxRetries) + 2
		if plan.Timeline != nil {
			guard += plan.Timeline.End()
		}
	}
	return guard
}

// runInstance draws instance i's job, machine and fault plan and fills
// out[s] with each scheduler's observations. Any failure — including a
// panicking scheduler — is returned as a structured InstanceError and
// the instance is dropped whole, keeping rows paired.
func runInstance(spec *Spec, i int, out []measurement) (ierr *InstanceError) {
	seed := instSeed(spec.Seed, i)
	current := "" // scheduler on deck, for panic attribution
	defer func() {
		if r := recover(); r != nil {
			ierr = &InstanceError{Instance: i, Seed: seed, Scheduler: current, Err: fmt.Sprintf("panic: %v", r)}
		}
	}()
	fail := func(err error) *InstanceError {
		return &InstanceError{Instance: i, Seed: seed, Scheduler: current, Err: err.Error()}
	}

	rng := rand.New(rand.NewSource(seed))
	g, err := workload.Generate(spec.Workload, rng)
	if err != nil {
		return fail(err)
	}
	procs := spec.Machine.Sample(g.K(), rng)
	if spec.SkewFactor > 1 {
		procs = workload.SkewFirstType(procs, spec.SkewFactor)
	}
	var plan *fault.Plan
	if spec.Faults.Active() {
		plan = spec.Faults.NewPlan(procs, rng)
	}
	lb, err := metrics.LowerBound(g, procs)
	if err != nil {
		return fail(err)
	}
	maxTime := spec.MaxTime
	if maxTime == 0 && !spec.NoMaxTime {
		maxTime = deriveMaxTime(g, procs, plan)
	}
	cfg := sim.Config{Procs: procs, Preemptive: spec.Preemptive, Paranoid: spec.Paranoid, Faults: plan, MaxTime: maxTime, Metrics: spec.Metrics}
	em := newExpMetrics(spec.Metrics)
	em.instances.Inc()
	for s, name := range spec.Schedulers {
		current = name
		// Schedulers are built fresh per instance with a seed derived
		// from the instance seed and the scheduler index, so randomized
		// information models (MQB+Exp/Noise) are reproducible no matter
		// how instances land on workers.
		sch, err := newScheduler(name, core.Params{Seed: seed ^ int64(s+1)<<32})
		if err != nil {
			return fail(err)
		}
		res, err := sim.Run(g, sch, cfg)
		if err != nil {
			return fail(err)
		}
		em.sims.Inc()
		em.completion.Observe(res.CompletionTime)
		out[s] = measurement{
			ratio:  metrics.Ratio(res.CompletionTime, lb),
			wasted: metrics.WastedFraction(res.WastedWork, res.BusyTime),
			kills:  float64(res.Kills),
			recov:  float64(res.Kills + res.Failures),
		}
	}
	return nil
}

// RunAll executes a list of panels sequentially and returns their
// tables in order.
func RunAll(specs []Spec) ([]Table, error) {
	tables := make([]Table, 0, len(specs))
	for _, s := range specs {
		t, err := Run(s)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}
