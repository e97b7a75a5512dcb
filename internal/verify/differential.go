package verify

import (
	"fmt"
	"sort"

	"fhs/internal/dag"
	"fhs/internal/metrics"
	"fhs/internal/opt"
	"fhs/internal/sim"
)

// RefGreedy is the canonical reference policy of the differential
// harness: run the lowest-ID ready task of the requested type. Unlike
// KGreedy's FIFO rule it is insensitive to ready-queue *order*, so its
// schedule is a pure function of the ready task sets — exactly the
// property the engine-agreement oracle needs (see CrossCheckEngines).
// It is greedy (never idles a processor with work ready), so the
// non-idling and greedy-bound audits apply to it.
type RefGreedy struct{}

// NewRefGreedy returns the reference policy.
func NewRefGreedy() *RefGreedy { return &RefGreedy{} }

// Name implements sim.Scheduler.
func (*RefGreedy) Name() string { return "RefGreedy" }

// Prepare implements sim.Scheduler. RefGreedy is online and stateless.
func (*RefGreedy) Prepare(*dag.Graph, sim.Config) error { return nil }

// Pick implements sim.Scheduler: lowest task ID wins.
func (*RefGreedy) Pick(st *sim.State, alpha dag.Type) (dag.TaskID, bool) {
	best := dag.NoTask
	for _, id := range st.Ready(alpha) {
		if best == dag.NoTask || id < best {
			best = id
		}
	}
	return best, best != dag.NoTask
}

// CrossCheckEngines is the differential oracle for the two execution
// engines. On a unit-work job with quantum 1, the event-driven
// non-preemptive engine and the quantum-stepped preemptive engine must
// produce the same schedule: every task fits inside one quantum, so
// preemption never fires and both engines see identical ready task
// sets at every instant.
//
// The agreement claim needs one care: when several tasks finish at the
// same instant, the engines enqueue the newly readied children in
// different internal orders, so a policy that reads ready-queue order
// (KGreedy's FIFO, or score ties broken by queue position) may
// legitimately produce different — individually valid — schedules.
// newSched must therefore return a policy whose Pick depends only on
// the ready task *sets* (RefGreedy is the canonical choice), and must
// return a fresh, identically-configured value per call. Use
// AuditBothEngines for order-sensitive registry schedulers.
//
// Both runs are audited with opts, then compared event-for-event
// modulo intra-instant ordering. The non-preemptive result is returned
// for further checks (e.g. CheckOptimum).
func CrossCheckEngines(g *dag.Graph, procs []int, newSched func() sim.Scheduler, opts Options) (sim.Result, error) {
	for i := 0; i < g.NumTasks(); i++ {
		if w := g.Task(dag.TaskID(i)).Work; w != 1 {
			return sim.Result{}, fmt.Errorf("verify: cross-check requires unit work, task %d has %d", i, w)
		}
	}
	var r sim.Runner
	npCfg := sim.Config{Procs: procs, CollectTrace: true}
	np, err := r.Run(g, newSched(), npCfg)
	if err != nil {
		return np, fmt.Errorf("verify: non-preemptive run: %w", err)
	}
	if err := Audit(g, npCfg, &np, opts); err != nil {
		return np, fmt.Errorf("verify: non-preemptive audit: %w", err)
	}
	pCfg := sim.Config{Procs: procs, Preemptive: true, Quantum: 1, CollectTrace: true}
	p, err := r.Run(g, newSched(), pCfg)
	if err != nil {
		return np, fmt.Errorf("verify: preemptive run: %w", err)
	}
	if err := Audit(g, pCfg, &p, opts); err != nil {
		return np, fmt.Errorf("verify: preemptive audit: %w", err)
	}

	if np.CompletionTime != p.CompletionTime {
		return np, fmt.Errorf("verify: engines disagree on completion time: non-preemptive %d, preemptive %d",
			np.CompletionTime, p.CompletionTime)
	}
	for alpha := range np.BusyTime {
		if np.BusyTime[alpha] != p.BusyTime[alpha] {
			return np, fmt.Errorf("verify: engines disagree on type-%d busy time: %d vs %d",
				alpha, np.BusyTime[alpha], p.BusyTime[alpha])
		}
	}
	if np.Decisions != p.Decisions {
		return np, fmt.Errorf("verify: engines disagree on decisions: %d vs %d", np.Decisions, p.Decisions)
	}
	nt, pt := canonicalTrace(np.Trace), canonicalTrace(p.Trace)
	if len(nt) != len(pt) {
		return np, fmt.Errorf("verify: engines disagree on trace length: %d vs %d events", len(nt), len(pt))
	}
	for i := range nt {
		if nt[i] != pt[i] {
			return np, fmt.Errorf("verify: engines disagree at trace event %d: %+v vs %+v", i, nt[i], pt[i])
		}
	}
	return np, nil
}

// AuditBothEngines runs fresh schedulers from newSched through both
// engines on the same job and machine and audits each schedule
// independently. Unlike CrossCheckEngines it demands no cross-engine
// equality, so it is sound for ready-queue-order-sensitive policies;
// both completion times are returned for optimum checks.
func AuditBothEngines(g *dag.Graph, procs []int, newSched func() sim.Scheduler, opts Options) (np, p sim.Result, err error) {
	var r sim.Runner
	npCfg := sim.Config{Procs: procs, CollectTrace: true}
	np, err = r.Run(g, newSched(), npCfg)
	if err != nil {
		return np, p, fmt.Errorf("verify: non-preemptive run: %w", err)
	}
	if err = Audit(g, npCfg, &np, opts); err != nil {
		return np, p, fmt.Errorf("verify: non-preemptive audit: %w", err)
	}
	pCfg := sim.Config{Procs: procs, Preemptive: true, Quantum: 1, CollectTrace: true}
	p, err = r.Run(g, newSched(), pCfg)
	if err != nil {
		return np, p, fmt.Errorf("verify: preemptive run: %w", err)
	}
	if err = Audit(g, pCfg, &p, opts); err != nil {
		return np, p, fmt.Errorf("verify: preemptive audit: %w", err)
	}
	return np, p, nil
}

// canonicalTrace sorts a copy of a trace by (time, kind, task). The
// engines emit simultaneous events in different internal orders
// (completion-heap order vs assignment order), so traces are compared
// in this canonical form.
func canonicalTrace(events []sim.Event) []sim.Event {
	c := append([]sim.Event(nil), events...)
	sort.Slice(c, func(i, j int) bool {
		if c[i].Time != c[j].Time {
			return c[i].Time < c[j].Time
		}
		if c[i].Kind != c[j].Kind {
			return c[i].Kind < c[j].Kind
		}
		return c[i].Task < c[j].Task
	})
	return c
}

// CheckOptimum validates measured completion times against the
// exhaustive optimum of internal/opt on a small unit-work job:
//
//   - the optimum itself must not beat the L(J) lower bound,
//   - no scheduler may beat the optimum,
//   - KGreedy (if present) must respect its competitive guarantee,
//     T ≤ Σα Wα/Pα + T∞ ≤ (K+1)·T_opt.
//
// completions maps scheduler name to measured completion time. The
// optimum is returned so callers can aggregate statistics. If the
// optimum search exceeds its budget the error wraps opt's budget
// failure; callers fuzzing large instances should treat that as a
// skip, not a finding.
func CheckOptimum(g *dag.Graph, procs []int, completions map[string]int64) (int64, error) {
	optT, err := opt.Makespan(g, procs)
	if err != nil {
		return 0, fmt.Errorf("verify: %w", err)
	}
	lb, err := metrics.LowerBound(g, procs)
	if err != nil {
		return 0, fmt.Errorf("verify: %w", err)
	}
	const eps = 1e-9
	if float64(optT) < lb-eps {
		return optT, fmt.Errorf("verify: exhaustive optimum %d beats the lower bound L(J)=%g", optT, lb)
	}
	names := make([]string, 0, len(completions))
	for name := range completions {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic error selection
	for _, name := range names {
		T := completions[name]
		if T < optT {
			return optT, fmt.Errorf("verify: scheduler %s beat the exhaustive optimum: %d < %d", name, T, optT)
		}
		if name == "KGreedy" {
			bound := float64(g.Span())
			for alpha := 0; alpha < g.K(); alpha++ {
				bound += float64(g.TypedWork(dag.Type(alpha))) / float64(procs[alpha])
			}
			if float64(T) > bound+eps {
				return optT, fmt.Errorf("verify: KGreedy bound violated: %d > Σα Wα/Pα + span = %g", T, bound)
			}
			if kPlus1 := float64(g.K()+1) * float64(optT); optT > 0 && float64(T) > kPlus1+eps {
				return optT, fmt.Errorf("verify: KGreedy not (K+1)-competitive: %d > (K+1)·opt = %g", T, kPlus1)
			}
		}
	}
	return optT, nil
}
