package sim

import (
	"fmt"
	"slices"
	"sort"

	"fhs/internal/dag"
	"fhs/internal/fault"
	"fhs/internal/obs"
)

// Run simulates g on the machine described by cfg under scheduler s
// and returns the completion time and utilization statistics. The
// scheduler's Prepare is invoked first, so a fresh or reusable
// scheduler value may be passed; schedulers themselves are not used
// concurrently by the engine. Run is the one-shot form of Runner.Run.
func Run(g *dag.Graph, s Scheduler, cfg Config) (Result, error) {
	return new(Runner).Run(g, s, cfg)
}

// Runner runs simulations one after another and reuses its run state
// between them: the State's per-task slices, the ready-queue and
// enqueue-log buffers, the run queue and the preemptive engine's
// scratch slices. Results never share storage with the Runner or with
// each other. The zero value is ready to use.
//
// A Runner is not safe for concurrent use, and it is not reentrant: a
// scheduler whose Prepare simulates needs a Runner of its own, since
// Prepare runs inside the caller's Run.
type Runner struct {
	cfg     Config
	st      State
	active  bool
	running RadixHeap
	runBusy []int

	assigned []dag.TaskID
	still    [][]dag.TaskID
}

// Run simulates g under s on cfg, as the package-level Run does, on
// the Runner's reused state. It errors if the Runner is already
// running.
func (r *Runner) Run(g *dag.Graph, s Scheduler, cfg Config) (Result, error) {
	if r.active {
		return Result{}, fmt.Errorf("sim: Runner.Run called while the Runner is running")
	}
	r.active = true
	defer func() { r.active = false }()
	if err := cfg.Validate(g.K()); err != nil {
		return Result{}, err
	}
	wantTrace := cfg.CollectTrace
	if cfg.Paranoid {
		if auditor == nil {
			return Result{}, fmt.Errorf("sim: Config.Paranoid set but no auditor is registered (import fhs/internal/verify)")
		}
		cfg.CollectTrace = true
	}
	if err := s.Prepare(g, cfg); err != nil {
		return Result{}, fmt.Errorf("sim: scheduler %s prepare: %w", s.Name(), err)
	}
	r.cfg = cfg
	var (
		res Result
		err error
	)
	if cfg.Preemptive {
		res, err = r.runPreemptive(g, s)
	} else {
		res, err = r.runNonPreemptive(g, s)
	}
	if err != nil || !cfg.Paranoid {
		return res, err
	}
	if aerr := auditor(g, cfg, s, &res); aerr != nil {
		return res, fmt.Errorf("sim: paranoid audit of scheduler %s: %w", s.Name(), aerr)
	}
	if !wantTrace {
		res.Trace = nil
	}
	return res, nil
}

// timeline extracts the capacity timeline from a config, nil when the
// machine is reliable or capacity is constant.
func timeline(cfg *Config) *fault.Timeline {
	if cfg.Faults == nil {
		return nil
	}
	return cfg.Faults.Timeline
}

func (r *Runner) runNonPreemptive(g *dag.Graph, s Scheduler) (Result, error) {
	cfg := &r.cfg
	st := &r.st
	st.reset(g, cfg)
	res := Result{BusyTime: make([]int64, g.K()), WastedWork: make([]int64, g.K())}
	tl := timeline(cfg)
	tr := cfg.Obs
	mets := newSimMetrics(cfg.Metrics)
	// runBusy[α] counts occupied processors; idle capacity is
	// cap[α]-runBusy[α]. Tracking the busy side (rather than the idle
	// side, as the fault-free engine did) survives capacity changes
	// under a running load.
	runBusy := slices.Grow(r.runBusy[:0], g.K())[:g.K()]
	clear(runBusy)
	r.runBusy = runBusy
	running := &r.running
	running.Reset()

	n := g.NumTasks()
	for st.nCompleted < n {
		// Assignment phase: fill idle processors type by type. The pick
		// loop re-asks the scheduler after every placement because
		// queue-state-dependent policies (MQB) change their preference
		// as assignments land.
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
				mets.started.Inc()
				running.Push(st.now+st.remaining[id], id)
				if cfg.CollectTrace {
					res.Trace = append(res.Trace, Event{Time: st.now, Task: id, Type: alpha, Kind: EventStart})
				}
				if tr.Enabled() {
					tr.Emit(obs.TaskEv(obs.KindStart, st.now, int64(id), int64(alpha)))
				}
			}
		}
		if tr.Enabled() {
			emitSamples(tr, st)
		}
		// Advance to the next event: the earliest completion or the next
		// capacity breakpoint, whichever comes first. With nothing
		// running, a pending breakpoint still counts — crashed pools may
		// recover and unblock the schedule.
		next := int64(-1)
		if t, ok := running.Min(); ok {
			next = t
		}
		nextChange := int64(-1)
		if tl != nil {
			nextChange = tl.NextChangeAfter(st.now)
		}
		if nextChange >= 0 && (next < 0 || nextChange < next) {
			next = nextChange
		}
		if next < 0 {
			if st.nCompleted < n {
				return res, fmt.Errorf("sim: scheduler %s stalled at t=%d with %d/%d tasks complete", s.Name(), st.now, st.nCompleted, n)
			}
			break
		}
		if cfg.MaxTime > 0 && next > cfg.MaxTime {
			return res, fmt.Errorf("sim: clock %d exceeds MaxTime=%d under scheduler %s (%d/%d tasks complete)",
				next, cfg.MaxTime, s.Name(), st.nCompleted, n)
		}
		t := next
		st.now = t
		// Completion phase: retire every task finishing at this instant,
		// in ID order, the order a (finish, ID) binary heap would pop
		// them in. A completion may fail transiently (the seeded coin),
		// in which case the whole execution is wasted and the task
		// re-enters its ready queue with full work.
		due := running.PopAt(t)
		slices.Sort(due)
		for _, id := range due {
			alpha := g.Task(id).Type
			work := st.remaining[id]
			res.BusyTime[alpha] += work
			mets.busy.Add(work)
			runBusy[alpha]--
			if cfg.Faults.FailsCompletion(id, st.attempts[id]) {
				res.WastedWork[alpha] += work
				res.Failures++
				mets.failures.Inc()
				mets.wasted.Add(work)
				if err := st.retry(id); err != nil {
					return res, err
				}
				if cfg.CollectTrace {
					res.Trace = append(res.Trace, Event{Time: t, Task: id, Type: alpha, Kind: EventFail})
				}
				if tr.Enabled() {
					tr.Emit(obs.TaskEv(obs.KindFail, t, int64(id), int64(alpha)))
				}
				continue
			}
			st.remaining[id] = 0
			st.complete(id)
			mets.completed.Inc()
			mets.runWork.Observe(work)
			if cfg.CollectTrace {
				res.Trace = append(res.Trace, Event{Time: t, Task: id, Type: alpha, Kind: EventFinish})
			}
			if tr.Enabled() {
				tr.Emit(obs.TaskEv(obs.KindFinish, t, int64(id), int64(alpha)))
			}
		}
		// Capacity phase: apply breakpoints landing at this instant. A
		// pool dropping below its occupancy crashes processors; the
		// victims — resident tasks with the most remaining work, ties to
		// the highest ID — lose all progress and are re-enqueued.
		if tl != nil && nextChange == t {
			for a := 0; a < g.K(); a++ {
				alpha := dag.Type(a)
				oldCap := st.cap[a]
				st.cap[a] = tl.CapAt(alpha, t)
				if tr.Enabled() && st.cap[a] != oldCap {
					tr.Emit(obs.TypeEv(obs.KindCapacity, t, int64(a), int64(st.cap[a]), 0))
				}
				for runBusy[a] > st.cap[a] {
					// A running task's remaining work is its whole run.
					finish, id := running.removeVictim(g, alpha)
					elapsed := t - (finish - st.remaining[id])
					res.BusyTime[alpha] += elapsed
					res.WastedWork[alpha] += elapsed
					res.Kills++
					mets.kills.Inc()
					mets.busy.Add(elapsed)
					mets.wasted.Add(elapsed)
					runBusy[a]--
					if err := st.retry(id); err != nil {
						return res, err
					}
					if cfg.CollectTrace {
						res.Trace = append(res.Trace, Event{Time: t, Task: id, Type: alpha, Kind: EventKill})
					}
					if tr.Enabled() {
						tr.Emit(obs.TaskEv(obs.KindKill, t, int64(id), int64(alpha)))
					}
				}
			}
		}
	}
	res.CompletionTime = st.now
	res.Utilization = utilization(res.BusyTime, cfg, st.now)
	return res, nil
}

func (r *Runner) runPreemptive(g *dag.Graph, s Scheduler) (Result, error) {
	cfg := &r.cfg
	st := &r.st
	st.reset(g, cfg)
	res := Result{BusyTime: make([]int64, g.K()), WastedWork: make([]int64, g.K())}
	tl := timeline(cfg)
	tr := cfg.Obs
	mets := newSimMetrics(cfg.Metrics)
	quantum := cfg.Quantum
	if quantum <= 0 {
		quantum = 1
	}
	n := g.NumTasks()
	assigned := r.assigned[:0]
	still := slices.Grow(r.still[:0], g.K())[:g.K()]
	defer func() { r.assigned, r.still = assigned, still }()
	for st.nCompleted < n {
		if cfg.MaxTime > 0 && st.now > cfg.MaxTime {
			return res, fmt.Errorf("sim: clock %d exceeds MaxTime=%d under scheduler %s (%d/%d tasks complete)",
				st.now, cfg.MaxTime, s.Name(), st.nCompleted, n)
		}
		if tl != nil {
			for a := range st.cap {
				oldCap := st.cap[a]
				st.cap[a] = tl.CapAt(dag.Type(a), st.now)
				if tr.Enabled() && st.cap[a] != oldCap {
					tr.Emit(obs.TypeEv(obs.KindCapacity, st.now, int64(a), int64(st.cap[a]), 0))
				}
			}
		}
		// Every processor is reassignable at a quantum boundary: all
		// unfinished tasks are in the ready queues at this point.
		assigned = assigned[:0]
		for a := 0; a < g.K(); a++ {
			alpha := dag.Type(a)
			for p := 0; p < st.cap[a] && st.QueueLen(alpha) > 0; p++ {
				id, ok := s.Pick(st, alpha)
				if !ok {
					break
				}
				if g.Task(id).Type != alpha || !st.dequeue(id) {
					return res, fmt.Errorf("sim: scheduler %s picked task %d which is not ready on pool %d", s.Name(), id, a)
				}
				res.Decisions++
				mets.started.Inc()
				assigned = append(assigned, id)
				if cfg.CollectTrace {
					res.Trace = append(res.Trace, Event{Time: st.now, Task: id, Type: alpha, Kind: EventStart})
				}
				if tr.Enabled() {
					tr.Emit(obs.TaskEv(obs.KindStart, st.now, int64(id), int64(alpha)))
				}
			}
		}
		if tr.Enabled() {
			emitSamples(tr, st)
		}
		if len(assigned) == 0 {
			// Fully crashed pools can idle the whole machine; sleep until
			// the next capacity change instead of declaring a stall.
			if tl != nil {
				if nc := tl.NextChangeAfter(st.now); nc >= 0 {
					st.now = nc
					continue
				}
			}
			return res, fmt.Errorf("sim: scheduler %s stalled at t=%d with %d/%d tasks complete", s.Name(), st.now, st.nCompleted, n)
		}
		// Run the quantum, shortened so no task overshoots completion and
		// no interval spans a capacity breakpoint (a crash mid-quantum
		// must only cost the work since the last boundary).
		step := quantum
		for _, id := range assigned {
			if r := st.remaining[id]; r < step {
				step = r
			}
		}
		if tl != nil {
			if nc := tl.NextChangeAfter(st.now); nc >= 0 && nc-st.now < step {
				step = nc - st.now
			}
		}
		st.now += step
		for a := range still {
			still[a] = still[a][:0]
		}
		for _, id := range assigned {
			alpha := g.Task(id).Type
			st.remaining[id] -= step
			res.BusyTime[alpha] += step
			mets.busy.Add(step)
			if st.remaining[id] > 0 {
				still[alpha] = append(still[alpha], id)
				continue
			}
			if cfg.Faults.FailsCompletion(id, st.attempts[id]) {
				work := g.Task(id).Work
				st.remaining[id] = work
				res.WastedWork[alpha] += work
				res.Failures++
				mets.failures.Inc()
				mets.wasted.Add(work)
				if err := st.retry(id); err != nil {
					return res, err
				}
				if cfg.CollectTrace {
					res.Trace = append(res.Trace, Event{Time: st.now, Task: id, Type: alpha, Kind: EventFail})
				}
				if tr.Enabled() {
					tr.Emit(obs.TaskEv(obs.KindFail, st.now, int64(id), int64(alpha)))
				}
				continue
			}
			st.complete(id)
			mets.completed.Inc()
			mets.runWork.Observe(g.Task(id).Work)
			if cfg.CollectTrace {
				res.Trace = append(res.Trace, Event{Time: st.now, Task: id, Type: alpha, Kind: EventFinish})
			}
			if tr.Enabled() {
				tr.Emit(obs.TaskEv(obs.KindFinish, st.now, int64(id), int64(alpha)))
			}
		}
		// Unfinished tasks rejoin their queues. If a pool's capacity
		// dropped at the boundary we just hit, the excess tasks — most
		// remaining work first, ties to the highest ID — are crash
		// victims and lose the quantum they just ran.
		for a := range still {
			if len(still[a]) == 0 {
				continue
			}
			alpha := dag.Type(a)
			capEnd := cfg.Procs[a]
			if tl != nil {
				capEnd = tl.CapAt(alpha, st.now)
			}
			d := len(still[a]) - capEnd
			if d > 0 {
				sort.Slice(still[a], func(i, j int) bool {
					ti, tj := still[a][i], still[a][j]
					if st.remaining[ti] != st.remaining[tj] {
						return st.remaining[ti] > st.remaining[tj]
					}
					return ti > tj
				})
			}
			for i, id := range still[a] {
				if i < d {
					st.remaining[id] += step
					res.WastedWork[alpha] += step
					res.Kills++
					mets.kills.Inc()
					mets.wasted.Add(step)
					if err := st.retry(id); err != nil {
						return res, err
					}
					if cfg.CollectTrace {
						res.Trace = append(res.Trace, Event{Time: st.now, Task: id, Type: alpha, Kind: EventKill})
					}
					if tr.Enabled() {
						tr.Emit(obs.TaskEv(obs.KindKill, st.now, int64(id), int64(alpha)))
					}
					continue
				}
				st.enqueue(id)
				if cfg.CollectTrace {
					res.Trace = append(res.Trace, Event{Time: st.now, Task: id, Type: alpha, Kind: EventPreempt})
				}
				if tr.Enabled() {
					tr.Emit(obs.TaskEv(obs.KindPreempt, st.now, int64(id), int64(alpha)))
				}
			}
		}
	}
	res.CompletionTime = st.now
	res.Utilization = utilization(res.BusyTime, cfg, st.now)
	return res, nil
}

// utilization divides busy time by the capacity each pool actually
// offered: ∫Pα(t)dt under a fault timeline, Pα·T otherwise.
func utilization(busy []int64, cfg *Config, makespan int64) []float64 {
	u := make([]float64, len(busy))
	if makespan == 0 {
		return u
	}
	tl := timeline(cfg)
	for a := range busy {
		denom := float64(cfg.Procs[a]) * float64(makespan)
		if tl != nil {
			denom = float64(tl.CapIntegral(dag.Type(a), makespan))
		}
		if denom > 0 {
			u[a] = float64(busy[a]) / denom
		}
	}
	return u
}
