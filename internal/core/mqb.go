package core

import (
	"fmt"
	"math"
	"math/rand"

	"fhs/internal/dag"
	"fhs/internal/obs"
	"fhs/internal/sim"
)

// Lookahead selects how much of the K-DAG's future MQB may consult
// when estimating descendant values (Section V-G, "partial
// information").
type Lookahead int

const (
	// LookaheadAll uses the full recursive descendant values (MQB+All,
	// the algorithm of Section IV-A).
	LookaheadAll Lookahead = iota
	// LookaheadOneStep restricts descendant values to immediate
	// children (MQB+1Step).
	LookaheadOneStep
)

func (l Lookahead) String() string {
	if l == LookaheadOneStep {
		return "1Step"
	}
	return "All"
}

// Info selects the precision of MQB's descendant estimates
// (Section V-G, "imprecise information").
type Info int

const (
	// InfoPrecise uses exact descendant values.
	InfoPrecise Info = iota
	// InfoExp replaces each descendant value with an exponentially
	// distributed random value whose mean is the true value (MQB+Exp).
	InfoExp
	// InfoNoise multiplies each descendant value by Uniform(0.5, 1.5)
	// and adds Uniform(0, averageTaskWork) (MQB+Noise).
	InfoNoise
)

func (i Info) String() string {
	switch i {
	case InfoExp:
		return "Exp"
	case InfoNoise:
		return "Noise"
	default:
		return "Pre"
	}
}

// MQBOptions configures an MQB instance. The zero value is the paper's
// full-information algorithm (MQB+All+Pre).
type MQBOptions struct {
	Lookahead Lookahead
	Info      Info
	// Balance selects the snapshot comparison rule; the zero value is
	// the paper's lexicographic rule.
	Balance Balance
	// Seed drives the Exp/Noise perturbations; ignored for InfoPrecise.
	Seed int64
}

// MQB is the Multi-Queue Balancing algorithm (Section IV-A), the
// paper's primary contribution. It transforms makespan minimization
// into utilization balancing: when more than Pα α-tasks are ready, it
// runs the task whose typed descendant values, added to the per-type
// ready queues, yield the best balance — where balance compares the
// vectors of x-utilizations rα = lα/Pα sorted ascending, lexicographically
// (raising the smallest queue first, since the shortest queue is the
// likely utilization bottleneck).
type MQB struct {
	opts MQBOptions
	rng  *rand.Rand

	// tr streams contested pick decisions when the run is traced
	// (sim.Config.Obs); nil outside traced runs, costing one branch
	// per Pick.
	tr *obs.Tracer

	// desc holds per-task, per-type descendant estimates. With precise
	// information it aliases the graph's shared memoized slices (never
	// written); the randomized information models perturb a private
	// copy.
	desc [][]float64

	// classes buckets the ready tasks by descendant class, so Pick
	// scores one task per class instead of every ready task.
	classes classQueue

	// bal scores the candidates of each Pick.
	bal Balancer
}

// NewMQB returns a Multi-Queue Balancing scheduler with the given
// information model.
func NewMQB(opts MQBOptions) *MQB {
	m := &MQB{opts: opts, bal: Balancer{Rule: opts.Balance}}
	if opts.Info != InfoPrecise {
		m.rng = newRand(opts.Seed)
	}
	return m
}

// Name implements sim.Scheduler. The full-information variant is
// plain "MQB"; approximated-information variants carry the paper's
// Figure 8 labels, e.g. "MQB+1Step+Noise"; ablated balance rules get a
// "/MinOnly" or "/Sum" suffix.
func (m *MQB) Name() string {
	name := "MQB"
	if m.opts.Lookahead != LookaheadAll || m.opts.Info != InfoPrecise {
		name = fmt.Sprintf("MQB+%s+%s", m.opts.Lookahead, m.opts.Info)
	}
	if m.opts.Balance != BalanceLex {
		name += "/" + m.opts.Balance.String()
	}
	return name
}

// Prepare implements sim.Scheduler: fetch the graph's memoized
// descendant values at the configured lookahead — jobs are reused
// across schedulers and runs, so the reverse-topological pass happens
// once per (graph, lookahead), not once per Prepare — then perturb a
// private copy per the information model, and set up the class
// buckets Pick scores from. A randomized MQB reused across jobs draws
// fresh noise every Prepare.
func (m *MQB) Prepare(g *dag.Graph, cfg sim.Config) error {
	m.tr = cfg.Obs
	var src [][]float64
	if m.opts.Lookahead == LookaheadOneStep {
		src = g.SharedOneStepTypedDescendantValues()
	} else {
		src = g.SharedTypedDescendantValues()
	}
	switch m.opts.Info {
	case InfoPrecise:
		// Exact values: read the shared slices directly. Pick never
		// writes through m.desc, which keeps the graph's cache intact.
		m.desc = src
	case InfoExp:
		m.desc = copyRows(src, g.K())
		for _, row := range m.desc {
			for a, v := range row {
				if v > 0 {
					row[a] = m.rng.ExpFloat64() * v
				}
			}
		}
	case InfoNoise:
		m.desc = copyRows(src, g.K())
		avgWork := 0.0
		if n := g.NumTasks(); n > 0 {
			avgWork = float64(g.TotalWork()) / float64(n)
		}
		for _, row := range m.desc {
			for a, v := range row {
				mult := 0.5 + m.rng.Float64() // Uniform(0.5, 1.5)
				add := m.rng.Float64() * avgWork
				row[a] = v*mult + add
			}
		}
	default:
		return fmt.Errorf("core: unknown MQB info model %d", m.opts.Info)
	}
	var class []int32
	switch {
	case m.opts.Info != InfoPrecise:
		// Perturbed rows differ from the memoized ones, so their
		// classes are drawn per run.
		class = dag.DescendantClasses(g, m.desc)
	case m.opts.Lookahead == LookaheadOneStep:
		class = g.SharedOneStepTypedDescendantClasses()
	default:
		class = g.SharedTypedDescendantClasses()
	}
	m.classes.reset(g, class)
	return nil
}

// copyRows clones a [task][type] table into fresh flat storage, so
// perturbing information models never touch the graph's shared cache.
func copyRows(src [][]float64, k int) [][]float64 {
	d := make([][]float64, len(src))
	flat := make([]float64, len(src)*k)
	for i, row := range src {
		d[i], flat = flat[:k:k], flat[k:]
		copy(d[i], row)
	}
	return d
}

// Pick implements sim.Scheduler. It offers each candidate ready α-task
// v to the Balancer, which scores the hypothetical queue snapshot where
// v has left the α-queue (removing its remaining work) and v's
// descendant estimates have been added to every queue, and keeps the
// candidate whose snapshot has the best balance. Ties keep the
// earliest-ready candidate.
//
// Ready tasks of one descendant class produce bit-equal snapshots, so
// only each class's earliest-ready member is scored (see classQueue);
// between classes a tie goes to the lower ReadySeq, which is the
// queue-order scan's rule. The decision sequence is bit-identical to
// scoring every ready task with a full sort and LexLess (asserted
// before every Pick by the differential test in mqb_equiv_test.go).
func (m *MQB) Pick(st *sim.State, alpha dag.Type) (dag.TaskID, bool) {
	cands := m.classes.drain(st, alpha)
	if len(cands) == 0 {
		return dag.NoTask, false
	}
	// A contested pick (two or more ready tasks) is traced even when
	// one class holds them all, so the decision stream is unchanged.
	traced := m.tr.Enabled() && st.QueueLen(alpha) > 1
	if len(cands) == 1 && !traced {
		return m.classes.take(alpha, 0), true
	}
	k := st.K()
	base, procs := m.bal.Reset(k)
	for a := 0; a < k; a++ {
		base[a] = float64(st.QueueWork(dag.Type(a)))
		procs[a] = float64(st.Procs(dag.Type(a)))
	}
	bestAt := 0
	var bestSeq int64
	for i, c := range cands {
		id := m.classes.head(c)
		seq := st.ReadySeq(id)
		if m.bal.Offer(alpha, m.desc[id], float64(st.Remaining(id)), seq < bestSeq) {
			bestAt, bestSeq = i, seq
		}
	}
	qlen := st.QueueLen(alpha)
	best := m.classes.take(alpha, bestAt)
	if traced {
		// A contested pick: record which task won and its score.
		m.tr.Emit(obs.DecisionEv(st.Now(), int64(best), int64(alpha), int64(qlen), finiteScore(m.bal.Score())))
	}
	return best, true
}

// finiteScore clamps a balance score into the finite range the event
// schema requires (a fully crashed pool scores +Inf).
func finiteScore(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	if math.IsInf(v, -1) {
		return -math.MaxFloat64
	}
	return v
}

// classQueue is MQB's view of the ready queues, bucketed by descendant
// class (dag.DescendantClasses): one entry per class with a ready
// member, plus one per singleton. A class's ready members wait in
// ReadySeq order, so its head is the member the queue-order scan would
// reach first; all of them produce the same snapshot, so the head is
// the only one worth scoring.
//
// Like rankQueue it is fed from the state's enqueue log on each Pick,
// and the engine starts every task Pick returns, so take pops it. A
// task that has executed part of its work (preempted, or killed in
// preemptive mode) has a snapshot of its own: it is enqueued as a
// singleton. A task back at full work (a non-preemptive kill, a
// transient failure) rejoins its class at its ReadySeq position.
type classQueue struct {
	class []int32 // per task: its class

	// members[start[c]:start[c+1]] is class c's window, sized to the
	// class; its ready members are members[lo[c]:hi[c]].
	members []dag.TaskID
	start   []int32
	lo, hi  []int32

	// ready[α] lists α's candidates in no particular order: a class c
	// with ready members as c ≥ 0, a singleton task id as ^id.
	ready    [][]int32
	readyBuf []int32
	drained  []int // per type: log entries already pushed
}

// reset empties the queue for a run on g with the given classes,
// keeping storage for reuse.
func (q *classQueue) reset(g *dag.Graph, class []int32) {
	n := len(class)
	nc := 0
	for _, c := range class {
		nc = max(nc, int(c)+1)
	}
	q.class = class
	q.members = grow(q.members, n)
	q.start = grow(q.start, nc+1)
	q.lo, q.hi = grow(q.lo, nc), grow(q.hi, nc)
	clear(q.start)
	for _, c := range class {
		q.start[c+1]++
	}
	for c := 0; c < nc; c++ {
		q.start[c+1] += q.start[c]
		q.lo[c], q.hi[c] = q.start[c], q.start[c]
	}
	// A type never has more candidates than tasks.
	k := g.K()
	q.ready, q.drained = grow(q.ready, k), grow(q.drained, k)
	q.readyBuf = grow(q.readyBuf, n)
	flat := q.readyBuf
	for a, cnt := range g.TypeCount() {
		q.ready[a], flat = flat[:0:cnt], flat[cnt:]
		q.drained[a] = 0
	}
}

// grow returns s resized to n, reallocating only when s is too short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// drain pushes alpha's enqueues since the last call and returns its
// candidates.
func (q *classQueue) drain(st *sim.State, alpha dag.Type) []int32 {
	log := st.Enqueued(alpha)
	for _, id := range log[q.drained[alpha]:] {
		q.push(st, alpha, id)
	}
	q.drained[alpha] = len(log)
	return q.ready[alpha]
}

func (q *classQueue) push(st *sim.State, alpha dag.Type, id dag.TaskID) {
	if st.Executed(id) != 0 {
		q.ready[alpha] = append(q.ready[alpha], ^int32(id))
		return
	}
	c := q.class[id]
	lo, hi := q.lo[c], q.hi[c]
	if lo == hi {
		q.ready[alpha] = append(q.ready[alpha], c)
	}
	if hi == q.start[c+1] {
		// The window's tail is used up; a member is missing, so there
		// is room at its front.
		hi = q.start[c] + int32(copy(q.members[q.start[c]:], q.members[lo:hi]))
		lo = q.start[c]
	}
	// First readiness has the largest ReadySeq yet and stays at the
	// tail; a re-enqueue moves back to its ReadySeq position.
	seq := st.ReadySeq(id)
	i := hi
	for ; i > lo && st.ReadySeq(q.members[i-1]) > seq; i-- {
		q.members[i] = q.members[i-1]
	}
	q.members[i] = id
	q.lo[c], q.hi[c] = lo, hi+1
}

// head returns the earliest-ready task of a candidate.
func (q *classQueue) head(c int32) dag.TaskID {
	if c < 0 {
		return dag.TaskID(^c)
	}
	return q.members[q.lo[c]]
}

// take removes and returns the head of alpha's i-th candidate.
func (q *classQueue) take(alpha dag.Type, i int) dag.TaskID {
	r := q.ready[alpha]
	c := r[i]
	id := q.head(c)
	if c >= 0 {
		q.lo[c]++
		if q.lo[c] < q.hi[c] {
			return id
		}
		q.lo[c], q.hi[c] = q.start[c], q.start[c]
	}
	r[i] = r[len(r)-1]
	q.ready[alpha] = r[:len(r)-1]
	return id
}
