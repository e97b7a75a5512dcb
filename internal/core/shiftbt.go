package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"fhs/internal/dag"
	"fhs/internal/sim"
)

// ShiftBT is the shifting-bottleneck heuristic adapted to K-DAG
// scheduling (Section IV-B). Offline it fixes, one resource type at a
// time, the order in which that type's tasks should start:
//
//  1. Every task gets a due date — the latest time it can start
//     without stretching the critical path: due(v) = T∞(J) − span(v).
//  2. For each not-yet-fixed type α, a relaxed schedule is computed in
//     which α keeps its real Pα processors (already-fixed types keep
//     theirs and their fixed orders) while every other unfixed type
//     gets unlimited processors; α-tasks dispatch earliest-due-date
//     first. The relaxation's maximum lateness Lα = max(start − due)
//     measures how much of a bottleneck α is.
//  3. The type with the largest Lα is declared the bottleneck, its
//     start order from that relaxation is frozen, and the process
//     repeats with the remaining types.
//
// At runtime each pool simply dispatches ready tasks in its frozen
// order. Every type with tasks is fixed, so every task has a place.
type ShiftBT struct {
	rank  []int32        // per task: its place in its type's frozen start order
	spans ranking[int64] // span ranks, longest first: the EDD order
	q     rankQueue
	edd   eddSched // relaxation policy, reused across relaxations

	// run simulates the relaxations. It cannot be the caller's Runner:
	// Prepare runs inside the caller's Run.
	run sim.Runner
	// order is the latest relaxation's candidate start order and best
	// the round's best so far; the two swap instead of reallocating.
	order, best []dag.TaskID
	procs       []int
}

// NewShiftBT returns the shifting-bottleneck scheduler.
func NewShiftBT() *ShiftBT { return &ShiftBT{} }

// Name implements sim.Scheduler.
func (*ShiftBT) Name() string { return "ShiftBT" }

// Prepare implements sim.Scheduler by running the shifting-bottleneck
// procedure described on the type above.
func (s *ShiftBT) Prepare(g *dag.Graph, cfg sim.Config) error {
	n := g.NumTasks()
	k := g.K()
	s.q.reset(g, 1)
	s.rank = grow(s.rank, n)
	if n == 0 {
		return nil
	}
	// due = T∞ − span, so the EDD order is the longest-span-first one.
	s.spans.compute(g, true, g.TaskSpan)

	typeCount := g.TypeCount()
	s.edd.rank, s.edd.dueRank = s.rank, s.spans.rank
	s.edd.fixed, s.edd.unlimited = grow(s.edd.fixed, k), grow(s.edd.unlimited, k)
	nUnfixed := 0
	for a := 0; a < k; a++ {
		// A type without tasks counts as fixed: it has nothing to order.
		s.edd.fixed[a] = typeCount[a] == 0
		if !s.edd.fixed[a] {
			nUnfixed++
		}
	}
	s.procs = grow(s.procs, k)

	for nUnfixed > 0 {
		bestType := -1
		var bestLateness int64
		for a := 0; a < k; a++ {
			if s.edd.fixed[a] {
				continue
			}
			for b := 0; b < k; b++ {
				s.edd.unlimited[b] = b != a && !s.edd.fixed[b]
				s.procs[b] = cfg.Procs[b]
				if s.edd.unlimited[b] {
					s.procs[b] = max(typeCount[b], 1)
				}
			}
			lateness, err := s.relax(g, s.procs, dag.Type(a))
			if err != nil {
				return fmt.Errorf("core: ShiftBT relaxation for type %d: %w", a, err)
			}
			if bestType < 0 || lateness > bestLateness {
				bestType, bestLateness = a, lateness
				s.order, s.best = s.best, s.order
			}
		}
		// A relaxation reads a fixed type's ranks for that type's tasks
		// only, so every type shares s.rank.
		for pos, id := range s.best {
			s.rank[id] = int32(pos)
		}
		s.edd.fixed[bestType] = true
		nUnfixed--
	}
	return nil
}

// relax computes the EDD relaxation for candidate type on procs: the
// candidate and already-fixed types keep their configured pool sizes;
// every other unfixed type gets one processor per task (effectively
// unlimited). It leaves the candidate's task start order in s.order
// and returns its maximum lateness max(start − due).
func (s *ShiftBT) relax(g *dag.Graph, procs []int, candidate dag.Type) (int64, error) {
	s.edd.candidate, s.edd.starts = candidate, s.edd.starts[:0]
	if _, err := s.run.Run(g, &s.edd, sim.Config{Procs: procs}); err != nil {
		return 0, err
	}
	starts := s.edd.starts
	lateness := int64(math.MinInt64)
	for _, ts := range starts {
		if l := ts.t - (g.Span() - g.TaskSpan(ts.id)); l > lateness {
			lateness = l
		}
	}
	// Starts are recorded at non-decreasing times, so the (time, ID)
	// order only needs each same-instant run sorted by ID.
	s.order = s.order[:0]
	for i := 0; i < len(starts); {
		j := i + 1
		for j < len(starts) && starts[j].t == starts[i].t {
			j++
		}
		slices.SortFunc(starts[i:j], func(a, b taskStart) int { return cmp.Compare(a.id, b.id) })
		for _, ts := range starts[i:j] {
			s.order = append(s.order, ts.id)
		}
		i = j
	}
	return lateness, nil
}

// Pick implements sim.Scheduler: dispatch in frozen bottleneck order.
func (s *ShiftBT) Pick(st *sim.State, alpha dag.Type) (dag.TaskID, bool) {
	return s.q.pick(st, alpha, func(id dag.TaskID) (int32, int64) { return s.rank[id], 0 })
}

// eddSched is the inner policy of ShiftBT's relaxations: fixed types
// dispatch in their frozen order, every other type earliest-due-date
// first. On an unlimited pool every ready task starts at once, so the
// order is immaterial and the queue head is taken. It records when
// each candidate-type task is picked; the relaxation is non-preemptive
// and fault-free, so a picked task starts at that instant.
type eddSched struct {
	rank      []int32 // per task: frozen position, read for fixed types
	dueRank   []int32 // per task: due-date rank within its type
	fixed     []bool  // per type: its order is frozen
	unlimited []bool  // per type: one processor per task
	candidate dag.Type
	starts    []taskStart
	q         rankQueue
}

// taskStart is one candidate-type start in a relaxation.
type taskStart struct {
	t  int64
	id dag.TaskID
}

func (*eddSched) Name() string { return "ShiftBT/EDD-relaxation" }

func (e *eddSched) Prepare(g *dag.Graph, _ sim.Config) error {
	e.q.reset(g, 1)
	return nil
}

func (e *eddSched) Pick(st *sim.State, alpha dag.Type) (dag.TaskID, bool) {
	if e.unlimited[alpha] {
		if q := st.Ready(alpha); len(q) > 0 {
			return q[0], true
		}
		return dag.NoTask, false
	}
	ranks := e.dueRank
	if e.fixed[alpha] {
		ranks = e.rank
	}
	id, ok := e.q.pick(st, alpha, func(t dag.TaskID) (int32, int64) { return ranks[t], 0 })
	if ok && alpha == e.candidate {
		e.starts = append(e.starts, taskStart{t: st.Now(), id: id})
	}
	return id, ok
}
