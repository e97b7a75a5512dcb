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
// order (EDD as a tie-break safety net).
type ShiftBT struct {
	rank []int64 // per-task dispatch rank within its type
	due  []int64
	q    keyedQueue
	edd  eddSched // relaxation policy, reused across relaxations
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
	s.q.reset(k)
	s.due = make([]int64, n)
	for i := 0; i < n; i++ {
		s.due[i] = g.Span() - g.TaskSpan(dag.TaskID(i))
	}
	s.rank = make([]int64, n)
	for i := range s.rank {
		s.rank[i] = math.MaxInt64 // unfixed tasks sort last
	}
	if n == 0 {
		return nil
	}

	typeCount := g.TypeCount()
	fixedRank := make([][]int64, k) // nil until the type is fixed
	unfixed := make([]bool, k)
	nUnfixed := 0
	for a := 0; a < k; a++ {
		if typeCount[a] > 0 {
			unfixed[a] = true
			nUnfixed++
		}
	}
	s.edd.due, s.edd.fixedRank = s.due, fixedRank
	s.edd.unlimited = make([]bool, k)
	procs := make([]int, k)

	for nUnfixed > 0 {
		bestType := -1
		var bestLateness int64
		var bestOrder []dag.TaskID
		for a := 0; a < k; a++ {
			if !unfixed[a] {
				continue
			}
			for b := 0; b < k; b++ {
				s.edd.unlimited[b] = b != a && fixedRank[b] == nil
				procs[b] = cfg.Procs[b]
				if s.edd.unlimited[b] {
					procs[b] = max(typeCount[b], 1)
				}
			}
			order, lateness, err := s.relax(g, procs, dag.Type(a))
			if err != nil {
				return fmt.Errorf("core: ShiftBT relaxation for type %d: %w", a, err)
			}
			if bestType < 0 || lateness > bestLateness {
				bestType, bestLateness, bestOrder = a, lateness, order
			}
		}
		ranks := make([]int64, n)
		for i := range ranks {
			ranks[i] = math.MaxInt64
		}
		for pos, id := range bestOrder {
			ranks[id] = int64(pos)
			s.rank[id] = int64(pos)
		}
		fixedRank[bestType] = ranks
		unfixed[bestType] = false
		nUnfixed--
	}
	return nil
}

// relax computes the EDD relaxation for candidate type on procs: the
// candidate and already-fixed types keep their configured pool sizes;
// every other unfixed type gets one processor per task (effectively
// unlimited). It returns the candidate's task start order and its
// maximum lateness max(start − due).
func (s *ShiftBT) relax(g *dag.Graph, procs []int, candidate dag.Type) ([]dag.TaskID, int64, error) {
	s.edd.candidate, s.edd.starts = candidate, s.edd.starts[:0]
	if _, err := sim.Run(g, &s.edd, sim.Config{Procs: procs}); err != nil {
		return nil, 0, err
	}
	starts := s.edd.starts
	lateness := int64(math.MinInt64)
	for _, ts := range starts {
		if l := ts.t - s.due[ts.id]; l > lateness {
			lateness = l
		}
	}
	slices.SortFunc(starts, func(a, b taskStart) int {
		if a.t != b.t {
			return cmp.Compare(a.t, b.t)
		}
		return cmp.Compare(a.id, b.id)
	})
	order := make([]dag.TaskID, len(starts))
	for i, ts := range starts {
		order[i] = ts.id
	}
	return order, lateness, nil
}

// Pick implements sim.Scheduler: dispatch in frozen bottleneck order,
// falling back to earliest due date for any task without a rank.
func (s *ShiftBT) Pick(st *sim.State, alpha dag.Type) (dag.TaskID, bool) {
	return s.q.pick(st, alpha, func(id dag.TaskID) float64 {
		if s.rank[id] != math.MaxInt64 {
			return float64(s.rank[id])
		}
		return float64(math.MaxInt32) + float64(s.due[id])
	})
}

// eddSched is the inner policy of ShiftBT's relaxations: fixed types
// dispatch in their frozen order, every other type earliest-due-date
// first. On an unlimited pool every ready task starts at once, so the
// order is immaterial and the queue head is taken. It records when
// each candidate-type task is picked; the relaxation is non-preemptive
// and fault-free, so a picked task starts at that instant.
type eddSched struct {
	due       []int64
	fixedRank [][]int64
	unlimited []bool // per type: one processor per task
	candidate dag.Type
	starts    []taskStart
	q         keyedQueue
}

// taskStart is one candidate-type start in a relaxation.
type taskStart struct {
	t  int64
	id dag.TaskID
}

func (*eddSched) Name() string { return "ShiftBT/EDD-relaxation" }

func (e *eddSched) Prepare(g *dag.Graph, _ sim.Config) error {
	e.q.reset(g.K())
	return nil
}

func (e *eddSched) Pick(st *sim.State, alpha dag.Type) (dag.TaskID, bool) {
	if e.unlimited[alpha] {
		if q := st.Ready(alpha); len(q) > 0 {
			return q[0], true
		}
		return dag.NoTask, false
	}
	var (
		id dag.TaskID
		ok bool
	)
	if ranks := e.fixedRank[alpha]; ranks != nil {
		id, ok = e.q.pick(st, alpha, func(t dag.TaskID) float64 { return float64(ranks[t]) })
	} else {
		id, ok = e.q.pick(st, alpha, func(t dag.TaskID) float64 { return float64(e.due[t]) })
	}
	if ok && alpha == e.candidate {
		e.starts = append(e.starts, taskStart{t: st.Now(), id: id})
	}
	return id, ok
}
