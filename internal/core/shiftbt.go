package core

import (
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
	// q answers Pick. The relaxations queue through it too, and each
	// leaves it empty.
	q rankQueue

	// Relaxation state, reused across relaxations and jobs.
	fixed  []bool // per type: its order is frozen
	busy   []int  // per type: processors running a task
	tasks  []relaxTask
	events sim.RadixHeap // constrained tasks' ready times (id) and pool frees (^type)
	stack  []dag.TaskID
	ready  []int64 // triggers of the tasks ready at one instant
	// order is the latest relaxation's candidate start order and best
	// the round's best so far; the two swap instead of reallocating.
	order, best []dag.TaskID
}

// NewShiftBT returns the shifting-bottleneck scheduler.
func NewShiftBT() *ShiftBT { return &ShiftBT{} }

// Name implements sim.Scheduler.
func (*ShiftBT) Name() string { return "ShiftBT" }

// Prepare implements sim.Scheduler by running the shifting-bottleneck
// procedure described on the type above.
func (s *ShiftBT) Prepare(g *dag.Graph, cfg sim.Config) error {
	n, k := g.NumTasks(), g.K()
	if len(cfg.Procs) != k {
		return fmt.Errorf("core: ShiftBT: config has %d processor pools, job has K=%d", len(cfg.Procs), k)
	}
	for a, p := range cfg.Procs {
		if p <= 0 {
			return fmt.Errorf("core: ShiftBT: pool %d has %d processors, want > 0", a, p)
		}
	}
	s.q.reset(g, 1)
	s.rank = grow(s.rank, n)
	if n == 0 {
		return nil
	}
	// due = T∞ − span, so the EDD order is the longest-span-first one.
	s.spans.compute(g, true, g.TaskSpan)

	s.fixed, s.busy = grow(s.fixed, k), grow(s.busy, k)
	s.tasks = grow(s.tasks, n)
	nUnfixed := 0
	for a, c := range g.TypeCount() {
		// A type without tasks counts as fixed: it has nothing to order.
		s.fixed[a] = c == 0
		if !s.fixed[a] {
			nUnfixed++
		}
	}
	for ; nUnfixed > 0; nUnfixed-- {
		bestType := -1
		var bestLateness int64
		for a := 0; a < k; a++ {
			if s.fixed[a] {
				continue
			}
			lateness := s.relax(g, cfg.Procs, dag.Type(a))
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
		s.fixed[bestType] = true
	}
	return nil
}

// relax computes the EDD relaxation for candidate on procs: the
// candidate and the fixed types keep their pools, and every other type
// is unlimited. It leaves the candidate's start order, by (start, ID),
// in s.order and returns its maximum lateness max(start − due).
//
// It schedules as the non-preemptive engine would, without running
// it. An unlimited task starts once its parents have finished, so
// release settles it then and it never waits. The other tasks wait in
// s.q, in the order the engine's ReadySeq gives them: roots first, in
// Roots order, then by (ready time, trigger). Each pick takes the
// lowest slot: the frozen rank on a fixed type, the span rank on the
// candidate.
func (s *ShiftBT) relax(g *dag.Graph, procs []int, candidate dag.Type) int64 {
	clear(s.busy)
	for i := range s.tasks {
		t := g.Task(dag.TaskID(i))
		s.tasks[i] = relaxTask{work: t.Work, pending: int32(g.NumParents(t.ID)), free: t.Type != candidate && !s.fixed[t.Type]}
	}
	s.events.Reset()
	s.order = s.order[:0]
	for _, r := range g.Roots() {
		if s.tasks[r].free {
			s.release(g, r)
		} else {
			s.enqueue(g, r)
		}
	}
	span := g.Span()
	lateness := int64(math.MinInt64)
	for now := int64(0); ; {
		for a := 0; a < g.K(); a++ {
			alpha := dag.Type(a)
			if alpha != candidate && !s.fixed[a] {
				continue // unlimited
			}
			from := len(s.order)
			for s.busy[a] < procs[a] {
				id, ok := s.q.pop(alpha)
				if !ok {
					break
				}
				s.busy[a]++
				s.tasks[id].at = now
				s.events.Push(now+s.tasks[id].work, ^dag.TaskID(a))
				s.release(g, id)
				if alpha == candidate {
					lateness = max(lateness, now-(span-g.TaskSpan(id)))
					s.order = append(s.order, id)
				}
			}
			if alpha == candidate {
				slices.Sort(s.order[from:])
			}
		}
		t, ok := s.events.Min()
		if !ok {
			return lateness
		}
		now = t
		s.ready = s.ready[:0]
		for _, e := range s.events.PopAt(t) {
			if e < 0 {
				s.busy[^e]--
			} else {
				s.ready = append(s.ready, s.tasks[e].trigger)
			}
		}
		slices.Sort(s.ready)
		for _, trig := range s.ready {
			s.enqueue(g, g.Children(dag.TaskID(trig >> 32))[uint32(trig)])
		}
	}
}

// enqueue queues a constrained task that is ready now, behind every
// task that became ready before it.
func (s *ShiftBT) enqueue(g *dag.Graph, id dag.TaskID) {
	alpha := g.Task(id).Type
	slot := s.spans.rank[id]
	if s.fixed[alpha] {
		slot = s.rank[id]
	}
	s.q.append(alpha, int(slot), id)
}

// release passes the finish of id, which has started, to its children.
// A child whose parents have all finished is ready at the latest of
// their finishes. An unlimited child starts then, so it is released in
// turn; a constrained one becomes a ready event.
func (s *ShiftBT) release(g *dag.Graph, id dag.TaskID) {
	stack := append(s.stack[:0], id)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		f := s.tasks[p].at + s.tasks[p].work
		for i, c := range g.Children(p) {
			// The engine retires a finishing instant's tasks in ID
			// order, so it readies c from the highest-ID parent
			// finishing last, in that parent's Children order.
			t := &s.tasks[c]
			if trig := int64(p)<<32 | int64(i); f > t.at || f == t.at && trig > t.trigger {
				t.at, t.trigger = f, trig
			}
			t.pending--
			if t.pending > 0 {
				continue
			}
			if t.free {
				stack = append(stack, c)
			} else {
				s.events.Push(t.at, c)
			}
		}
	}
	s.stack = stack
}

// relaxTask is one task's state in a relaxation.
type relaxTask struct {
	// at is the task's start once it has started, and before that the
	// latest finish among its parents so far.
	at int64
	// trigger names the parent the engine readies the task from:
	// parent<<32 | the task's index in that parent's Children.
	trigger int64
	work    int64
	pending int32 // parents not yet finished
	free    bool  // on an unlimited pool
}

// Pick implements sim.Scheduler: dispatch in frozen bottleneck order.
func (s *ShiftBT) Pick(st *sim.State, alpha dag.Type) (dag.TaskID, bool) {
	return s.q.pick(st, alpha, func(id dag.TaskID) (int32, int64) { return s.rank[id], 0 })
}
