package core

import (
	"fhs/internal/dag"
	"fhs/internal/sim"
)

// LSpan is the longest-remaining-span-first heuristic (Section IV-B):
// when an α-processor frees up, it runs the ready α-task whose
// remaining span (its own remaining work plus the longest span among
// its children) is largest. On homogeneous machines this is the
// classic critical-path rule, optimal for out-trees (Hu 1961); the
// paper notes it loses optimality on K-DAGs.
type LSpan struct {
	spans ranking[int64] // per-type span ranks, longest first
	q     rankQueue
}

// NewLSpan returns the longest-span-first scheduler.
func NewLSpan() *LSpan { return &LSpan{} }

// Name implements sim.Scheduler.
func (*LSpan) Name() string { return "LSpan" }

// Prepare implements sim.Scheduler, ranking the per-task spans.
func (l *LSpan) Prepare(g *dag.Graph, _ sim.Config) error {
	l.spans.compute(g, true, g.TaskSpan)
	l.q.reset(g, 2)
	return nil
}

// Pick implements sim.Scheduler. Under preemption a task may have
// partially executed before returning to the queue; its remaining span
// shrinks by the executed amount, and it moves to the gap slot of its
// remaining span (ranking.gapSlot).
func (l *LSpan) Pick(st *sim.State, alpha dag.Type) (dag.TaskID, bool) {
	return l.q.pick(st, alpha, func(id dag.TaskID) (int32, int64) {
		left := l.spans.keys[id] - st.Executed(id)
		if left == l.spans.keys[id] {
			return 2*l.spans.rank[id] + 1, -left
		}
		return l.spans.gapSlot(alpha, left), -left
	})
}
