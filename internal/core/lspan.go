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
	spans []int64 // static per-task span from dag.Graph
	q     keyedQueue
}

// NewLSpan returns the longest-span-first scheduler.
func NewLSpan() *LSpan { return &LSpan{} }

// Name implements sim.Scheduler.
func (*LSpan) Name() string { return "LSpan" }

// Prepare implements sim.Scheduler, caching the per-task spans.
func (l *LSpan) Prepare(g *dag.Graph, _ sim.Config) error {
	l.spans = make([]int64, g.NumTasks())
	for i := 0; i < g.NumTasks(); i++ {
		l.spans[i] = g.TaskSpan(dag.TaskID(i))
	}
	l.q.reset(g.K())
	return nil
}

// Pick implements sim.Scheduler. Under preemption a task may have
// partially executed before returning to the queue; its remaining span
// shrinks by the executed amount.
func (l *LSpan) Pick(st *sim.State, alpha dag.Type) (dag.TaskID, bool) {
	return l.q.pick(st, alpha, func(id dag.TaskID) float64 {
		return -float64(l.spans[id] - st.Executed(id))
	})
}
