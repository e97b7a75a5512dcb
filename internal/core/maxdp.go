package core

import (
	"fhs/internal/dag"
	"fhs/internal/sim"
)

// MaxDP is the maximum-descendants-first heuristic (Section IV-B):
// it runs the ready task with the largest scalar descendant value,
// where a task with pr(u) parents contributes 1/pr(u) of its own
// descendant value plus 1/pr(u) of its own work to each parent. The
// descendant calculation is the same recursion MQB uses, but summed
// over all types — MaxDP does not differentiate the type distribution
// of the descendants, which is why the paper finds it weak on EP
// workloads.
type MaxDP struct {
	desc []float64
	q    keyedQueue
}

// NewMaxDP returns the maximum-descendants-first scheduler.
func NewMaxDP() *MaxDP { return &MaxDP{} }

// Name implements sim.Scheduler.
func (*MaxDP) Name() string { return "MaxDP" }

// Prepare implements sim.Scheduler. The descendant values come from
// the graph's shared memo (computed once per graph, read-only here).
func (m *MaxDP) Prepare(g *dag.Graph, _ sim.Config) error {
	m.desc = g.SharedDescendantValues()
	m.q.reset(g.K())
	return nil
}

// Pick implements sim.Scheduler.
func (m *MaxDP) Pick(st *sim.State, alpha dag.Type) (dag.TaskID, bool) {
	return m.q.pick(st, alpha, func(id dag.TaskID) float64 { return -m.desc[id] })
}
