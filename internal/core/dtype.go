package core

import (
	"fhs/internal/dag"
	"fhs/internal/sim"
)

// DType is the different-type-first heuristic (Section IV-B): it runs
// the ready task with the smallest different-child distance — the
// shortest edge count to any descendant of a different type. Tasks
// that gate other resource types get priority, which promotes
// interleaving without measuring how much foreign work is unlocked.
// Tasks with no different-type descendant sort last.
type DType struct {
	dist []int32
	q    keyedQueue
}

// NewDType returns the different-type-first scheduler.
func NewDType() *DType { return &DType{} }

// Name implements sim.Scheduler.
func (*DType) Name() string { return "DType" }

// Prepare implements sim.Scheduler. The distances come from the
// graph's shared memo (computed once per graph, read-only here).
func (d *DType) Prepare(g *dag.Graph, _ sim.Config) error {
	d.dist = g.SharedDifferentTypeDistances()
	d.q.reset(g.K())
	return nil
}

// Pick implements sim.Scheduler.
func (d *DType) Pick(st *sim.State, alpha dag.Type) (dag.TaskID, bool) {
	return d.q.pick(st, alpha, func(id dag.TaskID) float64 { return float64(d.dist[id]) })
}
