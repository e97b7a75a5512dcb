package core

import (
	"fhs/internal/dag"
	"fhs/internal/obs"
	"fhs/internal/sim"
)

// KGreedy is the online greedy scheduler of Section III: K independent
// Graham-style greedy schedulers, one per resource type. Whenever a
// pool has an idle processor and a non-empty ready queue it runs the
// oldest ready task ("executes any Pα of them" — FIFO makes the choice
// deterministic). KGreedy is (K+1)-competitive, which matches the
// online lower bound of Theorem 2 up to lower-order terms.
//
// KGreedy is the only online policy in this package: it uses no job
// information at all, not even task works.
type KGreedy struct {
	// tr streams contested pick decisions on traced runs
	// (sim.Config.Obs); nil otherwise.
	tr *obs.Tracer
}

// NewKGreedy returns the online greedy scheduler.
func NewKGreedy() *KGreedy { return &KGreedy{} }

// Name implements sim.Scheduler.
func (*KGreedy) Name() string { return "KGreedy" }

// Prepare implements sim.Scheduler. KGreedy is online, so it ignores
// the graph entirely; it only latches the run's tracer.
func (k *KGreedy) Prepare(_ *dag.Graph, cfg sim.Config) error {
	k.tr = cfg.Obs
	return nil
}

// Pick implements sim.Scheduler: first-in, first-out per type.
func (k *KGreedy) Pick(st *sim.State, alpha dag.Type) (dag.TaskID, bool) {
	q := st.Ready(alpha)
	if len(q) == 0 {
		return dag.NoTask, false
	}
	if len(q) > 1 && k.tr.Enabled() {
		// Contested pick: FIFO always takes the head, so the recorded
		// score is the head's readiness rank (0). The value of the
		// event is the candidate count — queue pressure at pick time.
		k.tr.Emit(obs.DecisionEv(st.Now(), int64(q[0]), int64(alpha), int64(len(q)), 0))
	}
	return q[0], true
}
