package service

import (
	"fmt"
	"sort"
	"strings"

	"fhs/internal/dag"
	"fhs/internal/metrics"
)

// Cand is one ready task offered to a picker, after the admission
// stages (priority class, fair share) have filtered the queue. Cands
// arrive in queue (readiness) order; JobIdx is the owning job's
// admission index. Desc is the task's typed descendant row, shared
// with the job's graph — read-only.
type Cand struct {
	JobIdx int64
	Task   dag.TaskID
	Work   int64
	Desc   []float64
}

// View is the machine state a picker may consult: live queued work per
// pool and the (fixed) pool sizes. Slices are views — read-only.
type View struct {
	QueueWork []int64
	Procs     []int
}

// Picker chooses which candidate a freed α-processor runs. Pick
// returns an index into cands plus the pick's score for the decision
// trace (0 when the policy has no meaningful score). cands is never
// empty. Pick must be deterministic: same view and candidates, same
// index.
type Picker interface {
	Name() string
	Pick(v *View, alpha dag.Type, cands []Cand) (int, float64)
}

// NewPicker resolves a registered scheduler name (case-insensitive).
// The empty name selects MQB, the paper's utilization-balancing rule.
func NewPicker(name string) (Picker, error) {
	switch strings.ToLower(name) {
	case "", "mqb":
		return &MQB{}, nil
	case "kgreedy":
		return KGreedy{}, nil
	default:
		return nil, fmt.Errorf("service: unknown scheduler %q (want MQB or KGreedy)", name)
	}
}

// KGreedy is the online FIFO baseline: run the oldest ready candidate.
type KGreedy struct{}

// Name implements Picker.
func (KGreedy) Name() string { return "KGreedy" }

// Pick implements Picker.
func (KGreedy) Pick(*View, dag.Type, []Cand) (int, float64) { return 0, 0 }

// MQB lifts the paper's utilization balancing online: each candidate
// carries its own job's typed descendant values, and the pool runs the
// candidate whose descendant contribution, added to the live queues,
// best balances the sorted x-utilizations (the max-min comparison of
// core.MQB — keep the lexicographically greatest ascending profile;
// ties keep the oldest candidate).
type MQB struct {
	cand []float64
	best []float64
}

// Name implements Picker.
func (*MQB) Name() string { return "MQB" }

// Pick implements Picker.
func (m *MQB) Pick(v *View, alpha dag.Type, cands []Cand) (int, float64) {
	if len(cands) == 1 {
		return 0, 0
	}
	k := len(v.Procs)
	if cap(m.cand) < k {
		m.cand = make([]float64, k)
		m.best = make([]float64, k)
	}
	m.cand, m.best = m.cand[:k], m.best[:k]
	best := -1
	for i := range cands {
		scoreInto(m.cand, v, alpha, &cands[i])
		if best < 0 || metrics.LexLess(m.best, m.cand) {
			best = i
			m.best, m.cand = m.cand, m.best
		}
	}
	return best, m.best[0]
}

// scoreInto fills profile with the sorted x-utilizations the machine
// would queue if this candidate ran on alpha now.
func scoreInto(profile []float64, v *View, alpha dag.Type, c *Cand) {
	for a := range profile {
		work := float64(v.QueueWork[a]) + c.Desc[a]
		if dag.Type(a) == alpha {
			work -= float64(c.Work)
		}
		profile[a] = work / float64(v.Procs[a])
	}
	sort.Float64s(profile)
}
