package core

import (
	"math"

	"fhs/internal/dag"
)

// Balance selects how MQB compares two candidate queue snapshots.
// The paper's rule is BalanceLex; the alternatives exist for ablation
// studies of that design choice (see bench_test.go).
type Balance int

const (
	// BalanceLex is the paper's rule: sort the x-utilizations rα
	// ascending and compare lexicographically, larger first-difference
	// wins. Raising the smallest queue dominates; ties cascade to the
	// next-smallest.
	BalanceLex Balance = iota
	// BalanceMinOnly compares only the smallest x-utilization — the
	// ablated rule without the lexicographic cascade.
	BalanceMinOnly
	// BalanceSum compares the total queued work Σ rα — a rule that
	// measures activation volume but ignores balance entirely.
	BalanceSum
)

func (b Balance) String() string {
	switch b {
	case BalanceMinOnly:
		return "MinOnly"
	case BalanceSum:
		return "Sum"
	default:
		return "Lex"
	}
}

// Balancer is MQB's balance rule (Section IV-A), the one kernel both
// the batch scheduler (MQB.Pick) and the online service core pick
// with. A pick fills in the queued work and pool sizes (Reset), then
// offers its candidates in its own order (Offer), saying per offer
// whether an equal snapshot wins. The zero value uses the paper's
// lexicographic rule.
type Balancer struct {
	// Rule selects the snapshot comparison.
	Rule Balance

	base, procs []float64 // per type: queued work, pool size
	cand, best  []float64 // snapshot scratch; the incumbent's, sorted under Lex
	score       float64   // the incumbent's scalar score (MinOnly, Sum)
	has         bool      // whether an incumbent exists
}

// Reset starts a pick over k types and returns the queued-work and
// pool-size slices for the caller to fill in.
func (b *Balancer) Reset(k int) (base, procs []float64) {
	if cap(b.base) < k {
		b.base, b.procs = make([]float64, k), make([]float64, k)
		b.cand, b.best = make([]float64, k), make([]float64, k)
	}
	b.base, b.procs = b.base[:k], b.procs[:k]
	b.cand, b.best = b.cand[:k], b.best[:k]
	b.has = false
	return b.base, b.procs
}

// Offer scores one candidate's snapshot, the x-utilizations work/procs
// once the candidate (rem work left) has left the alpha queue and its
// descendant row has joined every queue, and reports whether it became
// the incumbent: the first offer always does, a later one when it
// beats the incumbent's snapshot, or equals it and winTies is set. A
// pool with no processors (fault timelines can crash one) scores +Inf
// for pending work and 0 otherwise, never NaN.
func (b *Balancer) Offer(alpha dag.Type, row []float64, rem float64, winTies bool) bool {
	base, procs, cand := b.base, b.procs, b.cand
	for a := range cand {
		work := base[a] + row[a]
		if dag.Type(a) == alpha {
			work -= rem
		}
		if procs[a] > 0 {
			cand[a] = work / procs[a]
		} else if work > 0 {
			cand[a] = math.Inf(1)
		} else {
			cand[a] = 0
		}
	}
	if b.Rule == BalanceLex {
		if !b.has {
			selectionSort(cand)
		} else if !sortBeats(cand, b.best, winTies) {
			return false
		}
		b.best, b.cand = cand, b.best
		b.has = true
		return true
	}
	score := cand[0] // MinOnly keeps the smallest, Sum the total
	for _, v := range cand[1:] {
		if b.Rule == BalanceSum {
			score += v
		} else if v < score {
			score = v
		}
	}
	if b.has && !(score > b.score || (score == b.score && winTies)) {
		return false
	}
	b.score, b.has = score, true
	return true
}

// Score returns the incumbent's score for the decision trace: under
// Lex the smallest x-utilization of its snapshot, the head of the
// lexicographic comparison; otherwise the scalar objective.
func (b *Balancer) Score() float64 {
	if b.Rule == BalanceLex {
		return b.best[0]
	}
	return b.score
}

// sortBeats reports whether cand's balance vector, once sorted
// ascending, lexicographically beats best (which is already sorted):
// at the first differing position the larger value wins — exactly
// metrics.LexLess(best, sorted(cand)). Equal vectors beat only when
// winTies is set. It selection-sorts cand in place one position at a
// time and exits as soon as a position decides the comparison, so a
// candidate losing on the smallest x-utilization — the common case —
// costs one min-scan instead of a full K-sort. When it returns true,
// cand is fully sorted and ready to adopt as the new incumbent; when
// false, cand's tail past the deciding position is unspecified (losing
// vectors are discarded).
func sortBeats(cand, best []float64, winTies bool) bool {
	for i := range cand {
		min := i
		for j := i + 1; j < len(cand); j++ {
			if cand[j] < cand[min] {
				min = j
			}
		}
		cand[i], cand[min] = cand[min], cand[i]
		if cand[i] != best[i] {
			if cand[i] < best[i] {
				return false
			}
			selectionSort(cand[i+1:])
			return true
		}
	}
	return winTies
}

// selectionSort sorts ascending in place. The balance vectors have
// K ≤ 6 entries in every paper workload, where this beats the stdlib
// sort's dispatch overhead on the engine's hottest loop.
func selectionSort(v []float64) {
	for i := range v {
		min := i
		for j := i + 1; j < len(v); j++ {
			if v[j] < v[min] {
				min = j
			}
		}
		v[i], v[min] = v[min], v[i]
	}
}
