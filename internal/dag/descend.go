package dag

import (
	"math"
	"sync"
)

// This file computes the per-task lookahead quantities the paper's
// offline heuristics consume:
//
//   - scalar descendant values (MaxDP),
//   - typed descendant values dα(v) (MQB),
//   - one-step typed descendant values (MQB+1Step),
//   - different-type-child distance (DType),
//   - descendant classes of tasks MQB cannot tell apart.
//
// All are derived once per graph in a single reverse-topological pass
// and returned as plain slices indexed by TaskID, so schedulers can
// keep their own (possibly perturbed) copies.
//
// Because graphs are immutable and the experiment harness runs many
// schedulers over the same job — six per instance in the main figures,
// six MQB variants in Figure 8 — every quantity is also available
// memoized per (graph, lookahead) through the Shared* methods below:
// the first caller computes, everyone after reads. The memoized slices
// are owned by the graph and MUST NOT be modified; callers that
// perturb values (MQB+Exp/Noise) copy first.

// lookaheads memoizes the per-graph lookahead quantities. It lives
// inside Graph, so the cache's lifetime is exactly the graph's and a
// 5000-instance campaign never recomputes a quantity for a job it
// already prepared once.
type lookaheads struct {
	typedOnce   sync.Once
	typed       [][]float64
	oneStepOnce sync.Once
	oneStep     [][]float64
	scalarOnce  sync.Once
	scalar      []float64
	distOnce    sync.Once
	dist        []int32

	typedClassOnce   sync.Once
	typedClass       []int32
	oneStepClassOnce sync.Once
	oneStepClass     []int32
}

// SharedTypedDescendantValues returns the memoized
// TypedDescendantValues result. The returned slices are shared: they
// must not be modified. Safe for concurrent use.
func (g *Graph) SharedTypedDescendantValues() [][]float64 {
	g.look.typedOnce.Do(func() { g.look.typed = TypedDescendantValues(g) })
	return g.look.typed
}

// SharedOneStepTypedDescendantValues returns the memoized
// OneStepTypedDescendantValues result. The returned slices are shared:
// they must not be modified. Safe for concurrent use.
func (g *Graph) SharedOneStepTypedDescendantValues() [][]float64 {
	g.look.oneStepOnce.Do(func() { g.look.oneStep = OneStepTypedDescendantValues(g) })
	return g.look.oneStep
}

// SharedTypedDescendantClasses returns the memoized DescendantClasses
// of SharedTypedDescendantValues. The returned slice is shared: it must
// not be modified. Safe for concurrent use.
func (g *Graph) SharedTypedDescendantClasses() []int32 {
	g.look.typedClassOnce.Do(func() {
		g.look.typedClass = DescendantClasses(g, g.SharedTypedDescendantValues())
	})
	return g.look.typedClass
}

// SharedOneStepTypedDescendantClasses returns the memoized
// DescendantClasses of SharedOneStepTypedDescendantValues. The returned
// slice is shared: it must not be modified. Safe for concurrent use.
func (g *Graph) SharedOneStepTypedDescendantClasses() []int32 {
	g.look.oneStepClassOnce.Do(func() {
		g.look.oneStepClass = DescendantClasses(g, g.SharedOneStepTypedDescendantValues())
	})
	return g.look.oneStepClass
}

// SharedDescendantValues returns the memoized DescendantValues result.
// The returned slice is shared: it must not be modified. Safe for
// concurrent use.
func (g *Graph) SharedDescendantValues() []float64 {
	g.look.scalarOnce.Do(func() { g.look.scalar = DescendantValues(g) })
	return g.look.scalar
}

// SharedDifferentTypeDistances returns the memoized
// DifferentTypeDistances result. The returned slice is shared: it must
// not be modified. Safe for concurrent use.
func (g *Graph) SharedDifferentTypeDistances() []int32 {
	g.look.distOnce.Do(func() { g.look.dist = DifferentTypeDistances(g) })
	return g.look.dist
}

// DescendantValues returns the scalar descendant value used by MaxDP:
//
//	d(v) = Σ_{u ∈ children(v)} (d(u) + w(u)) / pr(u)
//
// where pr(u) is u's parent count and w(u) its work. A childless task
// has value 0. Each task shares its subtree weight equally among its
// parents, so the values sum sensibly over DAGs with joins.
func DescendantValues(g *Graph) []float64 {
	d := make([]float64, g.NumTasks())
	topo := g.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		var sum float64
		for _, u := range g.Children(v) {
			share := (d[u] + float64(g.Task(u).Work)) / float64(g.NumParents(u))
			sum += share
		}
		d[v] = sum
	}
	return d
}

// TypedDescendantValues returns the MQB descendant values dα(v) for
// every task and type:
//
//	dα(v) = Σ_{u ∈ children(v)} (dα(u) + wα(u)) / pr(u)
//
// where wα(u) is u's work if u is an α-task and 0 otherwise. The result
// is indexed as [TaskID][Type].
func TypedDescendantValues(g *Graph) [][]float64 {
	k := g.K()
	d := make([][]float64, g.NumTasks())
	flat := make([]float64, g.NumTasks()*k)
	for i := range d {
		d[i], flat = flat[:k:k], flat[k:]
	}
	topo := g.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		row := d[v]
		for _, u := range g.Children(v) {
			inv := 1 / float64(g.NumParents(u))
			childRow := d[u]
			for a := 0; a < k; a++ {
				row[a] += childRow[a] * inv
			}
			row[g.Task(u).Type] += float64(g.Task(u).Work) * inv
		}
	}
	return d
}

// OneStepTypedDescendantValues is the MQB+1Step restriction of
// TypedDescendantValues: only immediate children contribute, i.e.
//
//	dα(v) = Σ_{u ∈ children(v)} wα(u) / pr(u)
func OneStepTypedDescendantValues(g *Graph) [][]float64 {
	k := g.K()
	d := make([][]float64, g.NumTasks())
	flat := make([]float64, g.NumTasks()*k)
	for i := range d {
		d[i], flat = flat[:k:k], flat[k:]
	}
	for v := 0; v < g.NumTasks(); v++ {
		row := d[v]
		for _, u := range g.Children(TaskID(v)) {
			row[g.Task(u).Type] += float64(g.Task(u).Work) / float64(g.NumParents(u))
		}
	}
	return d
}

// DescendantClasses partitions the tasks by what MQB sees of them
// before they run: two tasks share a class exactly when they have the
// same type, the same work and bit-identical rows in rows, a
// [TaskID][Type] table such as TypedDescendantValues. Class IDs are dense,
// numbered in order of each class's lowest TaskID, so class(v) ≤ v.
//
// A task is ready in one queue only, and MQB's snapshot for it depends
// on its row, its type and its remaining work alone, so at full work
// the members of a class produce bit-equal snapshots.
func DescendantClasses(g *Graph, rows [][]float64) []int32 {
	same := func(u, v int) bool {
		if g.tasks[u].Type != g.tasks[v].Type || g.tasks[u].Work != g.tasks[v].Work {
			return false
		}
		for a, x := range rows[u] {
			if math.Float64bits(x) != math.Float64bits(rows[v][a]) {
				return false
			}
		}
		return true
	}
	class := make([]int32, g.NumTasks())
	// rep[c] is class c's lowest task; prev[c] the class found before c
	// under the same hash, or -1. Collisions are resolved by comparing
	// with each representative, so the hash only affects speed.
	var rep, prev []int
	latest := make(map[uint64]int32, len(class))
	for v := range class {
		t := &g.tasks[v]
		h := mix(mix(0, uint64(t.Type)), uint64(t.Work))
		for _, x := range rows[v] {
			h = mix(h, math.Float64bits(x))
		}
		c, ok := latest[h]
		for ok && !same(rep[c], v) {
			ok = prev[c] >= 0
			c = int32(prev[c])
		}
		if !ok {
			c = int32(len(rep))
			rep = append(rep, v)
			if p, seen := latest[h]; seen {
				prev = append(prev, int(p))
			} else {
				prev = append(prev, -1)
			}
			latest[h] = c
		}
		class[v] = c
	}
	return class
}

// mix folds x into the running hash h.
func mix(h, x uint64) uint64 {
	h = (h ^ x) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// InfDistance marks "no different-type descendant reachable" in the
// result of DifferentTypeDistances.
const InfDistance = int32(1) << 30

// DifferentTypeDistances returns, for each task v, the number of edges
// on the shortest path from v to any descendant whose type differs from
// v's type. A direct child of a different type gives distance 1. Tasks
// with no different-type descendant get InfDistance. DType prioritizes
// small distances.
func DifferentTypeDistances(g *Graph) []int32 {
	n := g.NumTasks()
	dist := make([]int32, n)
	// down[v] memoizes, per starting type t, the shortest edge count
	// from v to a task of type != t. Because the comparison type is the
	// *ancestor's* type, a naive formulation is per (task, type); but we
	// only ever query pairs (v, type(v)), and the recurrence
	//   dist(v) = min over children c of: 1                if type(c) != type(v)
	//                                     1 + dist(c)      if type(c) == type(v)
	// is self-contained, because when type(c) == type(v) the child's own
	// query uses the same comparison type.
	topo := g.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		best := InfDistance
		tv := g.Task(v).Type
		for _, c := range g.Children(v) {
			var cand int32
			if g.Task(c).Type != tv {
				cand = 1
			} else if dist[c] >= InfDistance {
				continue
			} else {
				cand = 1 + dist[c]
			}
			if cand < best {
				best = cand
			}
		}
		dist[v] = best
	}
	return dist
}
