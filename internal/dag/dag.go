// Package dag implements the K-DAG job model from He, Liu and Sun,
// "Scheduling Functionally Heterogeneous Systems with Utilization
// Balancing" (IPDPS 2011).
//
// A K-DAG is a directed acyclic graph whose nodes (tasks) each carry a
// resource type α in [0, K) and a positive integer amount of work; an
// α-task may execute only on an α-processor. Edges are precedence
// constraints: a task becomes ready once every parent has completed.
//
// Graphs are built with a Builder and are immutable afterwards, so they
// can be shared freely between concurrent simulations.
package dag

import "fmt"

// Type identifies a resource type (the paper's α). Types are dense
// integers in [0, K). The paper writes types 1..K; we use 0-based
// indices throughout the code and only shift for display.
type Type int

// TaskID identifies a task within one Graph. IDs are dense indices in
// [0, NumTasks), assigned in insertion order by the Builder.
type TaskID int32

// NoTask is the sentinel returned when no task qualifies.
const NoTask TaskID = -1

// Task is one node of a K-DAG.
type Task struct {
	ID    TaskID
	Type  Type
	Work  int64  // execution time on a matching processor; > 0
	Label string // optional human-readable name
}

// Graph is an immutable K-DAG. All slices returned by accessor methods
// are views into internal storage and must not be modified.
type Graph struct {
	k        int
	tasks    []Task
	children [][]TaskID
	parents  [][]TaskID
	topo     []TaskID // a topological order of all tasks
	roots    []TaskID // tasks with no parents, in ID order

	typeCount []int   // tasks per type
	typedWork []int64 // total work per type: T1(J, α)
	totalWork int64   // T1(J)
	spans     []int64 // per-task remaining span (task work + longest chain below)
	span      int64   // critical-path length T∞(J)

	// look memoizes the lookahead quantities of descend.go, computed
	// lazily because only offline schedulers consume them. It contains
	// sync.Onces, which is why Graph values must not be copied (they
	// are passed by pointer everywhere; go vet's copylocks enforces it).
	look lookaheads
}

// K returns the number of resource types the graph was declared with.
// Every task's Type is in [0, K).
func (g *Graph) K() int { return g.k }

// NumTasks returns the number of tasks in the graph.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// Task returns the task with the given ID. It panics if id is out of
// range, mirroring slice indexing.
func (g *Graph) Task(id TaskID) Task { return g.tasks[id] }

// Children returns the direct successors of id.
func (g *Graph) Children(id TaskID) []TaskID { return g.children[id] }

// Parents returns the direct predecessors of id.
func (g *Graph) Parents(id TaskID) []TaskID { return g.parents[id] }

// NumParents returns len(Parents(id)) without allocating.
func (g *Graph) NumParents(id TaskID) int { return len(g.parents[id]) }

// Roots returns the tasks with no parents in ID order. These are the
// tasks ready at time zero.
func (g *Graph) Roots() []TaskID { return g.roots }

// Topo returns a topological order covering every task: parents appear
// before children.
func (g *Graph) Topo() []TaskID { return g.topo }

// TypedWork returns T1(J, α): the total work of all α-tasks.
func (g *Graph) TypedWork(alpha Type) int64 { return g.typedWork[alpha] }

// TotalWork returns T1(J): the total work over all tasks.
func (g *Graph) TotalWork() int64 { return g.totalWork }

// Span returns T∞(J): the total work along the longest precedence
// chain (the critical-path length).
func (g *Graph) Span() int64 { return g.span }

// TaskSpan returns the remaining span of id: its own work plus the
// longest chain of work among its descendants. For a task with no
// children this is just its work.
func (g *Graph) TaskSpan(id TaskID) int64 { return g.spans[id] }

// TypeCount returns how many tasks of each type the graph contains.
// The slice is shared, computed once at Build; callers must not modify
// it.
func (g *Graph) TypeCount() []int { return g.typeCount }

// Validate re-checks the structural invariants of the graph. A Graph
// produced by Builder.Build always validates; the method exists so that
// deserialized or hand-modified graphs can be checked in tests.
func (g *Graph) Validate() error {
	if g.k <= 0 {
		return fmt.Errorf("dag: K = %d, want > 0", g.k)
	}
	if len(g.topo) != len(g.tasks) {
		return fmt.Errorf("dag: topo order covers %d of %d tasks", len(g.topo), len(g.tasks))
	}
	pos := make([]int, len(g.tasks))
	for i, id := range g.topo {
		pos[id] = i
	}
	for i := range g.tasks {
		t := &g.tasks[i]
		if t.ID != TaskID(i) {
			return fmt.Errorf("dag: task at index %d has ID %d", i, t.ID)
		}
		if t.Type < 0 || int(t.Type) >= g.k {
			return fmt.Errorf("dag: task %d has type %d outside [0,%d)", i, t.Type, g.k)
		}
		if t.Work <= 0 {
			return fmt.Errorf("dag: task %d has non-positive work %d", i, t.Work)
		}
		for _, c := range g.children[i] {
			if pos[c] <= pos[t.ID] {
				return fmt.Errorf("dag: edge %d->%d violates topological order", t.ID, c)
			}
		}
	}
	return nil
}

// CriticalPath returns one maximal-work chain of tasks realizing
// Span(). Ties break toward smaller task IDs, so the result is
// deterministic.
func (g *Graph) CriticalPath() []TaskID {
	if len(g.tasks) == 0 {
		return nil
	}
	best := NoTask
	for _, r := range g.roots {
		if best == NoTask || g.spans[r] > g.spans[best] {
			best = r
		}
	}
	var path []TaskID
	for cur := best; cur != NoTask; {
		path = append(path, cur)
		next := NoTask
		for _, c := range g.children[cur] {
			if next == NoTask || g.spans[c] > g.spans[next] {
				next = c
			}
		}
		cur = next
	}
	return path
}
