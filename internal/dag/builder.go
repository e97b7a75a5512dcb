package dag

import "fmt"

// Builder incrementally assembles a K-DAG. The zero value is not
// usable; create one with NewBuilder. Builders are not safe for
// concurrent use.
type Builder struct {
	k     int
	tasks []Task
	edges [][2]TaskID
	built bool
}

// NewBuilder returns a builder for a graph with k resource types.
// k must be positive; Build reports the error otherwise.
func NewBuilder(k int) *Builder {
	return &Builder{k: k}
}

// AddTask appends a task of the given type and work and returns its ID.
// Validation of type range and work positivity happens in Build so that
// construction code can stay assignment-only.
func (b *Builder) AddTask(alpha Type, work int64) TaskID {
	return b.AddLabeledTask(alpha, work, "")
}

// AddLabeledTask is AddTask with a human-readable label attached.
func (b *Builder) AddLabeledTask(alpha Type, work int64, label string) TaskID {
	id := TaskID(len(b.tasks))
	b.tasks = append(b.tasks, Task{ID: id, Type: alpha, Work: work, Label: label})
	return id
}

// AddEdge records the precedence constraint from -> to ("to cannot
// start before from completes"). Self-edges and unknown IDs are
// reported by Build.
func (b *Builder) AddEdge(from, to TaskID) {
	b.edges = append(b.edges, [2]TaskID{from, to})
}

// AddChain adds edges linking ids sequentially: ids[0] -> ids[1] -> ...
func (b *Builder) AddChain(ids ...TaskID) {
	for i := 1; i < len(ids); i++ {
		b.AddEdge(ids[i-1], ids[i])
	}
}

// NumTasks returns how many tasks have been added so far.
func (b *Builder) NumTasks() int { return len(b.tasks) }

// Build validates the accumulated tasks and edges and produces an
// immutable Graph. The builder must not be reused afterwards.
func (b *Builder) Build() (*Graph, error) {
	if b.built {
		return nil, fmt.Errorf("dag: Build called twice on the same Builder")
	}
	b.built = true
	if b.k <= 0 {
		return nil, fmt.Errorf("dag: K = %d, want > 0", b.k)
	}
	n := len(b.tasks)
	for i := range b.tasks {
		t := &b.tasks[i]
		if t.Type < 0 || int(t.Type) >= b.k {
			return nil, fmt.Errorf("dag: task %d has type %d outside [0,%d)", i, t.Type, b.k)
		}
		if t.Work <= 0 {
			return nil, fmt.Errorf("dag: task %d has non-positive work %d", i, t.Work)
		}
	}
	// Filter duplicates and count degrees, then cut both directions'
	// lists out of one buffer, each in edge-insertion order.
	seen := make(map[[2]TaskID]bool, len(b.edges))
	edges := b.edges[:0]
	deg := make([]int32, 2*n) // out-degrees, then in-degrees
	for _, e := range b.edges {
		from, to := e[0], e[1]
		if from < 0 || int(from) >= n || to < 0 || int(to) >= n {
			return nil, fmt.Errorf("dag: edge %d->%d references unknown task", from, to)
		}
		if from == to {
			return nil, fmt.Errorf("dag: self-edge on task %d", from)
		}
		if seen[e] {
			continue // tolerate duplicate edges; keep the graph simple
		}
		seen[e] = true
		edges = append(edges, e)
		deg[from]++
		deg[n+int(to)]++
	}
	g := &Graph{
		k:        b.k,
		tasks:    b.tasks,
		children: make([][]TaskID, n),
		parents:  make([][]TaskID, n),
	}
	buf := make([]TaskID, 2*len(edges))
	off := 0
	for i := 0; i < n; i++ {
		g.children[i] = buf[off : off : off+int(deg[i])]
		off += int(deg[i])
	}
	for i := 0; i < n; i++ {
		g.parents[i] = buf[off : off : off+int(deg[n+i])]
		off += int(deg[n+i])
	}
	for _, e := range edges {
		g.children[e[0]] = append(g.children[e[0]], e[1])
		g.parents[e[1]] = append(g.parents[e[1]], e[0])
	}
	if err := g.computeTopo(); err != nil {
		return nil, err
	}
	g.computeAggregates()
	return g, nil
}

// MustBuild is Build for construction code that cannot fail by design
// (generators, tests). It panics on error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// computeTopo fills g.topo and g.roots using Kahn's algorithm, failing
// if the edge set contains a cycle.
func (g *Graph) computeTopo() error {
	n := len(g.tasks)
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		indeg[i] = len(g.parents[i])
	}
	// A FIFO over IDs keeps the order deterministic and roots-first.
	queue := make([]TaskID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, TaskID(i))
		}
	}
	g.roots = append([]TaskID(nil), queue...)
	g.topo = make([]TaskID, 0, n)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		g.topo = append(g.topo, id)
		for _, c := range g.children[id] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(g.topo) != n {
		return fmt.Errorf("dag: graph contains a cycle (%d of %d tasks ordered)", len(g.topo), n)
	}
	return nil
}

// computeAggregates fills the per-type task counts and work totals
// and the span data.
func (g *Graph) computeAggregates() {
	g.typeCount = make([]int, g.k)
	g.typedWork = make([]int64, g.k)
	for i := range g.tasks {
		g.typeCount[g.tasks[i].Type]++
		g.typedWork[g.tasks[i].Type] += g.tasks[i].Work
		g.totalWork += g.tasks[i].Work
	}
	g.spans = make([]int64, len(g.tasks))
	for i := len(g.topo) - 1; i >= 0; i-- {
		id := g.topo[i]
		var below int64
		for _, c := range g.children[id] {
			if g.spans[c] > below {
				below = g.spans[c]
			}
		}
		g.spans[id] = g.tasks[id].Work + below
		if g.spans[id] > g.span {
			g.span = g.spans[id]
		}
	}
}
