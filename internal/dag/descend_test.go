package dag

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}

func TestDescendantValuesChain(t *testing.T) {
	// Chain of unit tasks: descendant value of position i is n-1-i.
	g := chain(t, 2, 0, 1, 0, 1)
	d := DescendantValues(g)
	want := []float64{3, 2, 1, 0}
	for i := range want {
		if !almostEqual(d[i], want[i]) {
			t.Errorf("d[%d] = %g, want %g", i, d[i], want[i])
		}
	}
}

func TestDescendantValuesDiamondSharesAcrossParents(t *testing.T) {
	g := diamond(t) // a(w1) -> b(w2), c(w3); b,c -> d(w4)
	d := DescendantValues(g)
	// d has no children: 0. b and c each get (0+4)/2 = 2 from d.
	// a gets (2+2)/1 + (2+3)/1 = 9.
	if !almostEqual(d[3], 0) {
		t.Errorf("d[d] = %g, want 0", d[3])
	}
	if !almostEqual(d[1], 2) || !almostEqual(d[2], 2) {
		t.Errorf("d[b],d[c] = %g,%g, want 2,2", d[1], d[2])
	}
	if !almostEqual(d[0], 9) {
		t.Errorf("d[a] = %g, want 9", d[0])
	}
}

func TestTypedDescendantValuesChain(t *testing.T) {
	g := chain(t, 3, 0, 1, 2) // unit work
	d := TypedDescendantValues(g)
	// Task 0: descendants are task1 (type1) and task2 (type2).
	if !almostEqual(d[0][0], 0) || !almostEqual(d[0][1], 1) || !almostEqual(d[0][2], 1) {
		t.Errorf("d[0] = %v, want [0 1 1]", d[0])
	}
	if !almostEqual(d[1][2], 1) || !almostEqual(d[1][0], 0) || !almostEqual(d[1][1], 0) {
		t.Errorf("d[1] = %v, want [0 0 1]", d[1])
	}
	for a := 0; a < 3; a++ {
		if !almostEqual(d[2][a], 0) {
			t.Errorf("d[2][%d] = %g, want 0", a, d[2][a])
		}
	}
}

func TestTypedDescendantValuesSumEqualsScalar(t *testing.T) {
	// Summing typed descendant values over types must reproduce the
	// scalar MaxDP descendant value: the recursions are identical
	// except for the type split.
	f := func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		scalar := DescendantValues(g)
		typed := TypedDescendantValues(g)
		for i := range scalar {
			var sum float64
			for a := 0; a < g.K(); a++ {
				sum += typed[i][a]
			}
			if math.Abs(sum-scalar[i]) > 1e-6*(1+math.Abs(scalar[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOneStepTypedDescendants(t *testing.T) {
	g := diamond(t) // a -> b(t1,w2), c(t1,w3); b,c -> d(t0,w4)
	d := OneStepTypedDescendantValues(g)
	// a's immediate children: b (type1, work2, 1 parent), c (type1, work3).
	if !almostEqual(d[0][0], 0) || !almostEqual(d[0][1], 5) {
		t.Errorf("d[a] = %v, want [0 5]", d[0])
	}
	// b's immediate child: d (type0, work4, 2 parents) -> 2.
	if !almostEqual(d[1][0], 2) || !almostEqual(d[1][1], 0) {
		t.Errorf("d[b] = %v, want [2 0]", d[1])
	}
}

func TestOneStepNeverExceedsFull(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		full := TypedDescendantValues(g)
		one := OneStepTypedDescendantValues(g)
		for i := range full {
			for a := 0; a < g.K(); a++ {
				if one[i][a] > full[i][a]+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDifferentTypeDistancesChain(t *testing.T) {
	// Types 0,0,1: task0 reaches a type-1 descendant in 2 hops via
	// task1, task1 in 1 hop, task2 has none.
	g := chain(t, 2, 0, 0, 1)
	d := DifferentTypeDistances(g)
	if d[0] != 2 || d[1] != 1 || d[2] != InfDistance {
		t.Errorf("distances = %v, want [2 1 inf]", d)
	}
}

func TestDifferentTypeDistancesPrefersShortBranch(t *testing.T) {
	// Root (type 0) has a type-1 child and a type-0 child with a
	// deeper type-1 grandchild: distance must be 1.
	b := NewBuilder(2)
	r := b.AddTask(0, 1)
	x := b.AddTask(1, 1)
	y := b.AddTask(0, 1)
	z := b.AddTask(1, 1)
	b.AddEdge(r, x)
	b.AddEdge(r, y)
	b.AddEdge(y, z)
	g := b.MustBuild()
	d := DifferentTypeDistances(g)
	if d[r] != 1 {
		t.Errorf("d[root] = %d, want 1", d[r])
	}
	if d[y] != 1 {
		t.Errorf("d[y] = %d, want 1", d[y])
	}
}

func TestDifferentTypeDistancesAllSameType(t *testing.T) {
	g := chain(t, 2, 0, 0, 0, 0)
	for i, v := range DifferentTypeDistances(g) {
		if v != InfDistance {
			t.Errorf("d[%d] = %d, want InfDistance", i, v)
		}
	}
}

func TestPropertyDistanceOneIffDifferentTypedChild(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		d := DifferentTypeDistances(g)
		for i := 0; i < g.NumTasks(); i++ {
			id := TaskID(i)
			has := false
			for _, c := range g.Children(id) {
				if g.Task(c).Type != g.Task(id).Type {
					has = true
					break
				}
			}
			if has != (d[id] == 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyDescendantValueOfLeafIsZero(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		d := DescendantValues(g)
		typed := TypedDescendantValues(g)
		for i := 0; i < g.NumTasks(); i++ {
			if len(g.Children(TaskID(i))) != 0 {
				continue
			}
			if d[i] != 0 {
				return false
			}
			for a := 0; a < g.K(); a++ {
				if typed[i][a] != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyTypedDescendantsBoundedByTypedWork(t *testing.T) {
	// Each task's typed descendant value cannot exceed the total typed
	// work of the graph (every task contributes at most its full work
	// once across all its ancestors).
	f := func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		typed := TypedDescendantValues(g)
		for i := range typed {
			for a := 0; a < g.K(); a++ {
				if typed[i][a] > float64(g.TypedWork(Type(a)))+1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyDescendantClassesExact: two tasks share a class exactly
// when they have the same type, the same work and bit-equal rows, and
// class IDs are dense, numbered in order of each class's lowest task.
func TestPropertyDescendantClassesExact(t *testing.T) {
	shared := 0
	f := func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		for _, rows := range [][][]float64{TypedDescendantValues(g), OneStepTypedDescendantValues(g)} {
			class := DescendantClasses(g, rows)
			next := int32(0)
			for v := range class {
				switch {
				case class[v] == next:
					next++
				case class[v] > next:
					t.Logf("seed %d: task %d has class %d before class %d appeared", seed, v, class[v], next)
					return false
				}
				for u := 0; u < v; u++ {
					tu, tv := g.Task(TaskID(u)), g.Task(TaskID(v))
					same := tu.Type == tv.Type && tu.Work == tv.Work
					for a := range rows[u] {
						same = same && math.Float64bits(rows[u][a]) == math.Float64bits(rows[v][a])
					}
					if same != (class[u] == class[v]) {
						t.Logf("seed %d: tasks %d, %d: same (type, work, row) %v, classes %d, %d",
							seed, u, v, same, class[u], class[v])
						return false
					}
					if same {
						shared++
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if shared == 0 {
		t.Fatal("no two tasks ever shared a class")
	}
}

// TestSharedDescendantClassesMemo: concurrent callers all get the one
// memoized slice, equal to a fresh computation (run with -race).
func TestSharedDescendantClassesMemo(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(5)))
	const callers = 8
	typed := make([][]int32, callers)
	oneStep := make([][]int32, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			typed[i] = g.SharedTypedDescendantClasses()
			oneStep[i] = g.SharedOneStepTypedDescendantClasses()
		}(i)
	}
	wg.Wait()
	for _, c := range []struct {
		name  string
		got   [][]int32
		fresh []int32
	}{
		{"typed", typed, DescendantClasses(g, TypedDescendantValues(g))},
		{"one-step", oneStep, DescendantClasses(g, OneStepTypedDescendantValues(g))},
	} {
		for i, s := range c.got {
			if &s[0] != &c.got[0][0] {
				t.Fatalf("%s: caller %d got a different slice", c.name, i)
			}
		}
		if !slices.Equal(c.got[0], c.fresh) {
			t.Fatalf("%s: memo %v != fresh %v", c.name, c.got[0], c.fresh)
		}
	}
	if &g.SharedTypedDescendantClasses()[0] != &typed[0][0] {
		t.Fatal("a later call recomputed the typed classes")
	}
}
