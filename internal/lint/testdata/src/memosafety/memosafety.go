// Package memosafety is an analysistest fixture: each // want line
// seeds a mutation of a shared memoized slice (the contract of
// dag.Graph's Shared* accessors) that the memosafety analyzer must
// catch. The local Graph type stands in for dag.Graph: matching is by
// accessor method name.
package memosafety

import "sort"

type Graph struct{}

func (g *Graph) SharedDescendantValues() []float64        { return nil }
func (g *Graph) SharedTypedDescendantValues() [][]float64 { return nil }
func (g *Graph) SharedDifferentTypeDistances() []int32    { return nil }
func (g *Graph) SharedTypedDescendantClasses() []int32    { return nil }
func (g *Graph) TypeCount() []int                         { return nil }

func mutateDirect(g *Graph) {
	d := g.SharedDescendantValues()
	d[0] = 1             // want `write into shared memoized slice from SharedDescendantValues`
	sort.Float64s(d)     // want `in-place sort\.Float64s of shared memoized slice`
	_ = append(d, 2)     // want `append reusing shared memoized slice`
	copy(d, []float64{}) // want `copy into shared memoized slice`
}

func mutateRow(g *Graph) {
	typed := g.SharedTypedDescendantValues()
	row := typed[0]
	row[1] = 3    // want `write into shared memoized slice`
	typed[2][0]++ // want `write into shared memoized slice`
}

func mutateAlias(g *Graph) {
	d := g.SharedDifferentTypeDistances()
	alias := d
	alias[0] = 7 // want `write into shared memoized slice`
}

func mutateClasses(g *Graph) {
	class := g.SharedTypedDescendantClasses()
	class[0] = 1         // want `write into shared memoized slice from SharedTypedDescendantClasses`
	_ = append(class, 2) // want `append reusing shared memoized slice`
}

func mutateCounts(g *Graph) {
	counts := g.TypeCount()
	counts[0]--           // want `write into shared memoized slice from TypeCount`
	_ = append(counts, 1) // want `append reusing shared memoized slice`
}

func mutateUnbound(g *Graph) {
	sort.Float64s(g.SharedDescendantValues()) // want `in-place sort\.Float64s of shared memoized slice`
}

// copyFirst is the documented contract: callers that perturb values
// copy first, so nothing below is flagged.
func copyFirst(g *Graph) []float64 {
	own := append([]float64(nil), g.SharedDescendantValues()...)
	own[0] = 1
	sort.Float64s(own)
	return own
}

// readOnly consumption of shared slices is of course fine.
func readOnly(g *Graph) float64 {
	d := g.SharedDescendantValues()
	var sum float64
	for _, v := range d {
		sum += v
	}
	return sum
}
