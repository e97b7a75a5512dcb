package sim

// HeapElem constrains a heap element type to order itself: Less
// reports whether the receiver sorts strictly before the argument.
// Implementations must be total orders with deterministic tie-breaks
// (the engines break ties on task identity) so heap contents, and
// therefore event order, never depend on insertion history alone.
type HeapElem[T any] interface{ Less(T) bool }

// Heap is a concrete min-heap on a slice of self-ordering elements.
// It backs the service's run queue; the non-preemptive engine keeps
// its running tasks in a RadixHeap instead (runqueue.go), and core's
// keyed schedulers pick from rank queues. Heap replicates container/heap's
// sift algorithms on the concrete element type: going through
// heap.Interface boxes every entry into an interface value, one
// allocation per push. Monomorphization keeps Push/Pop
// allocation-free, and the swap-then-fix Remove keeps internal
// ordering bit-identical to container/heap.Remove.
//
// The zero value is an empty heap. h[0] is the minimum.
type Heap[T HeapElem[T]] []T

// Push adds x, restoring the heap invariant.
func (h *Heap[T]) Push(x T) {
	*h = append(*h, x)
	h.up(len(*h) - 1)
}

// Pop removes and returns the minimum element.
func (h *Heap[T]) Pop() T {
	old := *h
	n := len(old) - 1
	x := old[0]
	old[0], old[n] = old[n], old[0]
	*h = old[:n]
	if n > 0 {
		(*h).down(0)
	}
	return x
}

// Remove deletes and returns the element at index i, restoring the
// heap invariant (container/heap.Remove's swap-then-fix algorithm).
func (h *Heap[T]) Remove(i int) T {
	old := *h
	n := len(old) - 1
	x := old[i]
	if i != n {
		old[i], old[n] = old[n], old[i]
		*h = old[:n]
		if !(*h).down(i) {
			(*h).up(i)
		}
	} else {
		*h = old[:n]
	}
	return x
}

func (h Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].Less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// down sifts index i toward the leaves, reporting whether it moved.
func (h Heap[T]) down(i int) bool {
	i0 := i
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && h[r].Less(h[l]) {
			min = r
		}
		if !h[min].Less(h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return i > i0
}
