package sim

import (
	"math/bits"

	"fhs/internal/dag"
)

// radixEntry is one task in a RadixHeap, keyed by a time.
type radixEntry struct {
	t  int64
	id dag.TaskID
}

// RadixHeap is a monotone radix heap of task IDs keyed by time (Ahuja,
// Mehlhorn, Orlin and Tarjan, "Faster algorithms for the shortest path
// problem", JACM 1990). It is exact for any time range. The
// non-preemptive engine keeps its running tasks in one, keyed by
// finish time; core's ShiftBT drives its relaxations' events through
// one. The zero value is empty.
//
// Bucket i holds the entries whose time first differs from last at bit
// i−1, so bucket 0 holds those keyed exactly at last. A radix heap
// needs every key pushed to be at least the last one popped. The
// engine meets that because a task starts at now ≥ last and has
// positive work.
//
// Only PopAt moves last, and only to a time it pops. Min must not move
// it: a capacity breakpoint can come before the earliest finish, and a
// task started at that breakpoint may then finish before it.
type RadixHeap struct {
	last    int64
	n       int
	buckets [65][]radixEntry
	due     []dag.TaskID // PopAt's result buffer

	// Min's scan of the lowest non-empty bucket, kept for PopAt until
	// the heap changes.
	minOK     bool
	minBucket int
	minTime   int64
}

// minBucket is the capacity a bucket starts with.
const minBucket = 16

// Reset empties the heap, keeping its storage.
func (q *RadixHeap) Reset() {
	q.last, q.n, q.minOK = 0, 0, false
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
	}
}

// Push adds id keyed at t. t must not precede the last popped time.
func (q *RadixHeap) Push(t int64, id dag.TaskID) {
	b := bits.Len64(uint64(t ^ q.last))
	if q.buckets[b] == nil {
		// Skip append's first growth steps on a fresh bucket.
		q.buckets[b] = make([]radixEntry, 0, minBucket)
	}
	q.buckets[b] = append(q.buckets[b], radixEntry{t, id})
	q.n++
	q.minOK = false
}

// first returns the index of the lowest non-empty bucket and its
// earliest time. The heap must not be empty.
func (q *RadixHeap) first() (int, int64) {
	if q.minOK {
		return q.minBucket, q.minTime
	}
	i := 0
	for len(q.buckets[i]) == 0 {
		i++
	}
	if i == 0 {
		return 0, q.last
	}
	b := q.buckets[i]
	m := b[0].t
	for _, e := range b[1:] {
		m = min(m, e.t)
	}
	q.minOK, q.minBucket, q.minTime = true, i, m
	return i, m
}

// Min returns the earliest time; ok is false when the heap is empty.
func (q *RadixHeap) Min() (t int64, ok bool) {
	if q.n == 0 {
		return 0, false
	}
	_, t = q.first()
	return t, true
}

// PopAt removes every entry keyed at t and returns their IDs in no
// particular order; callers that need one sort them. t must not be
// after the earliest time. The slice is valid until the next PopAt.
func (q *RadixHeap) PopAt(t int64) []dag.TaskID {
	if q.due == nil {
		q.due = make([]dag.TaskID, 0, minBucket)
	}
	q.due = q.due[:0]
	if q.n == 0 {
		return q.due
	}
	i, m := q.first()
	if m != t {
		return q.due
	}
	q.minOK = false
	if i > 0 {
		// The new last agrees with the old one above bit i−1, so only
		// bucket i's entries change bucket, and all move lower.
		q.last = m
		b := q.buckets[i]
		q.buckets[i] = b[:0]
		for _, e := range b {
			j := bits.Len64(uint64(e.t ^ m))
			q.buckets[j] = append(q.buckets[j], e)
		}
	}
	for _, e := range q.buckets[0] {
		q.due = append(q.due, e.id)
	}
	q.buckets[0] = q.buckets[0][:0]
	q.n -= len(q.due)
	return q.due
}

// removeVictim removes the running alpha-task that a crash kills and
// returns its finish time and ID: the task with the most remaining
// work, which is the latest finish since every task runs from its
// start to completion, ties to the highest ID. At least one alpha-task
// must be running.
func (q *RadixHeap) removeVictim(g *dag.Graph, alpha dag.Type) (int64, dag.TaskID) {
	vb, vi := -1, -1
	var v radixEntry
	for b := range q.buckets {
		for i, e := range q.buckets[b] {
			if g.Task(e.id).Type != alpha {
				continue
			}
			if vb < 0 || e.t > v.t || e.t == v.t && e.id > v.id {
				vb, vi, v = b, i, e
			}
		}
	}
	s := q.buckets[vb]
	s[vi] = s[len(s)-1]
	q.buckets[vb] = s[:len(s)-1]
	q.n--
	q.minOK = false
	return v.t, v.id
}
