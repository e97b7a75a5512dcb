package sim

import (
	"math/bits"
	"slices"

	"fhs/internal/dag"
)

// runEntry is one task running in the non-preemptive engine.
type runEntry struct {
	finish int64
	start  int64
	id     dag.TaskID
}

// runQueue holds the non-preemptive engine's running tasks: a
// monotone radix heap keyed by finish time (Ahuja, Mehlhorn, Orlin and
// Tarjan, "Faster algorithms for the shortest path problem", JACM
// 1990). It is exact for any work range.
//
// Bucket i holds the entries whose finish time first differs from
// last at bit i−1, so bucket 0 holds those finishing exactly at last.
// A radix heap needs every key pushed to be at least the last one
// extracted. Here that holds because a task starts at now ≥ last and
// has positive work.
//
// Only popDue moves last, and only to a time it retires. next must not
// move it: a capacity breakpoint can come before the earliest finish,
// and a task started at that breakpoint may then finish before it.
type runQueue struct {
	last    int64
	n       int
	buckets [65][]runEntry
	due     []dag.TaskID // popDue's result buffer
}

// minBucket is the capacity a bucket starts with.
const minBucket = 16

// reset empties the queue, keeping its storage.
func (q *runQueue) reset() {
	q.last, q.n = 0, 0
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
	}
}

// push adds a running task. Its finish must not precede the last
// retired time.
func (q *runQueue) push(e runEntry) {
	b := bits.Len64(uint64(e.finish ^ q.last))
	if q.buckets[b] == nil {
		// Skip append's first growth steps on a fresh bucket.
		q.buckets[b] = make([]runEntry, 0, minBucket)
	}
	q.buckets[b] = append(q.buckets[b], e)
	q.n++
}

// first returns the index of the lowest non-empty bucket and its
// earliest finish time. The queue must not be empty.
func (q *runQueue) first() (int, int64) {
	i := 0
	for len(q.buckets[i]) == 0 {
		i++
	}
	if i == 0 {
		return 0, q.last
	}
	b := q.buckets[i]
	m := b[0].finish
	for _, e := range b[1:] {
		m = min(m, e.finish)
	}
	return i, m
}

// next returns the earliest finish time; ok is false when the queue is
// empty.
func (q *runQueue) next() (t int64, ok bool) {
	if q.n == 0 {
		return 0, false
	}
	_, t = q.first()
	return t, true
}

// popDue removes every task finishing at t and returns their IDs in
// ascending order. t must not be after the earliest finish time. Since
// the engine pushes nothing while it retires tasks, this is the order
// a (finish, ID) binary heap would pop them in. The slice is valid
// until the next popDue.
func (q *runQueue) popDue(t int64) []dag.TaskID {
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
	if i > 0 {
		// The new last agrees with the old one above bit i−1, so only
		// bucket i's entries change bucket, and all move lower.
		q.last = m
		b := q.buckets[i]
		q.buckets[i] = b[:0]
		for _, e := range b {
			j := bits.Len64(uint64(e.finish ^ m))
			q.buckets[j] = append(q.buckets[j], e)
		}
	}
	for _, e := range q.buckets[0] {
		q.due = append(q.due, e.id)
	}
	q.buckets[0] = q.buckets[0][:0]
	q.n -= len(q.due)
	slices.Sort(q.due)
	return q.due
}

// removeVictim removes and returns the running alpha-task that a
// crash kills: the one with the most remaining work, which is the
// latest finish since every task runs from its start to completion,
// ties to the highest ID. At least one alpha-task must be running.
func (q *runQueue) removeVictim(g *dag.Graph, alpha dag.Type) runEntry {
	vb, vi := -1, -1
	var v runEntry
	for b := range q.buckets {
		for i, e := range q.buckets[b] {
			if g.Task(e.id).Type != alpha {
				continue
			}
			if vb < 0 || e.finish > v.finish || e.finish == v.finish && e.id > v.id {
				vb, vi, v = b, i, e
			}
		}
	}
	s := q.buckets[vb]
	s[vi] = s[len(s)-1]
	q.buckets[vb] = s[:len(s)-1]
	q.n--
	return v
}
