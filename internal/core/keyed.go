package core

import (
	"fhs/internal/dag"
	"fhs/internal/sim"
)

// keyedQueue answers Pick for the static-priority schedulers (LSpan,
// DType, MaxDP, ShiftBT and ShiftBT's relaxation policy) from one
// binary min-heap per type, ordered by (key, ReadySeq).
//
// That order is the linear scan's: the ready queue is in ReadySeq
// order at every Pick, so the heap minimum is the first task in FIFO
// order with the smallest key. A maximizing policy negates its score.
//
// The heaps are fed from the state's enqueue log: each Pick pushes the
// entries logged since the previous one, computing their keys then.
// A queued task does not run, so its key cannot change between that
// push and its pick; this keeps even preemptive LSpan's span − executed
// exact. The engine starts every task Pick returns, so pick pops it; a
// re-enqueue after preemption, kill or failure arrives as a new entry.
type keyedQueue struct {
	heaps   []sim.Heap[keyedEntry]
	drained []int // per type: log entries already pushed
}

type keyedEntry struct {
	key float64
	seq int64
	id  dag.TaskID
}

// Less orders by key, ties to the earliest-ready task.
func (e keyedEntry) Less(o keyedEntry) bool {
	if e.key != o.key {
		return e.key < o.key
	}
	return e.seq < o.seq
}

// reset empties the queue for a run with k types, keeping the heaps'
// storage for reuse.
func (q *keyedQueue) reset(k int) {
	if cap(q.heaps) < k {
		q.heaps = make([]sim.Heap[keyedEntry], k)
		q.drained = make([]int, k)
	}
	q.heaps, q.drained = q.heaps[:k], q.drained[:k]
	for a := range q.heaps {
		q.heaps[a], q.drained[a] = q.heaps[a][:0], 0
	}
}

// pick removes and returns the ready alpha-task with the smallest
// (key, ReadySeq). ok is false on an empty queue.
func (q *keyedQueue) pick(st *sim.State, alpha dag.Type, key func(dag.TaskID) float64) (dag.TaskID, bool) {
	h := &q.heaps[alpha]
	log := st.Enqueued(alpha)
	for _, id := range log[q.drained[alpha]:] {
		h.Push(keyedEntry{key: key(id), seq: st.ReadySeq(id), id: id})
	}
	q.drained[alpha] = len(log)
	if len(*h) == 0 {
		return dag.NoTask, false
	}
	return h.Pop().id, true
}
