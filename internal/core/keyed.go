package core

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"

	"fhs/internal/dag"
	"fhs/internal/sim"
)

// rankQueue answers Pick for the static-priority schedulers (LSpan,
// DType, MaxDP and ShiftBT) from one bucket queue per type, and queues
// ShiftBT's relaxations. A policy ranks its keys once in Prepare and
// maps each queued task to a slot; lower slots are better. Each slot
// holds a list of its tasks ordered by (key, ReadySeq), and a
// hierarchical bitmap finds the lowest non-empty slot.
//
// That order is the linear scan's: the ready queue is in ReadySeq
// order at every Pick, so the scan takes the first task in FIFO order
// with the best key. A slot holds one key value (equal keys share a
// rank), so its list is in ReadySeq order, and its head is the
// scan's pick. Preemptive LSpan's keys fall between its static values;
// it gives them gap slots, whose lists are ordered by key first.
//
// The buckets are fed from the state's enqueue log: each Pick pushes
// the entries logged since the previous one, asking the policy for
// their slots then. A queued task does not run, so its key cannot
// change between that push and its pick. The engine starts every task
// Pick returns, so pick pops it; a re-enqueue after preemption, kill
// or failure arrives as a new entry.
type rankQueue struct {
	types   []rankType
	next    []dag.TaskID // per task: the next task in its slot's list
	key     []int64      // per task: the key it was queued with
	drained []int        // per type: log entries already pushed

	slotBuf []dag.TaskID // backs every type's head and tail
	bitBuf  []uint64     // backs every type's bitmap
}

// rankType is one type's buckets. head and tail are meaningful only
// for slots whose bit is set.
type rankType struct {
	head, tail []dag.TaskID
	bits       bitTree
}

// reset empties the queue for a run on g, giving type α
// perTask·|α-tasks|+1 slots and keeping storage for reuse.
func (q *rankQueue) reset(g *dag.Graph, perTask int) {
	k, n := g.K(), g.NumTasks()
	q.types, q.drained = grow(q.types, k), grow(q.drained, k)
	q.next, q.key = grow(q.next, n), grow(q.key, n)
	counts := g.TypeCount()
	slots, words := 0, 0
	for _, c := range counts {
		s := perTask*c + 1
		slots += s
		words += bitWords(s)
	}
	q.slotBuf = grow(q.slotBuf, 2*slots)
	q.bitBuf = grow(q.bitBuf, words)
	clear(q.bitBuf)
	sb, bb := q.slotBuf, q.bitBuf
	for a, c := range counts {
		s := perTask*c + 1
		t := &q.types[a]
		t.head, t.tail, sb = sb[:s], sb[s:2*s], sb[2*s:]
		bb = t.bits.carve(bb, s)
		q.drained[a] = 0
	}
}

// pick removes and returns the ready alpha-task in the lowest slot,
// the earliest-ready on a tie. slot gives a newly queued task's slot
// and the key that orders it within the slot. ok is false on an empty
// queue.
func (q *rankQueue) pick(st *sim.State, alpha dag.Type, slot func(dag.TaskID) (int32, int64)) (dag.TaskID, bool) {
	log := st.Enqueued(alpha)
	for _, id := range log[q.drained[alpha]:] {
		s, key := slot(id)
		q.push(st, alpha, int(s), id, key)
	}
	q.drained[alpha] = len(log)
	return q.pop(alpha)
}

// pop removes and returns the head of alpha's lowest non-empty slot.
// ok is false on an empty queue.
func (q *rankQueue) pop(alpha dag.Type) (dag.TaskID, bool) {
	t := &q.types[alpha]
	s := t.bits.min()
	if s < 0 {
		return dag.NoTask, false
	}
	id := t.head[s]
	if id == t.tail[s] {
		t.bits.clear(s)
	} else {
		t.head[s] = q.next[id]
	}
	return id, true
}

// append adds id at the tail of alpha's slot s. A caller that queues
// every task once, in ReadySeq order, needs nothing else: each slot's
// list is then in ReadySeq order.
func (q *rankQueue) append(alpha dag.Type, s int, id dag.TaskID) {
	t := &q.types[alpha]
	if t.bits.has(s) {
		q.next[t.tail[s]] = id
	} else {
		t.head[s] = id
		t.bits.set(s)
	}
	t.tail[s] = id
}

// push adds id to alpha's slot s. A first readiness, and any task of a
// static policy that ranks after the slot's tail, appends in O(1); a
// re-enqueue ahead of it walks the list from its head.
func (q *rankQueue) push(st *sim.State, alpha dag.Type, s int, id dag.TaskID, key int64) {
	q.key[id] = key
	t := &q.types[alpha]
	seq := st.ReadySeq(id)
	before := func(x dag.TaskID) bool {
		return q.key[x] < key || q.key[x] == key && st.ReadySeq(x) < seq
	}
	if !t.bits.has(s) || before(t.tail[s]) {
		q.append(alpha, s, id)
		return
	}
	if !before(t.head[s]) {
		q.next[id] = t.head[s]
		t.head[s] = id
		return
	}
	p := t.head[s]
	for before(q.next[p]) {
		p = q.next[p]
	}
	q.next[id], q.next[p] = q.next[p], id
}

// bitTree is a hierarchical bitmap over slots: bit i of level 0 is set
// when slot i is non-empty, and bit w of level l+1 when word w of level
// l is non-zero. The top level is a single word, so the lowest set slot
// takes one TrailingZeros64 per level.
type bitTree [][]uint64

// bitWords returns the words a bitTree over s slots needs.
func bitWords(s int) int {
	w := 0
	for {
		s = (s + 63) / 64
		w += s
		if s == 1 {
			return w
		}
	}
}

// carve points the tree's levels at the front of buf, sized for s
// slots, and returns the rest of buf. buf must be zeroed.
func (b *bitTree) carve(buf []uint64, s int) []uint64 {
	*b = (*b)[:0]
	for {
		s = (s + 63) / 64
		*b = append(*b, buf[:s])
		buf = buf[s:]
		if s == 1 {
			return buf
		}
	}
}

func (b bitTree) has(i int) bool { return b[0][i>>6]&(1<<(i&63)) != 0 }

func (b bitTree) set(i int) {
	for _, lv := range b {
		w := lv[i>>6]
		lv[i>>6] = w | 1<<(i&63)
		if w != 0 {
			return
		}
		i >>= 6
	}
}

func (b bitTree) clear(i int) {
	for _, lv := range b {
		lv[i>>6] &^= 1 << (i & 63)
		if lv[i>>6] != 0 {
			return
		}
		i >>= 6
	}
}

// min returns the lowest set slot, or -1 when none is set.
func (b bitTree) min() int {
	top := len(b) - 1
	if b[top][0] == 0 {
		return -1
	}
	i := 0
	for l := top; l >= 0; l-- {
		i = i<<6 | bits.TrailingZeros64(b[l][i])
	}
	return i
}

// ranking ranks each task's static key among the distinct keys of its
// type. Equal keys share a rank, so a slot per rank holds one key.
type ranking[K cmp.Ordered] struct {
	rank  []int32 // per task
	keys  []K     // per task: the key ranked
	vals  []K     // type α's distinct keys, best first: vals[start[α]:start[α+1]]
	start []int32
	desc  bool // larger keys are better
	order []dag.TaskID
}

// compute ranks key over g's tasks, smallest key best, or largest
// when desc is set. It reuses r's storage.
func (r *ranking[K]) compute(g *dag.Graph, desc bool, key func(dag.TaskID) K) {
	n, k := g.NumTasks(), g.K()
	r.rank, r.keys, r.order = grow(r.rank, n), grow(r.keys, n), grow(r.order, n)
	r.start, r.desc = grow(r.start, k+1), desc
	// Lay the tasks out type by type (a counting sort on the type),
	// then sort each type's run by key. Placing advances start[α] to
	// the end of α's run.
	clear(r.start)
	for i := 0; i < n; i++ {
		r.keys[i] = key(dag.TaskID(i))
		r.start[g.Task(dag.TaskID(i)).Type+1]++
	}
	for a := 0; a < k; a++ {
		r.start[a+1] += r.start[a]
	}
	for i := 0; i < n; i++ {
		a := g.Task(dag.TaskID(i)).Type
		r.order[r.start[a]] = dag.TaskID(i)
		r.start[a]++
	}
	byKey := func(x, y dag.TaskID) int {
		if r.desc {
			return cmp.Compare(r.keys[y], r.keys[x])
		}
		return cmp.Compare(r.keys[x], r.keys[y])
	}
	r.vals = r.vals[:0]
	lo := int32(0)
	for a := 0; a < k; a++ {
		run := r.order[lo:r.start[a]]
		lo = r.start[a]
		slices.SortFunc(run, byKey)
		first := len(r.vals)
		for j, id := range run {
			if j == 0 || r.keys[id] != r.vals[len(r.vals)-1] {
				r.vals = append(r.vals, r.keys[id])
			}
			r.rank[id] = int32(len(r.vals) - 1 - first)
		}
		r.start[a] = int32(first)
	}
	r.start[k] = int32(len(r.vals))
}

// gapSlot places key in a layout of 2R+1 slots over α's R distinct
// keys: slot 2i+1 holds the i-th best key, and slot 2i the keys
// between the (i−1)-th and the i-th. A key that changed since ranking
// (preemptive LSpan's span − executed) thus shares a slot only with
// tasks of the same key or within the same gap.
func (r *ranking[K]) gapSlot(alpha dag.Type, key K) int32 {
	vals := r.vals[r.start[alpha]:r.start[alpha+1]]
	i := sort.Search(len(vals), func(i int) bool {
		if r.desc {
			return vals[i] <= key
		}
		return vals[i] >= key
	})
	if i < len(vals) && vals[i] == key {
		return int32(2*i + 1)
	}
	return int32(2 * i)
}
