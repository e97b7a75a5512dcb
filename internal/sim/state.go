package sim

import (
	"cmp"
	"fmt"
	"slices"

	"fhs/internal/dag"
)

// State is the scheduler-visible view of a running simulation. All
// accessors are read-only; mutation happens inside the engine. A State
// serves one run at a time and is not safe for concurrent use. A
// Runner reuses it for its next run, so a scheduler must not keep the
// State, or a slice it returned, once the run is over.
type State struct {
	g   *dag.Graph
	cfg *Config

	now int64

	// queues[α] holds the ready α-tasks ordered by the time they first
	// became ready (FIFO). Re-enqueued tasks regain their original
	// position.
	queues    []readyQueue
	queueWork []int64 // total remaining work per queue
	// pos[id] is the slot id last held in its type's queue buffer: its
	// own while queued, its hole after it leaves (see readyQueue).
	pos []int32

	// enqueued[α] logs every task appended to α's ready queue, in
	// order, re-enqueues included (see Enqueued).
	enqueued [][]dag.TaskID

	// cap[α] is the live pool capacity Pα(t). It equals cfg.Procs
	// except under a fault timeline, where the engine updates it at
	// every capacity breakpoint; schedulers observe it through Procs.
	cap []int

	remaining      []int64 // per-task remaining work
	readySeq       []int64 // per-task sequence number of first readiness
	attempts       []int   // per-task kill/failure re-enqueue count
	pendingParents []int   // per-task uncompleted parent count
	completed      []bool
	nCompleted     int
	seqCounter     int64

	// qbuf and logBuf back the ready queues and the enqueue logs.
	qbuf, logBuf []dag.TaskID
}

// reset readies st for a run of g on cfg, reusing its storage. Slices
// that are overwritten in full below are not cleared first.
func (st *State) reset(g *dag.Graph, cfg *Config) {
	n, k := g.NumTasks(), g.K()
	st.g, st.cfg, st.now = g, cfg, 0
	st.nCompleted, st.seqCounter = 0, 0
	st.queues = slices.Grow(st.queues[:0], k)[:k]
	st.queueWork = slices.Grow(st.queueWork[:0], k)[:k]
	clear(st.queueWork)
	st.enqueued = slices.Grow(st.enqueued[:0], k)[:k]
	st.cap = append(st.cap[:0], cfg.Procs...)
	if cfg.Faults != nil && cfg.Faults.Timeline != nil {
		for a := range st.cap {
			st.cap[a] = cfg.Faults.Timeline.CapAt(dag.Type(a), 0)
		}
	}
	st.remaining = slices.Grow(st.remaining[:0], n)[:n]
	st.readySeq = slices.Grow(st.readySeq[:0], n)[:n]
	st.attempts = slices.Grow(st.attempts[:0], n)[:n]
	clear(st.attempts)
	st.pendingParents = slices.Grow(st.pendingParents[:0], n)[:n]
	st.completed = slices.Grow(st.completed[:0], n)[:n]
	clear(st.completed)
	// pos is only read for a task placed in this run, so it is not
	// cleared. A type's queue never holds more than its task count, so
	// twice that leaves room for holes and the queues never grow. The
	// log fits one entry per task; only re-enqueues can outgrow it.
	st.pos = slices.Grow(st.pos[:0], n)[:n]
	st.qbuf = slices.Grow(st.qbuf[:0], 2*n)[:2*n]
	st.logBuf = slices.Grow(st.logBuf[:0], n)[:n]
	off := 0
	for a, c := range g.TypeCount() {
		st.queues[a] = readyQueue{buf: st.qbuf[2*off : 2*off : 2*(off+c)]}
		st.enqueued[a] = st.logBuf[off:off:(off + c)]
		off += c
	}
	for i := 0; i < n; i++ {
		id := dag.TaskID(i)
		st.remaining[i] = g.Task(id).Work
		st.pendingParents[i] = g.NumParents(id)
		st.readySeq[i] = -1
	}
	for _, r := range g.Roots() {
		st.enqueue(r)
	}
}

// Graph returns the job being executed. Online schedulers must not
// inspect it beyond K (see the Scheduler contract).
func (st *State) Graph() *dag.Graph { return st.g }

// K returns the number of resource types.
func (st *State) K() int { return st.g.K() }

// Now returns the current simulation time.
func (st *State) Now() int64 { return st.now }

// Procs returns the live pool capacity Pα(t) for the given type. It
// equals the configured pool size except under a fault timeline, where
// crashed processors are excluded — schedulers that balance on Pα
// (MQB's rα = lα/Pα) therefore rebalance automatically as pools
// shrink and recover.
func (st *State) Procs(alpha dag.Type) int { return st.cap[alpha] }

// Ready returns the ready queue for alpha in first-ready (FIFO) order,
// that is, in increasing ReadySeq. The slice is a view, valid until
// the engine next changes the queue; callers must not modify or retain
// it. Reading it squeezes out the holes that removals left.
func (st *State) Ready(alpha dag.Type) []dag.TaskID {
	q := &st.queues[alpha]
	if q.holes > 0 {
		st.squeeze(q)
	}
	return q.buf[q.head:]
}

// QueueLen returns the number of ready tasks of the given type.
func (st *State) QueueLen(alpha dag.Type) int { return st.queues[alpha].n }

// ReadySeq returns the task's readiness sequence number: the order in
// which it first became ready, kept across preemption, kill and
// failure. It is -1 for a task that has never been ready.
func (st *State) ReadySeq(id dag.TaskID) int64 { return st.readySeq[id] }

// Enqueued returns the log of every task appended to alpha's ready
// queue so far, in order: first readiness and every re-enqueue after
// preemption, kill or failure. It only grows during a run, so a policy
// that keeps its own index of the ready queue reads the entries past
// the ones it has already seen. The slice is a view; callers must not
// modify or retain it.
func (st *State) Enqueued(alpha dag.Type) []dag.TaskID { return st.enqueued[alpha] }

// QueueWork returns lα: the total remaining work of ready α-tasks.
// This is the quantity MQB's x-utilization rα = lα/Pα is built from.
func (st *State) QueueWork(alpha dag.Type) int64 { return st.queueWork[alpha] }

// Remaining returns the remaining work of a task (its full work until
// it first executes; 0 once complete).
func (st *State) Remaining(id dag.TaskID) int64 { return st.remaining[id] }

// Executed returns how much of a task's work has been performed.
func (st *State) Executed(id dag.TaskID) int64 {
	return st.g.Task(id).Work - st.remaining[id]
}

// Completed reports whether a task has finished.
func (st *State) Completed(id dag.TaskID) bool { return st.completed[id] }

// NumCompleted returns how many tasks have finished so far.
func (st *State) NumCompleted() int { return st.nCompleted }

// enqueue adds a task to its type's ready queue at its ReadySeq
// position, assigning the sequence number on first entry (re-entries
// after preemption, kill or failure keep the original number, so FIFO
// order is stable across them). A first entry has the largest number
// yet, so it goes to the tail; a re-entry goes back into its hole when
// the hole is still there.
func (st *State) enqueue(id dag.TaskID) {
	alpha := st.g.Task(id).Type
	q := &st.queues[alpha]
	switch p := int(st.pos[id]); {
	case st.readySeq[id] < 0:
		st.readySeq[id] = st.seqCounter
		st.seqCounter++
		if len(q.buf) == cap(q.buf) {
			st.compact(q)
		}
		st.pos[id] = int32(len(q.buf))
		q.buf = append(q.buf, id)
	case p < len(q.buf) && q.buf[p] == ^id:
		q.fill(p, id)
	default:
		st.insert(q, id)
	}
	q.n++
	st.enqueued[alpha] = append(st.enqueued[alpha], id)
	st.queueWork[alpha] += st.remaining[id]
}

// dequeue removes a specific ready task, returning false if the task
// is not in the queue for its type (a scheduler contract violation).
// The task leaves a hole; a removal at the head, where FIFO picks
// remove, moves the head past the holes behind it.
func (st *State) dequeue(id dag.TaskID) bool {
	alpha := st.g.Task(id).Type
	q := &st.queues[alpha]
	p := q.head
	if p == len(q.buf) || q.buf[p] != id {
		p = int(st.pos[id])
		if p < q.head || p >= len(q.buf) || q.buf[p] != id {
			return false
		}
	}
	q.buf[p] = ^id
	q.n--
	if p == q.head {
		for q.head++; q.head < len(q.buf) && q.buf[q.head] < 0; q.head++ {
			q.holes--
		}
	} else {
		q.holes++
		q.last = max(q.last, p)
	}
	st.queueWork[alpha] -= st.remaining[id]
	return true
}

// insert places a re-entering task whose hole is gone at its ReadySeq
// position. Holes sit in the order too, so the search runs over every
// slot. A position below the head is a hole and takes the task as is;
// otherwise the gap opens from the shorter side and the slots that
// moved are renumbered.
func (st *State) insert(q *readyQueue, id dag.TaskID) {
	if q.head == 0 && len(q.buf) == cap(q.buf) {
		st.compact(q)
	}
	i, _ := slices.BinarySearchFunc(q.buf, st.readySeq[id], func(v dag.TaskID, seq int64) int {
		return cmp.Compare(st.readySeq[owner(v)], seq)
	})
	if i < q.head {
		q.fill(i, id)
		st.pos[id] = int32(i)
		return
	}
	if q.head > 0 && (i-q.head < len(q.buf)-i || len(q.buf) == cap(q.buf)) {
		// The slot below the head is a hole; the prefix moves onto it.
		q.head--
		for p := q.head; p < i-1; p++ {
			st.move(q, p+1, p)
		}
		i--
	} else {
		q.buf = append(q.buf, 0)
		for p := len(q.buf) - 1; p > i; p-- {
			st.move(q, p-1, p)
		}
		q.last = max(q.last, len(q.buf)-1)
	}
	q.buf[i] = id
	st.pos[id] = int32(i)
}

// move copies slot from to slot to, carrying its task's position: a
// queued task's always, a hole's only when the hole is its owner's own
// (not a filler, see squeeze).
func (st *State) move(q *readyQueue, from, to int) {
	v := q.buf[from]
	q.buf[to] = v
	if x := owner(v); int(st.pos[x]) == from {
		st.pos[x] = int32(to)
	}
}

// retry re-enqueues a task after a crash kill or transient failure,
// charging its retry budget. It errors once the task has been
// re-enqueued more than MaxRetries times.
func (st *State) retry(id dag.TaskID) error {
	st.attempts[id]++
	if max := st.cfg.Faults.MaxRetries; st.attempts[id] > max {
		return fmt.Errorf("sim: task %d exhausted its retry budget (%d) at t=%d", id, max, st.now)
	}
	st.enqueue(id)
	return nil
}

// complete marks a task finished and enqueues any children whose
// parents are now all complete.
func (st *State) complete(id dag.TaskID) {
	st.completed[id] = true
	st.nCompleted++
	for _, c := range st.g.Children(id) {
		st.pendingParents[c]--
		if st.pendingParents[c] == 0 {
			st.enqueue(c)
		}
	}
}

// readyQueue is one type's ready queue: the slots buf[head:] in
// ReadySeq order. A task that leaves puts ^id, a hole, in its slot, so
// removal costs O(1), and State.pos finds the hole again when the task
// re-enters: filling it keeps the order and costs O(1) too. Holes are
// part of the order (a hole ^x sorts as x), so any hole of x is a
// valid slot for x. The head skips holes, so every slot below it is
// one. Holes are squeezed out when Ready is read or the buffer is full.
type readyQueue struct {
	buf   []dag.TaskID
	head  int
	n     int // queued tasks
	holes int // holes in buf[head:]
	last  int // no hole in buf[head:] lies past last
}

// owner returns the task a slot belongs to, queued or a hole.
func owner(v dag.TaskID) dag.TaskID {
	if v < 0 {
		return ^v
	}
	return v
}

// fill puts id into the hole at slot p, where id sorts.
func (q *readyQueue) fill(p int, id dag.TaskID) {
	q.buf[p] = id
	if p >= q.head {
		q.holes--
		return
	}
	// The slots between p and the head are holes, and now inside.
	q.holes += q.head - p - 1
	q.last = max(q.last, q.head-1)
	q.head = p
}

// squeeze removes the holes from buf[head:] by moving the queued tasks
// of buf[head:last+1] up against last. The slots this frees fall below
// the new head and become fillers: holes of the new head's task, which
// sort where they stand. A FIFO consumer leaves holes only near the
// head, so this costs what lies between the head and the last hole.
func (st *State) squeeze(q *readyQueue) {
	w := q.last
	for r := q.last; r >= q.head; r-- {
		if v := q.buf[r]; v >= 0 {
			q.buf[w] = v
			st.pos[v] = int32(w)
			w--
		}
	}
	if w < q.last {
		filler := ^q.buf[w+1]
		for p := q.head; p <= w; p++ {
			q.buf[p] = filler
		}
	}
	q.head, q.holes, q.last = w+1, 0, 0
}

// compact moves the queued tasks to the front of the buffer, dropping
// every hole.
func (st *State) compact(q *readyQueue) {
	w := 0
	for _, v := range q.buf[q.head:] {
		if v >= 0 {
			q.buf[w] = v
			st.pos[v] = int32(w)
			w++
		}
	}
	q.buf, q.head, q.holes, q.last = q.buf[:w], 0, 0, 0
}
