package sim

import (
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
	// A type's queue never holds more than its task count, so twice
	// that leaves room for the dead prefix and the queues never grow.
	// The log fits one entry per task; only re-enqueues can outgrow it.
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
// that is, in increasing ReadySeq. The slice is a view; callers must
// not modify or retain it.
func (st *State) Ready(alpha dag.Type) []dag.TaskID { return st.queues[alpha].tasks() }

// QueueLen returns the number of ready tasks of the given type.
func (st *State) QueueLen(alpha dag.Type) int { return st.queues[alpha].len() }

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
// yet, so it goes to the tail.
func (st *State) enqueue(id dag.TaskID) {
	alpha := st.g.Task(id).Type
	q := &st.queues[alpha]
	if st.readySeq[id] < 0 {
		st.readySeq[id] = st.seqCounter
		st.seqCounter++
		q.push(id)
	} else {
		q.insert(st.seqIndex(alpha, id), id)
	}
	st.enqueued[alpha] = append(st.enqueued[alpha], id)
	st.queueWork[alpha] += st.remaining[id]
}

// dequeue removes a specific ready task, returning false if the task
// is not in the queue for its type (a scheduler contract violation).
// The head, where FIFO picks remove, is tried before the search.
func (st *State) dequeue(id dag.TaskID) bool {
	alpha := st.g.Task(id).Type
	q := st.queues[alpha].tasks()
	i := 0
	if len(q) == 0 || q[0] != id {
		i = st.seqIndex(alpha, id)
		if i == len(q) || q[i] != id {
			return false
		}
	}
	st.queues[alpha].remove(i)
	st.queueWork[alpha] -= st.remaining[id]
	return true
}

// seqIndex returns the position of id's ReadySeq in alpha's queue: the
// index of the first queued task whose ReadySeq is not smaller.
func (st *State) seqIndex(alpha dag.Type, id dag.TaskID) int {
	q := st.queues[alpha].tasks()
	seq := st.readySeq[id]
	lo, hi := 0, len(q)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if st.readySeq[q[mid]] < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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

// readyQueue is one type's ready queue, buf[head:]. Insertion and
// removal close or open the gap from the shorter side, so order is
// kept and a head pop (FIFO) costs O(1). The dead prefix is reclaimed
// when an insertion finds the buffer full.
type readyQueue struct {
	buf  []dag.TaskID
	head int
}

func (q *readyQueue) tasks() []dag.TaskID { return q.buf[q.head:] }

func (q *readyQueue) len() int { return len(q.buf) - q.head }

// push appends id at the tail, reclaiming the dead prefix first when
// the buffer is full.
func (q *readyQueue) push(id dag.TaskID) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		q.buf, q.head = q.buf[:copy(q.buf, q.buf[q.head:])], 0
	}
	q.buf = append(q.buf, id)
}

// insert places id at queue position i.
func (q *readyQueue) insert(i int, id dag.TaskID) {
	if q.head > 0 && i < q.len()/2 {
		q.head--
		copy(q.buf[q.head:], q.buf[q.head+1:q.head+1+i])
		q.buf[q.head+i] = id
		return
	}
	q.push(id)
	s := q.tasks()
	copy(s[i+1:], s[i:])
	s[i] = id
}

// remove deletes the task at queue position i.
func (q *readyQueue) remove(i int) {
	s := q.buf[q.head:]
	if i < len(s)/2 {
		copy(s[1:i+1], s[:i])
		q.head++
	} else {
		copy(s[i:], s[i+1:])
		q.buf = q.buf[:len(q.buf)-1]
	}
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}
