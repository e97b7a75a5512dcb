// Package sim implements the discrete-time simulator the paper's
// evaluation is built on: a machine with K typed processor pools
// executing one K-DAG job under a pluggable scheduling policy.
//
// The engine owns all mechanism — ready queues, the clock, precedence
// bookkeeping, utilization accounting — while a Scheduler supplies only
// policy: given the current State and a resource type with an idle
// processor, pick the next ready task of that type.
//
// Two execution modes mirror the paper (Section IV, last paragraph):
//
//   - Non-preemptive: a task is chosen when a processor goes idle and
//     runs to completion there. The engine is event-driven and jumps
//     straight to the next completion time.
//   - Preemptive: at every scheduling quantum all running tasks rejoin
//     their ready queues (with their remaining work) and the scheduler
//     reassigns every processor from scratch. Reallocation overhead is
//     zero, as in the paper.
package sim

import (
	"fmt"

	"fhs/internal/dag"
	"fhs/internal/fault"
	"fhs/internal/obs"
)

// Config describes the machine and execution mode for one simulation.
type Config struct {
	// Procs holds Pα, the number of processors of each type. Its length
	// must equal the job's K and every entry must be positive.
	Procs []int

	// Preemptive selects quantum-based rescheduling when true.
	Preemptive bool

	// Quantum is the scheduling quantum for preemptive mode; 0 means 1.
	// Ignored in non-preemptive mode.
	Quantum int64

	// CollectTrace records per-task start/preempt/finish events.
	CollectTrace bool

	// MaxTime aborts the simulation with an error if the clock exceeds
	// it; 0 means no limit. It exists to turn scheduler bugs (starvation)
	// into errors instead of hangs.
	MaxTime int64

	// Faults injects processor churn and transient task failure (see
	// fhs/internal/fault). Nil or an inactive plan reproduces the
	// reliable machine exactly. With a capacity timeline, schedulers
	// see the live pool sizes through State.Procs, crashed processors
	// kill their resident task (which loses its progress in
	// non-preemptive mode, or its current quantum in preemptive mode)
	// and killed or transiently failed tasks are re-enqueued until the
	// plan's retry budget is exhausted, at which point Run errors.
	Faults *fault.Plan

	// Obs streams structured observability events into the given tracer:
	// task lifecycle (start/preempt/finish/kill/fail), per-type ready-
	// queue depth and x-utilization rα = lα/Pα sampled at every
	// scheduling step, capacity breakpoints, and — for schedulers that
	// support it — contested pick decisions. Nil disables tracing; the
	// only cost then is one pointer test per would-be event. Unlike
	// CollectTrace the stream is observational only: it does not change
	// Result and the engines never read it back.
	Obs *obs.Tracer

	// Metrics aggregates engine counters and histograms into the given
	// registry (sim_* names; see DESIGN.md "Observability"). The
	// registry may be shared across concurrent simulations — the engine
	// touches only order-independent instruments, so aggregate totals
	// are identical for any worker count. Nil disables.
	Metrics *obs.Registry

	// Paranoid audits every finished schedule against the independent
	// invariant checker in internal/verify: typed capacity, precedence,
	// work conservation, run-to-completion, and makespan bounds (plus
	// non-idling and the competitive bound for KGreedy). Tracing is
	// forced internally for the audit and stripped again unless
	// CollectTrace is also set. The auditor registers itself when
	// fhs/internal/verify is linked in; Run fails if Paranoid is set
	// with no auditor registered. When off, the only cost is one branch
	// per Run.
	Paranoid bool
}

// K returns the number of resource types the config provisions.
func (c *Config) K() int { return len(c.Procs) }

// Validate checks the config against a job with k resource types.
func (c *Config) Validate(k int) error {
	if len(c.Procs) != k {
		return fmt.Errorf("sim: config has %d processor pools, job has K=%d", len(c.Procs), k)
	}
	for a, p := range c.Procs {
		if p <= 0 {
			return fmt.Errorf("sim: pool %d has %d processors, want > 0", a, p)
		}
	}
	if c.Quantum < 0 {
		return fmt.Errorf("sim: negative quantum %d", c.Quantum)
	}
	if err := c.Faults.Validate(c.Procs); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// Scheduler is a scheduling policy. Implementations live in
// internal/core; the engine calls Prepare once per (job, machine) pair
// and then Pick whenever a processor of some type can accept a task.
type Scheduler interface {
	// Name identifies the policy in reports ("MQB", "KGreedy", ...).
	Name() string

	// Prepare is called before simulation starts. Offline policies
	// precompute lookahead data from the full graph here; online
	// policies must ignore everything except K and the pool sizes —
	// that convention is what makes them "online".
	Prepare(g *dag.Graph, cfg Config) error

	// Pick returns the ready task of type alpha to run next, or
	// ok=false to leave the remaining processors of that pool idle this
	// round. The returned task must be in st.Ready(alpha); the engine
	// starts it at once, removing it from the queue.
	Pick(st *State, alpha dag.Type) (id dag.TaskID, ok bool)
}

// Auditor independently validates a finished simulation: it receives
// the job, the effective config (with CollectTrace set), the scheduler
// that produced the schedule, and the result, and returns an error on
// the first violated invariant. The canonical implementation lives in
// fhs/internal/verify; sim only holds the hook so the two packages
// need no import cycle.
type Auditor func(g *dag.Graph, cfg Config, s Scheduler, res *Result) error

// auditor is written once, from internal/verify's init, before any
// simulation can run; Run only reads it.
var auditor Auditor

// RegisterAuditor installs the Paranoid-mode auditor. It is intended
// to be called exactly once, from an init function; registering twice
// panics so silently shadowed auditors cannot happen.
func RegisterAuditor(a Auditor) {
	if auditor != nil {
		panic("sim: auditor already registered")
	}
	auditor = a
}

// EventKind classifies trace events.
type EventKind uint8

const (
	// EventStart records a task beginning execution on a processor.
	EventStart EventKind = iota
	// EventPreempt records a running task returning to its ready queue.
	EventPreempt
	// EventFinish records a task completing.
	EventFinish
	// EventKill records a running task killed by a processor crash and
	// returned to its ready queue. New kinds append after EventFinish so
	// the canonical trace order (start < preempt < finish at one
	// instant) is preserved.
	EventKill
	// EventFail records a task failing transiently at the moment it
	// would have completed; it is re-enqueued with its full work.
	EventFail
)

func (k EventKind) String() string {
	switch k {
	case EventStart:
		return "start"
	case EventPreempt:
		return "preempt"
	case EventFinish:
		return "finish"
	case EventKill:
		return "kill"
	case EventFail:
		return "fail"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one entry of a simulation trace.
type Event struct {
	Time int64
	Task dag.TaskID
	Type dag.Type
	Kind EventKind
}

// Result summarizes one finished simulation.
type Result struct {
	// CompletionTime is T(J): the time at which the last task finished.
	CompletionTime int64

	// BusyTime[α] is the total processor-time spent executing α-tasks,
	// including work later lost to crashes and transient failures. On a
	// fault-free run it equals the job's TypedWork(α); in general
	// BusyTime[α] = TypedWork(α) + WastedWork[α]. It is reported so
	// utilization can be audited.
	BusyTime []int64

	// WastedWork[α] is the processor-time spent on α-task executions
	// that were subsequently discarded: progress lost to crash kills
	// plus full executions lost to transient failures. All zeros on a
	// fault-free run.
	WastedWork []int64

	// Kills counts tasks killed by processor crashes; Failures counts
	// transient completion failures. Each killed or failed task was
	// re-enqueued and eventually completed (Run errors if any task
	// exhausts its retry budget instead).
	Kills, Failures int64

	// Utilization[α] = BusyTime[α] / (∫Pα(t)dt over [0, CompletionTime]),
	// the average fraction of the pool's offered capacity kept busy.
	// Without a fault timeline the denominator is Pα·CompletionTime.
	// Zero-length jobs report zeros.
	Utilization []float64

	// Decisions counts Pick calls that assigned a task, a rough measure
	// of scheduler invocation cost.
	Decisions int64

	// Trace holds per-task events when Config.CollectTrace is set.
	Trace []Event
}
