// Package obs is the repo's zero-dependency observability layer: a
// deterministic, allocation-disciplined event tracer plus a
// counter/gauge/histogram registry, shared by the single-job engine
// (internal/sim), the scheduler pick paths (internal/core), the fault
// injector's capacity breakpoints and the online multi-job core
// (internal/service).
//
// Design constraints, in order:
//
//   - Deterministic: a traced run emits a byte-identical event stream
//     for a fixed seed, independent of worker count or wall clock.
//     Events carry simulation time only — never time.Now — and every
//     export (JSONL, Chrome trace_event, Prometheus text) iterates in
//     a sorted, stable order.
//   - Free when off: a nil *Tracer or *Registry disables the layer;
//     every method is nil-receiver safe, and engine hot paths guard
//     emission behind a single pointer test so the disabled cost is
//     one branch (the continuous-benchmarking gate in CI enforces
//     this against BENCH_1.json).
//   - Self-describing: events have a fixed schema (see Validate) that
//     the JSONL exporter round-trips exactly; a fuzz target holds the
//     encode/decode pair together.
//
// A Tracer is single-owner (one simulation, one goroutine) like
// sim.State. A Registry is safe for concurrent use: counters and
// histogram buckets are atomics, so aggregate totals are identical no
// matter how instances land on workers.
package obs

import (
	"fmt"
	"math"
)

// Kind classifies trace events.
type Kind uint8

const (
	// KindStart records a task beginning execution on a processor.
	KindStart Kind = iota
	// KindPreempt records a running task returning to its ready queue
	// at a quantum boundary.
	KindPreempt
	// KindFinish records a task completing.
	KindFinish
	// KindKill records a running task killed by a processor crash.
	KindKill
	// KindFail records a task failing transiently at completion.
	KindFail
	// KindDecision records a contested scheduler pick: Task is the
	// chosen task, Type the pool it runs on, Arg the number of ready
	// candidates, and Val the policy's winning score (for MQB the
	// smallest x-utilization of the winning snapshot — the quantity
	// whose lexicographic comparison decided the pick).
	KindDecision
	// KindQueueDepth samples a ready queue: Type is the pool and Arg
	// the standing queue length after the assignment phase.
	KindQueueDepth
	// KindXUtil samples the x-utilization rα = lα/Pα of a pool: Type
	// is the pool, Arg the live capacity Pα(t) and Val the ratio.
	// Pools with zero live capacity are not sampled (rα is undefined).
	KindXUtil
	// KindCapacity records a fault-timeline breakpoint changing a
	// pool's live capacity: Type is the pool, Arg the new Pα(t).
	KindCapacity
	// KindRelease records a job release in a multi-job stream: Job is
	// the released job's index.
	KindRelease
	// KindCancel records a job cancellation in an online service
	// stream: Job is the cancelled job's index. Ready tasks of the job
	// leave their queues at this instant; already-running tasks still
	// finish (non-preemptive machines run placements to completion)
	// but unlock no successors.
	KindCancel
	// KindScopeBegin and KindScopeEnd bracket a named sub-trace
	// (one simulation inside a combined file); Label names the scope.
	// Simulation time restarts inside each scope.
	KindScopeBegin
	KindScopeEnd

	numKinds
)

// kindNames is indexed by Kind; the JSONL schema uses these names.
var kindNames = [numKinds]string{
	"start", "preempt", "finish", "kill", "fail",
	"decision", "qdepth", "xutil", "capacity", "release",
	"cancel", "scope-begin", "scope-end",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindByName resolves a schema name back to its Kind.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// Event is one entry of an observability trace. Task, Job and Type
// are -1 when the kind does not carry them (single-job engines emit
// Job = -1 throughout); Arg and Val are kind-specific payloads. Use
// the typed constructors below rather than struct literals — they fill
// the absent fields with the -1 sentinel the schema expects.
type Event struct {
	Time  int64
	Kind  Kind
	Task  int64
	Job   int64
	Type  int64
	Arg   int64
	Val   float64
	Label string
}

// TaskEv builds a task lifecycle event (start/preempt/finish/kill/
// fail) for a single-job engine.
func TaskEv(k Kind, t, task, typ int64) Event {
	return Event{Time: t, Kind: k, Task: task, Job: -1, Type: typ}
}

// JobTaskEv builds a task lifecycle event carrying a job index, for
// the online multi-job core (internal/service).
func JobTaskEv(k Kind, t, job, task, typ int64) Event {
	return Event{Time: t, Kind: k, Task: task, Job: job, Type: typ}
}

// TypeEv builds a per-pool sample (qdepth/xutil/capacity).
func TypeEv(k Kind, t, typ, arg int64, val float64) Event {
	return Event{Time: t, Kind: k, Task: -1, Job: -1, Type: typ, Arg: arg, Val: val}
}

// DecisionEv builds a contested-pick record.
func DecisionEv(t, task, typ, candidates int64, score float64) Event {
	return Event{Time: t, Kind: KindDecision, Task: task, Job: -1, Type: typ, Arg: candidates, Val: score}
}

// ReleaseEv builds a job-release record.
func ReleaseEv(t, job int64) Event {
	return Event{Time: t, Kind: KindRelease, Task: -1, Job: job, Type: -1}
}

// CancelEv builds a job-cancellation record.
func CancelEv(t, job int64) Event {
	return Event{Time: t, Kind: KindCancel, Task: -1, Job: job, Type: -1}
}

// ScopeEv builds a scope boundary.
func ScopeEv(k Kind, label string) Event {
	return Event{Kind: k, Task: -1, Job: -1, Type: -1, Label: label}
}

// Validate checks an event against the schema: a known kind, the
// fields that kind requires, sentinels for the rest, and a finite Val.
func (e Event) Validate() error {
	if e.Kind >= numKinds {
		return fmt.Errorf("obs: unknown event kind %d", uint8(e.Kind))
	}
	if e.Time < 0 {
		return fmt.Errorf("obs: %s event with negative time %d", e.Kind, e.Time)
	}
	if e.Task < -1 || e.Job < -1 || e.Type < -1 {
		return fmt.Errorf("obs: %s event with field below the -1 sentinel", e.Kind)
	}
	if math.IsNaN(e.Val) || math.IsInf(e.Val, 0) {
		return fmt.Errorf("obs: %s event with non-finite val", e.Kind)
	}
	if e.Label != "" && e.Kind != KindScopeBegin && e.Kind != KindScopeEnd {
		return fmt.Errorf("obs: %s event carries a label", e.Kind)
	}
	switch e.Kind {
	case KindStart, KindPreempt, KindFinish, KindKill, KindFail, KindDecision:
		if e.Task < 0 || e.Type < 0 {
			return fmt.Errorf("obs: %s event needs task and type", e.Kind)
		}
	case KindQueueDepth, KindCapacity:
		if e.Type < 0 || e.Arg < 0 {
			return fmt.Errorf("obs: %s event needs type and a non-negative arg", e.Kind)
		}
	case KindXUtil:
		if e.Type < 0 || e.Arg <= 0 || e.Val < 0 {
			return fmt.Errorf("obs: xutil event needs type, positive capacity and non-negative val")
		}
	case KindRelease, KindCancel:
		if e.Job < 0 {
			return fmt.Errorf("obs: %s event needs a job", e.Kind)
		}
	case KindScopeBegin, KindScopeEnd:
		if e.Label == "" {
			return fmt.Errorf("obs: scope event needs a label")
		}
		for i := 0; i < len(e.Label); i++ {
			if e.Label[i] == '\n' || e.Label[i] == '\r' {
				return fmt.Errorf("obs: scope label contains a line break")
			}
		}
	}
	return nil
}

// ValidateTrace checks every event of a trace and that scope
// boundaries nest properly (matching labels, no dangling scopes).
func ValidateTrace(events []Event) error {
	var stack []string
	for i, e := range events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
		switch e.Kind {
		case KindScopeBegin:
			stack = append(stack, e.Label)
		case KindScopeEnd:
			if len(stack) == 0 {
				return fmt.Errorf("event %d: scope-end %q without a matching scope-begin", i, e.Label)
			}
			if top := stack[len(stack)-1]; top != e.Label {
				return fmt.Errorf("event %d: scope-end %q closes scope %q", i, e.Label, top)
			}
			stack = stack[:len(stack)-1]
		}
	}
	if len(stack) > 0 {
		return fmt.Errorf("trace ends with %d unclosed scope(s), innermost %q", len(stack), stack[len(stack)-1])
	}
	return nil
}

// Tracer collects events for one simulation. Like sim.State it is
// owned by a single goroutine; concurrent simulations each get their
// own Tracer. A nil Tracer is the disabled tracer: Emit and the scope
// methods are no-ops, Enabled reports false, and engines pay one
// pointer test per would-be event.
type Tracer struct {
	events []Event
}

// NewTracer returns an empty, enabled tracer.
func NewTracer() *Tracer { return &Tracer{events: make([]Event, 0, 256)} }

// Enabled reports whether events are being collected.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit appends an event. No-op on a nil tracer.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.events = append(t.events, e)
}

// BeginScope opens a named sub-trace (e.g. one scheduler's run inside
// a combined file).
func (t *Tracer) BeginScope(label string) {
	if t == nil {
		return
	}
	t.events = append(t.events, ScopeEv(KindScopeBegin, label))
}

// EndScope closes the named sub-trace.
func (t *Tracer) EndScope(label string) {
	if t == nil {
		return
	}
	t.events = append(t.events, ScopeEv(KindScopeEnd, label))
}

// Events returns the collected events. The slice is a view; callers
// must not modify it while the tracer is still in use.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Len returns the number of collected events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Reset drops all collected events, keeping the backing storage.
func (t *Tracer) Reset() {
	if t != nil {
		t.events = t.events[:0]
	}
}
