// Package service is the online multi-job scheduling core behind
// cmd/fhd: an incremental event loop that accepts K-DAG job arrivals
// at any simulated instant, runs many jobs concurrently over the same
// typed pools using a registered scheduler (MQB first), and exposes
// submit / status / cancel with per-tenant admission quotas, job
// priorities and a deterministic fair-share policy.
//
// Where internal/sim runs one fully known job, the service core is a
// server: jobs appear one Submit at a time, the future workload is
// unknown, and cancellation can retract queued work at any instant.
// The scheduling step itself is the same non-preemptive typed-pool
// model as the offline engine — a freed α-processor runs one ready
// α-task to completion — so results are directly comparable.
//
// Determinism contract: the core consumes no wall clock and no global
// randomness. Simulation time advances only through AdvanceTo/Drain,
// and every trace event, metric total and pick is a pure function of
// the operation sequence. Replaying a recorded arrival trace therefore
// yields a bit-identical observability fingerprint across runs and
// server restarts mid-trace (replay the consumed prefix into a fresh
// core and continue — the WAL recovery model).
package service

import (
	"errors"
	"fmt"
	"math/rand"

	"fhs/internal/dag"
	"fhs/internal/fault"
	"fhs/internal/obs"
	"fhs/internal/workload"
)

// Sentinel errors, mapped onto HTTP statuses by the API layer.
var (
	// ErrBadRequest marks a malformed submit (empty ID, bad spec,
	// negative weight).
	ErrBadRequest = errors.New("bad request")
	// ErrUnknownJob marks a status/cancel for an ID never submitted.
	ErrUnknownJob = errors.New("unknown job")
	// ErrDuplicateJob marks a submit reusing a live or historical ID.
	ErrDuplicateJob = errors.New("duplicate job id")
	// ErrQuotaExceeded marks a submit pushing a tenant past its
	// admission quota.
	ErrQuotaExceeded = errors.New("tenant quota exceeded")
	// ErrJobDone marks a cancel of an already completed job.
	ErrJobDone = errors.New("job already done")
	// ErrJobCancelled marks a cancel of an already cancelled job.
	ErrJobCancelled = errors.New("job already cancelled")
	// ErrTimeTravel marks an AdvanceTo target before the current clock.
	ErrTimeTravel = errors.New("advance target before current time")
	// ErrJobFailed marks a cancel of a job that already failed (a task
	// exhausted its retry budget under fault churn).
	ErrJobFailed = errors.New("job failed")
	// ErrOverloaded marks a submit shed by the bounded admission
	// backlog. The API layer maps it to 429 with a Retry-After derived
	// from Core.RetryAfter.
	ErrOverloaded = errors.New("overloaded")
	// ErrIdempotentReplay marks a submit whose ID already exists with a
	// byte-identical request: the returned JobStatus is the original
	// admission response, and the op had no effect. The API layer maps
	// it to 200 with that original response.
	ErrIdempotentReplay = errors.New("idempotent replay")
)

// Config describes one service core.
type Config struct {
	// Procs is the machine: Procs[α] processors of type α. Required,
	// every entry positive.
	Procs []int
	// Scheduler names the registered scheduler ("MQB" or "KGreedy");
	// empty selects MQB.
	Scheduler string
	// DefaultQuota caps concurrently admitted (not yet done or
	// cancelled) jobs per tenant; 0 or negative means unlimited.
	DefaultQuota int
	// Quotas overrides DefaultQuota per tenant name.
	Quotas map[string]int
	// NoFairShare disables the deterministic fair-share stage: the
	// scheduler then chooses over all max-priority candidates
	// regardless of tenant. Fair share is on by default.
	NoFairShare bool
	// Obs receives the event stream (releases, cancels, task
	// lifecycle, queue-depth and x-utilization samples, decisions).
	// Nil disables tracing.
	Obs *obs.Tracer
	// Metrics aggregates core and per-tenant counters and the
	// queueing-delay histograms. Nil disables.
	Metrics *obs.Registry
	// Faults drives live processor churn: the plan's capacity timeline
	// makes the per-pool capacity a step function of simulated time,
	// killing resident tasks when capacity drops (retried up to
	// MaxRetries; exhaustion fails the job). Transient completion
	// failures (FailureProb) are not supported in the service core —
	// the fault coin keys on task IDs, which collide across jobs. Nil
	// keeps the machine reliable.
	Faults *fault.Plan
	// MaxBacklogTasks bounds the machine-wide backlog (queued plus
	// running tasks). When the backlog has reached the bound, a submit
	// from a tenant already holding at least its 1/activeTenants share
	// of the bound is shed with ErrOverloaded; tenants under their
	// share are always admitted, so one flooding tenant cannot lock
	// others out. 0 disables shedding.
	MaxBacklogTasks int
}

func (c *Config) validate() error {
	if len(c.Procs) == 0 {
		return fmt.Errorf("service: empty machine")
	}
	for a, n := range c.Procs {
		if n <= 0 {
			return fmt.Errorf("service: pool %d has %d processors, want > 0", a, n)
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(c.Procs); err != nil {
			return err
		}
		if c.Faults.FailureProb != 0 {
			return fmt.Errorf("service: transient completion failures are not supported (the fault coin keys on task IDs, which collide across jobs)")
		}
	}
	if c.MaxBacklogTasks < 0 {
		return fmt.Errorf("service: negative backlog bound %d", c.MaxBacklogTasks)
	}
	return nil
}

// quota resolves a tenant's admission cap; <= 0 means unlimited.
func (c *Config) quota(tenant string) int {
	if q, ok := c.Quotas[tenant]; ok {
		return q
	}
	return c.DefaultQuota
}

// JobSpec is the wire description of a job's K-DAG: a workload class
// drawn with an explicit seed, so a submit is replayable byte-for-byte.
// Scale selects the distribution size ("small" is the service default;
// "default" is the full experiment scale).
type JobSpec struct {
	Class  string `json:"class"`
	Typing string `json:"typing,omitempty"`
	K      int    `json:"k"`
	Seed   int64  `json:"seed"`
	Scale  string `json:"scale,omitempty"`
}

// Graph materializes the spec. The draw is a pure function of the
// spec: an explicit rand.Source seeded from Spec.Seed, never global
// randomness.
func (s JobSpec) Graph() (*dag.Graph, error) {
	class, err := workload.ClassByName(s.Class)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	typing, err := workload.TypingByName(s.Typing)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if s.K <= 0 {
		return nil, fmt.Errorf("%w: spec k = %d, want > 0", ErrBadRequest, s.K)
	}
	var cfg workload.Config
	switch s.Scale {
	case "", "small":
		cfg = workload.Small(class, s.K, typing)
	case "default":
		cfg = workload.Default(class, s.K, typing)
	default:
		return nil, fmt.Errorf("%w: unknown scale %q (want small or default)", ErrBadRequest, s.Scale)
	}
	g, err := workload.Generate(cfg, rand.New(rand.NewSource(s.Seed)))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return g, nil
}

// SubmitRequest is one job arrival. Weight 0 defaults to 1; higher
// Priority preempts lower at admission to queues (not on processors).
type SubmitRequest struct {
	ID       string  `json:"id"`
	Tenant   string  `json:"tenant"`
	Priority int     `json:"priority,omitempty"`
	Weight   float64 `json:"weight,omitempty"`
	Spec     JobSpec `json:"spec"`
}

func (r *SubmitRequest) validate() error {
	if r.ID == "" {
		return fmt.Errorf("%w: empty job id", ErrBadRequest)
	}
	if r.Weight < 0 {
		return fmt.Errorf("%w: negative weight %g", ErrBadRequest, r.Weight)
	}
	if r.Priority < 0 {
		return fmt.Errorf("%w: negative priority %d", ErrBadRequest, r.Priority)
	}
	return nil
}

// JobState is a job's lifecycle phase.
type JobState string

const (
	// StateRunning covers admission through last task completion.
	StateRunning JobState = "running"
	// StateDone marks all tasks complete.
	StateDone JobState = "done"
	// StateCancelled marks a cancelled job. Tasks already on
	// processors at cancel time still ran to completion.
	StateCancelled JobState = "cancelled"
	// StateFailed marks a job retired because one of its tasks
	// exhausted its retry budget under fault churn. Like cancellation,
	// its queued tasks were retracted.
	StateFailed JobState = "failed"
)

// JobStatus is the externally visible snapshot of one job.
type JobStatus struct {
	ID        string   `json:"id"`
	Tenant    string   `json:"tenant"`
	State     JobState `json:"state"`
	Priority  int      `json:"priority"`
	Weight    float64  `json:"weight"`
	Tasks     int      `json:"tasks"`
	DoneTasks int      `json:"done_tasks"`
	Submitted int64    `json:"submitted"`
	// Completed is the completion (or cancellation) instant, -1 while
	// running.
	Completed int64 `json:"completed"`
}

// TenantSummary aggregates one tenant's stream outcome.
type TenantSummary struct {
	Tenant    string `json:"tenant"`
	Admitted  int    `json:"admitted"`
	Done      int    `json:"done"`
	Cancelled int    `json:"cancelled"`
	Rejected  int    `json:"rejected"`
	// Shed counts submits refused by the bounded admission backlog.
	Shed int `json:"shed,omitempty"`
	// Failed counts jobs retired by retry-budget exhaustion.
	Failed int `json:"failed,omitempty"`
	// WeightedCompletion is Σ weight·C over the tenant's done jobs —
	// the Σ wC objective of the paper, reported per tenant.
	WeightedCompletion float64 `json:"weighted_completion"`
	// FlowSum is Σ (C − r) over done jobs.
	FlowSum int64 `json:"flow_sum"`
}

// Summary is the service-wide outcome snapshot.
type Summary struct {
	Now       int64 `json:"now"`
	Jobs      int   `json:"jobs"`
	Done      int   `json:"done"`
	Cancelled int   `json:"cancelled"`
	// Failed counts jobs retired by retry-budget exhaustion under
	// fault churn.
	Failed int   `json:"failed,omitempty"`
	Tasks  int64 `json:"tasks_completed"`
	// Kills counts tasks killed mid-execution by capacity drops;
	// WastedWork is the processor time those executions had consumed.
	Kills      int64           `json:"kills,omitempty"`
	WastedWork int64           `json:"wasted_work,omitempty"`
	Tenants    []TenantSummary `json:"tenants"`
}
