package service

import (
	"fmt"
	"sort"
	"strings"

	"fhs/internal/core"
	"fhs/internal/dag"
	"fhs/internal/fault"
	"fhs/internal/obs"
	"fhs/internal/sim"
)

// job is the internal per-job record.
type job struct {
	id       string
	idx      int64 // admission index; the Job field of trace events
	tenant   *tenant
	priority int
	weight   float64
	graph    *dag.Graph
	desc     [][]float64 // shared typed descendant rows

	state     JobState
	pending   []int // per task: uncompleted parents
	attempts  []int // per task: kills survived so far
	doneTasks int
	running   int // tasks currently on processors
	started   bool
	submitted int64
	completed int64 // -1 while running

	// origReq and admitResp make retried submits idempotent: a second
	// submit with the same ID and an identical body returns admitResp
	// (the original admission response) instead of ErrDuplicateJob.
	origReq   SubmitRequest
	admitResp JobStatus
}

func (j *job) status() JobStatus {
	return JobStatus{
		ID:        j.id,
		Tenant:    j.tenant.name,
		State:     j.state,
		Priority:  j.priority,
		Weight:    j.weight,
		Tasks:     j.graph.NumTasks(),
		DoneTasks: j.doneTasks,
		Submitted: j.submitted,
		Completed: j.completed,
	}
}

// tenant tracks one tenant's admission state and fair-share position.
type tenant struct {
	name string
	// service is the tenant's virtual service: Σ work/weight over
	// started tasks. The fair-share stage grants the next placement to
	// the candidate tenant with minimal service (name-ordered ties),
	// the deterministic analogue of weighted fair queueing.
	service float64
	active  int // admitted, not yet done, cancelled or failed
	load    int // tasks queued or on processors right now

	admitted, done, cancelled, rejected, shed, failed int
	wct                                               float64
	flow                                              int64

	mJobs, mDone, mCancelled, mRejected, mShed, mFailed *obs.Counter
	mDelay, mFlow                                       *obs.Histogram
}

// entry is one ready task in a typed queue.
type entry struct {
	j    *job
	task dag.TaskID
}

// runTask is one placement on a processor, ordered by (finish,
// admission index, task) — the same completion order the offline
// engines use, so simultaneous finishes process deterministically.
type runTask struct {
	finish int64
	jidx   int64
	task   dag.TaskID
	j      *job
	alpha  dag.Type
	work   int64
	start  int64 // placement instant; a kill wastes now − start
}

// Less implements sim.HeapElem.
func (r runTask) Less(o runTask) bool {
	if r.finish != o.finish {
		return r.finish < o.finish
	}
	if r.jidx != o.jidx {
		return r.jidx < o.jidx
	}
	return r.task < o.task
}

// coreMetrics holds pre-resolved global handles (fhd_* names).
type coreMetrics struct {
	admitted  *obs.Counter
	done      *obs.Counter
	cancelled *obs.Counter
	rejected  *obs.Counter
	shed      *obs.Counter
	failed    *obs.Counter
	tasks     *obs.Counter
	busy      *obs.Counter
	kills     *obs.Counter
	wasted    *obs.Counter
	decisions *obs.Counter
	delay     *obs.Histogram // per job: first task start − submit
	flow      *obs.Histogram // per done job: completion − submit
}

func newCoreMetrics(reg *obs.Registry) coreMetrics {
	if reg == nil {
		return coreMetrics{}
	}
	return coreMetrics{
		admitted:  reg.Counter("fhd_jobs_admitted_total"),
		done:      reg.Counter("fhd_jobs_done_total"),
		cancelled: reg.Counter("fhd_jobs_cancelled_total"),
		rejected:  reg.Counter("fhd_jobs_rejected_total"),
		shed:      reg.Counter("fhd_jobs_shed_total"),
		failed:    reg.Counter("fhd_jobs_failed_total"),
		tasks:     reg.Counter("fhd_tasks_completed_total"),
		busy:      reg.Counter("fhd_busy_time_total"),
		kills:     reg.Counter("fhd_kills_total"),
		wasted:    reg.Counter("fhd_wasted_work_total"),
		decisions: reg.Counter("fhd_decisions_total"),
		delay:     reg.Histogram("fhd_queue_delay"),
		flow:      reg.Histogram("fhd_flow_time"),
	}
}

// Core is the online scheduling core. It is single-owner like
// sim.State: one goroutine drives Submit/Cancel/AdvanceTo (the HTTP
// layer serializes). Time advances only through AdvanceTo/Drain;
// arrivals and cancels take effect at the current clock.
type Core struct {
	cfg   Config
	sched string         // canonical scheduler name
	bal   *core.Balancer // MQB's scorer; nil under KGreedy
	k     int
	now   int64

	busy   []int // placements per pool
	cap    []int // live capacity per pool (the fault timeline's Pα(t))
	queues [][]entry
	qwork  []int64
	run    sim.Heap[runTask]

	jobs        map[string]*job
	order       []*job
	tenants     map[string]*tenant
	tenantNames []string // sorted; the deterministic iteration order

	tasksDone int64
	kills     int64
	wasted    int64
	mets      coreMetrics

	cands []int // pick scratch: candidate queue positions
}

// New builds a core over the configured machine.
func New(cfg Config) (*Core, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sched, err := SchedulerName(cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	k := len(cfg.Procs)
	c := &Core{
		cfg:     cfg,
		sched:   sched,
		k:       k,
		busy:    make([]int, k),
		cap:     append([]int(nil), cfg.Procs...),
		queues:  make([][]entry, k),
		qwork:   make([]int64, k),
		jobs:    make(map[string]*job),
		tenants: make(map[string]*tenant),
		mets:    newCoreMetrics(cfg.Metrics),
	}
	if sched == "MQB" {
		c.bal = &core.Balancer{}
	}
	return c, nil
}

// SchedulerName resolves a registered scheduler name
// (case-insensitive) to its canonical form. The empty name selects
// MQB, the paper's utilization-balancing rule; KGreedy is the online
// FIFO baseline.
func SchedulerName(name string) (string, error) {
	switch strings.ToLower(name) {
	case "", "mqb":
		return "MQB", nil
	case "kgreedy":
		return "KGreedy", nil
	default:
		return "", fmt.Errorf("service: unknown scheduler %q (want MQB or KGreedy)", name)
	}
}

// Now returns the simulation clock.
func (c *Core) Now() int64 { return c.now }

// timeline returns the configured capacity timeline, nil when the
// machine is reliable.
func (c *Core) timeline() *fault.Timeline {
	if c.cfg.Faults == nil {
		return nil
	}
	return c.cfg.Faults.Timeline
}

// Scheduler returns the active scheduler's canonical name.
func (c *Core) Scheduler() string { return c.sched }

// tenantFor returns the named tenant record, creating it (and its
// metric handles) on first touch.
func (c *Core) tenantFor(name string) *tenant {
	if t, ok := c.tenants[name]; ok {
		return t
	}
	t := &tenant{name: name}
	if reg := c.cfg.Metrics; reg != nil {
		t.mJobs = reg.Counter(obs.LabelName("fhd_tenant_jobs_total", name))
		t.mDone = reg.Counter(obs.LabelName("fhd_tenant_done_total", name))
		t.mCancelled = reg.Counter(obs.LabelName("fhd_tenant_cancelled_total", name))
		t.mRejected = reg.Counter(obs.LabelName("fhd_tenant_rejected_total", name))
		t.mShed = reg.Counter(obs.LabelName("fhd_tenant_shed_total", name))
		t.mFailed = reg.Counter(obs.LabelName("fhd_tenant_failed_total", name))
		t.mDelay = reg.Histogram(obs.LabelName("fhd_tenant_queue_delay", name))
		t.mFlow = reg.Histogram(obs.LabelName("fhd_tenant_flow_time", name))
	}
	c.tenants[name] = t
	i := sort.SearchStrings(c.tenantNames, name)
	c.tenantNames = append(c.tenantNames, "")
	copy(c.tenantNames[i+1:], c.tenantNames[i:])
	c.tenantNames[i] = name
	return t
}

// Submit admits one job at the current instant: quota check, release
// event, root tasks into their typed queues, then an assignment pass.
func (c *Core) Submit(req SubmitRequest) (JobStatus, error) {
	if err := req.validate(); err != nil {
		return JobStatus{}, err
	}
	if j, ok := c.jobs[req.ID]; ok {
		if j.origReq == req {
			return j.admitResp, ErrIdempotentReplay
		}
		return JobStatus{}, fmt.Errorf("%w: %q", ErrDuplicateJob, req.ID)
	}
	g, err := req.Spec.Graph()
	if err != nil {
		return JobStatus{}, err
	}
	if g.K() != c.k {
		return JobStatus{}, fmt.Errorf("%w: job has K=%d, machine has K=%d", ErrBadRequest, g.K(), c.k)
	}
	ten := c.tenantFor(req.Tenant)
	if q := c.cfg.quota(req.Tenant); q > 0 && ten.active >= q {
		ten.rejected++
		ten.mRejected.Inc()
		c.mets.rejected.Inc()
		return JobStatus{}, fmt.Errorf("%w: tenant %q has %d active jobs (quota %d)", ErrQuotaExceeded, req.Tenant, ten.active, q)
	}
	if m := c.cfg.MaxBacklogTasks; m > 0 && c.backlog() >= m {
		// Per-tenant carve-out: shed only a tenant already holding at
		// least its 1/activeTenants share of the bound (integer form:
		// load·activeTenants ≥ bound). A tenant with no backlog is
		// always admitted.
		active := 0
		for _, name := range c.tenantNames {
			if c.tenants[name].load > 0 {
				active++
			}
		}
		if active < 1 {
			active = 1
		}
		if ten.load*active >= m {
			ten.shed++
			ten.mShed.Inc()
			c.mets.shed.Inc()
			return JobStatus{}, fmt.Errorf("%w: backlog %d tasks (bound %d), tenant %q holds %d", ErrOverloaded, c.backlog(), m, req.Tenant, ten.load)
		}
	}
	weight := req.Weight
	if weight == 0 {
		weight = 1
	}
	j := &job{
		id:        req.ID,
		idx:       int64(len(c.order)),
		tenant:    ten,
		priority:  req.Priority,
		weight:    weight,
		graph:     g,
		desc:      g.SharedTypedDescendantValues(),
		state:     StateRunning,
		pending:   make([]int, g.NumTasks()),
		attempts:  make([]int, g.NumTasks()),
		submitted: c.now,
		completed: -1,
		origReq:   req,
	}
	for i := range j.pending {
		j.pending[i] = g.NumParents(dag.TaskID(i))
	}
	c.jobs[req.ID] = j
	c.order = append(c.order, j)
	ten.active++
	ten.admitted++
	ten.mJobs.Inc()
	c.mets.admitted.Inc()
	if c.cfg.Obs.Enabled() {
		c.cfg.Obs.Emit(obs.ReleaseEv(c.now, j.idx))
	}
	for _, r := range g.Roots() {
		c.enqueue(j, r)
	}
	c.assign()
	c.sample()
	j.admitResp = j.status()
	return j.admitResp, nil
}

// backlog counts every queued or running task — the load measure the
// admission bound is enforced against.
func (c *Core) backlog() int {
	n := len(c.run)
	for a := 0; a < c.k; a++ {
		n += len(c.queues[a])
	}
	return n
}

// RetryAfter returns the deterministic back-off hint for a shed
// submit, in simulated time units: the delay to the earliest running
// completion (at least 1), when the backlog can next shrink.
func (c *Core) RetryAfter() int64 {
	if len(c.run) > 0 {
		if d := c.run[0].finish - c.now; d > 1 {
			return d
		}
	}
	return 1
}

// Cancel retracts a job at the current instant: queued tasks leave
// their queues, tasks already on processors run to completion (the
// machines are non-preemptive) but unlock no successors.
func (c *Core) Cancel(id string) (JobStatus, error) {
	j, ok := c.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	switch j.state {
	case StateDone:
		return j.status(), fmt.Errorf("%w: %q", ErrJobDone, id)
	case StateCancelled:
		return j.status(), fmt.Errorf("%w: %q", ErrJobCancelled, id)
	case StateFailed:
		return j.status(), fmt.Errorf("%w: %q", ErrJobFailed, id)
	}
	c.retire(j, StateCancelled)
	j.tenant.cancelled++
	j.tenant.mCancelled.Inc()
	c.mets.cancelled.Inc()
	c.sample()
	return j.status(), nil
}

// retire retracts a running job at the current instant: queued tasks
// leave their queues (tasks on processors run to completion but unlock
// no successors), and the job enters its terminal state. The caller
// bumps the state-specific counters and re-samples.
func (c *Core) retire(j *job, state JobState) {
	if c.cfg.Obs.Enabled() {
		c.cfg.Obs.Emit(obs.CancelEv(c.now, j.idx))
	}
	for a := 0; a < c.k; a++ {
		q := c.queues[a][:0]
		for _, e := range c.queues[a] {
			if e.j == j {
				c.qwork[a] -= e.j.graph.Task(e.task).Work
				j.tenant.load--
				continue
			}
			q = append(q, e)
		}
		c.queues[a] = q
	}
	j.state = state
	j.completed = c.now
	j.tenant.active--
}

// failJob retires a job whose task exhausted its retry budget.
func (c *Core) failJob(j *job) {
	c.retire(j, StateFailed)
	j.tenant.failed++
	j.tenant.mFailed.Inc()
	c.mets.failed.Inc()
}

// Status returns one job's snapshot.
func (c *Core) Status(id string) (JobStatus, error) {
	j, ok := c.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j.status(), nil
}

// Records returns every job's snapshot in admission order.
func (c *Core) Records() []JobStatus {
	out := make([]JobStatus, len(c.order))
	for i, j := range c.order {
		out[i] = j.status()
	}
	return out
}

// StreamJobInfo declares one admitted job for external audit: the
// admission index trace events carry, the job's admission parameters
// and its graph.
type StreamJobInfo struct {
	Idx      int64
	ID       string
	Tenant   string
	Priority int
	Weight   float64
	Graph    *dag.Graph
}

// StreamJobs returns the admitted jobs in admission order — the
// declaration verify.AuditServiceStream audits the obs stream against.
func (c *Core) StreamJobs() []StreamJobInfo {
	out := make([]StreamJobInfo, len(c.order))
	for i, j := range c.order {
		out[i] = StreamJobInfo{
			Idx:      j.idx,
			ID:       j.id,
			Tenant:   j.tenant.name,
			Priority: j.priority,
			Weight:   j.weight,
			Graph:    j.graph,
		}
	}
	return out
}

// AdvanceTo moves the clock to t, processing every completion and
// every fault-timeline capacity breakpoint due in (now, t] in time
// order and re-running assignment after each event instant. At an
// instant with both, completions retire first — the same phase order
// as the offline engines — so a task finishing exactly when its pool
// shrinks is done work, not a kill.
func (c *Core) AdvanceTo(t int64) error {
	if t < c.now {
		return fmt.Errorf("%w: t=%d, now=%d", ErrTimeTravel, t, c.now)
	}
	tl := c.timeline()
	for {
		tc := int64(-1)
		if len(c.run) > 0 && c.run[0].finish <= t {
			tc = c.run[0].finish
		}
		bp := int64(-1)
		if tl != nil {
			if nc := tl.NextChangeAfter(c.now); nc >= 0 && nc <= t {
				bp = nc
			}
		}
		if bp >= 0 && (tc < 0 || bp < tc) {
			tc = bp
		}
		if tc < 0 {
			break
		}
		c.now = tc
		for len(c.run) > 0 && c.run[0].finish == tc {
			c.complete(c.run.Pop())
		}
		if bp == tc {
			c.applyCapacity(tc)
		}
		c.assign()
		c.sample()
	}
	c.now = t
	return nil
}

// applyCapacity moves every pool to its timeline capacity at t,
// emitting a KindCapacity event per change and killing resident tasks
// while a pool is over capacity.
func (c *Core) applyCapacity(t int64) {
	tl := c.timeline()
	for a := 0; a < c.k; a++ {
		alpha := dag.Type(a)
		if nc := tl.CapAt(alpha, t); nc != c.cap[a] {
			c.cap[a] = nc
			if c.cfg.Obs.Enabled() {
				c.cfg.Obs.Emit(obs.TypeEv(obs.KindCapacity, t, int64(a), int64(nc), 0))
			}
		}
		for c.busy[a] > c.cap[a] {
			c.kill(alpha)
		}
	}
}

// kill evicts one resident task from pool alpha: the placement with
// the highest finish (ties to the highest admission index, then task
// ID — the task that started latest work-wise loses), charging its
// elapsed time as both busy and wasted. The task re-enters its ready
// queue unless its job is already retired or its retry budget is
// exhausted, which fails the whole job.
func (c *Core) kill(alpha dag.Type) {
	victim := -1
	for i := range c.run {
		if c.run[i].alpha != alpha {
			continue
		}
		if victim < 0 || c.run[victim].Less(c.run[i]) {
			victim = i
		}
	}
	rt := c.run.Remove(victim)
	j := rt.j
	elapsed := c.now - rt.start
	c.busy[alpha]--
	j.running--
	j.tenant.load--
	c.kills++
	c.wasted += elapsed
	c.mets.kills.Inc()
	c.mets.busy.Add(elapsed)
	c.mets.wasted.Add(elapsed)
	if c.cfg.Obs.Enabled() {
		c.cfg.Obs.Emit(obs.JobTaskEv(obs.KindKill, c.now, j.idx, int64(rt.task), int64(alpha)))
	}
	if j.state != StateRunning {
		return // retired jobs unlock nothing; the kill is pure waste
	}
	j.attempts[rt.task]++
	if j.attempts[rt.task] > c.cfg.Faults.MaxRetries {
		c.failJob(j)
		return
	}
	c.enqueue(j, rt.task)
}

// Drain runs the machine until every placed task has completed and
// every queue is empty, returning the final clock (the makespan so
// far). When queued work is stuck behind a zero-capacity pool, the
// clock jumps to the next repair breakpoint (the timeline validates
// that every pool's final capacity is positive, so draining always
// terminates). Admitted jobs are all done, cancelled or failed
// afterwards.
func (c *Core) Drain() int64 {
	tl := c.timeline()
	for {
		if len(c.run) > 0 {
			// AdvanceTo to the earliest finish cannot time-travel.
			_ = c.AdvanceTo(c.run[0].finish)
			continue
		}
		if c.Idle() || tl == nil {
			break
		}
		nc := tl.NextChangeAfter(c.now)
		if nc < 0 {
			break
		}
		_ = c.AdvanceTo(nc)
	}
	return c.now
}

// Idle reports whether nothing is queued or running.
func (c *Core) Idle() bool {
	if len(c.run) > 0 {
		return false
	}
	for a := 0; a < c.k; a++ {
		if len(c.queues[a]) > 0 {
			return false
		}
	}
	return true
}

// complete processes one placement finishing at the current instant.
func (c *Core) complete(rt runTask) {
	j := rt.j
	c.busy[rt.alpha]--
	c.tasksDone++
	c.mets.tasks.Inc()
	c.mets.busy.Add(rt.work)
	if c.cfg.Obs.Enabled() {
		c.cfg.Obs.Emit(obs.JobTaskEv(obs.KindFinish, c.now, j.idx, int64(rt.task), int64(rt.alpha)))
	}
	j.running--
	j.tenant.load--
	if j.state != StateRunning {
		return // cancelled or failed: completions unlock nothing
	}
	j.doneTasks++
	for _, ch := range j.graph.Children(rt.task) {
		j.pending[ch]--
		if j.pending[ch] == 0 {
			c.enqueue(j, ch)
		}
	}
	if j.doneTasks == j.graph.NumTasks() {
		j.state = StateDone
		j.completed = c.now
		ten := j.tenant
		ten.active--
		ten.done++
		ten.wct += j.weight * float64(c.now)
		ten.flow += c.now - j.submitted
		ten.mDone.Inc()
		c.mets.done.Inc()
		c.mets.flow.Observe(c.now - j.submitted)
		ten.mFlow.Observe(c.now - j.submitted)
	}
}

func (c *Core) enqueue(j *job, task dag.TaskID) {
	alpha := j.graph.Task(task).Type
	c.queues[alpha] = append(c.queues[alpha], entry{j: j, task: task})
	c.qwork[alpha] += j.graph.Task(task).Work
	j.tenant.load++
}

// assign fills idle processors pool by pool. Each placement re-derives
// the candidate set (priority class, then fair share, then the
// scheduler), because a placement moves both the live queue work MQB
// scores against and the winning tenant's virtual service.
func (c *Core) assign() {
	for a := 0; a < c.k; a++ {
		alpha := dag.Type(a)
		for c.busy[a] < c.cap[a] && len(c.queues[a]) > 0 {
			cands := c.candidates(alpha)
			qi, score := c.pick(alpha, cands)
			c.place(alpha, qi, len(cands), score)
		}
	}
}

// candidates filters pool alpha's queue to the scheduler-visible set:
// the maximum priority class first, then — unless fair share is off —
// the tenant with minimal virtual service within that class (ties to
// the lexicographically smallest name). Returns the candidates' queue
// positions in queue order.
func (c *Core) candidates(alpha dag.Type) []int {
	q := c.queues[alpha]
	maxPrio := q[0].j.priority
	for _, e := range q[1:] {
		if e.j.priority > maxPrio {
			maxPrio = e.j.priority
		}
	}
	var fair *tenant
	if !c.cfg.NoFairShare {
		for _, e := range q {
			if e.j.priority != maxPrio {
				continue
			}
			t := e.j.tenant
			if fair == nil || t.service < fair.service ||
				(t.service == fair.service && t.name < fair.name) {
				fair = t
			}
		}
	}
	c.cands = c.cands[:0]
	for qi, e := range q {
		if e.j.priority != maxPrio || (fair != nil && e.j.tenant != fair) {
			continue
		}
		c.cands = append(c.cands, qi)
	}
	return c.cands
}

// pick chooses among pool alpha's candidates (queue positions, in
// queue order) and returns the winner's queue position with its score
// for the decision trace. KGreedy takes the oldest candidate. MQB
// offers each candidate's typed descendant row to the balance kernel
// and keeps the best snapshot, ties to the earlier queue position. It
// scores against the nominal pool sizes even under churn; only
// placement honors the live capacity.
func (c *Core) pick(alpha dag.Type, cands []int) (int, float64) {
	if c.bal == nil || len(cands) == 1 {
		return cands[0], 0
	}
	base, procs := c.bal.Reset(c.k)
	for a := range base {
		base[a] = float64(c.qwork[a])
		procs[a] = float64(c.cfg.Procs[a])
	}
	q := c.queues[alpha]
	best := cands[0]
	for _, qi := range cands {
		e := q[qi]
		if c.bal.Offer(alpha, e.j.desc[e.task], float64(e.j.graph.Task(e.task).Work), false) {
			best = qi
		}
	}
	return best, c.bal.Score()
}

// place starts queue entry qi of pool alpha on a processor.
func (c *Core) place(alpha dag.Type, qi, nCands int, score float64) {
	q := c.queues[alpha]
	e := q[qi]
	copy(q[qi:], q[qi+1:])
	c.queues[alpha] = q[:len(q)-1]
	j := e.j
	work := j.graph.Task(e.task).Work
	c.qwork[alpha] -= work
	c.busy[alpha]++
	j.running++
	j.tenant.service += float64(work) / j.weight
	if !j.started {
		j.started = true
		delay := c.now - j.submitted
		j.tenant.mDelay.Observe(delay)
		c.mets.delay.Observe(delay)
	}
	if c.cfg.Obs.Enabled() {
		if nCands > 1 {
			ev := obs.DecisionEv(c.now, int64(e.task), int64(alpha), int64(nCands), score)
			ev.Job = j.idx
			c.cfg.Obs.Emit(ev)
		}
		c.cfg.Obs.Emit(obs.JobTaskEv(obs.KindStart, c.now, j.idx, int64(e.task), int64(alpha)))
	}
	if nCands > 1 {
		c.mets.decisions.Inc()
	}
	c.run.Push(runTask{
		finish: c.now + work,
		jidx:   j.idx,
		task:   e.task,
		j:      j,
		alpha:  alpha,
		work:   work,
		start:  c.now,
	})
}

// sample emits the per-pool queue-depth and x-utilization samples
// after a scheduling step, mirroring the offline engines.
func (c *Core) sample() {
	if !c.cfg.Obs.Enabled() {
		return
	}
	for a := 0; a < c.k; a++ {
		c.cfg.Obs.Emit(obs.TypeEv(obs.KindQueueDepth, c.now, int64(a), int64(len(c.queues[a])), 0))
		// X-utilization is measured against the live capacity; a fully
		// crashed pool has no utilization to sample.
		if c.cap[a] > 0 {
			c.cfg.Obs.Emit(obs.TypeEv(obs.KindXUtil, c.now, int64(a), int64(c.cap[a]), float64(c.qwork[a])/float64(c.cap[a])))
		}
	}
}

// Summary returns the service-wide outcome snapshot, tenants sorted
// by name.
func (c *Core) Summary() Summary {
	s := Summary{Now: c.now, Jobs: len(c.order), Tasks: c.tasksDone, Kills: c.kills, WastedWork: c.wasted}
	for _, name := range c.tenantNames {
		t := c.tenants[name]
		s.Done += t.done
		s.Cancelled += t.cancelled
		s.Failed += t.failed
		s.Tenants = append(s.Tenants, TenantSummary{
			Tenant:             t.name,
			Admitted:           t.admitted,
			Done:               t.done,
			Cancelled:          t.cancelled,
			Rejected:           t.rejected,
			Shed:               t.shed,
			Failed:             t.failed,
			WeightedCompletion: t.wct,
			FlowSum:            t.flow,
		})
	}
	return s
}
