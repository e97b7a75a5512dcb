package load

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fhs/internal/fault"
	"fhs/internal/obs"
	"fhs/internal/service"
	"fhs/internal/verify"
)

// RunConfig describes how to drive a synthesized trace.
type RunConfig struct {
	// Procs is the machine: Procs[α] processors of type α. Required;
	// must match the trace's K. In HTTP mode it must mirror the
	// served machine (it seeds the report identity and the audit).
	Procs []int
	// Scheduler names the registered picker; empty selects MQB. In
	// HTTP mode it must mirror the served scheduler.
	Scheduler string
	// DefaultQuota, Quotas, NoFairShare and MaxBacklogTasks mirror
	// service.Config (in-process mode) or the served configuration
	// (HTTP mode; needed for the report identity and the audit).
	DefaultQuota    int
	Quotas          map[string]int
	NoFairShare     bool
	MaxBacklogTasks int
	// Faults drives live capacity churn through the in-process core.
	// HTTP mode rejects it — churn is configured server-side there.
	Faults *fault.Plan
	// SLOs declare per-tenant objectives; every named tenant must
	// appear in the trace.
	SLOs []SLO
	// Audit replays the run's obs stream through
	// verify.AuditServiceStream after the drive — the independent
	// evidence check. It forces event collection (in-process) or an
	// extra /v1/obs fetch (HTTP).
	Audit bool
	// URL switches to HTTP mode: ops are driven against the live fhd
	// at this base URL instead of an in-process core.
	URL string
	// Client overrides the HTTP client; nil uses a 60s-timeout
	// default.
	Client *http.Client
	// Note is stored in the report.
	Note string
}

func (cfg *RunConfig) validate(tc TraceConfig) error {
	if len(cfg.Procs) == 0 {
		return fmt.Errorf("load: empty machine")
	}
	if tc.K != len(cfg.Procs) {
		return fmt.Errorf("load: trace has K=%d, machine has %d pools", tc.K, len(cfg.Procs))
	}
	if cfg.URL != "" && cfg.Faults != nil {
		return fmt.Errorf("load: fault churn is configured server-side in HTTP mode (start fhd with -mttf)")
	}
	for _, s := range cfg.SLOs {
		if s.FlowBudget <= 0 {
			return fmt.Errorf("load: tenant %q SLO flow budget %d, want > 0", s.Tenant, s.FlowBudget)
		}
		if s.Target > 1 {
			return fmt.Errorf("load: tenant %q SLO target %g, want <= 1", s.Tenant, s.Target)
		}
	}
	return nil
}

// shedEvent is one 429 in drive order: the op index it answered and
// the deterministic Retry-After the service attached.
type shedEvent struct {
	opIndex    int
	retryAfter int64
}

// outcome is what a drive produces, identical in shape for both
// modes so the report builder cannot diverge between them.
type outcome struct {
	makespan  int64
	summary   service.Summary
	records   []service.JobStatus
	snaps     []obs.MetricSnapshot
	events    []obs.Event // nil unless auditing
	scheduler string

	submitted, replays, rejected, shed int
	cancelled, cancelMisses            int
	sheds                              []shedEvent
}

// Run synthesizes the trace from tc and drives it per cfg.
func Run(cfg RunConfig, tc TraceConfig) (*Report, error) {
	ops, err := SynthesizeSeeded(tc)
	if err != nil {
		return nil, err
	}
	return RunOps(cfg, tc, ops)
}

// RunOps drives a pre-synthesized (or recorded) arrival trace. tc
// supplies the workload-identity fields of the report; it must be the
// config the trace came from for the identity to mean anything.
func RunOps(cfg RunConfig, tc TraceConfig, ops []service.Op) (*Report, error) {
	tc = tc.fillDefaults()
	if err := cfg.validate(tc); err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("load: empty trace")
	}

	mode := "inproc"
	//fhlint:ignore detrand wall-clock throughput measurement around the drive; no simulated quantity derives from it
	start := time.Now()
	var o *outcome
	var err error
	if cfg.URL != "" {
		mode = "http"
		o, err = driveHTTP(cfg, ops)
	} else {
		o, err = driveCore(cfg, ops)
	}
	if err != nil {
		return nil, err
	}
	//fhlint:ignore detrand wall-clock throughput measurement around the drive; no simulated quantity derives from it
	elapsed := time.Since(start).Seconds()

	if cfg.Audit {
		if err := auditOutcome(cfg, ops, o); err != nil {
			return nil, fmt.Errorf("load: stream audit failed: %w", err)
		}
	}

	rep, err := buildReport(cfg, tc, mode, len(ops), o)
	if err != nil {
		return nil, err
	}
	rep.ElapsedSec = elapsed
	if elapsed > 0 {
		rep.OpsPerSec = float64(len(ops)) / elapsed
		rep.DecisionsPerSec = float64(rep.Decisions) / elapsed
	}
	return rep, nil
}

// driveCore feeds ops through an in-process service core, mirroring
// exactly the calls the fhd HTTP handler makes so the two modes stay
// bit-identical.
func driveCore(cfg RunConfig, ops []service.Op) (*outcome, error) {
	scfg := service.Config{
		Procs:           cfg.Procs,
		Scheduler:       cfg.Scheduler,
		DefaultQuota:    cfg.DefaultQuota,
		Quotas:          cfg.Quotas,
		NoFairShare:     cfg.NoFairShare,
		MaxBacklogTasks: cfg.MaxBacklogTasks,
		Faults:          cfg.Faults,
		Metrics:         obs.NewRegistry(),
	}
	if cfg.Audit {
		scfg.Obs = obs.NewTracer()
	}
	c, err := service.New(scfg)
	if err != nil {
		return nil, err
	}
	o := &outcome{scheduler: c.Scheduler()}
	for i := range ops {
		op := &ops[i]
		if err := op.Validate(); err != nil {
			return nil, fmt.Errorf("load: op %d: %w", i, err)
		}
		if err := c.AdvanceTo(op.T); err != nil {
			return nil, fmt.Errorf("load: op %d: %w", i, err)
		}
		switch op.Op {
		case "submit":
			_, err := c.Submit(op.SubmitRequest())
			switch {
			case err == nil:
				o.submitted++
			case errors.Is(err, service.ErrIdempotentReplay):
				o.replays++
			case errors.Is(err, service.ErrQuotaExceeded):
				o.rejected++
			case errors.Is(err, service.ErrOverloaded):
				o.shed++
				o.sheds = append(o.sheds, shedEvent{opIndex: i, retryAfter: c.RetryAfter()})
			default:
				return nil, fmt.Errorf("load: op %d: %w", i, err)
			}
		case "cancel":
			_, err := c.Cancel(op.ID)
			switch {
			case err == nil:
				o.cancelled++
			case errors.Is(err, service.ErrJobDone), errors.Is(err, service.ErrJobCancelled),
				errors.Is(err, service.ErrJobFailed), errors.Is(err, service.ErrUnknownJob):
				o.cancelMisses++
			default:
				return nil, fmt.Errorf("load: op %d: %w", i, err)
			}
		}
	}
	o.makespan = c.Drain()
	o.summary = c.Summary()
	o.records = c.Records()
	o.snaps = scfg.Metrics.Snapshot()
	if cfg.Audit {
		o.events = scfg.Obs.Events()
	}
	return o, nil
}

// driveHTTP feeds ops to a live fhd over its JSON API, in strict
// trace order, so the server observes exactly the operation sequence
// the in-process drive applies.
func driveHTTP(cfg RunConfig, ops []service.Op) (*outcome, error) {
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	base := strings.TrimRight(cfg.URL, "/")

	bodies, err := encodeBodies(ops)
	if err != nil {
		return nil, err
	}

	// Resolve the canonical scheduler name through the same registry
	// the server used, so an in-process and an HTTP report of the same
	// workload can never disagree on casing.
	picker, err := service.NewPicker(cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	o := &outcome{scheduler: picker.Name()}
	lastT := int64(-1)
	for i := range ops {
		op := &ops[i]
		if err := op.Validate(); err != nil {
			return nil, fmt.Errorf("load: op %d: %w", i, err)
		}
		if op.T != lastT {
			body := fmt.Sprintf(`{"to":%d}`, op.T)
			if err := expectStatus(client, http.MethodPost, base+"/v1/advance", []byte(body), http.StatusOK, nil); err != nil {
				return nil, fmt.Errorf("load: op %d advance: %w", i, err)
			}
			lastT = op.T
		}
		switch op.Op {
		case "submit":
			resp, err := do(client, http.MethodPost, base+"/v1/jobs", bodies[i])
			if err != nil {
				return nil, fmt.Errorf("load: op %d: %w", i, err)
			}
			switch resp.status {
			case http.StatusCreated:
				o.submitted++
			case http.StatusOK:
				o.replays++
			case http.StatusTooManyRequests:
				// A Retry-After header marks backlog shedding; its
				// absence marks a quota rejection (both are 429).
				if ra := resp.retryAfter; ra != "" {
					v, err := strconv.ParseInt(ra, 10, 64)
					if err != nil {
						return nil, fmt.Errorf("load: op %d: bad Retry-After %q", i, ra)
					}
					o.shed++
					o.sheds = append(o.sheds, shedEvent{opIndex: i, retryAfter: v})
				} else {
					o.rejected++
				}
			default:
				return nil, fmt.Errorf("load: op %d: submit %q: status %d: %s", i, op.ID, resp.status, resp.body)
			}
		case "cancel":
			resp, err := do(client, http.MethodDelete, base+"/v1/jobs/"+op.ID, nil)
			if err != nil {
				return nil, fmt.Errorf("load: op %d: %w", i, err)
			}
			switch resp.status {
			case http.StatusOK:
				o.cancelled++
			case http.StatusNotFound, http.StatusConflict:
				o.cancelMisses++
			default:
				return nil, fmt.Errorf("load: op %d: cancel %q: status %d: %s", i, op.ID, resp.status, resp.body)
			}
		}
	}

	var drained struct {
		Now int64 `json:"now"`
	}
	if err := expectStatus(client, http.MethodPost, base+"/v1/advance", []byte(`{"drain":true}`), http.StatusOK, &drained); err != nil {
		return nil, fmt.Errorf("load: drain: %w", err)
	}
	o.makespan = drained.Now

	if err := expectStatus(client, http.MethodGet, base+"/v1/summary", nil, http.StatusOK, &o.summary); err != nil {
		return nil, fmt.Errorf("load: summary: %w", err)
	}
	if err := expectStatus(client, http.MethodGet, base+"/v1/jobs", nil, http.StatusOK, &o.records); err != nil {
		return nil, fmt.Errorf("load: records: %w", err)
	}
	if err := expectStatus(client, http.MethodGet, base+"/v1/metrics?format=json", nil, http.StatusOK, &o.snaps); err != nil {
		return nil, fmt.Errorf("load: metrics: %w", err)
	}
	if cfg.Audit {
		resp, err := do(client, http.MethodGet, base+"/v1/obs", nil)
		if err != nil {
			return nil, fmt.Errorf("load: obs: %w", err)
		}
		if resp.status != http.StatusOK {
			return nil, fmt.Errorf("load: obs: status %d", resp.status)
		}
		events, err := obs.ReadJSONL(bytes.NewReader(resp.body))
		if err != nil {
			return nil, fmt.Errorf("load: obs stream: %w", err)
		}
		o.events = events
	}
	return o, nil
}

// encodeBodies pre-marshals every submit body; other ops get nil.
func encodeBodies(ops []service.Op) ([][]byte, error) {
	bodies := make([][]byte, len(ops))
	for i := range ops {
		if ops[i].Op != "submit" {
			continue
		}
		b, err := json.Marshal(ops[i].SubmitRequest())
		if err != nil {
			return nil, fmt.Errorf("load: op %d: encode: %w", i, err)
		}
		bodies[i] = b
	}
	return bodies, nil
}

// httpResult is one response, drained and closed.
type httpResult struct {
	status     int
	retryAfter string
	body       []byte
}

func do(client *http.Client, method, url string, body []byte) (*httpResult, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	return &httpResult{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"), body: data}, nil
}

// expectStatus performs a request, requires one status, and
// optionally decodes the JSON body into out.
func expectStatus(client *http.Client, method, url string, body []byte, want int, out any) error {
	resp, err := do(client, method, url, body)
	if err != nil {
		return err
	}
	if resp.status != want {
		return fmt.Errorf("%s %s: status %d (want %d): %s", method, url, resp.status, want, resp.body)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(resp.body, out)
}

// auditOutcome replays the drive's obs stream through the independent
// stream auditor, reconstructing the admitted-job declarations from
// the job records (admission order) joined with the trace (graph
// specs) — client-visible data only, so HTTP runs audit the same way
// in-process runs do.
func auditOutcome(cfg RunConfig, ops []service.Op, o *outcome) error {
	sa := verify.StreamAudit{
		Procs:        cfg.Procs,
		DefaultQuota: cfg.DefaultQuota,
		Quotas:       cfg.Quotas,
		FairShare:    !cfg.NoFairShare,
	}
	if cfg.Faults != nil {
		sa.Timeline = cfg.Faults.Timeline
		sa.MaxRetries = cfg.Faults.MaxRetries
	}
	byID := make(map[string]*service.Op, len(ops))
	for i := range ops {
		if ops[i].Op == "submit" {
			byID[ops[i].ID] = &ops[i]
		}
	}
	for i, rec := range o.records {
		op := byID[rec.ID]
		if op == nil {
			return fmt.Errorf("admitted job %q not in the trace", rec.ID)
		}
		g, err := op.Spec.Graph()
		if err != nil {
			return fmt.Errorf("job %q: %w", rec.ID, err)
		}
		sa.Jobs = append(sa.Jobs, verify.StreamJob{
			Job: int64(i), Tenant: rec.Tenant, Priority: rec.Priority,
			Weight: rec.Weight, Graph: g,
		})
	}
	return verify.AuditServiceStream(sa, o.events)
}

// pctFrom extracts the percentile triple of a named histogram
// snapshot; a missing histogram (no observations ever) reads as all
// zeros.
func pctFrom(snaps []obs.MetricSnapshot, name string) Pct {
	s := obs.FindSnapshot(snaps, name)
	if s == nil {
		return Pct{}
	}
	return Pct{P50: s.Quantile(0.50), P99: s.Quantile(0.99), P999: s.Quantile(0.999)}
}

// counterFrom reads a counter snapshot's total, 0 when absent.
func counterFrom(snaps []obs.MetricSnapshot, name string) int64 {
	s := obs.FindSnapshot(snaps, name)
	if s == nil {
		return 0
	}
	return int64(s.Value)
}

// buildReport distills a drive outcome into the SLO report. Every
// field set here is deterministic; the caller stamps the wall-clock
// block afterwards.
func buildReport(cfg RunConfig, tc TraceConfig, mode string, nOps int, o *outcome) (*Report, error) {
	slos := make(map[string]SLO, len(cfg.SLOs))
	for _, s := range cfg.SLOs {
		slos[s.Tenant] = s
	}
	// Exact per-tenant flow times of done jobs, for SLO attainment.
	flows := make(map[string][]int64)
	for _, rec := range o.records {
		if rec.State == service.StateDone {
			flows[rec.Tenant] = append(flows[rec.Tenant], rec.Completed-rec.Submitted)
		}
	}

	rep := &Report{
		Schema:       SchemaVersion,
		Note:         cfg.Note,
		Shape:        tc.Shape,
		Seed:         tc.SeedBase,
		Jobs:         tc.Jobs,
		MeanGap:      tc.MeanGap,
		CancelFrac:   tc.CancelFrac,
		K:            tc.K,
		Procs:        append([]int(nil), cfg.Procs...),
		Scheduler:    o.scheduler,
		DefaultQuota: cfg.DefaultQuota,
		MaxBacklog:   cfg.MaxBacklogTasks,
		Mode:         mode,

		Makespan:       o.makespan,
		Submitted:      o.submitted,
		Replays:        o.replays,
		Rejected:       o.rejected,
		Shed:           o.shed,
		Cancelled:      o.cancelled,
		CancelMisses:   o.cancelMisses,
		Done:           o.summary.Done,
		Failed:         o.summary.Failed,
		Kills:          o.summary.Kills,
		WastedWork:     o.summary.WastedWork,
		TasksCompleted: o.summary.Tasks,
		Decisions:      counterFrom(o.snaps, "fhd_decisions_total"),
		QueueDelay:     pctFrom(o.snaps, "fhd_queue_delay"),
		Flow:           pctFrom(o.snaps, "fhd_flow_time"),
	}
	if attempts := o.submitted + o.replays + o.rejected + o.shed; attempts > 0 {
		rep.ShedRate = float64(o.shed) / float64(attempts)
	}
	rep.ShedSeqHash = hashSheds(o.sheds)

	rep.SLOMet = true
	seen := make(map[string]bool, len(o.summary.Tenants))
	for _, ts := range o.summary.Tenants { // sorted by tenant name
		seen[ts.Tenant] = true
		tr := TenantReport{
			Tenant:             ts.Tenant,
			Admitted:           ts.Admitted,
			Done:               ts.Done,
			Cancelled:          ts.Cancelled,
			Rejected:           ts.Rejected,
			Shed:               ts.Shed,
			Failed:             ts.Failed,
			QueueDelay:         pctFrom(o.snaps, obs.LabelName("fhd_tenant_queue_delay", ts.Tenant)),
			Flow:               pctFrom(o.snaps, obs.LabelName("fhd_tenant_flow_time", ts.Tenant)),
			WeightedCompletion: ts.WeightedCompletion,
			FlowSum:            ts.FlowSum,
		}
		if s, ok := slos[ts.Tenant]; ok {
			target := s.Target
			if target <= 0 {
				target = 0.99
			}
			within := 0
			for _, f := range flows[ts.Tenant] {
				if f <= s.FlowBudget {
					within++
				}
			}
			att := 1.0
			if n := len(flows[ts.Tenant]); n > 0 {
				att = float64(within) / float64(n)
			}
			met := att >= target
			tr.FlowBudget = s.FlowBudget
			tr.Target = target
			tr.Attainment = att
			tr.SLOMet = &met
			if !met {
				rep.SLOMet = false
			}
		}
		rep.Tenants = append(rep.Tenants, tr)
	}
	for _, s := range cfg.SLOs {
		if !seen[s.Tenant] {
			return nil, fmt.Errorf("load: SLO declared for tenant %q, which never appears in the run", s.Tenant)
		}
	}

	rep.stampEnv()
	rep.Fingerprint = rep.fingerprint()
	return rep, nil
}

// hashSheds renders the ordered shed sequence canonically and hashes
// it — the bit-identical-429s certificate.
func hashSheds(sheds []shedEvent) string {
	h := sha256.New()
	for _, s := range sheds {
		fmt.Fprintf(h, "%d:%d\n", s.opIndex, s.retryAfter)
	}
	return hex.EncodeToString(h.Sum(nil))
}
