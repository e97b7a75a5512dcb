package load

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

// SchemaVersion is the SLO_<n>.json schema. Bump it when report
// fields change meaning; the comparator refuses to diff mismatched
// schemas rather than report nonsense deltas.
const SchemaVersion = 1

// Pct is one latency distribution's percentile triple, in simulated
// time units. Values are histogram bucket upper bounds (powers of
// two), so they are bit-deterministic across hosts and drive modes.
type Pct struct {
	P50  int64 `json:"p50"`
	P99  int64 `json:"p99"`
	P999 int64 `json:"p999"`
}

// SLO declares one tenant's objective: at least Target of the
// tenant's completed jobs must finish within FlowBudget simulated
// time units of submission.
type SLO struct {
	Tenant string `json:"tenant"`
	// FlowBudget is the per-job flow-time budget (completion −
	// submission), > 0.
	FlowBudget int64 `json:"flow_budget"`
	// Target is the required fraction of done jobs within budget;
	// <= 0 defaults to 0.99.
	Target float64 `json:"target"`
}

// TenantReport is one tenant's slice of the outcome.
type TenantReport struct {
	Tenant     string `json:"tenant"`
	Admitted   int    `json:"admitted"`
	Done       int    `json:"done"`
	Cancelled  int    `json:"cancelled"`
	Rejected   int    `json:"rejected"`
	Shed       int    `json:"shed"`
	Failed     int    `json:"failed"`
	QueueDelay Pct    `json:"queue_delay"`
	Flow       Pct    `json:"flow"`
	// WeightedCompletion and FlowSum mirror the service summary — the
	// Σ wC objective of the paper, reported per tenant.
	WeightedCompletion float64 `json:"weighted_completion"`
	FlowSum            int64   `json:"flow_sum"`
	// SLO echo + outcome; present only when an objective was declared
	// for this tenant. Attainment is the exact fraction of done jobs
	// whose flow time was within FlowBudget (1 when none completed).
	FlowBudget int64   `json:"flow_budget,omitempty"`
	Target     float64 `json:"target,omitempty"`
	Attainment float64 `json:"attainment,omitempty"`
	SLOMet     *bool   `json:"slo_met,omitempty"`
}

// Report is a finished load run — the payload of SLO_<n>.json.
// Deterministic fields (everything except the environment and
// wall-clock block at the bottom) are a pure function of the workload
// identity, and Fingerprint certifies them: two runs of the same
// shape, seed and machine produce byte-identical fingerprints
// regardless of host or drive mode.
type Report struct {
	Schema int    `json:"schema"`
	Note   string `json:"note,omitempty"`

	// Workload identity — Compare refuses to diff reports that
	// disagree here (that would compare different work).
	Shape        string  `json:"shape"`
	Seed         int64   `json:"seed"`
	Jobs         int     `json:"jobs"`
	MeanGap      int64   `json:"mean_gap"`
	CancelFrac   float64 `json:"cancel_frac,omitempty"`
	K            int     `json:"k"`
	Procs        []int   `json:"procs"`
	Scheduler    string  `json:"scheduler"`
	DefaultQuota int     `json:"default_quota,omitempty"`
	MaxBacklog   int     `json:"max_backlog,omitempty"`
	// Mode ("inproc" or "http") identifies how the run was driven; it
	// is outcome-invariant and excluded from the fingerprint and the
	// identity check.
	Mode string `json:"mode"`

	// Deterministic outcome.
	Makespan       int64 `json:"makespan"`
	Submitted      int   `json:"submitted"`
	Replays        int   `json:"replays,omitempty"`
	Rejected       int   `json:"rejected,omitempty"`
	Shed           int   `json:"shed,omitempty"`
	Cancelled      int   `json:"cancelled,omitempty"`
	CancelMisses   int   `json:"cancel_misses,omitempty"`
	Done           int   `json:"done"`
	Failed         int   `json:"failed,omitempty"`
	Kills          int64 `json:"kills,omitempty"`
	WastedWork     int64 `json:"wasted_work,omitempty"`
	TasksCompleted int64 `json:"tasks_completed"`
	Decisions      int64 `json:"decisions"`
	QueueDelay     Pct   `json:"queue_delay"`
	Flow           Pct   `json:"flow"`
	// ShedRate is shed submits over attempted submits; ShedSeqHash is
	// the sha256 of the ordered (op index, Retry-After) shed sequence
	// — the drive-mode-invariance certificate for the 429 path.
	ShedRate    float64 `json:"shed_rate"`
	ShedSeqHash string  `json:"shed_seq_hash,omitempty"`
	// SLOMet is the conjunction over declared tenant objectives (true
	// when none are declared).
	SLOMet  bool           `json:"slo_met"`
	Tenants []TenantReport `json:"tenants"`
	// Fingerprint is the sha256 over the canonical rendering of every
	// deterministic field above (Mode and Note excluded).
	Fingerprint string `json:"fingerprint"`

	// Environment and wall-clock throughput: informational, excluded
	// from the fingerprint, never hard-gated by Compare.
	GoVersion       string  `json:"go_version"`
	GOOS            string  `json:"goos"`
	GOARCH          string  `json:"goarch"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	ElapsedSec      float64 `json:"elapsed_sec"`
	OpsPerSec       float64 `json:"ops_per_sec"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
}

// stampEnv fills the environment block.
func (r *Report) stampEnv() {
	r.GoVersion = runtime.Version()
	r.GOOS = runtime.GOOS
	r.GOARCH = runtime.GOARCH
	r.GOMAXPROCS = runtime.GOMAXPROCS(0)
}

// fingerprint renders every deterministic field canonically and
// hashes it. Order is fixed by this function, not by JSON encoding,
// so adding informational fields can never change existing
// fingerprints.
func (r *Report) fingerprint() string {
	h := sha256.New()
	put := func(format string, args ...any) { fmt.Fprintf(h, format+"\n", args...) }
	put("schema=%d", r.Schema)
	put("workload=%s seed=%d jobs=%d gap=%d cancel=%g k=%d procs=%v sched=%s quota=%d backlog=%d",
		r.Shape, r.Seed, r.Jobs, r.MeanGap, r.CancelFrac, r.K, r.Procs, r.Scheduler, r.DefaultQuota, r.MaxBacklog)
	put("outcome=%d sub=%d rep=%d rej=%d shed=%d can=%d miss=%d done=%d fail=%d kills=%d waste=%d tasks=%d dec=%d",
		r.Makespan, r.Submitted, r.Replays, r.Rejected, r.Shed, r.Cancelled, r.CancelMisses,
		r.Done, r.Failed, r.Kills, r.WastedWork, r.TasksCompleted, r.Decisions)
	put("qdelay=%d/%d/%d flow=%d/%d/%d shedrate=%g shedseq=%s slomet=%t",
		r.QueueDelay.P50, r.QueueDelay.P99, r.QueueDelay.P999,
		r.Flow.P50, r.Flow.P99, r.Flow.P999, r.ShedRate, r.ShedSeqHash, r.SLOMet)
	for _, t := range r.Tenants {
		met := "-"
		if t.SLOMet != nil {
			met = fmt.Sprintf("%t", *t.SLOMet)
		}
		put("tenant=%s adm=%d done=%d can=%d rej=%d shed=%d fail=%d qd=%d/%d/%d fl=%d/%d/%d wct=%g flowsum=%d budget=%d target=%g att=%g met=%s",
			t.Tenant, t.Admitted, t.Done, t.Cancelled, t.Rejected, t.Shed, t.Failed,
			t.QueueDelay.P50, t.QueueDelay.P99, t.QueueDelay.P999,
			t.Flow.P50, t.Flow.P99, t.Flow.P999,
			t.WeightedCompletion, t.FlowSum, t.FlowBudget, t.Target, t.Attainment, met)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// WriteJSON writes the report in the committed SLO_<n>.json format:
// indented, trailing newline, stable field order.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses a report and validates its schema.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("load: parse report: %w", err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("load: report schema %d, this binary speaks %d", r.Schema, SchemaVersion)
	}
	return &r, nil
}

// LoadReport reads a report from a file.
func LoadReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//fhlint:ignore errsink file opened read-only; a close failure cannot lose report data
	defer f.Close()
	r, err := ReadReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
