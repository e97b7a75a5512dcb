// Command fhload is the trace-driven load and SLO harness: it
// synthesizes a deterministic open-loop arrival trace from a named
// shape preset, drives it against an in-process core (default) or a
// live fhd (-url), and writes a schema-versioned SLO report with
// per-tenant latency percentiles, shed accounting and objective
// attainment.
//
// Run (writes SLO JSON plus a human table):
//
//	fhload -procs 2,2 [-shape poisson|pareto|diurnal|burst|uniform]
//	       [-jobs N] [-seed S] [-mean-gap G] [-tenants acme:2,blob:1]
//	       [-cancel F] [-priorities P] [-scale small|medium]
//	       [-alpha A] [-period P] [-amplitude A] [-burstfactor B] [-duty D]
//	       [-sched MQB|KGreedy] [-quota N] [-quotas t=N,...]
//	       [-nofair] [-maxbacklog N]
//	       [-mttf F -mttr R -horizon H [-retries N] [-faultseed S]]
//	       [-slo tenant=budget[:target],...] [-url http://host:port]
//	       [-trace FILE] [-noaudit] [-note TEXT] [-out SLO.json]
//
// Every latency in the report is simulated time, so reports are
// bit-deterministic: identical seed, shape and machine produce
// identical fingerprints on any host and in both drive modes. -trace
// replays a recorded arrival trace (fhgen -arrivals JSONL) instead of
// synthesizing one.
//
// The short CI soak pins an entire workload under one name:
//
//	fhload -soak ci [-url ...] [-out SLO_ci.json]
//
// Compare (exits 2 on a regression beyond the gate or a workload
// mismatch; wall-clock throughput is reported but never gated):
//
//	fhload -compare old.json new.json [-gate 0.25] [-noise 0.05]
//
// Summary (renders a saved report's human table):
//
//	fhload -summary SLO.json
//
// The committed baseline lives at SLO_CI.json; the CI soak job drives
// the pinned workload both in-process and against a live fhd and
// compares both reports to it (warn-only on pull requests, hard gate
// on main). See the Load testing section of EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"fhs/internal/analyze"
	"fhs/internal/fault"
	"fhs/internal/load"
	"fhs/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fhload: ")
	var (
		procsSpec  = flag.String("procs", "", "pool sizes per type, e.g. 2,2 (required unless -soak)")
		shape      = flag.String("shape", "poisson", "arrival shape: uniform, poisson, pareto, diurnal or burst")
		jobs       = flag.Int("jobs", 200, "number of job submits")
		seed       = flag.Int64("seed", 1, "trace seed; also offsets per-job spec seeds")
		meanGap    = flag.Int64("mean-gap", 4, "mean inter-arrival gap in simulated time units")
		tenants    = flag.String("tenants", "", "tenant:weight list, e.g. acme:2,blob:1 (default one tenant)")
		cancelFrac = flag.Float64("cancel", 0, "fraction of jobs cancelled at a later instant")
		priorities = flag.Int("priorities", 0, "assign uniform priorities in [0,N) when > 1")
		scale      = flag.String("scale", "", "job spec scale (empty = small)")
		alpha      = flag.Float64("alpha", 0, "pareto: tail index (> 1; 0 = default 1.5)")
		period     = flag.Int64("period", 0, "diurnal/burst: cycle length (0 = derived)")
		amplitude  = flag.Float64("amplitude", 0, "diurnal: rate swing in [0,1) (0 = default 0.8)")
		burstFac   = flag.Float64("burstfactor", 0, "burst: flash-crowd rate multiplier (0 = default 6)")
		duty       = flag.Float64("duty", 0, "burst: fraction of each period at the burst rate (0 = default 0.1)")
		schedName  = flag.String("sched", "", "scheduler name (MQB or KGreedy; empty = MQB)")
		quota      = flag.Int("quota", 0, "default per-tenant admission quota (0 = unlimited)")
		quotasSpec = flag.String("quotas", "", "per-tenant quota overrides, e.g. acme=2,blob=1")
		nofair     = flag.Bool("nofair", false, "disable deterministic fair share")
		maxBacklog = flag.Int("maxbacklog", 0, "shed submits once this many tasks are queued or running (0 = unbounded)")
		mttf       = flag.Float64("mttf", 0, "mean time to processor failure (0 = no fault churn; in-process mode only)")
		mttr       = flag.Float64("mttr", 0, "mean time to processor repair (required with -mttf)")
		horizon    = flag.Int64("horizon", 0, "fault churn horizon")
		retries    = flag.Int("retries", 0, "per-task retry budget under fault churn")
		faultSeed  = flag.Int64("faultseed", 1, "seed for the fault plan draw")
		sloSpec    = flag.String("slo", "", "per-tenant objectives: tenant=budget[:target],... (target defaults to 0.99)")
		url        = flag.String("url", "", "drive a live fhd at this base URL instead of an in-process core")
		tracePath  = flag.String("trace", "", "replay this arrival trace (JSONL) instead of synthesizing one")
		noaudit    = flag.Bool("noaudit", false, "skip the independent stream audit of the run")
		note       = flag.String("note", "", "free-form label stored in the report")
		out        = flag.String("out", "", "write the SLO report JSON to this file")
		soak       = flag.String("soak", "", "named soak preset pinning the whole workload (currently: ci)")
		summaryF   = flag.String("summary", "", "render a saved report's human table and exit")
		compare    = flag.Bool("compare", false, "compare two reports: fhload -compare old.json new.json")
		gateF      = flag.Float64("gate", 0.25, "compare: worsening that fails the comparison")
		noise      = flag.Float64("noise", 0.05, "compare: delta treated as noise")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("usage: fhload -compare old.json new.json")
		}
		runCompare(flag.Arg(0), flag.Arg(1), load.Gate{Noise: *noise, Fail: *gateF})
		return
	}
	if *summaryF != "" {
		rep, err := load.LoadReport(*summaryF)
		if err != nil {
			log.Fatal(err)
		}
		if err := analyze.WriteSLO(os.Stdout, rep); err != nil {
			log.Fatal(err)
		}
		return
	}
	if flag.NArg() != 0 {
		log.Fatalf("unexpected arguments %v (did you mean -compare?)", flag.Args())
	}

	tenantSpecs, err := parseTenants(*tenants)
	if err != nil {
		log.Fatal(err)
	}
	quotas, err := parseQuotas(*quotasSpec)
	if err != nil {
		log.Fatal(err)
	}
	slos, err := parseSLOs(*sloSpec)
	if err != nil {
		log.Fatal(err)
	}

	tc := load.TraceConfig{
		Shape:          *shape,
		Jobs:           *jobs,
		MeanGap:        *meanGap,
		Tenants:        tenantSpecs,
		CancelFrac:     *cancelFrac,
		K:              0, // derived from -procs below
		Scale:          *scale,
		SeedBase:       *seed,
		PriorityLevels: *priorities,
		ParetoAlpha:    *alpha,
		Period:         *period,
		Amplitude:      *amplitude,
		BurstFactor:    *burstFac,
		Duty:           *duty,
	}
	cfg := load.RunConfig{
		Scheduler:       *schedName,
		DefaultQuota:    *quota,
		Quotas:          quotas,
		NoFairShare:     *nofair,
		MaxBacklogTasks: *maxBacklog,
		SLOs:            slos,
		Audit:           !*noaudit,
		URL:             *url,
		Note:            *note,
	}

	if *soak != "" {
		if *soak != "ci" {
			log.Fatalf("unknown soak preset %q (want ci)", *soak)
		}
		// The ci soak pins the entire workload — any flag that would
		// change outcomes is overridden, so one committed SLO_CI.json
		// gates every runner. Mode flags (-url, -noaudit,
		// -out) stay free because they never change outcomes.
		tc, cfg.SLOs = load.CISoak()
		cfg.Scheduler = ""
		cfg.DefaultQuota = 0
		cfg.Quotas = nil
		cfg.NoFairShare = false
		cfg.MaxBacklogTasks = load.CISoakMaxBacklog
		cfg.Procs = load.CISoakProcs()
	} else {
		if *procsSpec == "" {
			log.Fatal("-procs is required (e.g. -procs 2,2); or use -soak ci")
		}
		cfg.Procs, err = parsePools(*procsSpec)
		if err != nil {
			log.Fatal(err)
		}
		tc.K = len(cfg.Procs)
	}

	if *mttf > 0 {
		fc := fault.Config{MTTF: *mttf, MTTR: *mttr, Horizon: *horizon, MaxRetries: *retries}
		if err := fc.Validate(); err != nil {
			log.Fatal(err)
		}
		cfg.Faults = fc.NewPlan(cfg.Procs, rand.New(rand.NewSource(*faultSeed)))
	}

	var rep *load.Report
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		ops, err := service.ReadTrace(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		rep, err = load.RunOps(cfg, tc, ops)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		rep, err = load.Run(cfg, tc)
		if err != nil {
			log.Fatal(err)
		}
	}

	if err := analyze.WriteSLO(os.Stdout, rep); err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		err = rep.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *out)
	}
	if !rep.SLOMet {
		os.Exit(1)
	}
}

func runCompare(oldPath, newPath string, g load.Gate) {
	oldRep, err := load.LoadReport(oldPath)
	if err != nil {
		log.Fatal(err)
	}
	newRep, err := load.LoadReport(newPath)
	if err != nil {
		log.Fatal(err)
	}
	c, err := load.Compare(oldRep, newRep, g)
	if err != nil {
		log.Fatal(err)
	}
	if err := load.WriteComparison(os.Stdout, c); err != nil {
		log.Fatal(err)
	}
	if c.Failed() {
		os.Exit(2)
	}
}

func parsePools(spec string) ([]int, error) {
	parts := strings.Split(spec, ",")
	pools := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad pool size %q: %v", p, err)
		}
		pools = append(pools, v)
	}
	return pools, nil
}

// parseTenants parses name:weight pairs; weights are optional and
// default to 1.
func parseTenants(spec string) ([]service.TenantSpec, error) {
	if spec == "" {
		return nil, nil
	}
	var specs []service.TenantSpec
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), ":")
		if name == "" {
			return nil, fmt.Errorf("bad tenant %q, want name or name:weight", part)
		}
		w := 1.0
		if ok {
			var err error
			if w, err = strconv.ParseFloat(val, 64); err != nil || w <= 0 {
				return nil, fmt.Errorf("bad tenant weight %q", part)
			}
		}
		specs = append(specs, service.TenantSpec{Name: name, Weight: w})
	}
	return specs, nil
}

func parseQuotas(spec string) (map[string]int, error) {
	if spec == "" {
		return nil, nil
	}
	quotas := make(map[string]int)
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad quota %q, want tenant=N", part)
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return nil, fmt.Errorf("bad quota %q: %v", part, err)
		}
		quotas[name] = n
	}
	return quotas, nil
}

// parseSLOs parses tenant=budget[:target] triples, e.g.
// "acme=512:0.95,blob=768".
func parseSLOs(spec string) ([]load.SLO, error) {
	if spec == "" {
		return nil, nil
	}
	var slos []load.SLO
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad SLO %q, want tenant=budget[:target]", part)
		}
		budgetStr, targetStr, hasTarget := strings.Cut(val, ":")
		budget, err := strconv.ParseInt(budgetStr, 10, 64)
		if err != nil || budget <= 0 {
			return nil, fmt.Errorf("bad SLO budget %q: want a positive integer", part)
		}
		s := load.SLO{Tenant: name, FlowBudget: budget}
		if hasTarget {
			if s.Target, err = strconv.ParseFloat(targetStr, 64); err != nil || s.Target <= 0 || s.Target > 1 {
				return nil, fmt.Errorf("bad SLO target %q: want a fraction in (0,1]", part)
			}
		}
		slos = append(slos, s)
	}
	return slos, nil
}
