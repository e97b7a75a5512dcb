// Command fhd runs the online multi-job scheduling service: a
// deterministic event-loop core accepting K-DAG job arrivals over
// shared typed pools, exposed as a JSON-over-HTTP API.
//
// Usage:
//
//	fhd -procs P1,P2,... [-addr HOST:PORT] [-sched NAME]
//	    [-quota N] [-quotas tenant=N,...] [-nofair]
//	    [-wal DIR] [-fsync always|batch|off] [-maxbacklog N]
//	    [-mttf F -mttr F -horizon T [-retries N] [-faultseed S]]
//	fhd -procs P1,P2,... -replay trace.jsonl [-noaudit]
//	    [-obs FILE] [-metrics FILE]
//
// In serve mode fhd listens on -addr; see DESIGN.md for the API. With
// -wal DIR every mutating operation is journaled to an append-only
// write-ahead log before it touches the core, so a crash at any
// instant — including a SIGKILL mid-write — recovers the exact
// pre-crash state on restart: the journal replays through the
// deterministic core and /v1/fingerprint reports a bit-identical
// certificate. During recovery /readyz serves 503 and mutating
// requests are refused. SIGINT/SIGTERM trigger a graceful drain:
// /readyz flips to 503, in-flight requests finish, the WAL is synced
// and closed, and fhd exits 0.
//
// In replay mode fhd feeds a recorded arrival trace (as written by
// fhgen -arrivals) through a fresh core, audits the resulting stream
// with the independent verifier, prints the per-tenant summary and the
// canonical replay fingerprint, and exits. The fingerprint is
// bit-identical across runs and server restarts — CI
// replays the same trace twice and compares, and the crash-recovery
// smoke SIGKILLs a serving fhd mid-trace and diffs fingerprints after
// restart.
//
// The -mttf/-mttr/-horizon flags draw a seeded capacity-churn fault
// plan (processors crash and repair with exponential up/down times);
// killed tasks are retried up to -retries times before the job fails.
//
// Examples:
//
//	fhgen -arrivals 20 -tenants acme:2,blob:1 -k 2 > trace.jsonl
//	fhd -procs 2,2 -replay trace.jsonl
//	fhd -procs 2,2 -addr 127.0.0.1:8080 -wal /var/lib/fhd/wal &
//	curl -X POST localhost:8080/v1/jobs -d \
//	  '{"id":"j0","tenant":"acme","spec":{"class":"ep","k":2,"seed":7}}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"fhs/internal/fault"
	"fhs/internal/obs"
	"fhs/internal/service"
	"fhs/internal/service/wal"
	"fhs/internal/verify"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fhd: ")
	var (
		procsSpec  = flag.String("procs", "", "pool sizes per type, e.g. 2,2,3")
		addr       = flag.String("addr", "127.0.0.1:8080", "serve mode: listen address")
		schedName  = flag.String("sched", "MQB", "scheduler name (MQB or KGreedy)")
		quota      = flag.Int("quota", 0, "default per-tenant admission quota (0 = unlimited)")
		quotasSpec = flag.String("quotas", "", "per-tenant quota overrides, e.g. acme=2,blob=1")
		nofair     = flag.Bool("nofair", false, "disable deterministic fair share (FIFO within priority)")
		maxBacklog = flag.Int("maxbacklog", 0, "shed submits once this many tasks are queued or running (0 = unbounded)")
		walDir     = flag.String("wal", "", "serve mode: write-ahead log directory (empty = no durability)")
		fsyncName  = flag.String("fsync", "batch", "WAL fsync policy: always, batch or off")
		segBytes   = flag.Int64("segbytes", 1<<20, "WAL segment rotation threshold in bytes")
		snapEvery  = flag.Int("snapevery", 256, "WAL: snapshot and compact after this many appends (0 = never)")
		mttf       = flag.Float64("mttf", 0, "mean time to processor failure (0 = no fault churn)")
		mttr       = flag.Float64("mttr", 0, "mean time to processor repair (required with -mttf)")
		horizon    = flag.Int64("horizon", 0, "fault churn horizon; all processors stay up past it")
		retries    = flag.Int("retries", 0, "per-task retry budget under fault churn")
		faultSeed  = flag.Int64("faultseed", 1, "seed for the fault plan draw")
		replayPath = flag.String("replay", "", "replay mode: arrival trace file (JSONL)")
		noaudit    = flag.Bool("noaudit", false, "replay mode: skip the independent stream audit")
		obsPath    = flag.String("obs", "", "replay mode: write the obs event stream (JSONL) to this file")
		metricsF   = flag.String("metrics", "", "replay mode: write Prometheus metrics to this file")
	)
	flag.Parse()
	if *procsSpec == "" {
		flag.Usage()
		os.Exit(2)
	}
	procs, err := parsePools(*procsSpec)
	if err != nil {
		log.Fatal(err)
	}
	quotas, err := parseQuotas(*quotasSpec)
	if err != nil {
		log.Fatal(err)
	}
	cfg := service.Config{
		Procs:           procs,
		Scheduler:       *schedName,
		DefaultQuota:    *quota,
		Quotas:          quotas,
		NoFairShare:     *nofair,
		MaxBacklogTasks: *maxBacklog,
		Obs:             obs.NewTracer(),
		Metrics:         obs.NewRegistry(),
	}
	if *mttf > 0 {
		fc := fault.Config{MTTF: *mttf, MTTR: *mttr, Horizon: *horizon, MaxRetries: *retries}
		if err := fc.Validate(); err != nil {
			log.Fatal(err)
		}
		cfg.Faults = fc.NewPlan(procs, rand.New(rand.NewSource(*faultSeed)))
	}

	if *replayPath != "" {
		if err := replay(cfg, *replayPath, !*noaudit, *obsPath, *metricsF); err != nil {
			log.Fatal(err)
		}
		return
	}

	if err := serve(cfg, *addr, *walDir, *fsyncName, *segBytes, *snapEvery); err != nil {
		log.Fatal(err)
	}
}

// serve runs the HTTP service until SIGINT/SIGTERM, recovering from
// and journaling to the WAL when -wal is set, then drains gracefully.
func serve(cfg service.Config, addr, walDir, fsyncName string, segBytes int64, snapEvery int) error {
	core, err := service.New(cfg)
	if err != nil {
		return err
	}

	var opts []service.HandlerOption
	var jn *service.Journal
	var recovered []service.Rec
	if walDir != "" {
		policy, err := wal.PolicyByName(fsyncName)
		if err != nil {
			return err
		}
		var rec *wal.Recovery
		jn, recovered, rec, err = service.OpenJournal(walDir, service.JournalOptions{
			WAL:           wal.Options{Fsync: policy, SegmentBytes: segBytes},
			SnapshotEvery: snapEvery,
		})
		if err != nil {
			return err
		}
		// The graceful drain path closes the journal explicitly and
		// checks the error; this deferred close covers early error
		// returns (Close is idempotent) and surfaces its failure in the
		// log rather than dropping it.
		defer func() {
			if cerr := jn.Close(); cerr != nil {
				log.Printf("wal close: %v", cerr)
			}
		}()
		log.Printf("wal: %s: %d ops recovered (%d from snapshot, %d segments, %d torn bytes truncated)",
			walDir, len(recovered), rec.SnapshotFrames, rec.Segments, rec.TruncatedBytes)
		opts = append(opts, service.WithJournal(jn), service.StartUnready())
	}

	h := service.NewHandler(core, opts...)
	if jn != nil {
		start := time.Now()
		if err := h.Recover(recovered); err != nil {
			return fmt.Errorf("wal replay: %w", err)
		}
		if n := len(recovered); n > 0 {
			fp, err := service.Fingerprint(cfg.Obs.Events(), cfg.Metrics)
			if err != nil {
				return err
			}
			log.Printf("wal: replayed %d ops in %v; fingerprint %s", n, time.Since(start).Round(time.Millisecond), fp)
		}
	}

	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("serving on http://%s (procs %v, sched %s)", addr, cfg.Procs, cfg.Scheduler)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately via default handling

	// Graceful drain: stop admitting, finish in-flight requests, make
	// the journal durable, exit 0.
	log.Print("signal received; draining")
	h.StartDrain()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("shutdown: %w", err)
	}
	if jn != nil {
		if err := jn.Sync(); err != nil {
			return fmt.Errorf("wal sync: %w", err)
		}
		if err := jn.Close(); err != nil {
			return fmt.Errorf("wal close: %w", err)
		}
	}
	log.Print("drained cleanly")
	return nil
}

// replay feeds a recorded arrival trace through a fresh core and
// reports the outcome: admission counts, per-tenant weighted
// completion times, the audit verdict and the replay fingerprint.
func replay(cfg service.Config, path string, audit bool, obsPath, metricsPath string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	ops, err := service.ReadTrace(f)
	if err = errors.Join(err, f.Close()); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	res, err := service.Replay(cfg, ops)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}

	fmt.Printf("replayed %d ops: %d submitted, %d rejected, %d shed, %d cancelled, %d cancel misses, makespan %d\n",
		len(ops), res.Submitted, res.Rejected, res.Shed, res.Cancelled, res.CancelMisses, res.Makespan)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "tenant\tadmitted\tdone\tcancelled\trejected\tweighted completion\tflow sum")
	for _, ts := range res.Summary.Tenants {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.1f\t%d\n",
			ts.Tenant, ts.Admitted, ts.Done, ts.Cancelled, ts.Rejected, ts.WeightedCompletion, ts.FlowSum)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if res.Summary.Kills > 0 {
		fmt.Printf("fault churn: %d kills, %d wasted work units, %d jobs failed\n",
			res.Summary.Kills, res.Summary.WastedWork, res.Summary.Failed)
	}

	if audit {
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
		for _, j := range res.Stream {
			sa.Jobs = append(sa.Jobs, verify.StreamJob{
				Job: j.Idx, Tenant: j.Tenant, Priority: j.Priority,
				Weight: j.Weight, Graph: j.Graph,
			})
		}
		if err := verify.AuditServiceStream(sa, res.Events); err != nil {
			return fmt.Errorf("stream audit failed: %w", err)
		}
		fmt.Printf("audit: ok (%d jobs, %d events)\n", len(sa.Jobs), len(res.Events))
	}

	if obsPath != "" {
		if err := writeFile(obsPath, func(w *os.File) error {
			return obs.WriteJSONL(w, res.Events)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d events)\n", obsPath, len(res.Events))
	}
	if metricsPath != "" {
		if err := writeFile(metricsPath, func(w *os.File) error {
			return obs.WritePrometheus(w, cfg.Metrics.Snapshot())
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", metricsPath)
	}

	fmt.Printf("fingerprint: %s\n", res.Fingerprint)
	return nil
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
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
