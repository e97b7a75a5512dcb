// Command fhsched schedules a single K-DAG job file on a described
// machine and reports the completion time, the lower bound, the
// completion-time ratio and per-type utilization — optionally with a
// full execution trace.
//
// Usage:
//
//	fhsched -job FILE -procs P1,P2,... [-sched NAME] [-preemptive]
//	        [-seed S] [-trace] [-gantt] [-analyze] [-all]
//	        [-obs FILE] [-chrome FILE] [-timeline]
//	fhsched -checktrace FILE
//
// -obs streams each scheduler's run into a structured observability
// trace (one scope per scheduler) and writes it as JSONL; -chrome
// writes the same trace in Chrome trace_event form; -timeline prints a
// bucketed per-type utilization timeline per scheduler. -checktrace
// validates an existing JSONL trace file against the event schema and
// exits — CI uses it to gate traced fhsim output.
//
// Examples:
//
//	fhgen -class ep -k 2 > job.json
//	fhsched -job job.json -procs 3,3 -sched MQB
//	fhsched -job job.json -procs 3,3 -all        # compare all six
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"fhs/internal/analyze"
	"fhs/internal/core"
	"fhs/internal/dag"
	"fhs/internal/metrics"
	"fhs/internal/obs"
	"fhs/internal/sim"
)

// timelineBuckets is the resolution of -timeline output.
const timelineBuckets = 20

// checkTrace validates a JSONL obs trace file: every line must decode
// canonically, every event must satisfy the schema, and scopes must
// nest. It prints a one-line summary on success.
func checkTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	events, err := obs.ReadJSONL(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: ok, %d events\n", path, len(events))
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fhsched: ")
	var (
		jobPath    = flag.String("job", "", "job file (JSON, as written by fhgen)")
		procsSpec  = flag.String("procs", "", "pool sizes per type, e.g. 3,3,3,3")
		schedName  = flag.String("sched", "MQB", "scheduler name (see fhs docs); ignored with -all")
		preemptive = flag.Bool("preemptive", false, "use preemptive scheduling")
		seed       = flag.Int64("seed", 1, "seed for randomized scheduler variants")
		trace      = flag.Bool("trace", false, "print the execution trace")
		gantt      = flag.Bool("gantt", false, "print an ASCII Gantt chart")
		analyzeF   = flag.Bool("analyze", false, "print a schedule quality analysis (starvation, waits, queues)")
		all        = flag.Bool("all", false, "compare all six paper schedulers")
		obsPath    = flag.String("obs", "", "write a JSONL observability trace to this file")
		chromeF    = flag.String("chrome", "", "write the observability trace in Chrome trace_event format to this file")
		timeline   = flag.Bool("timeline", false, "print a per-type utilization timeline per scheduler")
		checkPath  = flag.String("checktrace", "", "validate a JSONL obs trace file against the schema and exit")
	)
	flag.Parse()
	if *checkPath != "" {
		if err := checkTrace(*checkPath); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *jobPath == "" || *procsSpec == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*jobPath)
	if err != nil {
		log.Fatal(err)
	}
	g, err := dag.ReadGraph(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}

	procs, err := parsePools(*procsSpec)
	if err != nil {
		log.Fatal(err)
	}
	lb, err := metrics.LowerBound(g, procs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job: %d tasks, K=%d, span=%d, total work=%d, lower bound=%.1f\n",
		g.NumTasks(), g.K(), g.Span(), g.TotalWork(), lb)

	names := []string{*schedName}
	if *all {
		names = core.Names()
	}
	var tracer *obs.Tracer
	if *obsPath != "" || *chromeF != "" || *timeline {
		tracer = obs.NewTracer()
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheduler\tcompletion\tratio\tutilization")
	var runner sim.Runner
	for _, name := range names {
		s, err := core.New(name, core.Params{Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		cfg := sim.Config{
			Procs:        procs,
			Preemptive:   *preemptive,
			CollectTrace: *trace || *gantt || *analyzeF,
			Obs:          tracer,
		}
		tracer.BeginScope(name)
		lo := tracer.Len()
		res, err := runner.Run(g, s, cfg)
		if err != nil {
			log.Fatal(err)
		}
		hi := tracer.Len()
		tracer.EndScope(name)
		utils := make([]string, len(res.Utilization))
		for i, u := range res.Utilization {
			utils[i] = fmt.Sprintf("%.2f", u)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%s\n",
			s.Name(), res.CompletionTime, metrics.Ratio(res.CompletionTime, lb), strings.Join(utils, " "))
		if *trace {
			tw.Flush()
			for _, ev := range res.Trace {
				fmt.Printf("  t=%-6d %-8s task=%-5d type=%d\n", ev.Time, ev.Kind, ev.Task, ev.Type)
			}
		}
		if *gantt {
			tw.Flush()
			if err := sim.WriteGantt(os.Stdout, g, &res, cfg, 0); err != nil {
				log.Fatal(err)
			}
		}
		if *analyzeF {
			tw.Flush()
			rep, err := analyze.Analyze(g, &res, procs)
			if err != nil {
				log.Fatal(err)
			}
			if err := analyze.WriteReport(os.Stdout, rep); err != nil {
				log.Fatal(err)
			}
		}
		if *timeline {
			tw.Flush()
			tl, err := analyze.TimelineFromObs(tracer.Events()[lo:hi], procs, timelineBuckets)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%s ", name)
			if err := analyze.WriteTimeline(os.Stdout, tl); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}

	if *obsPath != "" {
		if err := writeTraceFile(*obsPath, tracer, obs.WriteJSONL); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d events)\n", *obsPath, tracer.Len())
	}
	if *chromeF != "" {
		if err := writeTraceFile(*chromeF, tracer, obs.WriteChromeTrace); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *chromeF)
	}
}

// writeTraceFile renders the tracer's events with one exporter,
// closing cleanly.
func writeTraceFile(path string, tr *obs.Tracer, write func(io.Writer, []obs.Event) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f, tr.Events())
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
