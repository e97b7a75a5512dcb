// Command fhsim regenerates the paper's evaluation figures.
//
// Usage:
//
//	fhsim [-figure 4|5|6|7|8|faults|all] [-faults] [-instances N]
//	      [-seed S] [-workers W] [-csv FILE] [-svg DIR]
//	      [-match SUBSTR] [-quiet] [-verify] [-trace FILE] [-chrome FILE]
//	      [-metrics FILE]
//
// Each figure expands to its experiment panels (see internal/exp);
// fhsim runs them, prints aligned text tables, a one-line summary per
// panel, and optionally a flat CSV of all rows. -faults (or -figure
// faults) runs the beyond-paper robustness study instead: the paper's
// schedulers under processor churn and transient task failures, with
// wasted-work, kill and recovery columns added to the tables. "all"
// covers the paper figures only, so the reproduction runs stay exactly
// as published; the fault study is always explicit.
//
// Observability: -trace re-runs instance 0 of every selected panel
// with full tracing — the exact schedules the aggregates included —
// writes the combined JSONL trace (one scope per panel, nested scopes
// per scheduler) and prints each scheduler's per-type utilization
// timeline. -chrome additionally writes the same trace in Chrome
// trace_event form (load it at chrome://tracing or ui.perfetto.dev).
// -metrics aggregates harness and engine counters over the whole run
// into a Prometheus-style text dump.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"

	"fhs/internal/analyze"
	"fhs/internal/exp"
	"fhs/internal/obs"
	"fhs/internal/plot"
)

// timelineBuckets is the resolution of the printed per-type
// utilization timelines.
const timelineBuckets = 20

// tracePanel re-runs instance 0 of a panel on a shared tracer and
// prints one utilization timeline per scheduler.
func tracePanel(spec exp.Spec, tr *obs.Tracer, quiet bool) error {
	tr.BeginScope(spec.Name)
	_, procs, runs, err := exp.TraceInstance(spec, 0, tr)
	if err != nil {
		return err
	}
	tr.EndScope(spec.Name)
	if quiet {
		return nil
	}
	for _, run := range runs {
		tl, err := analyze.TimelineFromObs(run.Events, procs, timelineBuckets)
		if err != nil {
			return err
		}
		fmt.Printf("%s · %s instance 0 ", spec.Name, run.Scheduler)
		if err := analyze.WriteTimeline(os.Stdout, tl); err != nil {
			return err
		}
	}
	return nil
}

// writeFile writes one exporter's output, closing cleanly.
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

// writeSVGs renders one bar chart per panel plus one line chart per
// K-sweep group (panels named "... , K=<n>").
func writeSVGs(dir string, tables []exp.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	slug := regexp.MustCompile(`[^A-Za-z0-9]+`)
	fileFor := func(name string) string {
		return filepath.Join(dir, strings.Trim(slug.ReplaceAllString(name, "_"), "_")+".svg")
	}
	sweep := regexp.MustCompile(`^(.*), K=(\d+)$`)
	groups := map[string][]exp.Table{}
	labels := map[string][]string{}
	var order []string
	for _, t := range tables {
		f, err := os.Create(fileFor(t.Name))
		if err != nil {
			return err
		}
		err = plot.WriteBarSVG(f, t)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if m := sweep.FindStringSubmatch(t.Name); m != nil {
			if _, ok := groups[m[1]]; !ok {
				order = append(order, m[1])
			}
			groups[m[1]] = append(groups[m[1]], t)
			labels[m[1]] = append(labels[m[1]], "K="+m[2])
		}
	}
	for _, name := range order {
		if len(groups[name]) < 2 {
			continue
		}
		f, err := os.Create(fileFor(name + " sweep"))
		if err != nil {
			return err
		}
		err = plot.WriteLinesSVG(f, name, groups[name], labels[name])
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fhsim: ")
	var (
		figure    = flag.String("figure", "all", "figure to reproduce: 4, 5, 6, 7, 8, faults or all (= paper figures)")
		faults    = flag.Bool("faults", false, "run the robustness preset (shorthand for -figure faults)")
		instances = flag.Int("instances", 1000, "job instances per plotted point (paper: 5000)")
		seed      = flag.Int64("seed", 1, "root random seed")
		workers   = flag.Int("workers", 0, "parallel workers (0 = all cores)")
		csvPath   = flag.String("csv", "", "also write results as CSV to this file")
		match     = flag.String("match", "", "only run panels whose name contains this substring")
		svgDir    = flag.String("svg", "", "also write one SVG chart per panel (and per sweep) to this directory")
		quiet     = flag.Bool("quiet", false, "print only per-panel summaries")
		paranoid  = flag.Bool("verify", false, "audit every simulated schedule with internal/verify (~1.5x slower)")
		tracePath = flag.String("trace", "", "re-run instance 0 of each panel traced; write the combined JSONL trace to this file")
		chromeF   = flag.String("chrome", "", "with -trace: also write the trace in Chrome trace_event format to this file")
		metricsF  = flag.String("metrics", "", "aggregate run metrics and write a Prometheus-style text dump to this file")
	)
	flag.Parse()
	if *chromeF != "" && *tracePath == "" {
		log.Fatal("-chrome needs -trace")
	}

	figs := exp.Figures()
	var names []string
	switch {
	case *faults:
		names = []string{"faults"}
	case *figure == "all":
		for name := range figs {
			if name != "faults" { // robustness study is opt-in
				names = append(names, name)
			}
		}
		sort.Strings(names)
	default:
		if _, ok := figs[*figure]; !ok {
			log.Fatalf("unknown figure %q (want 4, 5, 6, 7, 8, faults or all)", *figure)
		}
		names = []string{*figure}
	}

	opts := exp.Options{Instances: *instances, Seed: *seed, Workers: *workers, Paranoid: *paranoid}
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer()
	}
	var registry *obs.Registry
	if *metricsF != "" {
		registry = obs.NewRegistry()
	}
	var all []exp.Table
	for _, name := range names {
		specs := figs[name](opts)
		for _, spec := range specs {
			if *match != "" && !strings.Contains(spec.Name, *match) {
				continue
			}
			spec.Metrics = registry
			start := time.Now()
			table, err := exp.Run(spec)
			if err != nil {
				log.Fatal(err)
			}
			if !*quiet {
				if err := exp.WriteTable(os.Stdout, table); err != nil {
					log.Fatal(err)
				}
			}
			fmt.Printf("%s [%.1fs]\n", exp.Summarize(table), time.Since(start).Seconds())
			all = append(all, table)
			if tracer.Enabled() {
				if err := tracePanel(spec, tracer, *quiet); err != nil {
					log.Fatal(err)
				}
			}
		}
	}

	if tracer.Enabled() {
		if err := writeFile(*tracePath, func(f *os.File) error {
			return obs.WriteJSONL(f, tracer.Events())
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d events)\n", *tracePath, tracer.Len())
		if *chromeF != "" {
			if err := writeFile(*chromeF, func(f *os.File) error {
				return obs.WriteChromeTrace(f, tracer.Events())
			}); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n", *chromeF)
		}
	}
	if registry != nil {
		if err := writeFile(*metricsF, func(f *os.File) error {
			return obs.WritePrometheus(f, registry.Snapshot())
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *metricsF)
	}

	if *svgDir != "" {
		if err := writeSVGs(*svgDir, all); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote SVG charts to %s\n", *svgDir)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := exp.WriteCSV(f, all); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
}
