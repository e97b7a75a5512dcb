// Command fhbench runs the continuous-benchmarking suite and compares
// benchmark reports.
//
// Measure (writes a schema-versioned report and a human table):
//
//	fhbench [-suite full|ci] [-instances N] [-seed S] [-workers W]
//	        [-benchtime D] [-match SUBSTR] [-note TEXT] [-out BENCH.json]
//	        [-cpuprofile FILE] [-memprofile FILE] [-trace FILE]
//
// -trace runs the suite's standard engine workload once per engine
// scheduler with full observability (outside the timed loops — the
// measurements themselves always run untraced) and writes the JSONL
// trace; a .metrics file with a Prometheus-style dump lands alongside.
//
// Compare (exits 2 when a benchmark regresses beyond the gate or the
// two reports measured different work):
//
//	fhbench -compare old.json new.json [-gate 0.25] [-noise 0.05]
//
// Reports with a different seed, instance count or gomaxprocs are
// refused (exit 1): they measured different work or parallelism.
//
// The committed baseline lives at BENCH_1.json; CI runs the ci-scale
// suite and compares against it (warn-only on pull requests, hard
// gate on main). See the Performance section of EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"time"

	"fhs/internal/bench"
	"fhs/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fhbench: ")
	var (
		suite      = flag.String("suite", "full", "scale preset: full (baseline) or ci (reduced)")
		instances  = flag.Int("instances", 0, "override exp-panel instances per iteration")
		seed       = flag.Int64("seed", 0, "override the root seed")
		workers    = flag.Int("workers", 0, "exp harness workers (0 = all cores; fingerprints are invariant)")
		benchtime  = flag.Duration("benchtime", 0, "override target measuring time per benchmark")
		match      = flag.String("match", "", "only run benchmarks whose name contains this substring")
		note       = flag.String("note", "", "free-form label stored in the report")
		out        = flag.String("out", "", "write the JSON report to this file")
		quiet      = flag.Bool("quiet", false, "suppress the per-benchmark progress lines")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the suite run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile after the suite run to this file")
		tracePath  = flag.String("trace", "", "write a JSONL obs trace of the suite's engine workload to this file")
		compare    = flag.Bool("compare", false, "compare two reports: fhbench -compare old.json new.json")
		gate       = flag.Float64("gate", 0.25, "compare: relative slowdown that fails the comparison")
		noise      = flag.Float64("noise", 0.05, "compare: relative delta treated as measurement noise")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("usage: fhbench -compare old.json new.json")
		}
		runCompare(flag.Arg(0), flag.Arg(1), bench.Gate{Noise: *noise, Fail: *gate})
		return
	}
	if flag.NArg() != 0 {
		log.Fatalf("unexpected arguments %v (did you mean -compare?)", flag.Args())
	}

	sc, err := bench.ScaleByName(*suite)
	if err != nil {
		log.Fatal(err)
	}
	if *instances > 0 {
		sc.Instances = *instances
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *workers > 0 {
		sc.Workers = *workers
	}
	if *benchtime > 0 {
		sc.BenchTime = *benchtime
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	logf := log.Printf
	if *quiet {
		logf = nil
	}
	start := time.Now()
	rep, err := bench.Run(sc, *match, logf)
	if err != nil {
		log.Fatal(err)
	}
	rep.Note = *note
	fmt.Printf("suite finished in %.1fs\n\n", time.Since(start).Seconds())
	if err := rep.WriteTable(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
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

	if *tracePath != "" {
		events, snaps, err := bench.TraceRun(sc)
		if err != nil {
			log.Fatal(err)
		}
		if err := writeTo(*tracePath, func(f *os.File) error {
			return obs.WriteJSONL(f, events)
		}); err != nil {
			log.Fatal(err)
		}
		metricsPath := *tracePath + ".metrics"
		if err := writeTo(metricsPath, func(f *os.File) error {
			return obs.WritePrometheus(f, snaps)
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d events) and %s\n", *tracePath, len(events), metricsPath)
	}
}

// writeTo writes one exporter's output, closing cleanly.
func writeTo(path string, write func(*os.File) error) error {
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

func runCompare(oldPath, newPath string, g bench.Gate) {
	oldRep, err := bench.LoadReport(oldPath)
	if err != nil {
		log.Fatal(err)
	}
	newRep, err := bench.LoadReport(newPath)
	if err != nil {
		log.Fatal(err)
	}
	c, err := bench.Compare(oldRep, newRep, g)
	if err != nil {
		log.Fatal(err)
	}
	if err := bench.WriteComparison(os.Stdout, c); err != nil {
		log.Fatal(err)
	}
	if c.Failed() {
		os.Exit(2)
	}
}
