package fhs

// One benchmark per table/figure of the paper's evaluation (Section V),
// plus the balance-rule ablations and a lower-bound micro-benchmark.
// The figure benchmarks run a reduced instance count per iteration
// (the paper uses 5000; use cmd/fhsim for full-scale runs) and report
// the aggregated mean completion-time ratios as custom metrics, so
// `go test -bench` output doubles as a quick reproduction check:
// compare e.g. KGreedy_ratio vs MQB_ratio against EXPERIMENTS.md.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fhs/internal/core"
	"fhs/internal/exp"
	"fhs/internal/metrics"
	"fhs/internal/sim"
	"fhs/internal/theory"
	"fhs/internal/workload"
)

// benchInstances is the per-iteration instance count for figure
// benchmarks: small enough to keep -bench runs in seconds, large
// enough that the reported mean ratios show the paper's ordering.
const benchInstances = 30

// runPanels executes panels and reports each scheduler's mean ratio
// (averaged over panels) as a custom benchmark metric.
func runPanels(b *testing.B, specs []exp.Spec) {
	b.Helper()
	var tables []exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = exp.RunAll(specs)
		if err != nil {
			b.Fatal(err)
		}
	}
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, t := range tables {
		for _, r := range t.Rows {
			sums[r.Scheduler] += r.Mean
			counts[r.Scheduler]++
		}
	}
	for name, sum := range sums {
		metric := strings.NewReplacer("+", "_", " ", "_").Replace(name)
		b.ReportMetric(sum/float64(counts[name]), metric+"_ratio")
	}
}

func benchOptions() exp.Options {
	return exp.Options{Instances: benchInstances, Seed: 1}
}

// Figure 4: algorithm performance across the six workload panels.

func BenchmarkFigure4a(b *testing.B) { runPanels(b, exp.Figure4(benchOptions())[0:1]) }
func BenchmarkFigure4b(b *testing.B) { runPanels(b, exp.Figure4(benchOptions())[1:2]) }
func BenchmarkFigure4c(b *testing.B) { runPanels(b, exp.Figure4(benchOptions())[2:3]) }
func BenchmarkFigure4d(b *testing.B) { runPanels(b, exp.Figure4(benchOptions())[3:4]) }
func BenchmarkFigure4e(b *testing.B) { runPanels(b, exp.Figure4(benchOptions())[4:5]) }
func BenchmarkFigure4f(b *testing.B) { runPanels(b, exp.Figure4(benchOptions())[5:6]) }

// Figure 5: changing K from 1 to 6 (six panels per sub-figure).

func BenchmarkFigure5a(b *testing.B) { runPanels(b, exp.Figure5(benchOptions())[0:6]) }
func BenchmarkFigure5b(b *testing.B) { runPanels(b, exp.Figure5(benchOptions())[6:12]) }
func BenchmarkFigure5c(b *testing.B) { runPanels(b, exp.Figure5(benchOptions())[12:18]) }

// Figure 6: skewed load.

func BenchmarkFigure6a(b *testing.B) { runPanels(b, exp.Figure6(benchOptions())[0:1]) }
func BenchmarkFigure6b(b *testing.B) { runPanels(b, exp.Figure6(benchOptions())[1:2]) }

// Figure 7: non-preemptive vs preemptive (two panels each).

func BenchmarkFigure7a(b *testing.B) { runPanels(b, exp.Figure7(benchOptions())[0:2]) }
func BenchmarkFigure7b(b *testing.B) { runPanels(b, exp.Figure7(benchOptions())[2:4]) }
func BenchmarkFigure7c(b *testing.B) { runPanels(b, exp.Figure7(benchOptions())[4:6]) }

// Figure 8: MQB under approximated information.

func BenchmarkFigure8a(b *testing.B) { runPanels(b, exp.Figure8(benchOptions())[0:1]) }
func BenchmarkFigure8b(b *testing.B) { runPanels(b, exp.Figure8(benchOptions())[1:2]) }
func BenchmarkFigure8c(b *testing.B) { runPanels(b, exp.Figure8(benchOptions())[2:3]) }

// BenchmarkLowerBoundAdversarial reproduces the Theorem 2 separation
// (Figure 2's job family): KGreedy's mean completion ratio against the
// offline optimum on adversarial instances, reported per K.
func BenchmarkLowerBoundAdversarial(b *testing.B) {
	const (
		perType   = 3
		m         = 6
		instances = 20
	)
	ratios := make(map[int]float64)
	for i := 0; i < b.N; i++ {
		for k := 2; k <= 6; k += 2 {
			procs := make([]int, k)
			for j := range procs {
				procs[j] = perType
			}
			opt, err := theory.AdversarialOptimum(procs, m)
			if err != nil {
				b.Fatal(err)
			}
			var mean float64
			for inst := 0; inst < instances; inst++ {
				rng := rand.New(rand.NewSource(int64(k*1000 + inst)))
				job, err := workload.Adversarial(workload.AdversarialConfig{Procs: procs, M: m}, rng)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(job.Graph, core.NewKGreedy(), sim.Config{Procs: procs})
				if err != nil {
					b.Fatal(err)
				}
				mean += float64(res.CompletionTime)
			}
			ratios[k] = mean / float64(instances) / float64(opt)
		}
	}
	for k, r := range ratios {
		b.ReportMetric(r, fmt.Sprintf("KGreedy_vs_opt_K%d", k))
	}
}

// BenchmarkLowerBound times metrics.LowerBound on one default-scale
// layered tree job. The other hot paths (engine runs, descendant
// values, generation) are timed per layer by the fhbench suite
// (internal/bench), which commits its numbers.
func BenchmarkLowerBound(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g, err := workload.Generate(workload.DefaultTree(4, workload.Layered), rng)
	if err != nil {
		b.Fatal(err)
	}
	procs := []int{15, 15, 15, 15}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.LowerBound(g, procs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMQBBalance quantifies the design choice DESIGN.md
// calls out: the paper's lexicographic balance rule against the
// ablated min-only rule and the balance-blind sum rule, on the three
// layered panels. Expected ordering: Lex ≤ MinOnly < Sum on EP; the
// cascade matters most when many snapshots tie on the emptiest queue.
func BenchmarkAblationMQBBalance(b *testing.B) {
	scheds := []string{"KGreedy", "MQB", "MQB/MinOnly", "MQB/Sum"}
	specs := []exp.Spec{
		{
			Name:       "Ablation: Small Layered EP",
			Workload:   workload.DefaultEP(4, workload.Layered),
			Machine:    workload.SmallMachine,
			Schedulers: scheds,
			Instances:  benchInstances,
			Seed:       1,
		},
		{
			Name:       "Ablation: Medium Layered IR",
			Workload:   workload.DefaultIR(4, workload.Layered),
			Machine:    workload.MediumMachine,
			Schedulers: scheds,
			Instances:  benchInstances,
			Seed:       1,
		},
	}
	runPanels(b, specs)
}

// BenchmarkAblationMQBLookahead isolates the value of deep lookahead:
// full descendant values vs one-step, both with precise estimates, on
// the workload where the paper reports the largest difference (EP).
func BenchmarkAblationMQBLookahead(b *testing.B) {
	specs := []exp.Spec{{
		Name:       "Ablation: lookahead on Small Layered EP",
		Workload:   workload.DefaultEP(4, workload.Layered),
		Machine:    workload.SmallMachine,
		Schedulers: []string{"MQB+All+Pre", "MQB+1Step+Pre"},
		Instances:  benchInstances,
		Seed:       1,
	}}
	runPanels(b, specs)
}
