package exp

import (
	"fmt"

	"fhs/internal/core"
	"fhs/internal/fault"
	"fhs/internal/workload"
)

// DefaultK is the paper's default number of resource types ("We use a
// default number of different resource types K = 4 except for changing
// K experiments").
const DefaultK = 4

// Options scales a figure preset. The zero value is completed by
// fillDefaults: 5000 instances (the paper's count), seed 1, all cores.
type Options struct {
	Instances int
	Seed      int64
	Workers   int
	// Paranoid audits every simulated schedule (see Spec.Paranoid).
	Paranoid bool
}

func (o Options) fillDefaults() Options {
	if o.Instances <= 0 {
		o.Instances = 5000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// panel builds a Spec with the harness-wide conventions applied.
func panel(name string, wl workload.Config, machine workload.ResourceRange, o Options) Spec {
	return Spec{
		Name:       name,
		Workload:   wl,
		Machine:    machine,
		Schedulers: core.Names(),
		Instances:  o.Instances,
		Seed:       o.Seed,
		Workers:    o.Workers,
		Paranoid:   o.Paranoid,
	}
}

// Figure4 returns the six panels of the algorithm-performance study
// (Section V-C): average completion-time ratio of the six algorithms
// on random and layered EP/Tree/IR workloads.
func Figure4(o Options) []Spec {
	o = o.fillDefaults()
	k := DefaultK
	return []Spec{
		panel("Figure 4(a): Small Random EP", workload.DefaultEP(k, workload.Random), workload.SmallMachine, o),
		panel("Figure 4(b): Medium Random Tree", workload.DefaultTree(k, workload.Random), workload.MediumMachine, o),
		panel("Figure 4(c): Medium Random IR", workload.DefaultIR(k, workload.Random), workload.MediumMachine, o),
		panel("Figure 4(d): Small Layered EP", workload.DefaultEP(k, workload.Layered), workload.SmallMachine, o),
		panel("Figure 4(e): Medium Layered Tree", workload.DefaultTree(k, workload.Layered), workload.MediumMachine, o),
		panel("Figure 4(f): Medium Layered IR", workload.DefaultIR(k, workload.Layered), workload.MediumMachine, o),
	}
}

// Figure5 returns the changing-K study (Section V-D): the Figure 4
// layered panels swept over K = 1..6. Panels are grouped per
// sub-figure, K ascending.
func Figure5(o Options) []Spec {
	o = o.fillDefaults()
	var specs []Spec
	type sub struct {
		label   string
		class   workload.Class
		machine workload.ResourceRange
	}
	subs := []sub{
		{"Figure 5(a): Small Layered EP", workload.EP, workload.SmallMachine},
		{"Figure 5(b): Medium Layered Tree", workload.Tree, workload.MediumMachine},
		{"Figure 5(c): Medium Layered IR", workload.IR, workload.MediumMachine},
	}
	for _, s := range subs {
		for k := 1; k <= 6; k++ {
			wl := workload.Default(s.class, k, workload.Layered)
			specs = append(specs, panel(fmt.Sprintf("%s, K=%d", s.label, k), wl, s.machine, o))
		}
	}
	return specs
}

// Figure6 returns the skewed-load study (Section V-E): the Figure 4(e)
// and 4(f) panels with the first type's pool cut to 1/5.
func Figure6(o Options) []Spec {
	o = o.fillDefaults()
	k := DefaultK
	a := panel("Figure 6(a): Medium Layered Tree, skewed", workload.DefaultTree(k, workload.Layered), workload.MediumMachine, o)
	a.SkewFactor = 5
	b := panel("Figure 6(b): Medium Layered IR, skewed", workload.DefaultIR(k, workload.Layered), workload.MediumMachine, o)
	b.SkewFactor = 5
	return []Spec{a, b}
}

// Figure7 returns the preemption study (Section V-F): the three
// layered panels in non-preemptive and preemptive mode. Panels come in
// pairs (non-preemptive first).
func Figure7(o Options) []Spec {
	o = o.fillDefaults()
	k := DefaultK
	var specs []Spec
	add := func(label string, wl workload.Config, machine workload.ResourceRange) {
		np := panel(label+", non-preemptive", wl, machine, o)
		p := panel(label+", preemptive", wl, machine, o)
		p.Preemptive = true
		specs = append(specs, np, p)
	}
	add("Figure 7(a): Small Layered EP", workload.DefaultEP(k, workload.Layered), workload.SmallMachine)
	add("Figure 7(b): Medium Layered Tree", workload.DefaultTree(k, workload.Layered), workload.MediumMachine)
	add("Figure 7(c): Medium Layered IR", workload.DefaultIR(k, workload.Layered), workload.MediumMachine)
	return specs
}

// Figure8 returns the approximated-information study (Section V-G):
// KGreedy against the six MQB variants (All/1Step lookahead ×
// Precise/Exp/Noise estimates) on the three layered panels. Reports
// read both the Mean and Max columns, as the paper plots both.
func Figure8(o Options) []Spec {
	o = o.fillDefaults()
	k := DefaultK
	specs := []Spec{
		panel("Figure 8(a): Small Layered EP", workload.DefaultEP(k, workload.Layered), workload.SmallMachine, o),
		panel("Figure 8(b): Medium Layered Tree", workload.DefaultTree(k, workload.Layered), workload.MediumMachine, o),
		panel("Figure 8(c): Medium Layered IR", workload.DefaultIR(k, workload.Layered), workload.MediumMachine, o),
	}
	for i := range specs {
		specs[i].Schedulers = core.MQBVariantNames()
	}
	return specs
}

// FigureFaults returns the beyond-paper robustness study: KGreedy,
// LSpan and MQB on Small Layered EP under (a) a transient-failure
// sweep — completion-time ratio and wasted-work fraction against the
// per-completion failure probability — and (b) a processor-churn sweep
// with decreasing MTTF (MTTR fixed at MTTF/4). The question it
// answers: does MQB's utilization-balancing advantage over KGreedy
// survive an unreliable machine, and at what wasted-work cost?
func FigureFaults(o Options) []Spec {
	o = o.fillDefaults()
	k := DefaultK
	wl := workload.DefaultEP(k, workload.Layered)
	var specs []Spec
	add := func(label string, fc fault.Config) {
		s := panel(label, wl, workload.SmallMachine, o)
		s.Schedulers = []string{"KGreedy", "LSpan", "MQB"}
		s.Faults = &fc
		specs = append(specs, s)
	}
	for _, p := range []float64{0.02, 0.05, 0.1, 0.2} {
		add(fmt.Sprintf("Faults(a): Small Layered EP, failure p=%g", p),
			fault.Config{FailureProb: p, MaxRetries: 40})
	}
	for _, mttf := range []float64{400, 150, 60} {
		add(fmt.Sprintf("Faults(b): Small Layered EP, churn MTTF=%g", mttf),
			fault.Config{MTTF: mttf, MTTR: mttf / 4, Horizon: 4096, MaxRetries: 60})
	}
	return specs
}

// Figures maps figure identifiers ("4".."8" and the beyond-paper
// "faults" robustness study) to their preset builders.
//
// Ordering contract: callers that iterate this map must collect and
// sort the keys before producing output or scheduling work (cmd/fhsim
// does), since Go's map iteration order is randomized. fhlint's
// mapiter analyzer enforces the collect-then-sort shape.
func Figures() map[string]func(Options) []Spec {
	return map[string]func(Options) []Spec{
		"4":      Figure4,
		"5":      Figure5,
		"6":      Figure6,
		"7":      Figure7,
		"8":      Figure8,
		"faults": FigureFaults,
	}
}
