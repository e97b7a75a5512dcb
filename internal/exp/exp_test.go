package exp

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"fhs/internal/core"
	"fhs/internal/workload"
)

func tinySpec(name string, workers int) Spec {
	return Spec{
		Name:       name,
		Workload:   workload.DefaultEP(2, workload.Layered),
		Machine:    workload.SmallMachine,
		Schedulers: []string{"KGreedy", "MQB"},
		Instances:  20,
		Seed:       5,
		Workers:    workers,
	}
}

func TestSpecValidation(t *testing.T) {
	bad := tinySpec("no instances", 1)
	bad.Instances = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero instances")
	}
	bad = tinySpec("no schedulers", 1)
	bad.Schedulers = nil
	if err := bad.Validate(); err == nil {
		t.Error("accepted no schedulers")
	}
	bad = tinySpec("bad sched", 1)
	bad.Schedulers = []string{"nope"}
	if err := bad.Validate(); err == nil {
		t.Error("accepted unknown scheduler")
	}
	bad = tinySpec("bad workload", 1)
	bad.Workload.K = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted invalid workload")
	}
	bad = tinySpec("bad machine", 1)
	bad.Machine = workload.ResourceRange{MinPerType: 3, MaxPerType: 1}
	if err := bad.Validate(); err == nil {
		t.Error("accepted invalid machine")
	}
	if _, err := Run(bad); err == nil {
		t.Error("Run accepted invalid spec")
	}
}

func TestRunProducesSaneTable(t *testing.T) {
	table, err := Run(tinySpec("tiny", 2))
	if err != nil {
		t.Fatal(err)
	}
	if table.Name != "tiny" || len(table.Rows) != 2 {
		t.Fatalf("table = %+v", table)
	}
	for _, r := range table.Rows {
		if r.N != 20 {
			t.Errorf("%s: N = %d, want 20", r.Scheduler, r.N)
		}
		if r.Mean < 1 || math.IsNaN(r.Mean) {
			t.Errorf("%s: mean ratio %g < 1", r.Scheduler, r.Mean)
		}
		if r.Max < r.Mean || r.Min > r.Mean {
			t.Errorf("%s: min/mean/max out of order: %g/%g/%g", r.Scheduler, r.Min, r.Mean, r.Max)
		}
	}
	if table.Row("KGreedy") == nil || table.Row("absent") != nil {
		t.Error("Row lookup broken")
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	t1, err := Run(tinySpec("w1", 1))
	if err != nil {
		t.Fatal(err)
	}
	t4, err := Run(tinySpec("w4", 4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range t1.Rows {
		if t1.Rows[i].Mean != t4.Rows[i].Mean || t1.Rows[i].Max != t4.Rows[i].Max {
			t.Errorf("worker count changed results: %+v vs %+v", t1.Rows[i], t4.Rows[i])
		}
	}
}

func TestRunDeterministicForRandomizedSchedulers(t *testing.T) {
	spec := tinySpec("noise", 3)
	spec.Schedulers = []string{"MQB+All+Noise", "MQB+All+Exp"}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = 1
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Rows[i].Mean != b.Rows[i].Mean {
			t.Errorf("randomized scheduler results depend on workers: %+v vs %+v", a.Rows[i], b.Rows[i])
		}
	}
}

func TestRunBitIdenticalAcrossWorkerCounts(t *testing.T) {
	// The seed-determinism contract is stronger than matching means:
	// the whole Table — every row, every aggregate, including the
	// randomized information models — must be bit-identical whether
	// instances run serially or across all cores.
	spec := tinySpec("det", 1)
	spec.Schedulers = []string{"KGreedy", "MQB", "MQB+All+Noise", "MQB+1Step+Exp"}
	serial, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = 0 // GOMAXPROCS
	parallel, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("tables differ across worker counts:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

func TestParanoidSpecAuditsCleanly(t *testing.T) {
	// A paranoid run audits every schedule inline; the registry
	// schedulers must come through clean, and the aggregates must match
	// a non-paranoid run bit for bit (the audit observes, it does not
	// steer).
	plain := tinySpec("plain", 2)
	paranoid := plain
	paranoid.Name = "paranoid"
	paranoid.Paranoid = true
	a, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(paranoid)
	if err != nil {
		t.Fatal(err)
	}
	a.Name, b.Name = "", ""
	if !reflect.DeepEqual(a, b) {
		t.Errorf("paranoid run changed results:\nplain:    %+v\nparanoid: %+v", a, b)
	}
}

func TestSkewFactorApplied(t *testing.T) {
	// With a severe skew the first pool is the bottleneck and the
	// completion ratio collapses toward 1 (Section V-E's observation).
	base := tinySpec("base", 0)
	base.Workload = workload.DefaultIR(4, workload.Layered)
	base.Machine = workload.MediumMachine
	skewed := base
	skewed.Name = "skewed"
	skewed.SkewFactor = 5
	tb, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := Run(skewed)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Row("KGreedy").Mean >= tb.Row("KGreedy").Mean {
		t.Errorf("skew did not reduce KGreedy ratio: %g >= %g", ts.Row("KGreedy").Mean, tb.Row("KGreedy").Mean)
	}
}

func TestPreemptiveSpecRuns(t *testing.T) {
	spec := tinySpec("preemptive", 0)
	spec.Preemptive = true
	spec.Instances = 5
	table, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if table.Rows[0].N != 5 {
		t.Errorf("N = %d", table.Rows[0].N)
	}
}

func TestRunAllPreservesOrder(t *testing.T) {
	specs := []Spec{tinySpec("a", 1), tinySpec("b", 1)}
	tables, err := RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].Name != "a" || tables[1].Name != "b" {
		t.Errorf("tables = %v", tables)
	}
}

func TestInstSeedDecorrelated(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := instSeed(1, i)
		if seen[s] {
			t.Fatalf("duplicate instance seed at %d", i)
		}
		seen[s] = true
	}
	if instSeed(1, 0) == instSeed(2, 0) {
		t.Error("different base seeds give same instance seed")
	}
}

func TestFigurePresets(t *testing.T) {
	o := Options{Instances: 10, Seed: 3}
	counts := map[string]int{"4": 6, "5": 18, "6": 2, "7": 6, "8": 3, "faults": 7}
	for name, builder := range Figures() {
		specs := builder(o)
		if len(specs) != counts[name] {
			t.Errorf("figure %s: %d specs, want %d", name, len(specs), counts[name])
		}
		for _, s := range specs {
			if err := s.Validate(); err != nil {
				t.Errorf("figure %s: %v", name, err)
			}
			if s.Instances != 10 || s.Seed != 3 {
				t.Errorf("figure %s: options not applied: %+v", name, s)
			}
		}
	}
	// Figure 6 panels are skewed; Figure 7 panels alternate modes;
	// Figure 8 uses the MQB variant list.
	for _, s := range Figure6(o) {
		if s.SkewFactor != 5 {
			t.Errorf("figure 6 spec %q lacks skew", s.Name)
		}
	}
	f7 := Figure7(o)
	if f7[0].Preemptive || !f7[1].Preemptive {
		t.Error("figure 7 mode alternation wrong")
	}
	for _, s := range Figure8(o) {
		if len(s.Schedulers) != len(core.MQBVariantNames()) {
			t.Errorf("figure 8 spec %q has schedulers %v", s.Name, s.Schedulers)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.fillDefaults()
	if o.Instances != 5000 || o.Seed != 1 {
		t.Errorf("defaults = %+v", o)
	}
	o = Options{Instances: 7, Seed: 9, Workers: 2}.fillDefaults()
	if o.Instances != 7 || o.Seed != 9 || o.Workers != 2 {
		t.Errorf("explicit options clobbered: %+v", o)
	}
}

func TestWriteTableAndCSV(t *testing.T) {
	table := Table{
		Name: "panel",
		Rows: []Row{
			{Scheduler: "KGreedy", Mean: 2.5, Max: 3, Min: 1, StdDev: 0.5, N: 10},
			{Scheduler: "MQB", Mean: 1.25, Max: 2, Min: 1, StdDev: 0.25, N: 10},
		},
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, table); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"panel", "KGreedy", "MQB", "2.500", "1.250"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := WriteCSV(&buf, []Table{table}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "panel,scheduler,mean") {
		t.Errorf("CSV header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "panel,KGreedy,2.5") {
		t.Errorf("CSV row = %q", lines[1])
	}
	buf.Reset()
	if err := WriteTables(&buf, []Table{table, table}); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "panel (") != 2 {
		t.Error("WriteTables did not render both tables")
	}
}

func TestSummarize(t *testing.T) {
	table := Table{
		Name: "p",
		Rows: []Row{
			{Scheduler: "KGreedy", Mean: 2.0},
			{Scheduler: "MQB", Mean: 1.0},
		},
	}
	s := Summarize(table)
	if !strings.Contains(s, "best MQB") || !strings.Contains(s, "50% below KGreedy") {
		t.Errorf("Summarize = %q", s)
	}
	if got := Summarize(Table{Name: "empty"}); !strings.Contains(got, "no data") {
		t.Errorf("Summarize(empty) = %q", got)
	}
	// KGreedy itself best: no comparison clause.
	solo := Table{Name: "s", Rows: []Row{{Scheduler: "KGreedy", Mean: 1.5}}}
	if s := Summarize(solo); strings.Contains(s, "below KGreedy") {
		t.Errorf("Summarize = %q", s)
	}
}

func TestRunLayeredEPShape(t *testing.T) {
	// Integration: the paper's headline claim on a reduced instance
	// count — MQB's mean ratio is at least 25% below KGreedy's on small
	// layered EP.
	spec := Spec{
		Name:       "shape",
		Workload:   workload.DefaultEP(4, workload.Layered),
		Machine:    workload.SmallMachine,
		Schedulers: []string{"KGreedy", "MQB"},
		Instances:  60,
		Seed:       2,
	}
	table, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	kg, mqb := table.Row("KGreedy").Mean, table.Row("MQB").Mean
	if mqb > 0.75*kg {
		t.Errorf("MQB %g not clearly below KGreedy %g", mqb, kg)
	}
}

func TestPercentile(t *testing.T) {
	if percentile(nil, 0.5) != 0 {
		t.Error("empty sample should give 0")
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 0.5); got != 5 {
		t.Errorf("p50 = %g, want 5", got)
	}
	if got := percentile(sorted, 0.95); got != 10 {
		t.Errorf("p95 = %g, want 10 (nearest rank)", got)
	}
	if got := percentile(sorted, 0.9); got != 9 {
		t.Errorf("p90 = %g, want 9", got)
	}
	if got := percentile(sorted, 0.0); got != 1 {
		t.Errorf("p0 = %g, want 1", got)
	}
	if got := percentile(sorted, 1.0); got != 10 {
		t.Errorf("p100 = %g, want 10", got)
	}
	if got := percentile([]float64{7}, 0.5); got != 7 {
		t.Errorf("singleton p50 = %g, want 7", got)
	}
}

func TestRowPercentilesOrdered(t *testing.T) {
	table, err := Run(tinySpec("pct", 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range table.Rows {
		if r.P50 < r.Min || r.P50 > r.Max || r.P95 < r.P50 || r.P95 > r.Max {
			t.Errorf("%s: percentiles out of order: min=%g p50=%g p95=%g max=%g",
				r.Scheduler, r.Min, r.P50, r.P95, r.Max)
		}
	}
}
