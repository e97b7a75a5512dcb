package fhs

import (
	"math/rand"
	"testing"

	"fhs/internal/workload"
)

func TestFacadeEndToEnd(t *testing.T) {
	b := NewJobBuilder(2)
	load := b.AddTask(0, 4)
	gpu := b.AddTask(1, 8)
	post := b.AddTask(0, 2)
	b.AddEdge(load, gpu)
	b.AddEdge(gpu, post)
	job, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewScheduler("MQB", SchedulerParams{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(job, sched, SimConfig{Procs: []int{2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTime != 14 {
		t.Errorf("completion = %d, want 14 (serial chain)", res.CompletionTime)
	}
	lb, err := LowerBound(job, []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if lb != 14 {
		t.Errorf("lower bound = %g, want 14 (span)", lb)
	}
	if CompletionRatio(res.CompletionTime, lb) != 1 {
		t.Error("ratio != 1 for span-bound chain")
	}
}

func TestFacadeSchedulerNames(t *testing.T) {
	names := SchedulerNames()
	if len(names) != 6 || names[0] != "KGreedy" || names[5] != "MQB" {
		t.Errorf("SchedulerNames = %v", names)
	}
	for _, n := range names {
		if _, err := NewScheduler(n, SchedulerParams{}); err != nil {
			t.Errorf("NewScheduler(%q): %v", n, err)
		}
	}
	if _, err := NewScheduler("bogus", SchedulerParams{}); err == nil {
		t.Error("NewScheduler accepted bogus name")
	}
}

func TestFacadeNewMQB(t *testing.T) {
	s := NewMQB(MQBOptions{})
	if s.Name() != "MQB" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestFacadeWorkloadAndExperiment(t *testing.T) {
	job, err := GenerateWorkload(workload.DefaultTree(3, workload.Random), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if job.NumTasks() == 0 {
		t.Fatal("empty generated job")
	}
	table, err := RunExperiment(ExperimentSpec{
		Name:       "facade",
		Workload:   workload.DefaultEP(2, workload.Layered),
		Machine:    workload.SmallMachine,
		Schedulers: []string{"KGreedy"},
		Instances:  5,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 1 || table.Rows[0].N != 5 {
		t.Errorf("table = %+v", table)
	}
}

func TestFacadeBounds(t *testing.T) {
	lb, err := OnlineLowerBound([]int{3, 3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	ub, err := KGreedyUpperBound(4)
	if err != nil {
		t.Fatal(err)
	}
	if !(lb > 3 && lb < ub && ub == 5) {
		t.Errorf("bounds lb=%g ub=%g", lb, ub)
	}
}

func TestWorkloadFacadeHelpers(t *testing.T) {
	if got := SkewMachine([]int{10, 10}, 5); got[0] != 2 || got[1] != 10 {
		t.Errorf("SkewMachine = %v", got)
	}
	specs, err := FigureSpecs("4", ExperimentOptions{Instances: 3, Seed: 1})
	if err != nil || len(specs) != 6 {
		t.Errorf("FigureSpecs: %d specs, %v", len(specs), err)
	}
	if _, err := FigureSpecs("99", ExperimentOptions{}); err == nil {
		t.Error("FigureSpecs accepted unknown figure")
	}
	opt, err := AdversarialOptimum([]int{3, 3}, 4)
	if err != nil || opt != 13 {
		t.Errorf("AdversarialOptimum = %d, %v", opt, err)
	}
	online, err := AdversarialExpectedOnline([]int{3, 3}, 4)
	if err != nil || online <= float64(opt) {
		t.Errorf("AdversarialExpectedOnline = %g, %v", online, err)
	}
	if SmallMachine.MaxPerType != 5 || MediumMachine.MinPerType != 10 {
		t.Error("machine presets wrong")
	}
	job, err := NewAdversarialJob(AdversarialConfig{Procs: []int{2, 2}, M: 2}, rand.New(rand.NewSource(1)))
	if err != nil || job.Graph.NumTasks() == 0 {
		t.Errorf("NewAdversarialJob: %v", err)
	}
}
