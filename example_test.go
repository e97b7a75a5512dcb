package fhs_test

import (
	"fmt"
	"math/rand"

	"fhs"
)

// ExampleSimulate schedules a three-stage CPU/GPU pipeline with MQB.
func ExampleSimulate() {
	b := fhs.NewJobBuilder(2)
	load := b.AddTask(0, 4) // CPU
	kern := b.AddTask(1, 8) // GPU
	post := b.AddTask(0, 2) // CPU
	b.AddChain(load, kern, post)
	job, err := b.Build()
	if err != nil {
		panic(err)
	}

	sched, err := fhs.NewScheduler("MQB", fhs.SchedulerParams{})
	if err != nil {
		panic(err)
	}
	res, err := fhs.Simulate(job, sched, fhs.SimConfig{Procs: []int{2, 1}})
	if err != nil {
		panic(err)
	}
	fmt.Println("completion:", res.CompletionTime)
	// Output:
	// completion: 14
}

// ExampleLowerBound computes L(J) for the paper's Figure 1 job on a
// machine with one processor per type.
func ExampleLowerBound() {
	b := fhs.NewJobBuilder(2)
	x := b.AddTask(0, 3)
	y := b.AddTask(1, 5)
	b.AddEdge(x, y)
	job, err := b.Build()
	if err != nil {
		panic(err)
	}
	lb, err := fhs.LowerBound(job, []int{1, 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("L(J) = %.0f\n", lb)
	// Output:
	// L(J) = 8
}

// ExampleOnlineLowerBound evaluates the Theorem 2 bound for a 4-type
// machine with 3 processors per type.
func ExampleOnlineLowerBound() {
	bound, err := fhs.OnlineLowerBound([]int{3, 3, 3, 3})
	if err != nil {
		panic(err)
	}
	fmt.Printf("no online algorithm beats %.2f-competitive\n", bound)
	// Output:
	// no online algorithm beats 3.75-competitive
}

// ExampleGenerateWorkload draws a layered EP job and schedules it with
// the online baseline and with MQB.
func ExampleGenerateWorkload() {
	rng := rand.New(rand.NewSource(7))
	cfg := fhs.DefaultWorkloadConfig(fhs.EPWorkload, 4, fhs.LayeredTyping)
	job, err := fhs.GenerateWorkload(cfg, rng)
	if err != nil {
		panic(err)
	}
	procs := []int{3, 3, 3, 3}
	lb, err := fhs.LowerBound(job, procs)
	if err != nil {
		panic(err)
	}
	for _, name := range []string{"KGreedy", "MQB"} {
		s, err := fhs.NewScheduler(name, fhs.SchedulerParams{})
		if err != nil {
			panic(err)
		}
		res, err := fhs.Simulate(job, s, fhs.SimConfig{Procs: procs})
		if err != nil {
			panic(err)
		}
		better := res.CompletionTime < int64(2*lb)
		fmt.Printf("%s within 2x of the bound: %v\n", name, better)
	}
	// Output:
	// KGreedy within 2x of the bound: false
	// MQB within 2x of the bound: true
}
