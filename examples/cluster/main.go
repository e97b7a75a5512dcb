// Cluster: a day in the life of a Cosmos-style cluster — a stream of
// heterogeneous analysis jobs arriving over time on one shared
// machine, run through the online service core behind cmd/fhd under
// its two schedulers:
//
//   - KGreedy: FIFO over every released ready task of the freed type,
//   - MQB: the paper's utilization balancing over the merged queues of
//     all jobs.
//
// The program generates a batch of arrival traces of small layered-EP
// jobs, replays each one under both schedulers and reports the mean
// makespan and mean flow time (completion minus arrival) over the
// batch. Run with:
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"
	"math/rand"

	"fhs/internal/service"
)

func main() {
	log.SetFlags(0)

	const (
		traces  = 30
		jobsPer = 20
	)
	procs := []int{4, 4, 4, 4}
	scheds := []string{"KGreedy", "MQB"}

	type agg struct{ makespan, meanFlow float64 }
	sums := make([]agg, len(scheds))
	for i := 0; i < traces; i++ {
		ops, err := service.GenerateTrace(service.GenConfig{
			Jobs:     jobsPer,
			MeanGap:  4,
			Classes:  []string{"ep"},
			K:        len(procs),
			SeedBase: int64(4000 + i*jobsPer),
		}, rand.New(rand.NewSource(int64(4000+i))))
		if err != nil {
			log.Fatal(err)
		}
		for s, name := range scheds {
			res, err := service.Replay(service.Config{Procs: procs, Scheduler: name}, ops)
			if err != nil {
				log.Fatal(err)
			}
			var flow int64
			var done int
			for _, t := range res.Summary.Tenants {
				flow += t.FlowSum
				done += t.Done
			}
			sums[s].makespan += float64(res.Makespan)
			sums[s].meanFlow += float64(flow) / float64(done)
		}
	}

	fmt.Printf("%d traces of %d layered-EP jobs on machine %v:\n\n", traces, jobsPer, procs)
	fmt.Printf("%-8s  %10s  %10s\n", "sched", "makespan", "mean flow")
	for s, name := range scheds {
		fmt.Printf("%-8s  %10.1f  %10.1f\n", name, sums[s].makespan/traces, sums[s].meanFlow/traces)
	}
}
