// Command perfbench is the repository benchmark. It drives the three
// end-to-end paths of this repository and prints one JSON result line:
//
//   - fig4: the paper's Figure 4 panels through the experiment harness,
//     as fhsim -figure 4 runs them: DAG generation, the pick kernel and
//     the engine step, no I/O;
//   - replay: the repository's load package replays a ci soak arrival
//     trace (internal/load/soak.go) into a live fhd over HTTP, as CI's
//     live-server soak does, with the write-ahead log on (batch fsync);
//     the server is then SIGKILLed and recovered cold from its log;
//   - concurrent: eight clients submit the jobs of a ci soak trace to
//     one fhd at once with fsync=always; the server is then SIGKILLed
//     and recovered.
//
// Usage (run.sh builds fhd and this program from the checkout first):
//
//	perfbench -fhd BIN -tmp DIR --workload NAME --seed N --seconds S --trace 0|1
//
// A workload repeats a batch until --seconds have passed, each batch
// with inputs of its own drawn from the seed. A fig4 operation is one
// figure instance (one instance of each panel) and a batch is eight of
// them; an fhd operation is one HTTP request and a batch is one server
// lifetime: a fresh start, the requests, a SIGKILL and a cold restart
// on the same log. All are closed loops: a client sends its next
// request when the previous one is answered. With --trace 0 the result
// holds the end-to-end metrics; with --trace 1 the same batches run and
// the result holds the per-layer split of their time instead.
//
// Outputs are checked either way. fig4 checks every completion-time
// ratio against the lower bound and re-runs the first instance through
// the harness with the Paranoid schedule auditor, expecting the
// measured results. fhd checks every response status (a shed submit,
// 429 with Retry-After, is a correct answer), that the fingerprint and
// the summary survive the crash, and that the live load report equals
// the one an in-process core gives for the same trace after its event
// stream passes the independent audit (replay), or that every
// acknowledged job is admitted and done and every 429 a shed
// (concurrent).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// setupReps is how many times a fig4 run repeats its set-up, and
// fhdSetupReps how many times an fhd run starts a server on an empty
// log; setup_s is the median, so one slow start does not move it. An
// fhd start takes milliseconds and varies most, so it is repeated more.
const (
	setupReps    = 7
	fhdSetupReps = 25
)

// env is what every workload gets from the command line.
type env struct {
	fhd    string // fhd binary
	dir    string // scratch directory, removed at exit
	seed   int64
	window time.Duration
	traced bool
}

// sample is what one workload run measured.
type sample struct {
	setup   []time.Duration // one per set-up repetition
	lat     []time.Duration // one per operation
	batches []time.Duration // one per batch
	opsWall time.Duration   // wall time spent issuing operations
	ops     int
	failed  int     // operations that errored or got an unexpected answer
	bad     []error // output checks that failed
	layers  layers  // filled by traced runs
}

// fail records a failed operation.
func (s *sample) fail(err error) {
	s.failed++
	s.check(err)
}

// check records a failed output check.
func (s *sample) check(err error) {
	if len(s.bad) < 10 {
		s.bad = append(s.bad, err)
	}
}

// layers splits traced time by the layer of the stack it was spent in.
// fig4 measures dag, pick and engine with spans around the calls into
// each, over the wall time of its operations. fhd splits the wall time
// of every eighth server lifetime: it re-runs each one's journal
// through dag, engine and wal in process, leaving HTTP (transport,
// codec, handler lock waits) as the rest of the request time; its pick
// share is 0, as the service core's picks are not separable from
// outside it. A layer a workload does not reach reads 0%.
type layers struct {
	total    time.Duration // wall time the split covers
	dag      time.Duration // job materialization and descendant precompute
	pick     time.Duration // scheduler Pick calls
	engine   time.Duration // engine step: the simulator or the service core
	wal      time.Duration // journal encode, append and fsync
	http     time.Duration // rest of the request time
	recovery time.Duration // cold restart from the log until ready
	ops      int           // operations the split covers
	allocs   uint64        // heap allocations made in process by the layers
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (l *layers) metrics() map[string]metric {
	pct := func(d time.Duration) metric {
		return metric{100 * float64(d) / float64(l.total), "%"}
	}
	perOp := func(d time.Duration) metric {
		return metric{float64(d) / float64(time.Microsecond) / float64(l.ops), "us"}
	}
	other := l.total - l.dag - l.pick - l.engine - l.wal - l.http - l.recovery
	return map[string]metric{
		"dag_pct":       pct(l.dag),
		"pick_pct":      pct(l.pick),
		"engine_pct":    pct(l.engine),
		"wal_pct":       pct(l.wal),
		"http_pct":      pct(l.http),
		"recovery_pct":  pct(l.recovery),
		"other_pct":     pct(other),
		"dag_us":        perOp(l.dag),
		"engine_us":     perOp(l.engine),
		"allocs_per_op": {float64(l.allocs) / float64(l.ops), "count"},
	}
}

func (s *sample) endToEnd() map[string]metric {
	sort.Slice(s.lat, func(i, j int) bool { return s.lat[i] < s.lat[j] })
	return map[string]metric{
		"latency_p50_ms":   {ms(quantile(s.lat, 0.50)), "ms"},
		"latency_p90_ms":   {ms(quantile(s.lat, 0.90)), "ms"},
		"throughput_ops_s": {float64(s.ops) / s.opsWall.Seconds(), "1/s"},
		"batch_ms":         {ms(median(s.batches)), "ms"},
		"setup_s":          {median(s.setup).Seconds(), "s"},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return quantile(sorted, 0.5)
}

var workloads = map[string]func(env) (*sample, error){
	"fig4":       runFig4,
	"replay":     runReplay,
	"concurrent": runConcurrent,
}

func main() {
	var (
		fhdBin   = flag.String("fhd", "", "fhd binary (run.sh builds it)")
		tmp      = flag.String("tmp", "", "directory for write-ahead logs and traces (run.sh sets it)")
		workload = flag.String("workload", "", "fig4, replay or concurrent")
		seed     = flag.Int64("seed", 1, "seed the inputs are drawn from")
		seconds  = flag.Int("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1 reports the per-layer split instead of the end-to-end metrics")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *fhdBin == "" || *tmp == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	res, err := runWorkload(run, *fhdBin, *tmp, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runWorkload(run func(env) (*sample, error), fhdBin, tmp string, seed int64, seconds int, traced bool) (*result, error) {
	dir, err := os.MkdirTemp(tmp, "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s, err := run(env{fhd: fhdBin, dir: dir, seed: seed, window: time.Duration(seconds) * time.Second, traced: traced})
	if err != nil {
		return nil, err
	}
	if s.ops == 0 {
		return nil, fmt.Errorf("no operations completed")
	}
	for _, e := range s.bad {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	res := &result{Correct: len(s.bad) == 0, Attempted: s.ops, Failed: s.failed, Metrics: s.endToEnd()}
	if traced {
		res.Metrics = s.layers.metrics()
	}
	return res, nil
}
