package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fhs/internal/load"
	"fhs/internal/obs"
	"fhs/internal/service"
	"fhs/internal/service/wal"
)

// Both fhd workloads serve the repository's pinned ci soak: its machine
// and admission bound, as CI's live-server soak starts fhd (-procs 2,2
// -maxbacklog 64; internal/load/soak.go), and its arrival trace config,
// drawn with a seed of the run's per round. A write-ahead log is added
// so that every server lifetime can end in a crash and a cold recovery.
var soakProcs = load.CISoakProcs()

// clients submit at once in the concurrent workload. No pinned workload
// fixes a concurrency level; eight keep several submits queued behind
// fhd's handler lock and journal fsync on a two-vCPU host, the case WAL
// group commit is meant to amortize.
const clients = 8

// sampleEvery picks the rounds that get a check or a layer split too
// slow to give every round: every one whose index it divides. Replay
// re-runs them in process; traced runs split them by layer.
const sampleEvery = 8

// soakTrace draws a round's arrival trace: the ci soak trace config
// with its seed replaced by one drawn from the run seed.
func soakTrace(seed int64, round int) (load.TraceConfig, []load.SLO, []service.Op, error) {
	tc, slos := load.CISoak()
	tc.SeedBase = roundSeed(seed, round)
	ops, err := load.SynthesizeSeeded(tc)
	return tc, slos, ops, err
}

// soakConfig is internal/load's run configuration for the ci soak, as
// fhload -soak ci sets it; an empty url drives an in-process core.
func soakConfig(slos []load.SLO, url string) load.RunConfig {
	return load.RunConfig{
		Procs:           soakProcs,
		MaxBacklogTasks: load.CISoakMaxBacklog,
		SLOs:            slos,
		URL:             url,
		Client:          timed,
	}
}

// runReplay measures ordered replay with recovery: the repository's
// load package (internal/load) sends a ci soak trace to fhd in trace
// order, exactly as fhload -soak ci -url -noaudit does (advance to each
// op's instant, submit or cancel, drain, read the summary, the job
// records and the metrics), and the server is then SIGKILLed and
// recovered from its batch-fsynced log. Shed submits (429 with Retry-After) are correct
// answers. Every round draws its own trace, so a run averages over many.
func runReplay(e env) (*sample, error) {
	type round struct {
		tc   load.TraceConfig
		slos []load.SLO
		ops  []service.Op
		fp   string // the live report's fingerprint, once driven
	}
	var checks []*round
	s, err := runFHD(e, "batch", func(n int) (requester, error) {
		tc, slos, ops, err := soakTrace(e.seed, n)
		if err != nil {
			return nil, err
		}
		r := &round{tc: tc, slos: slos, ops: ops}
		if n%sampleEvery == 0 {
			checks = append(checks, r)
		}
		return func(p *fhdProc, _ *sample) error {
			rep, err := load.RunOps(soakConfig(slos, p.url), tc, ops)
			if err != nil {
				return err
			}
			r.fp = rep.Fingerprint
			return nil
		}, nil
	})
	if err != nil {
		return nil, err
	}

	// As in CI's cross-mode check, the live report must equal the report
	// of the same trace driven through an in-process core, whose event
	// stream the independent stream auditor must also pass.
	for _, r := range checks {
		if r.fp == "" {
			continue // the round failed, which is already recorded
		}
		cfg := soakConfig(r.slos, "")
		cfg.Audit = true
		rep, err := load.RunOps(cfg, r.tc, r.ops)
		switch {
		case err != nil:
			s.check(fmt.Errorf("in-process drive of seed %d: %w", r.tc.SeedBase, err))
		case rep.Fingerprint != r.fp:
			s.check(fmt.Errorf("seed %d: live report fingerprint %s, in-process %s", r.tc.SeedBase, r.fp, rep.Fingerprint))
		}
	}
	return s, nil
}

// answers counts how fhd answered one concurrent client's submits.
type answers struct{ acked, shed int }

// runConcurrent measures durable submits under contention: the jobs of
// a ci soak trace are dealt to the clients in arrival order, and each
// client sends its own submits and cancels as fast as fhd answers, with
// every journal append fsynced; the server is then SIGKILLed and
// recovered. Clients cannot share the simulated clock, so none
// advances it to an arrival instant: a client answered 429 with
// Retry-After drains the machine, as waiting out the backlog, and
// sends the submit once more.
func runConcurrent(e env) (*sample, error) {
	return runFHD(e, "always", func(n int) (requester, error) {
		_, _, ops, err := soakTrace(e.seed, n)
		if err != nil {
			return nil, err
		}
		owner := make(map[string]int)
		parts := make([][]request, clients)
		for i := range ops {
			op := &ops[i]
			c, ok := owner[op.ID]
			if !ok {
				c = len(owner) % clients
				owner[op.ID] = c
			}
			if op.Op == "cancel" {
				parts[c] = append(parts[c], request{"DELETE", "/v1/jobs/" + op.ID, nil})
				continue
			}
			body, err := json.Marshal(op.SubmitRequest())
			if err != nil {
				return nil, err
			}
			parts[c] = append(parts[c], request{"POST", "/v1/jobs", body})
		}
		return func(p *fhdProc, s *sample) error {
			got := make([]answers, clients)
			seen := make([]sample, clients)
			errs := make([]error, clients)
			var wg sync.WaitGroup
			for c := range parts {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[c] = submitAll(p, parts[c], &got[c], &seen[c])
				}()
			}
			wg.Wait()
			var total answers
			for c := range got {
				total.acked += got[c].acked
				total.shed += got[c].shed
				s.failed += seen[c].failed
				for _, err := range seen[c].bad {
					s.check(err)
				}
				if errs[c] != nil {
					return errs[c]
				}
			}
			// Every acknowledged submit must be admitted and, after a last
			// drain, done or cancelled; every 429 must be a shed.
			if err := p.drain(); err != nil {
				return err
			}
			var sum service.Summary
			if err := getJSON(p, "/v1/summary", &sum); err != nil {
				return err
			}
			shed, rejected := 0, 0
			for _, ts := range sum.Tenants {
				shed += ts.Shed
				rejected += ts.Rejected
			}
			if sum.Jobs != total.acked || sum.Done+sum.Cancelled != total.acked || shed != total.shed || rejected != 0 {
				s.check(fmt.Errorf("summary has %d jobs, %d done, %d cancelled, %d shed, %d rejected; clients saw %d acknowledged and %d shed",
					sum.Jobs, sum.Done, sum.Cancelled, shed, rejected, total.acked, total.shed))
			}
			return nil
		}, nil
	})
}

// submitAll sends one concurrent client's requests in order. An
// unexpected answer is a failed operation recorded in seen; a transport
// error ends the client.
func submitAll(p *fhdProc, reqs []request, got *answers, seen *sample) error {
	for _, r := range reqs {
		if r.method == "DELETE" {
			// A cancel may miss: its job was shed (404) or has finished (409).
			status, _, body, err := p.do(r)
			if err != nil {
				return err
			}
			if status != http.StatusOK && status != http.StatusNotFound && status != http.StatusConflict {
				seen.fail(fmt.Errorf("DELETE %s: status %d: %s", r.path, status, bytes.TrimSpace(body)))
			}
			continue
		}
		for try := 0; ; try++ {
			status, retryAfter, body, err := p.do(r)
			if err != nil {
				return err
			}
			switch {
			case status == http.StatusCreated:
				got.acked++
			case status == http.StatusTooManyRequests && retryAfter != "":
				got.shed++
				if try == 0 {
					if err := p.drain(); err != nil {
						return err
					}
					continue
				}
			default:
				seen.fail(fmt.Errorf("POST /v1/jobs: status %d: %s", status, bytes.TrimSpace(body)))
			}
			break
		}
	}
	return nil
}

// roundSeed gives every round of a run its own inputs, a pure function
// of the run seed.
func roundSeed(seed int64, round int) int64 {
	return seed*1_000_003 + int64(round)*10_007
}

// requester sends one round's requests to a live server.
type requester func(*fhdProc, *sample) error

// fhdArgs are the flags of every fhd the workloads start.
func fhdArgs(dir, fsync string) []string {
	procs := make([]string, len(soakProcs))
	for i, n := range soakProcs {
		procs[i] = strconv.Itoa(n)
	}
	return []string{"-procs", strings.Join(procs, ","), "-maxbacklog", strconv.Itoa(load.CISoakMaxBacklog),
		"-wal", dir, "-fsync", fsync}
}

// runFHD runs server lifetimes until the window closes: prepare the
// round's requests, start fhd on a fresh log with the given fsync
// policy, send them, SIGKILL the server, restart it cold on the same
// log, and check that the fingerprint and the summary survived. A
// traced run then splits every sampleEvery-th lifetime by layer.
func runFHD(e env, fsync string, prepare func(round int) (requester, error)) (*sample, error) {
	s := &sample{}
	for i := 0; i < fhdSetupReps; i++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("setup-%d", i))
		p, ready, err := startFHD(e.fhd, fhdArgs(dir, fsync)...)
		if err != nil {
			return nil, err
		}
		s.setup = append(s.setup, ready)
		if err := p.stop(); err != nil {
			return nil, err
		}
	}

	var sampled []life // lifetimes kept for the layer split
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < e.window; round++ {
		drive, err := prepare(round)
		if err != nil {
			return nil, err
		}
		lt, err := lifetime(e, round, fsync, s, drive)
		if err != nil {
			s.check(fmt.Errorf("round %d: %w", round, err))
			break
		}
		s.batches = append(s.batches, lt.batch)
		s.opsWall += lt.ops
		if e.traced && round%sampleEvery == 0 {
			sampled = append(sampled, lt)
		} else if err := os.RemoveAll(lt.dir); err != nil {
			return nil, err
		}
	}
	for _, lt := range sampled {
		if err := fhdLayers(&s.layers, e.dir, fsync, lt); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// life is what one server lifetime measured.
type life struct {
	dir      string        // the lifetime's log
	requests int           // requests drive sent
	batch    time.Duration // start, requests, kill and cold restart
	ops      time.Duration // wall time of the requests
	restart  time.Duration // cold restart until /readyz answers 200
}

// lifetime runs one round's server lifetime and records what the
// crash did not preserve as failed checks in s.
func lifetime(e env, round int, fsync string, s *sample, drive requester) (life, error) {
	lt := life{dir: filepath.Join(e.dir, fmt.Sprintf("wal-%d", round))}
	start := time.Now()
	p, _, err := startFHD(e.fhd, fhdArgs(lt.dir, fsync)...)
	if err != nil {
		return lt, err
	}
	transport.take()
	opsStart := time.Now()
	err = drive(p, s)
	lt.ops = time.Since(opsStart)
	lat := transport.take()
	s.lat = append(s.lat, lat...)
	s.ops += len(lat)
	lt.requests = len(lat)
	if err != nil {
		s.failed++
		s.ops++
		p.kill()
		return lt, err
	}
	// Reading the state to compare after the crash is checking, not
	// serving: its time is left out of the batch.
	checkStart := time.Now()
	fp, sum, err := serverState(p)
	checked := time.Since(checkStart)
	if err != nil {
		p.kill()
		return lt, err
	}
	p.kill()

	restartStart := time.Now()
	p, lt.restart, err = startFHD(e.fhd, fhdArgs(lt.dir, fsync)...)
	if err != nil {
		return lt, fmt.Errorf("cold restart: %w", err)
	}
	lt.batch = restartStart.Sub(start) - checked + lt.restart
	fp2, sum2, err := serverState(p)
	if err != nil {
		p.kill()
		return lt, err
	}
	if fp2 != fp {
		s.check(fmt.Errorf("round %d: fingerprint %s before the crash, %s after recovery", round, fp, fp2))
	}
	if !bytes.Equal(sum, sum2) {
		s.check(fmt.Errorf("round %d: summary changed across the crash:\n%s\n%s", round, sum, sum2))
	}
	return lt, p.stop()
}

// serverState reads what must survive a crash: the replay fingerprint
// and the summary.
func serverState(p *fhdProc) (string, []byte, error) {
	var fp struct{ Fingerprint string }
	if err := getJSON(p, "/v1/fingerprint", &fp); err != nil {
		return "", nil, err
	}
	status, sum, err := call("GET", p.url+"/v1/summary")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET /v1/summary: status %d", status)
	}
	return fp.Fingerprint, sum, err
}

// fhdLayers adds a lifetime's split by layer to l. Its journal is read back
// and run through each layer on its own, in process: the jobs are
// materialized (dag), applied to a fresh core configured as fhd
// configures it (engine, which includes dag), and journaled into a
// fresh log with fhd's options (wal). HTTP is the rest of the request
// time.
func fhdLayers(l *layers, dir, fsync string, lt life) error {
	jn, recs, _, err := service.OpenJournal(lt.dir, service.JournalOptions{})
	if err != nil {
		return err
	}
	if err := jn.Close(); err != nil {
		return err
	}

	start := time.Now()
	for _, r := range recs {
		if r.Op == "submit" {
			if _, err := r.Submit.Spec.Graph(); err != nil {
				return err
			}
		}
	}
	dag := time.Since(start)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	core, err := service.New(service.Config{
		Procs: soakProcs, MaxBacklogTasks: load.CISoakMaxBacklog,
		Obs: obs.NewTracer(), Metrics: obs.NewRegistry(),
	})
	if err != nil {
		return err
	}
	start = time.Now()
	if err := service.ApplyRecs(core, recs); err != nil {
		return err
	}
	engine := time.Since(start)

	policy, err := wal.PolicyByName(fsync)
	if err != nil {
		return err
	}
	outDir, err := os.MkdirTemp(dir, "layers-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(outDir)
	out, _, _, err := service.OpenJournal(outDir, service.JournalOptions{
		WAL:           wal.Options{Fsync: policy, SegmentBytes: 1 << 20},
		SnapshotEvery: 256,
	})
	if err != nil {
		return err
	}
	start = time.Now()
	for _, r := range recs {
		if err := out.Record(r); err != nil {
			return errors.Join(err, out.Close())
		}
	}
	journal := time.Since(start)
	if err := out.Close(); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)

	l.total += lt.batch
	l.dag += dag
	l.engine += engine - dag
	l.wal += journal
	l.http += lt.ops - engine - journal
	l.recovery += lt.restart
	l.ops += lt.requests
	l.allocs += ms1.Mallocs - ms0.Mallocs
	return os.RemoveAll(lt.dir)
}

// request is one pre-encoded fhd request.
type request struct {
	method, path string
	body         []byte
}

// timedTransport records the latency of every request sent through it:
// from sending the request until its response body is closed, which
// this program and internal/load both do once they have read it.
type timedTransport struct {
	http.RoundTripper
	mu  sync.Mutex
	lat []time.Duration
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.RoundTripper.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		d := time.Since(start)
		t.mu.Lock()
		t.lat = append(t.lat, d)
		t.mu.Unlock()
	}}
	return resp, nil
}

// take returns the latencies recorded since the last take.
func (t *timedTransport) take() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	lat := t.lat
	t.lat = nil
	return lat
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

var transport = &timedTransport{RoundTripper: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}}

// timed sends the measured requests; client sends the checks.
var (
	timed  = &http.Client{Transport: transport, Timeout: time.Minute}
	client = &http.Client{Transport: &http.Transport{DisableCompression: true}, Timeout: time.Minute}
)

// do sends a measured request and returns the status, the Retry-After
// header and the body.
func (p *fhdProc) do(r request) (int, string, []byte, error) {
	req, err := http.NewRequest(r.method, p.url+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, "", nil, err
	}
	resp, err := timed.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Retry-After"), data, err
}

// drain advances the server's clock until every admitted job is done.
func (p *fhdProc) drain() error {
	status, _, body, err := p.do(request{"POST", "/v1/advance", []byte(`{"drain":true}`)})
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("drain: status %d: %s", status, bytes.TrimSpace(body))
	}
	return err
}

func call(method, url string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func getJSON(p *fhdProc, path string, v any) error {
	status, body, err := call("GET", p.url+path)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// fhdProc is one running fhd server.
type fhdProc struct {
	cmd     *exec.Cmd
	url     string
	stderr  bytes.Buffer
	done    chan struct{} // closed once the process has exited
	waitErr error         // the exit status, set before done closes
}

// startFHD starts fhd on a free loopback port and returns once /readyz
// answers 200, with the time from exec to ready: process start plus,
// on a non-empty log, WAL recovery and replay.
func startFHD(bin string, args ...string) (*fhdProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	p := &fhdProc{url: "http://" + addr, done: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	p.cmd.Stderr = &p.stderr
	// Should this benchmark die, the kernel kills fhd with it.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		p.waitErr = p.cmd.Wait()
		close(p.done)
	}()
	poll := time.NewTicker(200 * time.Microsecond)
	defer poll.Stop()
	for {
		if readyz(p.url) {
			return p, time.Since(start), nil
		}
		select {
		case <-p.done:
			return nil, 0, fmt.Errorf("fhd exited before it was ready: %v\n%s", p.waitErr, p.stderr.String())
		case <-poll.C:
		}
		if time.Since(start) > time.Minute {
			p.kill()
			return nil, 0, fmt.Errorf("fhd not ready after a minute:\n%s", p.stderr.String())
		}
	}
}

// probe polls readiness on fresh connections, so no idle connection to
// a killed server outlives it.
var probe = &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

func readyz(url string) bool {
	resp, err := probe.Get(url + "/readyz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// kill SIGKILLs the server (a crash), waits until it has exited and
// drops the idle connections to it.
func (p *fhdProc) kill() {
	_ = p.cmd.Process.Kill() // fails only if it already exited; done closes either way
	<-p.done
	timed.CloseIdleConnections()
	client.CloseIdleConnections()
}

// stop asks the server to drain (SIGTERM), waits until it has exited
// and reports an unclean exit.
func (p *fhdProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return fmt.Errorf("stop fhd: %w", err)
	}
	select {
	case <-p.done:
	case <-time.After(time.Minute):
		p.kill()
		return fmt.Errorf("fhd did not drain within a minute:\n%s", p.stderr.String())
	}
	if p.waitErr != nil {
		return fmt.Errorf("fhd exit: %v\n%s", p.waitErr, p.stderr.String())
	}
	return nil
}
