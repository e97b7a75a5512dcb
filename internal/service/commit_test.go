package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fhs/internal/service/wal"
)

// newAlwaysServer serves a fresh core journaled with fsync=always into
// one segment, with no snapshots, and returns the journal, the server
// and the segment's path. wrap, when non-nil, wraps the handler.
func newAlwaysServer(t *testing.T, wrap func(http.Handler) http.Handler) (*Journal, *httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	jn, _, _, err := OpenJournal(dir, JournalOptions{WAL: wal.Options{Fsync: wal.FsyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jn.Close() })
	var h http.Handler = NewHandler(newTestCore(t, nil), WithJournal(jn))
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return jn, srv, filepath.Join(dir, "seg-00000001.wal")
}

// probe orders fsyncs and response writes on one sequence.
type probe struct {
	seq   atomic.Int64
	mu    sync.Mutex
	syncs []probeSync
	resps []probeResp
}

// probeSync is one fsync: the frames on file when it began (so every
// frame it covers at least), and where it began and ended.
type probeSync struct {
	frames     int
	begin, end int64
	ok         bool
}

// probeResp is one response: the request's X-Probe tag, its status and
// when its status line was written.
type probeResp struct {
	tag  string
	code int
	at   int64
}

func (p *probe) hook(seg string) func(sync func() error) error {
	return func(sync func() error) error {
		data, err := os.ReadFile(seg)
		if err != nil {
			return err
		}
		s := probeSync{frames: bytes.Count(data, []byte{'\n'}), begin: p.seq.Add(1)}
		// A slow disk, so that requests pile up behind the fsync.
		time.Sleep(time.Millisecond)
		err = sync()
		s.end, s.ok = p.seq.Add(1), err == nil
		p.mu.Lock()
		p.syncs = append(p.syncs, s)
		p.mu.Unlock()
		return err
	}
}

func (p *probe) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(&probeWriter{ResponseWriter: w, p: p, tag: r.Header.Get("X-Probe")}, r)
	})
}

// probeWriter records when a response's status line is written.
type probeWriter struct {
	http.ResponseWriter
	p       *probe
	tag     string
	written bool
}

func (w *probeWriter) WriteHeader(code int) {
	if !w.written {
		w.written = true
		at := w.p.seq.Add(1)
		w.p.mu.Lock()
		w.p.resps = append(w.p.resps, probeResp{w.tag, code, at})
		w.p.mu.Unlock()
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *probeWriter) Write(b []byte) (int, error) {
	if !w.written {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// covered reports whether a successful fsync that began with frame
// mark on file ended before at.
func (p *probe) covered(mark int, at int64) bool {
	for _, s := range p.syncs {
		if s.ok && s.frames >= mark && s.end < at {
			return true
		}
	}
	return false
}

// await fails the test unless ch is closed or sent on within ten
// seconds.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// tagged sends one request carrying an X-Probe tag and returns its
// status and body.
func tagged(method, url, tag, body string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Probe", tag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// TestGroupCommitDurability runs concurrent submitters and readers
// against a handler journaling with fsync=always. Every acknowledged
// submit must have been answered only after an fsync that began once
// its record was on file had finished; every job a read lists must have
// been durable the same way before the read answered; and the
// submitters must have shared fsyncs.
func TestGroupCommitDurability(t *testing.T) {
	p := &probe{}
	jn, srv, seg := newAlwaysServer(t, p.wrap)
	jn.log.SetSyncHook(p.hook(seg))

	const submitters, jobsPer, readers = 8, 8, 2
	var wg sync.WaitGroup
	errs := make(chan error, submitters*jobsPer+readers)
	var listedMu sync.Mutex
	listed := map[string][]string{} // read tag -> job IDs it listed
	stop := make(chan struct{})
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < jobsPer; i++ {
				id := fmt.Sprintf("w%d-j%d", w, i)
				code, body, err := tagged("POST", srv.URL+"/v1/jobs", "submit "+id, submitBody(id, fmt.Sprintf("t%d", w%3), int64(w*100+i)))
				if err == nil && code != http.StatusCreated {
					err = fmt.Errorf("submit %s: status %d: %s", id, code, body)
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				tag := fmt.Sprintf("read %d-%d", r, n)
				code, body, err := tagged("GET", srv.URL+"/v1/jobs", tag, "")
				var list []JobStatus
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("%s: status %d", tag, code)
				}
				if err == nil {
					err = json.Unmarshal(body, &list)
				}
				if err != nil {
					errs <- err
					return
				}
				ids := make([]string, len(list))
				for i, st := range list {
					ids[i] = st.ID
				}
				listedMu.Lock()
				listed[tag] = ids
				listedMu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The journal is fresh, so a submit's mark is its line on file.
	mark := map[string]int{}
	for i, payload := range jn.history {
		var r Rec
		if err := json.Unmarshal(payload, &r); err != nil {
			t.Fatal(err)
		}
		mark[r.Submit.ID] = i + 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	acked, reads := 0, 0
	for _, resp := range p.resps {
		switch {
		case strings.HasPrefix(resp.tag, "submit "):
			id := strings.TrimPrefix(resp.tag, "submit ")
			acked++
			if !p.covered(mark[id], resp.at) {
				t.Errorf("submit %s (frame %d) answered %d before an fsync covering it finished", id, mark[id], resp.code)
			}
		case strings.HasPrefix(resp.tag, "read "):
			reads++
			for _, id := range listed[resp.tag] {
				if !p.covered(mark[id], resp.at) {
					t.Errorf("%s listed job %s (frame %d) before an fsync covering it finished", resp.tag, id, mark[id])
				}
			}
		}
	}
	if acked != submitters*jobsPer || reads == 0 {
		t.Fatalf("probe saw %d submit and %d read responses, want %d and some", acked, reads, submitters*jobsPer)
	}
	if len(p.syncs) >= len(jn.history) {
		t.Errorf("%d fsyncs for %d journaled ops: concurrent submits did not share fsyncs", len(p.syncs), len(jn.history))
	}
	t.Logf("%d ops, %d fsyncs, %d reads", len(jn.history), len(p.syncs), reads)
}

// TestReadWaitsForDurable holds a submit's fsync open: the submit is
// applied to the core, so a read issued meanwhile sees it, and must not
// answer until the fsync finishes.
func TestReadWaitsForDurable(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	jn, srv, _ := newAlwaysServer(t, nil)
	unblock := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unblock) // before the journal closes, should the test fail early
	jn.log.SetSyncHook(func(sync func() error) error {
		once.Do(func() {
			close(started)
			<-release
		})
		return sync()
	})

	submitted := make(chan int, 1)
	go func() {
		code, _, _ := tagged("POST", srv.URL+"/v1/jobs", "", submitBody("j0", "acme", 1))
		submitted <- code
	}()
	await(t, started, "the first fsync")
	type answer struct {
		code int
		body []byte
	}
	read := make(chan answer, 1)
	go func() {
		code, body, _ := tagged("GET", srv.URL+"/v1/jobs", "", "")
		read <- answer{code, body}
	}()
	select {
	case a := <-read:
		t.Fatalf("read answered %d (%s) while the submit it follows was not durable", a.code, a.body)
	case <-time.After(100 * time.Millisecond):
	}
	unblock()
	if code := await(t, submitted, "the submit"); code != http.StatusCreated {
		t.Fatalf("submit: status %d", code)
	}
	a := await(t, read, "the read")
	var list []JobStatus
	if err := json.Unmarshal(a.body, &list); err != nil || a.code != http.StatusOK || len(list) != 1 {
		t.Fatalf("read after the fsync: status %d, %s", a.code, a.body)
	}
}

// TestFsyncFailureFailStops injects an fsync error under fsync=always.
// The submit whose record that fsync covered, and one queued behind it,
// get 500; later mutations and reads get 503 and /readyz turns 503;
// the fsync is never retried.
func TestFsyncFailureFailStops(t *testing.T) {
	injected := errors.New("injected EIO")
	var syncs atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	jn, srv, _ := newAlwaysServer(t, nil)
	unblock := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unblock) // before the journal closes, should the test fail early
	jn.log.SetSyncHook(func(sync func() error) error {
		if syncs.Add(1) == 1 {
			close(started)
			<-release
			return injected
		}
		return sync()
	})

	codes := make(chan int, 2)
	submit := func(id string, seed int64) {
		code, _, err := tagged("POST", srv.URL+"/v1/jobs", "", submitBody(id, "acme", seed))
		if err != nil {
			t.Error(err)
		}
		codes <- code
	}
	go submit("j0", 1)
	await(t, started, "the first fsync")
	go submit("j1", 2)
	for deadline := time.Now().Add(10 * time.Second); jn.Mark() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for j1's record")
		}
	}
	unblock()
	for i := 0; i < 2; i++ {
		if code := await(t, codes, "a submit"); code != http.StatusInternalServerError {
			t.Errorf("submit waiting on the failed fsync: status %d, want 500", code)
		}
	}

	if code := do(t, "POST", srv.URL+"/v1/jobs", submitBody("j2", "acme", 3), nil); code != http.StatusServiceUnavailable {
		t.Errorf("submit after the failure: status %d, want 503", code)
	}
	if code := do(t, "DELETE", srv.URL+"/v1/jobs/j0", "", nil); code != http.StatusServiceUnavailable {
		t.Errorf("cancel after the failure: status %d, want 503", code)
	}
	if code := do(t, "GET", srv.URL+"/v1/jobs", "", nil); code != http.StatusServiceUnavailable {
		t.Errorf("read of state that is not durable: status %d, want 503", code)
	}
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz after the failure: status %d, want 503", resp.StatusCode)
	}
	if got := syncs.Load(); got != 1 {
		t.Errorf("%d fsyncs, want 1: the failed one must not be retried", got)
	}
}

// TestMutationAfterLogStopped fail-stops the log through the journal
// alone, as a failed fsync does before its waiter marks the handler
// failed: a submit arriving in between must not reach the log and must
// get 503, like every later mutation.
func TestMutationAfterLogStopped(t *testing.T) {
	injected := errors.New("injected EIO")
	jn, srv, _ := newAlwaysServer(t, nil)
	jn.log.SetSyncHook(func(func() error) error { return injected })
	if err := jn.Record(Rec{Op: "cancel", ID: "j0"}); !errors.Is(err, injected) {
		t.Fatalf("record under a failing fsync: %v, want the injected error", err)
	}
	if code := do(t, "POST", srv.URL+"/v1/jobs", submitBody("j1", "acme", 1), nil); code != http.StatusServiceUnavailable {
		t.Errorf("submit after the log stopped: status %d, want 503", code)
	}
	if got := jn.Mark(); got != 1 {
		t.Errorf("journal mark %d after the refused submit, want 1", got)
	}
}
