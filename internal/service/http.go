package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"fhs/internal/obs"
	"fhs/internal/service/wal"
)

// maxBodyBytes bounds request bodies; arrival ops are small.
const maxBodyBytes = 1 << 20

// ErrDraining marks a mutating request arriving after graceful drain
// began; the API layer maps it to 503.
var ErrDraining = errors.New("draining")

// errRecovering marks a mutating request arriving before WAL recovery
// finished.
var errRecovering = errors.New("recovering")

// errFailed marks a request arriving after a journal write or fsync
// failed: the handler is fail-stopped until a restart recovers from
// the log.
var errFailed = errors.New("journal failed; restart to recover")

// DecodeSubmitRequest parses a submit body strictly: unknown fields,
// trailing garbage and shape violations are ErrBadRequest. Exported so
// the fuzz target can hold the wire format and the validator together.
func DecodeSubmitRequest(data []byte) (SubmitRequest, error) {
	var req SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return SubmitRequest{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if dec.More() {
		return SubmitRequest{}, fmt.Errorf("%w: trailing data after request object", ErrBadRequest)
	}
	if err := req.validate(); err != nil {
		return SubmitRequest{}, err
	}
	return req, nil
}

// advanceRequest is the body of POST /v1/advance: either a target
// instant or a drain.
type advanceRequest struct {
	To    *int64 `json:"to,omitempty"`
	Drain bool   `json:"drain,omitempty"`
}

// Handler serializes HTTP access to one Core. The core is
// single-owner; the handler's mutex is the ownership boundary, so
// concurrent submitters observe a deterministic core state for any
// fixed request order. With a journal attached, every mutating
// operation is written to the log before it is applied (write-ahead),
// so a crash at any instant recovers to the exact pre-crash state.
// Every response is computed under the mutex but written only after
// the mutex is released and the journal prefix it reflects is durable,
// so concurrent requests share fsyncs and no response shows an
// operation a crash could undo.
type Handler struct {
	mu      sync.Mutex
	core    *Core
	journal *Journal
	mux     *http.ServeMux

	ready    atomic.Bool // false until WAL recovery finishes
	draining atomic.Bool // true once graceful shutdown began
	failed   atomic.Bool // true once the journal failed: fail-stop
}

// HandlerOption configures NewHandler.
type HandlerOption func(*Handler)

// WithJournal attaches a durable operation journal: mutating requests
// are journaled before they touch the core.
func WithJournal(jn *Journal) HandlerOption {
	return func(h *Handler) { h.journal = jn }
}

// StartUnready makes the handler refuse mutating requests (503) and
// report /readyz false until Recover (or MarkReady) runs — the WAL
// recovery window of a restarted server.
func StartUnready() HandlerOption {
	return func(h *Handler) { h.ready.Store(false) }
}

// NewHandler wraps a core in the JSON-over-HTTP API.
func NewHandler(core *Core, opts ...HandlerOption) *Handler {
	h := &Handler{core: core, mux: http.NewServeMux()}
	h.ready.Store(true)
	for _, opt := range opts {
		opt(h)
	}
	h.mux.HandleFunc("POST /v1/jobs", h.submit)
	h.mux.HandleFunc("GET /v1/jobs", h.list)
	h.mux.HandleFunc("GET /v1/jobs/{id}", h.status)
	h.mux.HandleFunc("DELETE /v1/jobs/{id}", h.cancel)
	h.mux.HandleFunc("POST /v1/advance", h.advance)
	h.mux.HandleFunc("GET /v1/summary", h.summary)
	h.mux.HandleFunc("GET /v1/fingerprint", h.fingerprint)
	h.mux.HandleFunc("GET /v1/obs", h.obs)
	h.mux.HandleFunc("GET /v1/metrics", h.metrics)
	h.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	h.mux.HandleFunc("GET /readyz", h.readyz)
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// Recover replays journaled records into the core under the handler's
// lock, then marks the handler ready. Mutating requests racing the
// recovery are refused with 503; /readyz reports false throughout.
func (h *Handler) Recover(recs []Rec) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := ApplyRecs(h.core, recs); err != nil {
		return err
	}
	h.ready.Store(true)
	return nil
}

// MarkReady flips readiness without a recovery pass (fresh core).
func (h *Handler) MarkReady() { h.ready.Store(true) }

// StartDrain begins graceful shutdown: /readyz flips to 503 so load
// balancers stop routing, and subsequent mutating requests are refused
// while in-flight ones finish under the lock.
func (h *Handler) StartDrain() { h.draining.Store(true) }

// Draining reports whether graceful shutdown began.
func (h *Handler) Draining() bool { return h.draining.Load() }

// acceptMutation reports whether a mutating request may proceed; the
// returned error is the refusal.
func (h *Handler) acceptMutation() error {
	if !h.ready.Load() {
		return errRecovering
	}
	if h.failed.Load() {
		return errFailed
	}
	if h.draining.Load() {
		return ErrDraining
	}
	return nil
}

func (h *Handler) readyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case !h.ready.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "recovering")
	case h.failed.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "failed")
	case h.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	default:
		fmt.Fprintln(w, "ready")
	}
}

// commit is the journal prefix a response reflects. The response is
// written only once that prefix is durable. It carries the journal read
// under h.mu, so the wait after unlocking touches no guarded field.
type commit struct {
	jn   *Journal // nil: nothing to wait for
	mark int64
}

// applied returns the commit covering every operation applied so far.
// Callers hold h.mu.
func (h *Handler) applied() commit {
	if h.journal == nil {
		return commit{}
	}
	return commit{h.journal, h.journal.Mark()}
}

// record admits a mutating operation and writes it to the journal
// ahead of applying it, returning the commit its response waits for.
// Callers hold h.mu. On an error the op must not execute. An append
// failure other than a malformed record fail-stops the handler: the
// log may hold the op although the core never applies it. A log that
// an earlier request's fsync fail-stopped refuses the op as errFailed,
// even before that request has marked the handler failed.
func (h *Handler) record(r Rec) (commit, error) {
	if err := h.acceptMutation(); err != nil {
		return commit{}, err
	}
	if h.journal == nil {
		return commit{}, nil
	}
	mark, err := h.journal.Append(r)
	if err != nil {
		if errors.Is(err, ErrBadRequest) {
			return commit{}, err
		}
		h.failed.Store(true)
		if errors.Is(err, wal.ErrStopped) {
			return commit{}, fmt.Errorf("%w: %v", errFailed, err)
		}
		return commit{}, err
	}
	return commit{h.journal, mark}, nil
}

// durable waits, without the handler lock, until c is durable. A
// failed commit fail-stops the handler: the core holds operations the
// log may have lost, so nothing it shows may be answered again.
func (h *Handler) durable(c commit) error {
	if c.jn == nil {
		return nil
	}
	if err := c.jn.Commit(c.mark); err != nil {
		h.failed.Store(true)
		return err
	}
	return nil
}

// durableRead is durable for a read: after a failed commit it answers
// errFailed (503) rather than the fsync error.
func (h *Handler) durableRead(c commit) error {
	if err := h.durable(c); err != nil {
		return fmt.Errorf("%w: %v", errFailed, err)
	}
	return nil
}

// errorStatus maps core sentinel errors onto HTTP statuses.
func errorStatus(err error) int {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrBadRequest), errors.Is(err, ErrTimeTravel):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, ErrDuplicateJob), errors.Is(err, ErrJobDone),
		errors.Is(err, ErrJobCancelled), errors.Is(err, ErrJobFailed):
		return http.StatusConflict
	case errors.Is(err, ErrQuotaExceeded), errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, errRecovering), errors.Is(err, errFailed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, errorStatus(err), map[string]string{"error": err.Error()})
}

// readBody drains a request body under the size bound; an oversized
// body surfaces as *http.MaxBytesError (413).
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return body, nil
}

func (h *Handler) submit(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	req, err := DecodeSubmitRequest(body)
	if err != nil {
		writeError(w, err)
		return
	}
	h.mu.Lock()
	c, err := h.record(Rec{Op: "submit", Submit: &req})
	var st JobStatus
	var retryAfter int64
	if err == nil {
		st, err = h.core.Submit(req)
		if errors.Is(err, ErrOverloaded) {
			retryAfter = h.core.RetryAfter()
		}
	}
	h.mu.Unlock()
	if cerr := h.durable(c); cerr != nil {
		writeError(w, cerr)
		return
	}
	switch {
	case errors.Is(err, ErrIdempotentReplay):
		// A retried submit: answer with the original admission
		// response, 200 because nothing new was created.
		writeJSON(w, http.StatusOK, st)
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", strconv.FormatInt(retryAfter, 10))
		writeError(w, err)
	case err != nil:
		writeError(w, err)
	default:
		writeJSON(w, http.StatusCreated, st)
	}
}

func (h *Handler) list(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	recs := h.core.Records()
	c := h.applied()
	h.mu.Unlock()
	if err := h.durableRead(c); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, recs)
}

func (h *Handler) status(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	st, err := h.core.Status(r.PathValue("id"))
	c := h.applied()
	h.mu.Unlock()
	if cerr := h.durableRead(c); cerr != nil {
		writeError(w, cerr)
		return
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (h *Handler) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	h.mu.Lock()
	c, err := h.record(Rec{Op: "cancel", ID: id})
	var st JobStatus
	if err == nil {
		st, err = h.core.Cancel(id)
	}
	h.mu.Unlock()
	if cerr := h.durable(c); cerr != nil {
		writeError(w, cerr)
		return
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (h *Handler) advance(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req advanceRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	if dec.More() {
		writeError(w, fmt.Errorf("%w: trailing data after request object", ErrBadRequest))
		return
	}
	if (req.To == nil) == !req.Drain {
		writeError(w, fmt.Errorf("%w: want exactly one of to or drain", ErrBadRequest))
		return
	}
	rec := Rec{Op: "drain"}
	if !req.Drain {
		rec = Rec{Op: "advance", To: *req.To}
	}
	h.mu.Lock()
	c, err := h.record(rec)
	var now int64
	if err == nil {
		if req.Drain {
			now = h.core.Drain()
		} else if err = h.core.AdvanceTo(*req.To); err == nil {
			now = h.core.Now()
		}
	}
	h.mu.Unlock()
	if cerr := h.durable(c); cerr != nil {
		writeError(w, cerr)
		return
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{"now": now})
}

// fingerprint reports the canonical replay certificate of the served
// core — the restart smoke compares this across a crash.
func (h *Handler) fingerprint(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	var fp string
	var now int64
	var ops int
	var err error
	if h.core.cfg.Obs == nil || h.core.cfg.Metrics == nil {
		err = fmt.Errorf("%w: fingerprint needs tracing and metrics enabled", ErrBadRequest)
	} else {
		fp, err = Fingerprint(h.core.cfg.Obs.Events(), h.core.cfg.Metrics)
		now, ops = h.core.Now(), h.journalFrames()
	}
	c := h.applied()
	h.mu.Unlock()
	if cerr := h.durableRead(c); cerr != nil {
		writeError(w, cerr)
		return
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"fingerprint": fp, "now": now, "ops": ops})
}

// journalFrames reports the journal depth, 0 without a journal.
func (h *Handler) journalFrames() int {
	if h.journal == nil {
		return 0
	}
	return h.journal.Frames()
}

func (h *Handler) summary(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	s := h.core.Summary()
	c := h.applied()
	h.mu.Unlock()
	if err := h.durableRead(c); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s)
}

// obs dumps the canonical JSONL event stream — the exact bytes the
// replay fingerprint hashes, so `fhsched -checktrace` validates a live
// server's stream.
func (h *Handler) obs(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	events := append([]obs.Event(nil), h.core.cfg.Obs.Events()...)
	c := h.applied()
	h.mu.Unlock()
	if err := h.durableRead(c); err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	if err := obs.WriteJSONL(w, events); err != nil {
		// Headers are gone; the truncated body is the best signal left.
		return
	}
}

// metrics serves the registry snapshot: Prometheus 0.0.4 text by
// default, or the canonical []obs.MetricSnapshot JSON with
// ?format=json — the form fhload decodes to compute latency
// percentiles from a live server.
func (h *Handler) metrics(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	snaps := h.core.cfg.Metrics.Snapshot()
	c := h.applied()
	h.mu.Unlock()
	if err := h.durableRead(c); err != nil {
		writeError(w, err)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "prom":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = obs.WritePrometheus(w, snaps)
	case "json":
		writeJSON(w, http.StatusOK, snaps)
	default:
		writeError(w, fmt.Errorf("%w: unknown metrics format %q (want prom or json)", ErrBadRequest, format))
	}
}
