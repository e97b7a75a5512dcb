package service

import (
	"encoding/json"
	"errors"
	"fmt"

	"fhs/internal/obs"
	"fhs/internal/service/wal"
)

// Rec is one durable operation record — the WAL payload the journal
// frames. Every operation that reaches the core is recorded before it
// is applied, including ones the core will reject: rejections mutate
// metrics counters, which feed the replay fingerprint, so a recovered
// server must re-observe them. Advance and drain are journaled too —
// the clock position shapes the event stream.
type Rec struct {
	Op     string         `json:"op"` // "submit", "cancel", "advance" or "drain"
	Submit *SubmitRequest `json:"submit,omitempty"`
	ID     string         `json:"id,omitempty"` // cancel target
	To     int64          `json:"to,omitempty"` // advance target
}

// validate checks a record's shape before it is journaled or applied.
func (r *Rec) validate() error {
	switch r.Op {
	case "submit":
		if r.Submit == nil {
			return fmt.Errorf("%w: submit record without a request", ErrBadRequest)
		}
	case "cancel":
		if r.ID == "" {
			return fmt.Errorf("%w: cancel record without a job id", ErrBadRequest)
		}
	case "advance":
		if r.To < 0 {
			return fmt.Errorf("%w: advance record to t=%d", ErrBadRequest, r.To)
		}
	case "drain":
	default:
		return fmt.Errorf("%w: unknown journal op %q", ErrBadRequest, r.Op)
	}
	return nil
}

// Journal is the durable operation log behind a served core: a
// CRC-framed WAL of Rec payloads with periodic full-history snapshots.
// Because core state is a pure function of the operation prefix, the
// snapshot IS the history — compaction consolidates frames, it never
// drops information, and recovery replays exactly what a live run
// applied.
type Journal struct {
	log     *wal.Log
	history [][]byte // every framed payload, snapshot + live segments

	snapEvery int // appends between auto-snapshots; 0 disables
	sinceSnap int
}

// JournalOptions configures OpenJournal.
type JournalOptions struct {
	// WAL configures the underlying log (fsync policy, segment size).
	WAL wal.Options
	// SnapshotEvery takes a consolidating snapshot after this many
	// appended records; 0 disables automatic snapshots.
	SnapshotEvery int
}

// OpenJournal opens (or creates) the journal in dir and returns the
// recovered operation history, already decoded and ready for
// ApplyRecs. Torn or corrupt WAL tails were truncated; the returned
// recovery carries the forensic counts.
func OpenJournal(dir string, opts JournalOptions) (*Journal, []Rec, *wal.Recovery, error) {
	log, rec, err := wal.Open(dir, opts.WAL)
	if err != nil {
		return nil, nil, nil, err
	}
	recs := make([]Rec, 0, len(rec.Payloads))
	for i, p := range rec.Payloads {
		var r Rec
		if err := json.Unmarshal(p, &r); err != nil {
			return nil, nil, nil, errors.Join(fmt.Errorf("service: journal frame %d: %w", i, err), log.Close())
		}
		if err := r.validate(); err != nil {
			return nil, nil, nil, errors.Join(fmt.Errorf("service: journal frame %d: %w", i, err), log.Close())
		}
		recs = append(recs, r)
	}
	return &Journal{
		log:       log,
		history:   rec.Payloads,
		snapEvery: opts.SnapshotEvery,
	}, recs, rec, nil
}

// Append journals one operation without waiting for it to be durable
// and returns its mark for Commit. It must run before the operation is
// applied to the core: a crash after Append may replay the op on
// recovery; a crash before loses an op that never executed. Callers
// serialize Append with Snapshot, Sync and Close; Commit may run
// concurrently with all of them. After an error other than
// ErrBadRequest the log may hold the record although the caller will
// not apply it, so the caller must stop serving.
func (jn *Journal) Append(r Rec) (int64, error) {
	if err := r.validate(); err != nil {
		return 0, err
	}
	payload, err := json.Marshal(&r)
	if err != nil {
		return 0, err
	}
	mark, err := jn.log.Write(payload)
	if err != nil {
		return 0, err
	}
	jn.history = append(jn.history, payload)
	jn.sinceSnap++
	if jn.snapEvery > 0 && jn.sinceSnap >= jn.snapEvery {
		if err := jn.Snapshot(); err != nil {
			return 0, err
		}
	}
	return mark, nil
}

// Commit returns once the operation Append marked mark, and every one
// before it, is durable under the fsync policy: under always it shares
// one fsync with concurrent committers, under batch and off it returns
// at once. Safe to call from any goroutine.
func (jn *Journal) Commit(mark int64) error { return jn.log.Commit(mark) }

// Mark returns the mark of the newest journaled operation: committing
// it makes everything applied so far durable.
func (jn *Journal) Mark() int64 { return jn.log.Written() }

// Record journals one operation and returns once it is durable under
// the fsync policy: Append followed by Commit.
func (jn *Journal) Record(r Rec) error {
	mark, err := jn.Append(r)
	if err != nil {
		return err
	}
	return jn.Commit(mark)
}

// Snapshot consolidates the full history into one snapshot file and
// compacts the covered segments.
func (jn *Journal) Snapshot() error {
	if err := jn.log.Snapshot(jn.history); err != nil {
		return err
	}
	jn.sinceSnap = 0
	return nil
}

// Frames returns the number of journaled operations.
func (jn *Journal) Frames() int { return len(jn.history) }

// Sync forces the WAL to stable storage (a drain-time flush for the
// batch fsync policy).
func (jn *Journal) Sync() error { return jn.log.Sync() }

// Close syncs and closes the underlying log.
func (jn *Journal) Close() error { return jn.log.Close() }

// ApplyRecs replays journaled operations into a core in order. Core
// rejections that a live server answered with an error response —
// quota, shedding, duplicates, idempotent replays, cancel misses,
// time travel — are expected outcomes and replay to the exact same
// state transition (metric counters included); any other error aborts
// recovery.
func ApplyRecs(c *Core, recs []Rec) error {
	for i := range recs {
		r := &recs[i]
		if err := r.validate(); err != nil {
			return fmt.Errorf("service: journal rec %d: %w", i, err)
		}
		var err error
		switch r.Op {
		case "submit":
			_, err = c.Submit(*r.Submit)
			if errors.Is(err, ErrQuotaExceeded) || errors.Is(err, ErrOverloaded) ||
				errors.Is(err, ErrIdempotentReplay) || errors.Is(err, ErrDuplicateJob) ||
				errors.Is(err, ErrBadRequest) {
				err = nil
			}
		case "cancel":
			_, err = c.Cancel(r.ID)
			if errors.Is(err, ErrUnknownJob) || errors.Is(err, ErrJobDone) ||
				errors.Is(err, ErrJobCancelled) || errors.Is(err, ErrJobFailed) {
				err = nil
			}
		case "advance":
			err = c.AdvanceTo(r.To)
			if errors.Is(err, ErrTimeTravel) {
				err = nil
			}
		case "drain":
			c.Drain()
		}
		if err != nil {
			return fmt.Errorf("service: journal rec %d (%s): %w", i, r.Op, err)
		}
	}
	return nil
}

// RecoverCore builds a fresh core from cfg and replays the journaled
// history into it — the restart path of cmd/fhd. A nil cfg.Obs or
// cfg.Metrics is replaced with a fresh tracer or registry, mirroring
// Replay, so the recovered fingerprint always covers both channels.
func RecoverCore(cfg Config, recs []Rec) (*Core, error) {
	if cfg.Obs == nil {
		cfg.Obs = obs.NewTracer()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := ApplyRecs(c, recs); err != nil {
		return nil, err
	}
	return c, nil
}
