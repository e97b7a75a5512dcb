// Package wal is the service's write-ahead log: an append-only,
// CRC32C-framed JSONL log with segment rotation, periodic snapshots
// with log compaction, and a recovery path that tolerates torn or
// corrupt tails by truncating at the first bad frame.
//
// The log is payload-agnostic: callers append opaque single-line
// payloads (the service journals its operation records as JSON) and
// recovery returns the exact payload sequence that survived. Because
// the service core's state is a pure function of its operation prefix,
// replaying the recovered payloads reconstructs the pre-crash machine
// bit-for-bit — the crash-equivalence tests hold the WAL and the
// replay together.
//
// On-disk layout (all under one directory):
//
//	seg-00000001.wal    CRC-framed payload lines, oldest live segment
//	seg-00000002.wal    ...the segment currently appended to
//	snap-00000001.wal   snapshot covering every append up to and
//	                    including segment 1 (written atomically:
//	                    tmp + fsync + rename)
//
// Each frame is one line: eight lowercase hex digits of the payload's
// CRC32C (Castagnoli), one space, the payload, '\n'. A snapshot is a
// header frame {"v":1,"frames":N} followed by N payload frames.
// Snapshots compact the log: once snap-N.wal is durable, segments
// <= N and older snapshots are deleted and appends continue in
// segment N+1.
//
// Durability policy (Options.Fsync): under "always" a frame is durable
// once Commit returns for its mark — an acknowledged append survives OS
// crash and power loss. Write only writes; concurrent Commit callers
// elect one leader at a time whose fsync covers every frame written
// before it began (group commit), and a caller whose frame is already
// covered returns without an fsync. "batch" fsyncs every BatchEvery
// appends — bounded loss window, amortized cost; "off" never fsyncs on
// the append path — process crashes lose nothing (the page cache
// survives), OS crashes may lose the unsynced tail. Under batch and
// off Commit returns at once. Completed segments and snapshots are
// always synced before the log moves past them, whatever the policy.
//
// A failed write or fsync of the live segment is fail-stop: the log
// keeps the first error and refuses every later write and commit. The
// fsync is never retried, because after a failed fsync the kernel may
// have dropped the dirty pages, and a retry that succeeds proves
// nothing about them.
package wal

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"fhs/internal/crashpoint"
)

// Crash sites of the durability-critical path. The re-exec chaos
// harness arms each in a child process and proves recover-then-
// continue equals the uninterrupted run for every one of them.
var (
	cpAppendBeforeWrite = crashpoint.New("wal.append.before-write")
	cpAppendAfterWrite  = crashpoint.New("wal.append.after-write")
	cpAppendAfterSync   = crashpoint.New("wal.append.after-sync")
	cpRotateAfterOpen   = crashpoint.New("wal.rotate.after-open")
	cpSnapBeforeRename  = crashpoint.New("wal.snapshot.before-rename")
	cpSnapAfterRename   = crashpoint.New("wal.snapshot.after-rename")
	cpSnapAfterCompact  = crashpoint.New("wal.snapshot.after-compact")
)

// Policy selects when appends reach stable storage.
type Policy string

const (
	// FsyncAlways syncs after every append.
	FsyncAlways Policy = "always"
	// FsyncBatch syncs every Options.BatchEvery appends.
	FsyncBatch Policy = "batch"
	// FsyncOff never syncs on the append path.
	FsyncOff Policy = "off"
)

// PolicyByName resolves a -fsync flag value.
func PolicyByName(name string) (Policy, error) {
	switch Policy(name) {
	case FsyncAlways, FsyncBatch, FsyncOff:
		return Policy(name), nil
	case "":
		return FsyncBatch, nil
	default:
		return "", fmt.Errorf("wal: unknown fsync policy %q (want always, batch or off)", name)
	}
}

// Options configures a log. The zero value gets batch fsync, 32-append
// batches and 1 MiB segments.
type Options struct {
	// Fsync is the append durability policy; empty means FsyncBatch.
	Fsync Policy
	// BatchEvery is the fsync interval of FsyncBatch, in appends.
	BatchEvery int
	// SegmentBytes rotates the live segment once it reaches this size.
	SegmentBytes int64
}

func (o Options) withDefaults() (Options, error) {
	if o.Fsync == "" {
		o.Fsync = FsyncBatch
	}
	switch o.Fsync {
	case FsyncAlways, FsyncBatch, FsyncOff:
	default:
		return o, fmt.Errorf("wal: unknown fsync policy %q", o.Fsync)
	}
	if o.BatchEvery <= 0 {
		o.BatchEvery = 32
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	return o, nil
}

// ErrCorrupt marks corruption recovery cannot repair: a bad frame in
// the interior of the log (only tails may be torn) or an unreadable
// snapshot.
var ErrCorrupt = errors.New("wal: corrupt log")

// ErrStopped marks a write refused because an earlier write or fsync
// fail-stopped the log; the error also wraps that first failure.
var ErrStopped = errors.New("wal: log fail-stopped")

// castagnoli is the CRC32C table; frames use the Castagnoli
// polynomial for its hardware support and error-detection properties.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameOverhead is the per-frame framing cost: 8 hex CRC digits, one
// space, one newline.
const frameOverhead = 10

// EncodeFrame frames one payload: crc32c in lowercase hex, a space,
// the payload, a newline. The payload must be line-safe (no '\n' or
// '\r'); JSON-marshaled records always are.
func EncodeFrame(payload []byte) ([]byte, error) {
	if bytes.IndexByte(payload, '\n') >= 0 || bytes.IndexByte(payload, '\r') >= 0 {
		return nil, fmt.Errorf("wal: payload contains a line break")
	}
	frame := make([]byte, 0, len(payload)+frameOverhead)
	var crc [4]byte
	sum := crc32.Checksum(payload, castagnoli)
	crc[0], crc[1], crc[2], crc[3] = byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum)
	frame = hex.AppendEncode(frame, crc[:])
	frame = append(frame, ' ')
	frame = append(frame, payload...)
	frame = append(frame, '\n')
	return frame, nil
}

// DecodeFrame parses one frame line (without its trailing newline),
// verifying the CRC. It returns the payload or an error for any
// malformed or corrupt frame; it never panics on arbitrary input.
func DecodeFrame(line []byte) ([]byte, error) {
	if len(line) < frameOverhead-1 {
		return nil, fmt.Errorf("wal: frame of %d bytes, want >= %d", len(line), frameOverhead-1)
	}
	if line[8] != ' ' {
		return nil, fmt.Errorf("wal: frame lacks the CRC separator")
	}
	crc, err := hex.DecodeString(string(line[:8]))
	if err != nil {
		return nil, fmt.Errorf("wal: bad CRC field: %v", err)
	}
	payload := line[9:]
	want := uint32(crc[0])<<24 | uint32(crc[1])<<16 | uint32(crc[2])<<8 | uint32(crc[3])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("wal: CRC mismatch: frame says %08x, payload sums to %08x", want, got)
	}
	return payload, nil
}

// scanFrames parses a buffer of frames, stopping at the first bad or
// torn frame. It returns the decoded payloads and the byte length of
// the valid prefix; err describes why scanning stopped early (nil when
// the whole buffer parsed).
func scanFrames(data []byte) (payloads [][]byte, valid int64, err error) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return payloads, int64(off), fmt.Errorf("wal: torn frame at offset %d (no newline before EOF)", off)
		}
		payload, ferr := DecodeFrame(data[off : off+nl])
		if ferr != nil {
			return payloads, int64(off), fmt.Errorf("wal: frame at offset %d: %w", off, ferr)
		}
		// Copy out: data is one read of the whole file, payloads must
		// not alias a buffer callers may mutate or drop.
		payloads = append(payloads, append([]byte(nil), payload...))
		off += nl + 1
	}
	return payloads, int64(off), nil
}

// snapHeader is the first frame of a snapshot file.
type snapHeader struct {
	V      int `json:"v"`
	Frames int `json:"frames"`
}

// Recovery reports what Open reconstructed from the directory.
type Recovery struct {
	// Payloads is the surviving append sequence: snapshot payloads
	// followed by live-segment payloads, oldest first.
	Payloads [][]byte
	// SnapshotFrames counts payloads restored from the snapshot.
	SnapshotFrames int
	// Segments counts live segment files read.
	Segments int
	// TruncatedBytes is the length of the torn/corrupt tail removed
	// from the last segment (0 for a clean shutdown).
	TruncatedBytes int64
}

// Log is an open write-ahead log. Write, Append, Sync, Snapshot and
// Close have one owner at a time, like the service core the log
// journals for (the HTTP layer serializes operations through the
// handler mutex). Commit, Written and Err are safe from any goroutine,
// concurrently with the owner.
type Log struct {
	dir  string
	opts Options

	// Owner state.
	seq      uint64 // live segment sequence number
	size     int64  // live segment size
	lastSnap uint64 // sequence of the newest snapshot, 0 if none
	closed   bool

	// fmu guards the live segment: a syncer read-locks it for its
	// fsync, and rotation, snapshots and Close write-lock it to swap
	// the file.
	fmu      sync.RWMutex
	f        *os.File                      // live segment, nil once closed
	syncHook func(sync func() error) error // wraps every fsync of f when set

	// smu guards syncing: one syncer at a time runs an fsync, a
	// group-commit leader or the owner sealing a segment, and the
	// others wait on synced for it to finish.
	smu     sync.Mutex
	synced  *sync.Cond // on smu; broadcast when an fsync finishes
	syncing bool       // an fsync is in flight

	written atomic.Int64          // frames written since Open; a frame's mark is the count after it
	durable atomic.Int64          // frames on stable storage; only the running syncer stores it
	failed  atomic.Pointer[error] // the first write or fsync error; the log is fail-stopped once set
}

const (
	segPrefix  = "seg-"
	snapPrefix = "snap-"
	walSuffix  = ".wal"
	tmpSuffix  = ".tmp"
)

func segName(seq uint64) string  { return fmt.Sprintf("%s%08d%s", segPrefix, seq, walSuffix) }
func snapName(seq uint64) string { return fmt.Sprintf("%s%08d%s", snapPrefix, seq, walSuffix) }

// parseSeq extracts the sequence number of a seg-/snap- file name.
func parseSeq(name, prefix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, walSuffix) {
		return 0, false
	}
	num := strings.TrimSuffix(strings.TrimPrefix(name, prefix), walSuffix)
	seq, err := strconv.ParseUint(num, 10, 64)
	if err != nil || seq == 0 {
		return 0, false
	}
	return seq, true
}

// Open opens (creating if necessary) the log in dir and recovers its
// contents: the newest snapshot, every newer segment, and a truncation
// of the last segment's torn or corrupt tail. Appends resume in the
// last segment (or a fresh one after a snapshot or rotation boundary).
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	var segs []uint64
	var snaps []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			// Leftover of a snapshot interrupted before its atomic
			// rename; it was never part of the log.
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if seq, ok := parseSeq(name, segPrefix); ok {
			segs = append(segs, seq)
		} else if seq, ok := parseSeq(name, snapPrefix); ok {
			snaps = append(snaps, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })

	l := &Log{dir: dir, opts: opts}
	l.synced = sync.NewCond(&l.smu)
	rec := &Recovery{}

	// Restore the newest snapshot, if any. Snapshots are written
	// atomically (tmp + fsync + rename), so a bad one is real
	// corruption, not a crash artifact — refuse rather than silently
	// drop history.
	if len(snaps) > 0 {
		l.lastSnap = snaps[len(snaps)-1]
		payloads, err := readSnapshot(filepath.Join(dir, snapName(l.lastSnap)))
		if err != nil {
			return nil, nil, err
		}
		rec.Payloads = payloads
		rec.SnapshotFrames = len(payloads)
	}

	// Replay segments newer than the snapshot. Only the last segment
	// may be torn: completed segments were synced before rotation.
	live := segs[:0]
	for _, seq := range segs {
		if seq > l.lastSnap {
			live = append(live, seq)
		} else {
			// Covered by the snapshot; a crash between rename and
			// compaction left it behind. Finish the compaction now.
			_ = os.Remove(filepath.Join(dir, segName(seq)))
		}
	}
	for i, seq := range live {
		path := filepath.Join(dir, segName(seq))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		payloads, valid, scanErr := scanFrames(data)
		if scanErr != nil && i != len(live)-1 {
			return nil, nil, fmt.Errorf("%w: segment %s is not the tail but has a bad frame: %v", ErrCorrupt, segName(seq), scanErr)
		}
		if scanErr != nil {
			// Torn or corrupt tail: truncate the file at the last valid
			// frame so the log is consistent for this and every future
			// recovery.
			rec.TruncatedBytes = int64(len(data)) - valid
			if err := truncateFile(path, valid); err != nil {
				return nil, nil, err
			}
		}
		rec.Payloads = append(rec.Payloads, payloads...)
		rec.Segments++
	}

	// Resume appends: reuse the last live segment while it has room,
	// otherwise start the next sequence.
	next := l.lastSnap + 1
	if len(live) > 0 {
		next = live[len(live)-1]
		// The crashed process may have written frames it never synced.
		// They are history now, and a reader may see them, so they
		// must not be lost to a later power failure.
		if opts.Fsync != FsyncOff {
			if err := syncPath(filepath.Join(dir, segName(next))); err != nil {
				return nil, nil, err
			}
		}
	}
	path := filepath.Join(dir, segName(next))
	if st, err := os.Stat(path); err == nil && st.Size() >= opts.SegmentBytes {
		next++
	}
	f, size, err := l.openSegment(next)
	if err != nil {
		return nil, nil, err
	}
	l.f, l.seq, l.size = f, next, size
	return l, rec, nil
}

// syncPath fsyncs one file.
func syncPath(path string) (err error) {
	f, oerr := os.OpenFile(path, os.O_WRONLY, 0)
	if oerr != nil {
		return fmt.Errorf("wal: %w", oerr)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("wal: %w", cerr))
		}
	}()
	if serr := f.Sync(); serr != nil {
		return fmt.Errorf("wal: %w", serr)
	}
	return nil
}

// readSnapshot loads and fully validates one snapshot file.
func readSnapshot(path string) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	payloads, _, scanErr := scanFrames(data)
	if scanErr != nil {
		return nil, fmt.Errorf("%w: snapshot %s: %v", ErrCorrupt, filepath.Base(path), scanErr)
	}
	if len(payloads) == 0 {
		return nil, fmt.Errorf("%w: snapshot %s has no header", ErrCorrupt, filepath.Base(path))
	}
	var hdr snapHeader
	if err := json.Unmarshal(payloads[0], &hdr); err != nil || hdr.V != 1 {
		return nil, fmt.Errorf("%w: snapshot %s has a bad header", ErrCorrupt, filepath.Base(path))
	}
	if hdr.Frames != len(payloads)-1 {
		return nil, fmt.Errorf("%w: snapshot %s declares %d frames, holds %d", ErrCorrupt, filepath.Base(path), hdr.Frames, len(payloads)-1)
	}
	return payloads[1:], nil
}

func truncateFile(path string, size int64) (err error) {
	f, oerr := os.OpenFile(path, os.O_WRONLY, 0)
	if oerr != nil {
		return fmt.Errorf("wal: %w", oerr)
	}
	// The close error joins the result: a failed close after a repair
	// can still mean the truncation never reached the platter.
	defer func() {
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("wal: %w", cerr))
		}
	}()
	if terr := f.Truncate(size); terr != nil {
		return fmt.Errorf("wal: %w", terr)
	}
	if serr := f.Sync(); serr != nil {
		return fmt.Errorf("wal: %w", serr)
	}
	return nil
}

// openSegment opens segment seq for appending, creating it if needed,
// and returns it with its size.
func (l *Log) openSegment(seq uint64) (*os.File, int64, error) {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, 0, errors.Join(fmt.Errorf("wal: %w", err), f.Close())
	}
	// Make the segment's existence durable: an appended-then-lost
	// file is indistinguishable from a truncated log.
	if l.opts.Fsync != FsyncOff {
		if err := syncDir(l.dir); err != nil {
			return nil, 0, errors.Join(err, f.Close())
		}
	}
	return f, st.Size(), nil
}

// swap makes f the live segment and returns the previous one, which
// the caller closes. It waits for a syncer's fsync of the old file.
func (l *Log) swap(f *os.File) *os.File {
	l.fmu.Lock()
	defer l.fmu.Unlock()
	old := l.f
	l.f = f
	return old
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Written returns the mark of the newest frame written: Commit of it
// makes every frame written so far durable.
func (l *Log) Written() int64 { return l.written.Load() }

// Err returns the error that fail-stopped the log, nil while it is
// healthy.
func (l *Log) Err() error {
	if p := l.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// fail fail-stops the log with err, keeping the first error, and
// returns err.
func (l *Log) fail(err error) error {
	l.failed.CompareAndSwap(nil, &err)
	return err
}

// SetSyncHook makes every fsync of the live segment run through hook,
// which must call sync and return its error or one of its own. Tests
// use it to count and order fsyncs and to inject fsync failures. The
// hook runs with the live segment read-locked, so it must not call
// back into the log.
func (l *Log) SetSyncHook(hook func(sync func() error) error) {
	l.fmu.Lock()
	defer l.fmu.Unlock()
	l.syncHook = hook
}

// Append writes one framed payload and, under FsyncAlways, waits until
// it is durable: Write followed by Commit.
func (l *Log) Append(payload []byte) error {
	mark, err := l.Write(payload)
	if err != nil {
		return err
	}
	return l.Commit(mark)
}

// Write writes one framed payload to the live segment, applies the
// batch fsync policy, rotates the segment when it is full, and returns
// the frame's mark for Commit. Under FsyncAlways the frame is not yet
// durable. The payload must be a single line. An error after the frame
// reached the file fail-stops the log, since the caller will not apply
// an operation the log now holds.
func (l *Log) Write(payload []byte) (int64, error) {
	if l.closed {
		return 0, fmt.Errorf("wal: append to a closed log")
	}
	if err := l.Err(); err != nil {
		return 0, fmt.Errorf("%w: %w", ErrStopped, err)
	}
	frame, err := EncodeFrame(payload)
	if err != nil {
		return 0, err
	}
	cpAppendBeforeWrite.Hit()
	l.fmu.RLock()
	_, err = l.f.Write(frame)
	l.fmu.RUnlock()
	if err != nil {
		// Part of the frame may be on file; a later frame behind it
		// would be lost to recovery's truncation.
		return 0, l.fail(fmt.Errorf("wal: %w", err))
	}
	cpAppendAfterWrite.Hit()
	l.size += int64(len(frame))
	mark := l.written.Add(1)
	if l.opts.Fsync == FsyncBatch && mark-l.durable.Load() >= int64(l.opts.BatchEvery) {
		if err := l.Sync(); err != nil {
			return 0, err
		}
		cpAppendAfterSync.Hit()
	}
	if l.size >= l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return 0, l.fail(err)
		}
	}
	return mark, nil
}

// Commit returns once the frame with the given mark is durable. Under
// FsyncAlways the caller joins a group commit: one caller at a time
// runs an fsync, which covers every frame written before it began, and
// a caller whose frame an earlier fsync covered returns without one.
// Under batch and off Commit returns at once. A failed fsync
// fail-stops the log: its error is returned to every caller whose
// frame is not yet durable, now and later.
func (l *Log) Commit(mark int64) error {
	if l.opts.Fsync != FsyncAlways || l.durable.Load() >= mark {
		return nil
	}
	synced, err := l.syncTo(mark)
	if synced {
		cpAppendAfterSync.Hit()
	}
	return err
}

// Sync makes every frame written so far durable.
func (l *Log) Sync() error {
	if l.closed {
		return nil
	}
	_, err := l.syncTo(l.written.Load())
	return err
}

// syncTo returns once the frames up to mark are durable and reports
// whether it ran the fsync that made them so. While another syncer's
// fsync is in flight it waits for it, since that fsync may cover mark.
// The fsync runs without smu, so syncers queue on smu only briefly,
// and only one runs at a time, so durable only grows.
func (l *Log) syncTo(mark int64) (bool, error) {
	l.smu.Lock()
	for l.syncing && l.durable.Load() < mark {
		l.synced.Wait()
	}
	// The loop leaves either mark covered or no fsync in flight.
	lead := l.durable.Load() < mark && l.Err() == nil
	if lead {
		l.syncing = true
	}
	l.smu.Unlock()
	if !lead {
		if l.durable.Load() >= mark {
			return false, nil
		}
		return false, l.Err()
	}

	covers, err := l.fsync()

	l.smu.Lock()
	if err != nil {
		l.fail(err)
	} else {
		l.durable.Store(covers)
	}
	l.syncing = false
	l.synced.Broadcast()
	l.smu.Unlock()
	return err == nil, err
}

// fsync syncs the live segment, through the sync hook when one is set,
// and returns the frames it covers: every frame whose write returned
// before it began.
func (l *Log) fsync() (int64, error) {
	l.fmu.RLock()
	defer l.fmu.RUnlock()
	if l.f == nil {
		return 0, fmt.Errorf("wal: sync of a closed log")
	}
	covers := l.written.Load()
	sync := func() error { return l.f.Sync() }
	var err error
	if l.syncHook != nil {
		err = l.syncHook(sync)
	} else {
		err = sync()
	}
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	return covers, nil
}

// rotate seals the live segment (always synced, whatever the policy)
// and opens the next one.
func (l *Log) rotate() error {
	if err := l.Sync(); err != nil {
		return err
	}
	f, size, err := l.openSegment(l.seq + 1)
	if err != nil {
		return err
	}
	old := l.swap(f)
	l.seq, l.size = l.seq+1, size
	if err := old.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	cpRotateAfterOpen.Hit()
	return nil
}

// Snapshot atomically persists the full payload history and compacts
// the log: the snapshot file covers every segment up to the live one,
// which are then deleted, and appends continue in a fresh segment.
// Callers pass the complete history because the service core's state
// is a pure function of it — see the package comment.
func (l *Log) Snapshot(payloads [][]byte) error {
	if l.closed {
		return fmt.Errorf("wal: snapshot of a closed log")
	}
	// Seal the live segment first: the snapshot supersedes it, and a
	// crash mid-snapshot must leave a recoverable segment chain.
	if err := l.Sync(); err != nil {
		return err
	}

	seq := l.seq
	final := filepath.Join(l.dir, snapName(seq))
	tmp := final + tmpSuffix
	if err := writeSnapshotTmp(tmp, payloads); err != nil {
		return err
	}
	cpSnapBeforeRename.Hit()
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	cpSnapAfterRename.Hit()

	// Compaction: everything the snapshot covers is redundant. A crash
	// in here leaves stale files that the next Open removes. From here
	// on the log has no live segment until the next one opens, so an
	// error fail-stops it.
	prevSnap := l.lastSnap
	l.lastSnap = seq
	if prevSnap > 0 {
		_ = os.Remove(filepath.Join(l.dir, snapName(prevSnap)))
	}
	if err := l.swap(nil).Close(); err != nil {
		return l.fail(fmt.Errorf("wal: %w", err))
	}
	for s := prevSnap + 1; s <= seq; s++ {
		_ = os.Remove(filepath.Join(l.dir, segName(s)))
	}
	cpSnapAfterCompact.Hit()
	f, size, err := l.openSegment(seq + 1)
	if err != nil {
		return l.fail(err)
	}
	l.swap(f)
	l.seq, l.size = seq+1, size
	return nil
}

// writeSnapshotTmp writes the framed snapshot header and payloads to
// tmp and syncs it. The close error joins the result — a close
// failure even after a successful sync can mean lost data — and a
// failed attempt removes the partial temp file so it cannot shadow a
// later snapshot at the same path.
func writeSnapshotTmp(tmp string, payloads [][]byte) (err error) {
	f, oerr := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if oerr != nil {
		return fmt.Errorf("wal: %w", oerr)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("wal: %w", cerr))
		}
		if err != nil {
			_ = os.Remove(tmp)
		}
	}()
	write := func(payload []byte) error {
		frame, err := EncodeFrame(payload)
		if err != nil {
			return err
		}
		if _, err := f.Write(frame); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		return nil
	}
	hdr, merr := json.Marshal(snapHeader{V: 1, Frames: len(payloads)})
	if merr != nil {
		return fmt.Errorf("wal: %w", merr)
	}
	if err := write(hdr); err != nil {
		return err
	}
	for _, p := range payloads {
		if err := write(p); err != nil {
			return err
		}
	}
	if serr := f.Sync(); serr != nil {
		return fmt.Errorf("wal: %w", serr)
	}
	return nil
}

// Close syncs and closes the live segment. The log cannot be used
// afterwards.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	err := l.Sync()
	l.closed = true
	if cerr := l.swap(nil).Close(); cerr != nil {
		err = errors.Join(err, fmt.Errorf("wal: %w", cerr))
	}
	return err
}

// syncDir fsyncs a directory so renames and file creations within it
// are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	//fhlint:ignore errsink directory handle opened read-only for fsync; close cannot lose data
	defer d.Close()
	if err := d.Sync(); err != nil {
		// Some filesystems refuse directory fsync; treat as best
		// effort, as the standard library's os does.
		var pe *fs.PathError
		if errors.As(err, &pe) {
			return nil
		}
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
