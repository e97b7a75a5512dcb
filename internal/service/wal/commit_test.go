package wal

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupCommitSharesFsync holds the first fsync open while more
// frames are written and committed: those commits must all be served
// by one more fsync, and every commit must report success.
func TestGroupCommitSharesFsync(t *testing.T) {
	l, _ := openT(t, t.TempDir(), Options{Fsync: FsyncAlways})
	var syncs atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	l.SetSyncHook(func(sync func() error) error {
		if syncs.Add(1) == 1 {
			close(started)
			<-release
		}
		return sync()
	})

	const n = 8
	errs := make([]error, n)
	var wg sync.WaitGroup
	commit := func(i int, mark int64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = l.Commit(mark)
		}()
	}
	mark, err := l.Write(payloadN(0))
	if err != nil {
		t.Fatal(err)
	}
	commit(0, mark)
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the first commit ran no fsync")
	}
	for i := 1; i < n; i++ {
		mark, err := l.Write(payloadN(i))
		if err != nil {
			t.Fatal(err)
		}
		commit(i, mark)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("commit %d: %v", i, err)
		}
	}
	if got := syncs.Load(); got != 2 {
		t.Errorf("%d commits took %d fsyncs, want 2: the first, and one covering the %d written during it", n, got, n-1)
	}
	if err := l.Commit(l.Written()); err != nil || syncs.Load() != 2 {
		t.Errorf("commit of a covered frame: err %v, %d fsyncs, want none added", err, syncs.Load())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openT(t, l.Dir(), Options{})
	wantPayloads(t, rec, n)
}

// TestGroupCommitAcrossRotation commits from many goroutines while the
// owner writes through tiny segments and snapshots, so fsyncs race the
// segment swaps (meaningful under -race). Every commit must succeed and
// recovery must return every frame.
func TestGroupCommitAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Fsync: FsyncAlways, SegmentBytes: 200})
	const n = 120
	var wg sync.WaitGroup
	errs := make(chan error, n)
	var history [][]byte
	for i := 0; i < n; i++ {
		mark, err := l.Write(payloadN(i))
		if err != nil {
			t.Fatal(err)
		}
		history = append(history, payloadN(i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.Commit(mark); err != nil {
				errs <- err
			}
		}()
		if i%40 == 39 {
			if err := l.Snapshot(history); err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openT(t, dir, Options{})
	wantPayloads(t, rec, n)
}

// TestFsyncFailureFailStops injects an fsync error: the commit it was
// to cover fails, the log refuses later writes and commits with the
// same error, a frame made durable before the failure still commits,
// and the failed fsync is never retried.
func TestFsyncFailureFailStops(t *testing.T) {
	l, _ := openT(t, t.TempDir(), Options{Fsync: FsyncAlways})
	injected := errors.New("injected EIO")
	var syncs atomic.Int32
	l.SetSyncHook(func(sync func() error) error {
		if syncs.Add(1) == 2 {
			return injected
		}
		return sync()
	})
	good, err := l.Write(payloadN(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(good); err != nil {
		t.Fatal(err)
	}
	bad, err := l.Write(payloadN(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(bad); !errors.Is(err, injected) {
		t.Fatalf("commit under a failing fsync: %v, want the injected error", err)
	}
	if err := l.Commit(bad); !errors.Is(err, injected) {
		t.Errorf("second commit after the failure: %v, want the injected error", err)
	}
	if _, err := l.Write(payloadN(2)); !errors.Is(err, injected) {
		t.Errorf("write after the failure: %v, want the injected error", err)
	}
	if err := l.Commit(good); err != nil {
		t.Errorf("commit of a frame durable before the failure: %v", err)
	}
	if !errors.Is(l.Err(), injected) {
		t.Errorf("Err() = %v, want the injected error", l.Err())
	}
	if err := l.Close(); !errors.Is(err, injected) {
		t.Errorf("close of a failed log: %v, want the injected error", err)
	}
	if got := syncs.Load(); got != 2 {
		t.Errorf("%d fsyncs, want 2: the failed one must not be retried", got)
	}
}

// TestCommitWaitsOnlyUnderAlways: batch and off commits return at once,
// without an fsync.
func TestCommitWaitsOnlyUnderAlways(t *testing.T) {
	for _, fsync := range []Policy{FsyncBatch, FsyncOff} {
		l, _ := openT(t, t.TempDir(), Options{Fsync: fsync})
		var syncs atomic.Int32
		l.SetSyncHook(func(sync func() error) error {
			syncs.Add(1)
			return sync()
		})
		mark, err := l.Write(payloadN(0))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(mark); err != nil || syncs.Load() != 0 {
			t.Errorf("%s: commit returned %v after %d fsyncs, want nil after none", fsync, err, syncs.Load())
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
