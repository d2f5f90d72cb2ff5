package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// collectRecords reopens dir and returns every recovered record body as a
// string set with counts.
func collectRecords(t *testing.T, dir string) (map[string]int, *Recovery) {
	t.Helper()
	l, rec, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	got := map[string]int{}
	for _, r := range rec.Records {
		got[string(r)]++
	}
	return got, rec
}

// TestGroupCommitConcurrent hammers one log with 8 concurrent committers
// and verifies every record whose AppendCommit returned nil is durable
// exactly once.
func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := fmt.Sprintf("w%d-%d", w, i)
				if err := l.AppendCommit([]byte(rec)); err != nil {
					t.Errorf("AppendCommit(%s): %v", rec, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, _ := collectRecords(t, dir)
	if len(got) != writers*perWriter {
		t.Fatalf("recovered %d distinct records, want %d", len(got), writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			rec := fmt.Sprintf("w%d-%d", w, i)
			if got[rec] != 1 {
				t.Fatalf("record %s recovered %d times, want 1", rec, got[rec])
			}
		}
	}
}

// TestCommitBarrier verifies Commit's contract: every record appended
// before the call (by any goroutine) is durable on return, even when a
// concurrent commit already moved it into the shared pending queue.
func TestCommitBarrier(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
	// A Commit with nothing newly staged must still wait for a/b.
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := collectRecords(t, dir)
	if got["a"] != 1 || got["b"] != 1 {
		t.Fatalf("records not durable: %v", got)
	}
}

// TestCloseDuringInflightSync closes the log while concurrent committers
// are mid-flight. Every AppendCommit that returned nil before Close must
// be recovered; later calls must fail with the closed error, and nothing
// may deadlock or race.
func TestCloseDuringInflightSync(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenOptions(dir, Options{GroupWindow: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	committed := map[string]bool{}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := fmt.Sprintf("w%d-%d", w, i)
				if err := l.AppendCommit([]byte(rec)); err != nil {
					return // closed under us — fine
				}
				mu.Lock()
				committed[rec] = true
				mu.Unlock()
			}
		}(w)
	}
	time.Sleep(5 * time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := l.AppendCommit([]byte("late")); err == nil {
		t.Fatal("AppendCommit after Close succeeded")
	}
	got, _ := collectRecords(t, dir)
	mu.Lock()
	defer mu.Unlock()
	for rec := range committed {
		if got[rec] != 1 {
			t.Fatalf("record %s committed before Close but recovered %d times", rec, got[rec])
		}
	}
}

// TestPoisonAfterFailedFsync closes the journal file out from under the
// log so the next sync fails, and verifies the failure poisons every
// later operation with the same error.
func TestPoisonAfterFailedFsync(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommit([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	// Sabotage the fd: the group syncer's next Write/Sync fails.
	l.mu.Lock()
	l.f.Close()
	l.mu.Unlock()
	if err := l.AppendCommit([]byte("doomed")); err == nil {
		t.Fatal("commit on closed fd succeeded")
	}
	if err := l.Append([]byte("later")); err == nil {
		t.Fatal("Append after poison succeeded")
	}
	if err := l.Commit(); err == nil {
		t.Fatal("Commit after poison succeeded")
	}
	if err := l.Rotate([]byte("snap")); err == nil {
		t.Fatal("Rotate after poison succeeded")
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close after poison returned nil, want the poison error")
	}
	// The record committed before the failure is still recovered.
	got, _ := collectRecords(t, dir)
	if got["ok"] != 1 || got["doomed"] != 0 {
		t.Fatalf("recovered %v, want only the pre-poison record", got)
	}
}

// TestRotateCarriesMarkedTail verifies the off-lock snapshot protocol:
// records committed after Mark survive a Rotate whose snapshot predates
// them, by being re-appended into the new generation.
func TestRotateCarriesMarkedTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommit([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	if err := l.Mark(); err != nil {
		t.Fatal(err)
	}
	// These commit while the snapshot (capturing state as of the Mark)
	// is "being serialized".
	if err := l.AppendCommit([]byte("tail-1")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommit([]byte("tail-2")); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate([]byte("snap-at-mark")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommit([]byte("post")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, rec := collectRecords(t, dir)
	if string(rec.Snapshot) != "snap-at-mark" {
		t.Fatalf("snapshot = %q", rec.Snapshot)
	}
	if got["pre"] != 0 {
		t.Fatal("pre-mark record survived rotation; it is covered by the snapshot")
	}
	for _, want := range []string{"tail-1", "tail-2", "post"} {
		if got[want] != 1 {
			t.Fatalf("record %s recovered %d times, want 1 (got %v)", want, got[want], got)
		}
	}
}

// TestRotateWithoutMarkDropsCommitted keeps the legacy Rotate semantics:
// with no Mark, everything committed before Rotate is superseded by the
// snapshot.
func TestRotateWithoutMarkDropsCommitted(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommit([]byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate([]byte("snap")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommit([]byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, rec := collectRecords(t, dir)
	if string(rec.Snapshot) != "snap" {
		t.Fatalf("snapshot = %q", rec.Snapshot)
	}
	if got["old"] != 0 || got["new"] != 1 {
		t.Fatalf("recovered %v", got)
	}
}

// TestRotateUnderConcurrentCommits rotates while writers keep committing.
// Every record that committed successfully must be recovered exactly once
// afterwards — carried in the tail if it preceded the rotation, appended
// to the new journal if it followed it.
func TestRotateUnderConcurrentCommits(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Mark(); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	committed := map[string]bool{}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := fmt.Sprintf("w%d-%d", w, i)
				if err := l.AppendCommit([]byte(rec)); err != nil {
					t.Errorf("AppendCommit: %v", err)
					return
				}
				mu.Lock()
				committed[rec] = true
				mu.Unlock()
			}
		}(w)
	}
	time.Sleep(2 * time.Millisecond)
	if err := l.Rotate([]byte("mid-churn")); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	time.Sleep(2 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, rec := collectRecords(t, dir)
	if string(rec.Snapshot) != "mid-churn" {
		t.Fatalf("snapshot = %q", rec.Snapshot)
	}
	mu.Lock()
	defer mu.Unlock()
	for r := range committed {
		if got[r] != 1 {
			t.Fatalf("record %s recovered %d times, want 1", r, got[r])
		}
	}
}

// TestGroupCommitTornTail simulates a crash mid-group-write: a group
// batch is partially on disk. Recovery must keep the intact prefix,
// discard the torn frame, and leave the journal appendable.
func TestGroupCommitTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// One group batch of three records.
	for _, r := range []string{"g-1", "g-2", "g-3"} {
		if err := l.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last frame: the group writer died mid-write.
	path := filepath.Join(dir, walName(0))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	got, rec := collectRecords(t, dir)
	if !rec.TornTail {
		t.Fatal("torn tail not reported")
	}
	if got["g-1"] != 1 || got["g-2"] != 1 || got["g-3"] != 0 {
		t.Fatalf("recovered %v, want intact prefix g-1,g-2", got)
	}
	// The truncated journal accepts appends again.
	l2, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.AppendCommit([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ = collectRecords(t, dir)
	if got["g-2"] != 1 || got["after"] != 1 {
		t.Fatalf("post-truncation append lost: %v", got)
	}
}

// BenchmarkCommitGroup8 drives 8 concurrent committers through b.N total
// commits: concurrent commits coalesce into shared fsyncs.
func BenchmarkCommitGroup8(b *testing.B) {
	l, _, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := make([]byte, 64)
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := l.AppendCommit(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
