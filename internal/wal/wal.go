// Package wal provides the controller's write-ahead journal: a
// length-prefixed, CRC-checked, fsync-on-commit record log paired with
// generation-numbered snapshots. The controller appends an intent record
// and commits (fsyncs) it *before* touching the southbound, so that after
// a crash the journal is always at least as new as the switch. Torn or
// truncated tail records — the normal residue of a crash mid-write — are
// detected by the CRC/length framing and discarded, never fatal; anything
// before the torn tail is durable and replayed.
//
// Commits are group-committed: a single background fsyncer coalesces the
// batches queued by concurrent Commit callers into one write+fsync, so N
// concurrent committers pay ~1 fsync instead of N. Commit returns only
// once every record appended before the call is durable, so the
// journal-before-southbound ordering the controller relies on is
// unchanged. Options.GroupWindow bounds how long the fsyncer waits to
// accumulate a batch (0 = sync as soon as the previous sync finishes —
// coalescing then comes only from syncs already in flight).
//
// On-disk layout inside the state directory:
//
//	snap-<gen>   snapshot file: magic "SFPSNAP1", then one framed record
//	wal-<gen>    journal of framed records appended since snap-<gen>
//
// Each framed record is [4-byte big-endian length][4-byte CRC-32C of the
// body][body]. Rotate writes snap-<gen+1> atomically (tmp + rename +
// directory fsync) before switching appends to wal-<gen+1> and deleting
// the old generation, so a crash at any point leaves one recoverable
// generation on disk. Mark + Rotate support snapshots serialized off the
// mutation path: records committed after Mark are retained in memory and
// re-appended into wal-<gen+1> (durably, before the snapshot rename makes
// the new generation preferred), so a snapshot capturing state as of the
// Mark loses nothing committed while it was being serialized.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	snapMagic = "SFPSNAP1"
	// maxRecord bounds a single journal record. Matches the p4rt frame
	// limit; anything larger is treated as corruption.
	maxRecord = 16 << 20
	// maxSnapshot bounds a snapshot record. Snapshots carry the full
	// controller state (every live SFC) and outgrow journal records by
	// orders of magnitude at 100k tenants.
	maxSnapshot = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var errClosed = errors.New("wal: log is closed")

// Recovery is what Open found on disk: the newest intact snapshot (nil if
// none), the journal records appended after it, and whether a torn tail
// was discarded.
type Recovery struct {
	// Snapshot is the body of the newest valid snapshot, nil if the
	// directory holds no (intact) snapshot.
	Snapshot []byte
	// Records are the journal records after the snapshot, in append
	// order, up to but excluding any torn tail.
	Records [][]byte
	// TornTail reports that a torn/truncated/corrupt tail record was
	// found and discarded during replay.
	TornTail bool
	// Gen is the recovered generation number.
	Gen uint64
}

// Options tunes a Log opened with OpenOptions.
type Options struct {
	// GroupWindow, when > 0, is how long the fsyncer waits after waking
	// to accumulate more batches before the single sync. It bounds the
	// extra latency any Commit pays for batching. 0 means sync
	// immediately; coalescing then comes from commits that queue while a
	// previous sync is in flight.
	GroupWindow time.Duration
}

// Log is an open write-ahead journal. Append stages records in memory;
// Commit queues the staged records and blocks until they are durable.
//
// Concurrency: Append/Commit/AppendCommit/Rotate/Mark/Close are safe for
// concurrent use. Staged records are shared — a Commit flushes everything
// staged by anyone, and returns once all records appended before the call
// are durable. Callers needing a multi-record sequence to stay contiguous
// in replay order (the controller's begin/commit transactions) must
// serialize their Append..Commit sequences themselves, as the controller
// already does.
//
// Errors from the underlying write or fsync poison the log: the failed
// Commit and every subsequent operation return the first error, because
// once an fsync fails the kernel may have dropped the dirty pages and no
// later "success" can be trusted.
type Log struct {
	dir  string
	dirf *os.File
	opts Options

	mu   sync.Mutex
	work *sync.Cond // wakes the fsyncer: pending work or shutdown
	done *sync.Cond // wakes waiters: synced advanced, error, rotation done

	f        *os.File
	gen      uint64
	staged   []byte // framed records staged by Append, not yet queued
	pending  []byte // framed records queued for the next group sync
	queued   uint64 // sequence of the newest queued batch
	synced   uint64 // all batches with seq <= synced are durable
	inflight bool   // fsyncer is mid write+sync
	rotating bool   // Rotate owns the files; fsyncer must stall
	marking  bool   // retain committed frames in tail for the next Rotate
	tail     []byte // framed records committed since Mark
	err      error  // first write/sync error; poisons the log
	closing  bool

	syncerDone chan struct{} // closed when the fsyncer goroutine exits
}

// Open opens (creating if needed) the journal in dir with default options
// and replays whatever previous state it holds. The returned Log appends to
// the recovered generation's journal; the Recovery carries the replayable
// state.
func Open(dir string) (*Log, *Recovery, error) {
	return OpenOptions(dir, Options{})
}

// OpenOptions is Open with explicit tuning options.
func OpenOptions(dir string, opts Options) (*Log, *Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	dirf, err := os.Open(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	rec, err := recoverDir(dir)
	if err != nil {
		dirf.Close()
		return nil, nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, walName(rec.Gen)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		dirf.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	if opts.GroupWindow < 0 {
		opts.GroupWindow = 0
	}
	l := &Log{dir: dir, dirf: dirf, opts: opts, f: f, gen: rec.Gen}
	l.work = sync.NewCond(&l.mu)
	l.done = sync.NewCond(&l.mu)
	l.syncerDone = make(chan struct{})
	go l.syncer()
	return l, rec, nil
}

func walName(gen uint64) string  { return fmt.Sprintf("wal-%016x", gen) }
func snapName(gen uint64) string { return fmt.Sprintf("snap-%016x", gen) }

// recoverDir scans dir for the newest generation with an intact snapshot
// (or generation 0 with no snapshot), replays its journal, and truncates
// any torn tail so subsequent appends extend a clean file.
func recoverDir(dir string) (*Recovery, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var snapGens, walGens []uint64
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "snap-") && !strings.HasSuffix(name, ".tmp"):
			if g, err := strconv.ParseUint(strings.TrimPrefix(name, "snap-"), 16, 64); err == nil {
				snapGens = append(snapGens, g)
			}
		case strings.HasPrefix(name, "wal-"):
			if g, err := strconv.ParseUint(strings.TrimPrefix(name, "wal-"), 16, 64); err == nil {
				walGens = append(walGens, g)
			}
		}
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] > snapGens[j] })
	rec := &Recovery{}
	for _, g := range snapGens {
		body, err := readSnapshot(filepath.Join(dir, snapName(g)))
		if err != nil {
			// A corrupt snapshot (torn rename window, bad CRC) is
			// skipped; an older intact generation still recovers.
			rec.TornTail = true
			continue
		}
		rec.Snapshot = body
		rec.Gen = g
		break
	}
	if rec.Snapshot == nil {
		// No usable snapshot: replay the oldest journal from genesis.
		rec.Gen = 0
		if len(walGens) > 0 {
			rec.Gen = walGens[0]
			for _, g := range walGens {
				if g < rec.Gen {
					rec.Gen = g
				}
			}
		}
	}
	records, torn, err := replayJournal(filepath.Join(dir, walName(rec.Gen)))
	if err != nil {
		return nil, err
	}
	rec.Records = records
	rec.TornTail = rec.TornTail || torn
	return rec, nil
}

// readSnapshot validates and returns the body of one snapshot file.
func readSnapshot(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(snapMagic)+8 || string(data[:len(snapMagic)]) != snapMagic {
		return nil, errors.New("wal: bad snapshot header")
	}
	body, rest, err := decodeFrameLimit(data[len(snapMagic):], maxSnapshot)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, errors.New("wal: trailing bytes after snapshot record")
	}
	return body, nil
}

// replayJournal reads every intact record from path. A short, torn, or
// CRC-corrupt tail stops replay; the file is truncated back to the last
// good record so the reopened log appends cleanly. A missing file is an
// empty journal.
func replayJournal(path string) ([][]byte, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("wal: %w", err)
	}
	var records [][]byte
	good := 0
	rest := data
	for len(rest) > 0 {
		body, next, err := decodeFrame(rest)
		if err != nil {
			// Torn tail: keep what replayed, truncate the rest.
			if terr := os.Truncate(path, int64(good)); terr != nil {
				return nil, true, fmt.Errorf("wal: truncating torn tail: %w", terr)
			}
			return records, true, nil
		}
		records = append(records, body)
		good += len(rest) - len(next)
		rest = next
	}
	return records, false, nil
}

// decodeFrame parses one [len][crc][body] frame, returning the body and
// the remaining bytes.
func decodeFrame(b []byte) (body, rest []byte, err error) {
	return decodeFrameLimit(b, maxRecord)
}

func decodeFrameLimit(b []byte, limit uint32) (body, rest []byte, err error) {
	if len(b) < 8 {
		return nil, nil, io.ErrUnexpectedEOF
	}
	n := binary.BigEndian.Uint32(b)
	if n > limit {
		return nil, nil, fmt.Errorf("wal: record length %d exceeds limit", n)
	}
	sum := binary.BigEndian.Uint32(b[4:])
	if len(b) < 8+int(n) {
		return nil, nil, io.ErrUnexpectedEOF
	}
	body = b[8 : 8+n]
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, nil, errors.New("wal: record CRC mismatch")
	}
	return body, b[8+n:], nil
}

func appendFrame(dst, body []byte) []byte {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.Checksum(body, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, body...)
}

// Append stages one record. It becomes durable at the next Commit; several
// records staged together commit under a single fsync.
func (l *Log) Append(rec []byte) error {
	if len(rec) > maxRecord {
		return fmt.Errorf("wal: record length %d exceeds limit", len(rec))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil || l.closing {
		return errClosed
	}
	if l.err != nil {
		return l.err
	}
	l.staged = appendFrame(l.staged, rec)
	return nil
}

// Commit queues everything staged and blocks until every record appended
// before the call — by this or any goroutine — is durable. Concurrent
// Commits coalesce: the background fsyncer folds queued batches into one
// write+fsync.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitLocked()
}

func (l *Log) commitLocked() error {
	if l.f == nil || l.closing {
		return errClosed
	}
	if l.err != nil {
		return l.err
	}
	if len(l.staged) > 0 {
		l.pending = append(l.pending, l.staged...)
		l.staged = l.staged[:0]
		l.queued++
	}
	seq := l.queued
	if l.synced >= seq {
		return nil
	}
	l.work.Signal()
	for l.err == nil && l.synced < seq && !l.closing {
		l.done.Wait()
	}
	if l.err != nil {
		return l.err
	}
	if l.synced < seq {
		return errClosed
	}
	return nil
}

// syncer is the background group committer: it drains the pending queue
// into one write+fsync per wakeup, waking every Commit whose batch the
// sync covered. While a sync is in flight new commits queue up, so the
// next sync covers all of them — that is the coalescing.
func (l *Log) syncer() {
	defer close(l.syncerDone)
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		for !l.closing && (l.rotating || l.err != nil || len(l.pending) == 0) {
			l.work.Wait()
		}
		if l.closing {
			return
		}
		// Bounded accumulation: give commits already runnable a chance
		// to join the batch before paying the sync. A scheduler yield
		// costs microseconds; a skipped fsync saves hundreds. An
		// explicit GroupWindow extends the wait by wall time.
		if w := l.opts.GroupWindow; w > 0 {
			l.mu.Unlock()
			time.Sleep(w)
			l.mu.Lock()
		} else {
			l.mu.Unlock()
			runtime.Gosched()
			runtime.Gosched()
			l.mu.Lock()
		}
		if l.closing || l.rotating || l.err != nil {
			continue
		}
		buf := l.pending
		l.pending = nil
		seq := l.queued
		f := l.f
		l.inflight = true
		l.mu.Unlock()

		_, werr := f.Write(buf)
		if werr == nil {
			werr = f.Sync()
		}

		l.mu.Lock()
		l.inflight = false
		if werr != nil {
			if l.err == nil {
				l.err = fmt.Errorf("wal: %w", werr)
			}
		} else {
			l.synced = seq
			if l.marking {
				l.tail = append(l.tail, buf...)
			}
		}
		l.done.Broadcast()
	}
}

// AppendCommit appends one record and commits it immediately.
func (l *Log) AppendCommit(rec []byte) error {
	if len(rec) > maxRecord {
		return fmt.Errorf("wal: record length %d exceeds limit", len(rec))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil || l.closing {
		return errClosed
	}
	if l.err != nil {
		return l.err
	}
	l.staged = appendFrame(l.staged, rec)
	return l.commitLocked()
}

// Gen returns the current generation number.
func (l *Log) Gen() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gen
}

// Mark starts retaining committed records in memory so a snapshot
// capturing the state as of this call can be serialized and rotated in
// later without losing anything committed in between: Rotate re-appends
// the retained tail into the new generation's journal.
//
// The caller must ensure the captured snapshot reflects exactly the
// commits that completed before Mark (the controller captures its state
// view and calls Mark under the same mutation serialization); a commit
// still in flight at Mark time lands in the tail, not the snapshot.
func (l *Log) Mark() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil || l.closing {
		return errClosed
	}
	if l.err != nil {
		return l.err
	}
	l.marking = true
	l.tail = l.tail[:0]
	return nil
}

// Rotate makes snapshot the new durable baseline: it drains every queued
// commit, writes snap-<gen+1> and a fresh wal-<gen+1> seeded with the
// records committed since Mark (none without a Mark), atomically prefers
// the new generation (tmp + rename + directory fsync), switches appends
// to it, and only then removes the previous generation's files. A crash
// anywhere inside Rotate leaves either the old generation intact or the
// new one fully durable — the snapshot rename happens only after the new
// journal (with the carried tail) is on disk.
//
// Commits issued while Rotate runs queue up and land in the new
// generation's journal. Rotate does not block them from returning any
// longer than the rotation itself.
func (l *Log) Rotate(snapshot []byte) error {
	return l.RotateTo(func(w io.Writer) error {
		_, err := w.Write(snapshot)
		return err
	})
}

// RotateTo is Rotate with the snapshot written by encode instead of passed
// whole: it streams through a small buffer into the snapshot file and is
// checksummed on the way, so a large snapshot is never held in memory.
func (l *Log) RotateTo(encode func(w io.Writer) error) error {
	l.mu.Lock()
	if l.f == nil || l.closing {
		l.mu.Unlock()
		return errClosed
	}
	if l.rotating {
		l.mu.Unlock()
		return errors.New("wal: rotation already in progress")
	}
	// Drain: everything staged or queued so far belongs to the old
	// generation (it is covered by the snapshot, or retained in the
	// tail if a Mark is active).
	if len(l.staged) > 0 {
		l.pending = append(l.pending, l.staged...)
		l.staged = l.staged[:0]
		l.queued++
	}
	l.work.Signal()
	for l.err == nil && !l.closing && (len(l.pending) > 0 || l.inflight) {
		l.done.Wait()
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if l.f == nil || l.closing {
		l.mu.Unlock()
		return errClosed
	}
	// Own the rotation: the fsyncer stalls (commits keep queueing) while
	// the generation files are replaced.
	l.rotating = true
	tail := l.tail
	l.tail = nil
	l.marking = false
	next := l.gen + 1
	l.mu.Unlock()

	nf, err := l.writeGeneration(next, encode, tail)

	l.mu.Lock()
	l.rotating = false
	if err != nil {
		// The old generation is still intact and current; the log
		// stays usable. Wake the fsyncer and any drain waiters.
		l.work.Signal()
		l.done.Broadcast()
		l.mu.Unlock()
		return err
	}
	old := l.f
	oldGen := l.gen
	l.f, l.gen = nf, next
	l.work.Signal()
	l.done.Broadcast()
	l.mu.Unlock()

	old.Close()
	// The new generation is durable; the old one is now garbage. Removal
	// is best-effort — leftovers are ignored by recovery, which always
	// prefers the newest intact snapshot.
	os.Remove(filepath.Join(l.dir, walName(oldGen)))
	os.Remove(filepath.Join(l.dir, snapName(oldGen)))
	return l.dirf.Sync()
}

// writeGeneration writes generation next to disk: the snapshot staged as
// snap-<next>.tmp, the new journal wal-<next> seeded with the carried
// tail, then the rename that makes the generation preferred. The journal
// is durable *before* the rename — once recovery can see snap-<next>, the
// tail records it needs are guaranteed to be there.
func (l *Log) writeGeneration(next uint64, encode func(io.Writer) error, tail []byte) (*os.File, error) {
	tmp := filepath.Join(l.dir, snapName(next)+".tmp")
	sf, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := writeSnapshot(sf, encode); err != nil {
		sf.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := sf.Sync(); err != nil {
		sf.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := sf.Close(); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	nf, err := os.OpenFile(filepath.Join(l.dir, walName(next)), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if len(tail) > 0 {
		if _, err := nf.Write(tail); err != nil {
			nf.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapName(next))); err != nil {
		nf.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := l.dirf.Sync(); err != nil {
		nf.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	return nf, nil
}

// writeSnapshot writes a snapshot file: the magic, then the body framed
// like a journal record. The frame's length and checksum are filled in once
// the body has streamed past.
func writeSnapshot(f *os.File, encode func(io.Writer) error) error {
	bw := bufio.NewWriterSize(f, 64<<10)
	var hdr [8]byte
	// A bufio.Writer keeps its first error and reports it from Flush.
	bw.WriteString(snapMagic)
	bw.Write(hdr[:])
	body := &frameBody{w: bw}
	if err := encode(body); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(hdr[:], uint32(body.n))
	binary.BigEndian.PutUint32(hdr[4:], body.crc)
	_, err := f.WriteAt(hdr[:], int64(len(snapMagic)))
	return err
}

// frameBody counts and checksums a frame body as it is written.
type frameBody struct {
	w   io.Writer
	n   int
	crc uint32
}

func (b *frameBody) Write(p []byte) (int, error) {
	b.n += len(p)
	b.crc = crc32.Update(b.crc, castagnoli, p)
	return b.w.Write(p)
}

// Close flushes staged records, stops the fsyncer, and closes the
// journal. Commits in flight complete (or observe the poison error)
// before Close returns; operations after Close fail with a closed error.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.f == nil || l.closing {
		l.mu.Unlock()
		return nil
	}
	for l.rotating {
		l.done.Wait()
	}
	if l.f == nil || l.closing {
		l.mu.Unlock()
		return nil
	}
	if len(l.staged) > 0 && l.err == nil {
		l.pending = append(l.pending, l.staged...)
		l.staged = l.staged[:0]
		l.queued++
	}
	l.work.Signal()
	for l.err == nil && (len(l.pending) > 0 || l.inflight) {
		l.done.Wait()
	}
	err := l.err
	l.closing = true
	l.work.Broadcast()
	l.done.Broadcast()
	l.mu.Unlock()
	<-l.syncerDone
	l.mu.Lock()
	f := l.f
	l.f = nil
	l.mu.Unlock()

	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := l.dirf.Close(); err == nil {
		err = cerr
	}
	return err
}
