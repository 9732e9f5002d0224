// Package wal is the durability backbone of the Papyrus reproduction: a
// CRC32C-framed, length-prefixed, append-only write-ahead log with
// torn-tail truncation, fsync batching (group commit on a virtual-tick
// interval), segment rotation, and checkpoints that let the caller prune
// the segments a session snapshot covers (snapshot = state, WAL = delta).
//
// The dissertation keeps the design database and control-stream history
// persistent so sessions survive process boundaries (§5.3); the session
// snapshot alone cannot honor that between save points — a crash loses every
// committed single-assignment version since the last snapshot. The WAL
// closes that window: the object store appends one record per committed
// version batch before the commit is acknowledged, the activity manager
// appends control-stream and thread-lifecycle records, and recovery
// replays the tail over the last snapshot (docs/DURABILITY.md).
//
// Each job has one entry point. Append writes a frame; Commit (once per
// acknowledged operation), Checkpoint and Close are the only flushes;
// Prune deletes covered segments. Scan decodes one segment's valid
// prefix (Open and Replay use it); Replay is the recovery reader, and
// core.Recover its one caller that rebuilds state.
//
// Frame format (little-endian):
//
//	[4] payload length N
//	[4] CRC32C (Castagnoli) over type byte + payload
//	[1] record type
//	[N] payload
//
// A reader accepts the longest prefix of structurally valid frames and
// discards everything after the first bad length, bad CRC, or short
// frame — the torn tail a kill-at-any-byte leaves behind. Records are
// therefore atomic: a partially written frame never surfaces as data.
//
// The writer zero-fills each segment file ahead of its write position in
// fillStep steps, up to the rotation point, and writes every frame at the
// segment's logical end. An acknowledgement's fsync then flushes data
// blocks only: no block allocation and no size change to journal. So
// bytes after the last valid frame that are all zero are that
// preallocated remainder, not a torn tail, in any segment. Rotation and
// Close truncate the remainder, so a closed segment ends at its last
// frame.
package wal

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"papyrus/internal/obs"
)

// RecordType tags the subsystem payload carried by one frame.
type RecordType uint8

// Record types. Payloads are JSON, owned by the emitting subsystem; the
// log itself treats them as opaque bytes.
const (
	// RecOCTCommit is one committed version batch of the object store:
	// a transaction commit (a direct Put is a one-write transaction) or
	// a Hide's visibility change (internal/oct). Physical deletion is
	// RecReclaim.
	RecOCTCommit RecordType = 1
	// RecHistoryAppend is one control-stream record attach
	// (internal/activity over internal/history).
	RecHistoryAppend RecordType = 2
	// RecCursorMove is a rework cursor move (internal/activity).
	RecCursorMove RecordType = 3
	// RecThread is a thread lifecycle event: create, fork, cascade,
	// join, prune, drop (internal/activity).
	RecThread RecordType = 4
	// RecCheckpoint marks a snapshot boundary: everything before it is
	// covered by the session snapshot of the generation it names. Its
	// payload carries that generation and the snapshot's clock and
	// version-map fingerprint for recovery verification.
	RecCheckpoint RecordType = 5
	// RecReclaim is one batch of physically reclaimed versions: the
	// background reclaimer's deletions for a single lock stripe, appended
	// while that stripe's lock is still held so log order matches
	// deletion order (internal/oct, docs/RECLAIM.md).
	RecReclaim RecordType = 6
)

// Record is one logical log entry.
type Record struct {
	Type    RecordType
	Payload []byte
}

// frameHeader is the fixed per-record overhead: length + CRC + type.
const frameHeader = 4 + 4 + 1

// maxPayload rejects garbage length prefixes during scans. 64 MiB is far
// beyond any snapshot delta the simulated CAD suite produces.
const maxPayload = 64 << 20

// castagnoli is the CRC32C table (the iSCSI polynomial, hardware-backed
// on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends the framed encoding of r to dst and returns the
// extended slice.
func AppendFrame(dst []byte, r Record) []byte {
	off, n := len(dst), len(r.Payload)
	dst = append(dst,
		byte(n), byte(n>>8), byte(n>>16), byte(n>>24),
		0, 0, 0, 0, // CRC, filled in below once type and payload are in place
		byte(r.Type))
	dst = append(dst, r.Payload...)
	crc := crc32.Checksum(dst[off+8:], castagnoli)
	dst[off+4], dst[off+5], dst[off+6], dst[off+7] = byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24)
	return dst
}

// Scan decodes the longest valid prefix of data. It returns the decoded
// records and, aligned index-for-index, the end offset of each record's
// frame; valid is the total byte length of the accepted prefix. Scan
// never fails: a bad length, truncated frame, or CRC mismatch simply
// ends the prefix. Returned payloads are copies, safe to retain.
func Scan(data []byte) (recs []Record, ends []int, valid int) {
	off := 0
	for {
		if len(data)-off < frameHeader {
			return recs, ends, off
		}
		n := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		if n < 0 || n > maxPayload || len(data)-off-frameHeader < n {
			return recs, ends, off
		}
		wantCRC := uint32(data[off+4]) | uint32(data[off+5])<<8 | uint32(data[off+6])<<16 | uint32(data[off+7])<<24
		body := data[off+8 : off+frameHeader+n] // type byte + payload
		if crc32.Checksum(body, castagnoli) != wantCRC {
			return recs, ends, off
		}
		payload := append([]byte(nil), body[1:]...)
		recs = append(recs, Record{Type: RecordType(body[0]), Payload: payload})
		off += frameHeader + n
		ends = append(ends, off)
	}
}

// Options parameterize Open.
type Options struct {
	// Dir holds the log segments (wal-NNNNNNNN.log). Created if absent.
	Dir string
	// SegmentBytes rotates to a fresh segment once the current one
	// reaches this size; <= 0 selects DefaultSegmentBytes. It also caps
	// the zero fill: a live segment's file never grows past
	// max(SegmentBytes, end of its last frame).
	SegmentBytes int64
	// FsyncEvery selects the flush policy. FsyncEvery <= 1 is strict
	// durability, committed at acknowledgement: Append only writes the
	// frame, and the caller's Commit — issued once per acknowledged
	// operation — returns after an fsync covers everything appended so
	// far. A larger value is a group-commit interval in virtual ticks:
	// an append waits for an fsync once at least this many ticks passed
	// since the last one, and Commit is a no-op. Rotation, Checkpoint,
	// and Close always fsync regardless. Concurrent committers
	// share fsyncs: one becomes the flush leader while the others ride
	// its fsync if it covers their bytes, so N parallel strict commits
	// cost far fewer than N disk flushes.
	FsyncEvery int64
	// Now supplies the virtual time used by group commit and trace
	// stamps; nil pins the clock at 0 (group commit then only fsyncs at
	// rotation/checkpoint/close).
	Now func() int64
	// Metrics and Tracer are optional observability sinks (nil = off).
	// Registry counters are limited to values that are deterministic
	// for a deterministic workload (docs/OBSERVABILITY.md): appended
	// byte totals are scheduling-dependent (payload stamps vary with
	// interleaving), and so is anything byte-driven, like segment
	// rotation — those are exposed as the AppendedBytes and Rotations
	// probes instead. Fsync counts joined them once group commit
	// batched flushes across sessions (how many appends share one
	// fsync depends on goroutine interleaving): see Fsyncs.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
}

// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
// is unset.
const DefaultSegmentBytes = 4 << 20

// fillStep is how far ahead of a frame's end the writer zero-fills a
// segment at a time: one extension (block allocation plus size change)
// per 64 KiB of log instead of one per acknowledgement.
const fillStep = 64 << 10

// zeroFill is the source of every fill write.
var zeroFill [fillStep]byte

// Log is an append-only write-ahead log over a directory of segments.
// Safe for concurrent use: appends from parallel sessions serialize on an
// internal mutex and receive strictly ordered positions in the log.
type Log struct {
	opts Options

	mu        sync.Mutex
	cond      *sync.Cond // signaled when an in-flight fsync completes
	f         *os.File
	seq       int   // current segment sequence number
	ckptSeq   int   // segment the last Checkpoint started; Prune deletes older ones
	size      int64 // bytes written to the current segment (its logical end)
	filled    int64 // current segment's file size: size plus the zero-filled remainder
	lastSync  int64 // virtual time of the last fsync
	bytes     int64 // total appended bytes (probe, not a registry metric)
	synced    int64 // prefix of bytes covered by a completed fsync
	syncing   bool  // a group-commit leader's fsync is in flight
	fsyncs    int64 // completed fsyncs (probe: interleaving-dependent)
	rotations int64 // segment rotations (probe: byte-threshold-driven)
	closed    bool
}

// segmentName formats the file name of segment seq.
func segmentName(seq int) string { return fmt.Sprintf("wal-%08d.log", seq) }

// segments lists the segment sequence numbers present in dir, ascending.
func segments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []int
	for _, e := range entries {
		var seq int
		if _, err := fmt.Sscanf(e.Name(), "wal-%08d.log", &seq); err == nil && segmentName(seq) == e.Name() {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// Open opens (creating if necessary) the log in opts.Dir. An existing
// final segment is scanned and truncated to its last valid frame — the
// torn tail of a killed writer and any zero-filled remainder are
// discarded before any new append. wal.open.truncated counts the torn
// bytes only: those up to the last nonzero byte.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: Options.Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	seqs, err := segments(opts.Dir)
	if err != nil {
		return nil, err
	}
	l := &Log{opts: opts, seq: 1}
	l.cond = sync.NewCond(&l.mu)
	if len(seqs) > 0 {
		l.seq = seqs[len(seqs)-1]
		path := filepath.Join(opts.Dir, segmentName(l.seq))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		_, _, valid := Scan(data)
		if valid < len(data) {
			if err := os.Truncate(path, int64(valid)); err != nil {
				return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
			}
			if torn := tornBytes(data, valid); torn > 0 {
				opts.Metrics.Add("wal.open.truncated", torn)
			}
		}
		l.size, l.filled = int64(valid), int64(valid)
	}
	f, err := os.OpenFile(filepath.Join(opts.Dir, segmentName(l.seq)), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	l.f = f
	l.lastSync = l.now()
	return l, nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.opts.Dir }

func (l *Log) now() int64 {
	if l.opts.Now != nil {
		return l.opts.Now()
	}
	return 0
}

// AppendedBytes returns the total framed bytes appended through this Log.
// Like oct.Store.StripeContention, it is deliberately not a registry
// metric: payload stamps depend on commit interleaving, so byte totals
// would break the byte-identical-exports guarantee across worker counts.
func (l *Log) AppendedBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// SyncedBytes returns the prefix of AppendedBytes an fsync covers: under
// strict durability it equals AppendedBytes whenever no operation is
// between its appends and its Commit. An out-of-registry probe like
// AppendedBytes (operators read AppendedBytes-SyncedBytes as the log's
// unsynced lag).
func (l *Log) SyncedBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced
}

// Rotations returns how many times the log rotated to a new segment.
// Also an out-of-registry probe: rotation is triggered by byte
// thresholds, so it inherits the byte totals' interleaving dependence.
func (l *Log) Rotations() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rotations
}

// Fsyncs returns how many fsyncs the log has issued. An out-of-registry
// probe, not a counter: with cross-session group commit the number of
// appends absorbed by one flush depends on goroutine interleaving, so
// putting it in the registry would break the byte-identical-exports
// guarantee across worker counts. Under strict durability it is at most
// one per Commit that found unsynced bytes — typically below that, when
// concurrent committers share a flush.
func (l *Log) Fsyncs() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fsyncs
}

// SetTracer swaps the trace sink (nil = off). RunSessions suppresses WAL
// trace events for the duration of a multi-session run — concurrent
// sessions' appends interleave in host order — and restores afterwards.
func (l *Log) SetTracer(tr *obs.Tracer) {
	l.mu.Lock()
	l.opts.Tracer = tr
	l.mu.Unlock()
}

// Append writes one record, rotating the segment when full. It returns
// once the frame is in the OS file (crash-of-process safe) and in log
// order: appends from parallel sessions serialize on the log mutex. Under
// strict durability (FsyncEvery <= 1) Append never waits for the disk —
// the acknowledging operation calls Commit once after all its appends, so
// callers that append under their own locks (the object store's stripe
// locks) release them before the flush. Under an interval policy the
// append itself waits for an fsync once FsyncEvery virtual ticks elapsed
// since the last one; an OS crash may lose the unsynced tail, but
// recovery still sees a valid prefix.
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	frame := AppendFrame(nil, r)
	n := int64(len(frame))
	// The fit is re-checked after every wait for an in-flight flush:
	// another appender may have rotated meanwhile, leaving room.
	for l.size > 0 && l.size+n > l.opts.SegmentBytes {
		if l.syncing {
			l.cond.Wait()
			continue
		}
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if err := l.writeLocked(frame); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.opts.Metrics.Inc("wal.append.records")
	if tr := l.opts.Tracer; tr != nil {
		tr.Emit(obs.Event{VT: l.now(), Type: obs.EvWALAppend,
			Name: typeName(r.Type), Args: map[string]string{"bytes": fmt.Sprint(n)}})
	}
	if now := l.now(); l.opts.FsyncEvery > 1 && now-l.lastSync >= l.opts.FsyncEvery {
		return l.commitLocked(l.bytes, now)
	}
	return nil
}

// Commit makes every record appended so far durable under strict
// durability: it returns once an fsync covers all of AppendedBytes,
// sharing the flush with concurrent committers (commitLocked) and costing
// nothing when an earlier fsync already covers those bytes. Every
// operation that acknowledges a caller commits exactly once before it
// returns; because the log is one ordered stream, that fsync also covers
// every earlier record, whichever operation appended it. Commit is a
// no-op under an interval policy (FsyncEvery > 1) and on a nil Log.
func (l *Log) Commit() error {
	if l == nil || l.opts.FsyncEvery > 1 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitLocked(l.bytes, l.now())
}

// typeName renders a record type for trace events.
func typeName(t RecordType) string {
	switch t {
	case RecOCTCommit:
		return "oct.commit"
	case RecHistoryAppend:
		return "history.append"
	case RecCursorMove:
		return "cursor.move"
	case RecThread:
		return "thread"
	case RecCheckpoint:
		return "checkpoint"
	case RecReclaim:
		return "reclaim"
	}
	return fmt.Sprintf("type%d", t)
}

// writeLocked writes frame at the current segment's logical end. When the
// frame would cross the filled end, it first extends the file with zeros
// in fillStep steps, never past the rotation point max(SegmentBytes, end
// of this frame). Callers hold l.mu.
func (l *Log) writeLocked(frame []byte) error {
	end := l.size + int64(len(frame))
	limit := max(l.opts.SegmentBytes, end)
	for l.filled < end {
		n, err := l.f.WriteAt(zeroFill[:min(fillStep, limit-l.filled)], l.filled)
		l.filled += int64(n)
		if err != nil {
			return err
		}
	}
	if _, err := l.f.WriteAt(frame, l.size); err != nil {
		return err
	}
	l.size = end
	l.bytes += int64(len(frame))
	return nil
}

// commitLocked returns once an fsync covering the first end appended
// bytes has completed — the group-commit rendezvous. Callers hold l.mu.
// If a leader's flush is already in flight the caller waits for it and
// rechecks; otherwise the caller becomes the leader: it captures the
// current append frontier, releases the mutex for the fsync (appends
// continue meanwhile), then publishes the new synced frontier and wakes
// every waiter. Rotation never runs while syncing is set, so the captured
// file handle stays valid for the whole flush.
func (l *Log) commitLocked(end, now int64) error {
	for l.synced < end {
		if l.closed {
			return fmt.Errorf("wal: log is closed")
		}
		if l.syncing {
			l.cond.Wait()
			continue
		}
		l.syncing = true
		target := l.bytes
		f := l.f
		l.mu.Unlock()
		err := f.Sync()
		l.mu.Lock()
		l.syncing = false
		l.cond.Broadcast()
		if err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
		if target > l.synced {
			l.synced = target
		}
		l.fsyncs++
		l.lastSync = now
		if tr := l.opts.Tracer; tr != nil {
			tr.Emit(obs.Event{VT: now, Type: obs.EvWALFsync})
		}
	}
	return nil
}

// flushLocked fsyncs everything appended so far, waiting out any
// in-flight group-commit flush first. Unlike commitLocked it keeps l.mu
// held across the fsync, so the caller observes a fully quiesced log
// afterwards — rotation, checkpoint, and Close use it. Callers
// hold l.mu.
func (l *Log) flushLocked(now int64) error {
	for l.syncing {
		l.cond.Wait()
	}
	if l.bytes <= l.synced {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.synced = l.bytes
	l.fsyncs++
	l.lastSync = now
	if tr := l.opts.Tracer; tr != nil {
		tr.Emit(obs.Event{VT: now, Type: obs.EvWALFsync})
	}
	return nil
}

// sealLocked truncates the current segment's zero-filled remainder, so
// the file ends at its last frame, then fsyncs any unsynced appends. It
// waits out an in-flight group-commit flush first; rotation and Close use
// it. The truncate gets no fsync of its own: a crash that loses it leaves
// a zero remainder, which readers skip. Callers hold l.mu.
func (l *Log) sealLocked() error {
	for l.syncing {
		l.cond.Wait()
	}
	if l.filled > l.size {
		if err := l.f.Truncate(l.size); err != nil {
			return fmt.Errorf("wal: truncate segment remainder: %w", err)
		}
		l.filled = l.size
	}
	return l.flushLocked(l.now())
}

// rotateLocked seals and closes the current segment and starts the next.
// It waits for any in-flight group-commit flush (the leader holds the
// old segment's file handle), and tolerates losing that wait-race to
// another rotator: a zero-size segment means the rotation already
// happened while this caller was parked on the condition variable.
func (l *Log) rotateLocked() error {
	for l.syncing {
		l.cond.Wait()
	}
	if l.size == 0 {
		return nil
	}
	if err := l.sealLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.seq++
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, segmentName(l.seq)), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.size, l.filled = 0, 0
	l.rotations++
	return nil
}

// Checkpoint rotates to a fresh segment, writes the checkpoint record as
// its first frame, and fsyncs. It deletes nothing: the caller writes the
// snapshot the record describes and only then calls Prune, so until then
// the previous snapshot still recovers through its own checkpoint record.
func (l *Log) Checkpoint(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if err := l.rotateLocked(); err != nil {
		return err
	}
	frame := AppendFrame(nil, Record{Type: RecCheckpoint, Payload: payload})
	if err := l.writeLocked(frame); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := l.flushLocked(l.now()); err != nil {
		return err
	}
	l.ckptSeq = l.seq
	l.opts.Metrics.Inc("wal.checkpoint.count")
	if tr := l.opts.Tracer; tr != nil {
		tr.Emit(obs.Event{VT: l.now(), Type: obs.EvWALCheckpoint,
			Args: map[string]string{"segment": fmt.Sprint(l.seq)}})
	}
	return nil
}

// Prune deletes, oldest first, every segment older than the last
// Checkpoint's, then fsyncs the directory so the removals survive a power
// loss; call it once that checkpoint's snapshot is durable. A no-op on a
// nil Log; before any Checkpoint it deletes nothing.
func (l *Log) Prune() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	seqs, err := segments(l.opts.Dir)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if seq < l.ckptSeq {
			if err := os.Remove(filepath.Join(l.opts.Dir, segmentName(seq))); err != nil {
				return fmt.Errorf("wal: prune segment %d: %w", seq, err)
			}
		}
	}
	return Fsync(l.opts.Dir)
}

// Fsync flushes a file, or a directory to make the renames and removals
// in it durable. An fsync through any descriptor covers every write.
func Fsync(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close truncates the live segment's zero-filled remainder, fsyncs, and
// closes the log. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	if err := l.sealLocked(); err != nil {
		return err
	}
	l.closed = true
	l.cond.Broadcast()
	return l.f.Close()
}

// ReplayStats summarizes one Replay pass.
type ReplayStats struct {
	// Records is the number of valid records delivered to the callback.
	Records int
	// Segments is the number of segment files read.
	Segments int
	// Truncated is the number of bytes discarded after the last valid
	// frame, up to the last nonzero byte (the torn tail; nonzero only
	// when the writer was killed mid-append and the log has not been
	// reopened since). A zero-filled remainder is not counted.
	Truncated int64
}

// Replay reads every segment of dir in sequence order and delivers each
// valid record to fn. Replay stops cleanly at the first invalid frame —
// everything after a torn or corrupt frame is untrusted, preserving the
// committed-prefix guarantee — and reports what it skipped. An all-zero
// remainder after a segment's last valid frame is preallocated fill, not
// a torn tail, and Replay continues with the next segment: a crash can
// persist a rotation's new segment before the old one's truncate. A
// missing directory replays zero records. A non-nil error from fn aborts
// the replay and is returned.
func Replay(dir string, fn func(Record) error) (ReplayStats, error) {
	var stats ReplayStats
	seqs, err := segments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return stats, nil
		}
		return stats, err
	}
	for i, seq := range seqs {
		data, err := os.ReadFile(filepath.Join(dir, segmentName(seq)))
		if err != nil {
			return stats, err
		}
		stats.Segments++
		recs, _, valid := Scan(data)
		for _, r := range recs {
			if err := fn(r); err != nil {
				return stats, err
			}
			stats.Records++
		}
		if torn := tornBytes(data, valid); torn > 0 {
			// Torn tail: count the rest of this segment and every later
			// segment as discarded, then stop.
			stats.Truncated += torn
			for _, later := range seqs[i+1:] {
				if data, err := os.ReadFile(filepath.Join(dir, segmentName(later))); err == nil {
					stats.Truncated += tornBytes(data, 0)
				}
			}
			return stats, nil
		}
	}
	return stats, nil
}

// tornBytes returns how many bytes after the valid prefix data[:valid]
// are torn: those up to the last nonzero byte. The all-zero rest is the
// writer's preallocated remainder.
func tornBytes(data []byte, valid int) int64 {
	end := len(data)
	for end > valid && data[end-1] == 0 {
		end--
	}
	return int64(end - valid)
}
