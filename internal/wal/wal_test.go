package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"papyrus/internal/obs"
)

func rec(t RecordType, payload string) Record {
	return Record{Type: t, Payload: []byte(payload)}
}

func TestFrameRoundTrip(t *testing.T) {
	in := []Record{
		rec(RecOCTCommit, `{"writes":1}`),
		rec(RecHistoryAppend, ""),
		rec(RecThread, string(bytes.Repeat([]byte{0, 0xff, '\n'}, 100))),
	}
	var buf []byte
	for _, r := range in {
		buf = AppendFrame(buf, r)
	}
	out, ends, valid := Scan(buf)
	if valid != len(buf) {
		t.Fatalf("valid = %d, want %d", valid, len(buf))
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Type != in[i].Type || !bytes.Equal(out[i].Payload, in[i].Payload) {
			t.Errorf("record %d mismatch: got %v %q", i, out[i].Type, out[i].Payload)
		}
	}
	if ends[len(ends)-1] != len(buf) {
		t.Errorf("last end = %d, want %d", ends[len(ends)-1], len(buf))
	}
}

func TestScanStopsAtTornTail(t *testing.T) {
	var buf []byte
	buf = AppendFrame(buf, rec(RecOCTCommit, "first"))
	whole := AppendFrame(nil, rec(RecOCTCommit, "second"))
	// Every strict prefix of the second frame must leave exactly the
	// first record visible.
	for cut := 0; cut < len(whole); cut++ {
		recs, _, valid := Scan(append(append([]byte(nil), buf...), whole[:cut]...))
		if len(recs) != 1 || valid != len(buf) {
			t.Fatalf("cut %d: got %d records, valid %d; want 1 record, valid %d",
				cut, len(recs), valid, len(buf))
		}
	}
}

func TestScanRejectsCorruptCRC(t *testing.T) {
	buf := AppendFrame(nil, rec(RecOCTCommit, "payload-bytes"))
	for i := range buf {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x40
		if recs, _, _ := Scan(mut); len(recs) > 0 {
			t.Fatalf("flip at byte %d still decoded a record", i)
		}
	}
}

func TestScanRejectsHugeLength(t *testing.T) {
	// A length prefix beyond maxPayload must terminate the scan, not
	// attempt a giant allocation.
	buf := []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 1}
	recs, _, valid := Scan(buf)
	if len(recs) != 0 || valid != 0 {
		t.Fatalf("got %d records, valid %d; want 0, 0", len(recs), valid)
	}
}

func TestOpenAppendReplay(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l, err := Open(Options{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "bb", "ccc"}
	for _, p := range want {
		if err := l.Append(rec(RecOCTCommit, p)); err != nil {
			t.Fatal(err)
		}
	}
	// FsyncEvery defaults to strict mode, committed at acknowledgement:
	// appends only write, and one Commit covers all three records.
	if n, s := l.Fsyncs(), l.SyncedBytes(); n != 0 || s != 0 {
		t.Errorf("after 3 appends: Fsyncs() = %d, SyncedBytes() = %d, want 0, 0", n, s)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := l.Fsyncs(); n != 1 {
		t.Errorf("Fsyncs() = %d after 3 appends and one Commit, want 1", n)
	}
	if s, a := l.SyncedBytes(), l.AppendedBytes(); s != a {
		t.Errorf("SyncedBytes() = %d after Commit, want AppendedBytes() = %d", s, a)
	}
	// Nothing new to cover: a second Commit, and Close, flush nothing.
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := l.Fsyncs(); n != 1 {
		t.Errorf("Fsyncs() = %d after a second Commit and Close, want still 1", n)
	}
	var got []string
	stats, err := Replay(dir, func(r Record) error {
		got = append(got, string(r.Payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 3 || stats.Segments != 1 || stats.Truncated != 0 {
		t.Fatalf("stats = %+v, want 3 records, 1 segment, 0 truncated", stats)
	}
	for i, p := range want {
		if got[i] != p {
			t.Errorf("record %d = %q, want %q", i, got[i], p)
		}
	}
	if n := reg.Counter("wal.append.records"); n != 3 {
		t.Errorf("wal.append.records = %d, want 3", n)
	}
	if l.AppendedBytes() == 0 {
		t.Error("AppendedBytes() = 0, want > 0")
	}
}

func TestGroupCommitBatchesFsyncs(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	var vt int64
	l, err := Open(Options{Dir: dir, FsyncEvery: 10, Now: func() int64 { return vt }, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Ticks 1..9: within the interval, no fsync.
	for vt = 1; vt < 10; vt++ {
		if err := l.Append(rec(RecOCTCommit, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.Fsyncs(); n != 0 {
		t.Fatalf("Fsyncs() = %d before interval elapsed, want 0", n)
	}
	// Tick 10: interval elapsed, this append syncs the batch.
	vt = 10
	if err := l.Append(rec(RecOCTCommit, "x")); err != nil {
		t.Fatal(err)
	}
	if n := l.Fsyncs(); n != 1 {
		t.Fatalf("Fsyncs() = %d at interval boundary, want 1", n)
	}
	// Close always flushes the tail.
	vt = 12
	if err := l.Append(rec(RecOCTCommit, "tail")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := l.Fsyncs(); n != 2 {
		t.Errorf("Fsyncs() = %d after close, want 2", n)
	}
	stats, err := Replay(dir, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 11 {
		t.Errorf("replayed %d records, want 11 (no append lost to batching)", stats.Records)
	}
}

func TestConcurrentStrictAppendsShareFsyncs(t *testing.T) {
	// Strict durability (FsyncEvery <= 1) from many goroutines, each
	// acknowledging every append with a Commit: a committer must return
	// with its own frame covered by an fsync, but commits that overlap
	// in time ride one leader's fsync instead of each issuing their own.
	// The exact batching depends on scheduling, so assert the
	// invariants, not a count: every committer covered, nothing lost,
	// never more fsyncs than commits.
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 25
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for i := 0; i < perG; i++ {
				if err := l.Append(rec(RecOCTCommit, "payload")); err != nil {
					errs <- err
					return
				}
				// At least this goroutine's frame end: later appends
				// from others only move it further.
				end := l.AppendedBytes()
				if err := l.Commit(); err != nil {
					errs <- err
					return
				}
				if synced := l.SyncedBytes(); synced < end {
					errs <- fmt.Errorf("goroutine %d: Commit returned with SyncedBytes() = %d, below its frame end %d", g, synced, end)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	total := int64(goroutines * perG)
	if n := l.Fsyncs(); n < 1 || n > total {
		t.Errorf("Fsyncs() = %d, want in [1, %d]", n, total)
	}
	if s, a := l.SyncedBytes(), l.AppendedBytes(); s != a {
		t.Errorf("SyncedBytes() = %d after every commit returned, want AppendedBytes() = %d", s, a)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	stats, err := Replay(dir, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if int64(stats.Records) != total {
		t.Errorf("replayed %d records, want %d", stats.Records, total)
	}
}

// TestCommitIsNoOpOutsideStrictMode: Commit is nil-safe, costs nothing
// under an interval policy (the interval alone decides when to flush),
// and succeeds on a closed log, whose Close already flushed everything.
func TestCommitIsNoOpOutsideStrictMode(t *testing.T) {
	var none *Log
	if err := none.Commit(); err != nil {
		t.Fatalf("nil Log Commit = %v, want nil", err)
	}
	l, err := Open(Options{Dir: t.TempDir(), FsyncEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(RecOCTCommit, "x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, s := l.Fsyncs(), l.SyncedBytes(); n != 0 || s != 0 {
		t.Errorf("interval-mode Commit: Fsyncs() = %d, SyncedBytes() = %d, want 0, 0", n, s)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if s, a := l.SyncedBytes(), l.AppendedBytes(); s != a {
		t.Errorf("SyncedBytes() = %d after Close, want AppendedBytes() = %d", s, a)
	}

	strict, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := strict.Append(rec(RecOCTCommit, "x")); err != nil {
		t.Fatal(err)
	}
	if err := strict.Close(); err != nil {
		t.Fatal(err)
	}
	if err := strict.Commit(); err != nil {
		t.Errorf("Commit after Close = %v, want nil (Close flushed)", err)
	}
	if n := strict.Fsyncs(); n != 1 {
		t.Errorf("Fsyncs() = %d, want 1 (Close's flush only)", n)
	}
}

func TestConcurrentAppendsAcrossRotation(t *testing.T) {
	// Rotation must wait out an in-flight group-commit flush and stay
	// correct when several appenders race the segment boundary: each
	// goroutine commits after every append, so a strict flush is almost
	// always in flight when a rotation parks on it, and every distinct
	// payload must replay exactly once.
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 4, 30
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for i := 0; i < perG; i++ {
				p := fmt.Sprintf("g%d-i%03d-%s", g, i, bytes.Repeat([]byte("p"), 32))
				if err := l.Append(rec(RecOCTCommit, p)); err != nil {
					errs <- err
					return
				}
				if err := l.Commit(); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := l.Rotations(); n == 0 {
		t.Error("Rotations() = 0, want > 0 with a 256-byte segment limit")
	}
	if s, a := l.SyncedBytes(), l.AppendedBytes(); s != a {
		t.Errorf("SyncedBytes() = %d after every append committed, want AppendedBytes() = %d", s, a)
	}
	appended := l.AppendedBytes()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	var onDisk int64
	stats, err := Replay(dir, func(r Record) error {
		seen[string(r.Payload)]++
		onDisk += int64(frameHeader + len(r.Payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != goroutines*perG {
		t.Errorf("replayed %d records, want %d", stats.Records, goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			p := fmt.Sprintf("g%d-i%03d-%s", g, i, bytes.Repeat([]byte("p"), 32))
			if n := seen[p]; n != 1 {
				t.Errorf("payload g%d-i%03d replayed %d times, want 1", g, i, n)
			}
		}
	}
	if onDisk != appended {
		t.Errorf("replayed frames total %d bytes, AppendedBytes() = %d", onDisk, appended)
	}
	if stats.Truncated != 0 {
		t.Errorf("stats.Truncated = %d, want 0 after clean close", stats.Truncated)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l, err := Open(Options{Dir: dir, SegmentBytes: 64, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	payload := string(bytes.Repeat([]byte("p"), 40)) // ~49B framed: 1/segment
	for i := 0; i < 5; i++ {
		if err := l.Append(rec(RecOCTCommit, payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := segmentFiles(t, dir); n != 5 {
		t.Fatalf("segment files = %d, want 5", n)
	}
	if n := l.Rotations(); n != 4 {
		t.Errorf("Rotations() = %d, want 4", n)
	}
	stats, err := Replay(dir, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 5 || stats.Segments != 5 {
		t.Errorf("stats = %+v, want 5 records over 5 segments", stats)
	}
}

func TestCheckpointPrunesOldSegments(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l, err := Open(Options{Dir: dir, SegmentBytes: 64, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(rec(RecOCTCommit, string(bytes.Repeat([]byte("p"), 40)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint([]byte(`{"clock":5}`)); err != nil {
		t.Fatal(err)
	}
	// The checkpoint alone deletes nothing: until the snapshot it
	// describes is durable, the older segments must survive.
	if n := segmentFiles(t, dir); n < 2 {
		t.Fatalf("segment files after checkpoint = %d, want the older segments kept", n)
	}
	if err := l.Prune(); err != nil {
		t.Fatal(err)
	}
	if n := segmentFiles(t, dir); n != 1 {
		t.Fatalf("segment files after prune = %d, want 1", n)
	}
	// New appends land after the checkpoint record.
	if err := l.Append(rec(RecOCTCommit, "post")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var types []RecordType
	if _, err := Replay(dir, func(r Record) error {
		types = append(types, r.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(types) != 2 || types[0] != RecCheckpoint || types[1] != RecOCTCommit {
		t.Fatalf("post-checkpoint record types = %v, want [checkpoint, oct.commit]", types)
	}
	if n := reg.Counter("wal.checkpoint.count"); n != 1 {
		t.Errorf("wal.checkpoint.count = %d, want 1", n)
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(RecOCTCommit, "kept")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-append: a partial frame at the tail.
	path := filepath.Join(dir, segmentName(1))
	torn := AppendFrame(nil, rec(RecOCTCommit, "lost"))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reg := obs.NewRegistry()
	l2, err := Open(Options{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(rec(RecOCTCommit, "after")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("wal.open.truncated"); n != int64(len(torn)-3) {
		t.Errorf("wal.open.truncated = %d, want %d", n, len(torn)-3)
	}
	var got []string
	if _, err := Replay(dir, func(r Record) error {
		got = append(got, string(r.Payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "kept" || got[1] != "after" {
		t.Fatalf("replay = %q, want [kept after]", got)
	}
}

func TestReplayMissingDirIsEmpty(t *testing.T) {
	stats, err := Replay(filepath.Join(t.TempDir(), "nope"), func(Record) error {
		t.Fatal("callback fired for missing dir")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 0 || stats.Segments != 0 {
		t.Fatalf("stats = %+v, want zero", stats)
	}
}

func TestReplayStopsAtTornSegmentMidChain(t *testing.T) {
	// A torn frame in segment 1 must hide the (never-acknowledged)
	// records in segment 2: trust ends at the first bad frame.
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(rec(RecOCTCommit, string(bytes.Repeat([]byte("p"), 40)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, segmentName(1)), 10); err != nil {
		t.Fatal(err)
	}
	var n int
	stats, err := Replay(dir, func(Record) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("replayed %d records after torn first segment, want 0", n)
	}
	if stats.Truncated == 0 {
		t.Error("stats.Truncated = 0, want > 0 (later segments counted)")
	}
}

// segmentFiles counts the segment files in dir.
func segmentFiles(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			n++
		}
	}
	return n
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(RecOCTCommit, "x")); err == nil {
		t.Fatal("Append after Close succeeded, want error")
	}
	if err := l.Close(); err != nil {
		t.Errorf("second Close: %v, want nil", err)
	}
}

func TestTraceEventsAndProbes(t *testing.T) {
	dir := t.TempDir()
	tr := obs.NewTracer()
	// Batched mode with no clock: appends emit trace events but only a
	// Checkpoint or Close fsyncs.
	l, err := Open(Options{Dir: dir, FsyncEvery: 100, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Dir(); got != dir {
		t.Errorf("Dir() = %q, want %q", got, dir)
	}
	types := []RecordType{RecOCTCommit, RecHistoryAppend, RecCursorMove, RecThread}
	for _, rt := range types {
		if err := l.Append(rec(rt, "payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint([]byte(`{"clock":0}`)); err != nil {
		t.Fatal(err)
	}

	wantNames := []string{"oct.commit", "history.append", "cursor.move", "thread"}
	var appends, fsyncs, checkpoints int
	for _, ev := range tr.Events() {
		switch ev.Type {
		case obs.EvWALAppend:
			if appends < len(wantNames) && ev.Name != wantNames[appends] {
				t.Errorf("append event %d named %q, want %q", appends, ev.Name, wantNames[appends])
			}
			if ev.Args["bytes"] == "" {
				t.Errorf("append event %q missing bytes arg", ev.Name)
			}
			appends++
		case obs.EvWALFsync:
			fsyncs++
		case obs.EvWALCheckpoint:
			checkpoints++
		}
	}
	// The checkpoint frame is written directly, not through Append, so it
	// emits wal.checkpoint only.
	if appends != 4 {
		t.Errorf("%d wal.append events, want 4", appends)
	}
	if fsyncs == 0 || checkpoints != 1 {
		t.Errorf("fsyncs=%d checkpoints=%d, want >0 and 1", fsyncs, checkpoints)
	}

	// SetTracer(nil) silences events (RunSessions suppression); counters
	// and probes keep counting.
	before := len(tr.Events())
	l.SetTracer(nil)
	if err := l.Append(rec(RecOCTCommit, "silent")); err != nil {
		t.Fatal(err)
	}
	if len(tr.Events()) != before {
		t.Errorf("append with nil tracer emitted %d new events", len(tr.Events())-before)
	}
	if l.AppendedBytes() == 0 {
		t.Error("AppendedBytes probe is zero after appends")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
