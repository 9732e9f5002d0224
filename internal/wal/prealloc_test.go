package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"papyrus/internal/obs"
)

// readSegment returns the raw bytes of segment seq in dir.
func readSegment(t *testing.T, dir string, seq int) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, segmentName(seq)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// appendZeros extends segment seq in dir by n zero bytes, the remainder a
// crash of a preallocated segment leaves behind.
func appendZeros(t *testing.T, dir string, seq, n int) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, segmentName(seq)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, n)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// assertSealed fails unless every segment of dir up to and including seq
// ends exactly at its last frame.
func assertSealed(t *testing.T, dir string, seq int) {
	t.Helper()
	for s := 1; s <= seq; s++ {
		data := readSegment(t, dir, s)
		if _, ends, valid := Scan(data); valid != len(data) || len(ends) == 0 {
			t.Errorf("segment %d: %d frames, %d/%d bytes valid; want it to end at its last frame",
				s, len(ends), valid, len(data))
		}
	}
}

func TestLiveSegmentIsZeroFilledAhead(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	check := func(wantRecs int, wantSize int) {
		t.Helper()
		data := readSegment(t, dir, 1)
		appended := int(l.AppendedBytes())
		if len(data) != wantSize {
			t.Errorf("live segment is %d bytes, want %d (filled ahead of %d appended)", len(data), wantSize, appended)
		}
		recs, _, valid := Scan(data)
		if len(recs) != wantRecs || valid != appended {
			t.Errorf("live segment: %d records over %d valid bytes, want %d over %d", len(recs), valid, wantRecs, appended)
		}
		if len(bytes.Trim(data[appended:], "\x00")) != 0 {
			t.Errorf("nonzero byte past AppendedBytes() = %d", appended)
		}
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(rec(RecOCTCommit, fmt.Sprintf("small-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	check(3, fillStep)
	// A frame that crosses the filled end extends the file by whole steps.
	if err := l.Append(rec(RecOCTCommit, string(bytes.Repeat([]byte("p"), fillStep)))); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	check(4, 2*fillStep)
	if s, a := l.SyncedBytes(), l.AppendedBytes(); s != a {
		t.Errorf("SyncedBytes() = %d, want AppendedBytes() = %d", s, a)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if data := readSegment(t, dir, 1); int64(len(data)) != l.AppendedBytes() {
		t.Errorf("closed segment is %d bytes, want AppendedBytes() = %d", len(data), l.AppendedBytes())
	}
}

func TestFillStopsAtRotationPoint(t *testing.T) {
	for _, segBytes := range []int64{64, 256} {
		t.Run(fmt.Sprint(segBytes), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(Options{Dir: dir, SegmentBytes: segBytes})
			if err != nil {
				t.Fatal(err)
			}
			// Frames below, near and above the rotation point.
			sizes := []int{1, 20, 40, 100, 300, 7, 55, 250, 3}
			for i, n := range sizes {
				if err := l.Append(rec(RecOCTCommit, string(bytes.Repeat([]byte{'a' + byte(i)}, n)))); err != nil {
					t.Fatal(err)
				}
				seq := int(l.Rotations()) + 1
				data := readSegment(t, dir, seq)
				_, _, valid := Scan(data)
				if limit := max(int(segBytes), valid); len(data) > limit {
					t.Errorf("append %d: live segment %d is %d bytes, past the rotation point %d", i, seq, len(data), limit)
				}
				if len(bytes.Trim(data[valid:], "\x00")) != 0 {
					t.Errorf("append %d: nonzero byte after the last frame of live segment %d", i, seq)
				}
				assertSealed(t, dir, seq-1)
			}
			if l.Rotations() == 0 {
				t.Fatalf("no rotation with SegmentBytes %d", segBytes)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			assertSealed(t, dir, int(l.Rotations())+1)
			stats, err := Replay(dir, func(Record) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			if stats.Records != len(sizes) || stats.Truncated != 0 {
				t.Errorf("stats = %+v, want %d records and 0 truncated", stats, len(sizes))
			}
		})
	}
}

func TestOpenTruncatesZeroRemainder(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"a", "b"} {
		if err := l.Append(rec(RecOCTCommit, p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	frames := l.AppendedBytes()
	appendZeros(t, dir, 1, fillStep)

	stats, err := Replay(dir, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 2 || stats.Truncated != 0 {
		t.Errorf("Replay of [frames][zeros] = %+v, want 2 records and 0 truncated", stats)
	}
	reg := obs.NewRegistry()
	l2, err := Open(Options{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if data := readSegment(t, dir, 1); int64(len(data)) != frames {
		t.Errorf("segment after Open is %d bytes, want the zeros truncated to %d", len(data), frames)
	}
	if n := reg.Counter("wal.open.truncated"); n != 0 {
		t.Errorf("wal.open.truncated = %d, want 0 for a zero remainder", n)
	}
	if err := l2.Append(rec(RecOCTCommit, "c")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	if _, err := Replay(dir, func(r Record) error {
		got = append(got, string(r.Payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[a b c]" {
		t.Errorf("replay = %q, want [a b c]", got)
	}
}

func TestTornBytesBeforeZerosCounted(t *testing.T) {
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
	torn := AppendFrame(nil, rec(RecOCTCommit, "lost"))
	torn = torn[:len(torn)-2] // ends on 's', a nonzero byte
	f, err := os.OpenFile(filepath.Join(dir, segmentName(1)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	appendZeros(t, dir, 1, fillStep)

	stats, err := Replay(dir, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 1 || stats.Truncated != int64(len(torn)) {
		t.Errorf("Replay = %+v, want 1 record and %d truncated", stats, len(torn))
	}
	reg := obs.NewRegistry()
	l2, err := Open(Options{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("wal.open.truncated"); n != int64(len(torn)) {
		t.Errorf("wal.open.truncated = %d, want %d (torn bytes only)", n, len(torn))
	}
}

func TestReplayContinuesPastZeroRemainder(t *testing.T) {
	// A crash can persist a rotation's new segment before the old
	// segment's truncate: every earlier segment then keeps its zero
	// remainder, and Replay must read on past it.
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(rec(RecOCTCommit, fmt.Sprintf("r%d-%s", i, bytes.Repeat([]byte("p"), 40)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	appendZeros(t, dir, 1, 64)
	appendZeros(t, dir, 2, 15)
	var n int
	stats, err := Replay(dir, func(Record) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || stats.Segments != 3 || stats.Truncated != 0 {
		t.Errorf("replayed %d records, stats %+v; want 3 records over 3 segments, 0 truncated", n, stats)
	}
}

func TestConcurrentAppendsAcrossRotationAndFillSteps(t *testing.T) {
	// Parallel appenders, each acknowledging every append with a Commit,
	// cross three fill steps of the first segment and one rotation: a
	// group-commit leader's fsync overlaps fill writes, and rotation's
	// truncate must wait it out. Every record replays exactly once, in
	// each appender's order, and every segment ends at its last frame.
	// The rotation happens once: an appender that waited out a flush
	// re-checks whether the frame now fits before rotating again.
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 3*fillStep + fillStep/2})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 4, 60
	pad := bytes.Repeat([]byte("p"), 1000)
	payload := func(g, i int) string { return fmt.Sprintf("g%d-i%03d-%s", g, i, pad) }
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for i := 0; i < perG; i++ {
				if err := l.Append(rec(RecOCTCommit, payload(g, i))); err != nil {
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
	if n := l.Rotations(); n != 1 {
		t.Errorf("Rotations() = %d, want 1", n)
	}
	if s, a := l.SyncedBytes(), l.AppendedBytes(); s != a {
		t.Errorf("SyncedBytes() = %d after every commit returned, want AppendedBytes() = %d", s, a)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs := int(l.Rotations()) + 1
	assertSealed(t, dir, segs)
	next := make([]int, goroutines)
	var total int
	for seq := 1; seq <= segs; seq++ {
		recs, _, _ := Scan(readSegment(t, dir, seq))
		for _, r := range recs {
			var g, i int
			if _, err := fmt.Sscanf(string(r.Payload), "g%d-i%03d-", &g, &i); err != nil {
				t.Fatalf("segment %d: unparsable payload: %v", seq, err)
			}
			if i != next[g] || string(r.Payload) != payload(g, i) {
				t.Fatalf("segment %d: record g%d-i%03d out of order or altered (want i%03d next)", seq, g, i, next[g])
			}
			next[g]++
			total++
		}
	}
	if total != goroutines*perG {
		t.Errorf("scanned %d records, want %d", total, goroutines*perG)
	}
}
