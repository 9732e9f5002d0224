package activity

import (
	"bytes"
	"fmt"
	"testing"

	"papyrus/internal/cad/logic"
	"papyrus/internal/oct"
	"papyrus/internal/wal"
)

// recoverEnv replays dir's log into a fresh manager and returns it.
func recoverEnv(t *testing.T, dir string) *env {
	t.Helper()
	e := newEnv(t)
	_, err := wal.Replay(dir, func(r wal.Record) error {
		_, err := e.mgr.ReplayWALRecord(r)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// streamBytes serializes a thread's control stream for comparison.
func streamBytes(t *testing.T, th *Thread) string {
	t.Helper()
	var buf bytes.Buffer
	if err := th.Stream().Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// compareThreads asserts the recovered manager holds the same threads,
// streams, and cursors as the original.
func compareThreads(t *testing.T, want, got *Manager) {
	t.Helper()
	wantThreads, gotThreads := want.Threads(), got.Threads()
	if len(wantThreads) != len(gotThreads) {
		t.Fatalf("recovered %d threads, want %d", len(gotThreads), len(wantThreads))
	}
	for i, w := range wantThreads {
		g := gotThreads[i]
		if g.ID() != w.ID() || g.Name() != w.Name() || g.Owner() != w.Owner() {
			t.Errorf("thread %d: identity %d/%q/%q, want %d/%q/%q",
				i, g.ID(), g.Name(), g.Owner(), w.ID(), w.Name(), w.Owner())
		}
		if ws, gs := streamBytes(t, w), streamBytes(t, g); ws != gs {
			t.Errorf("thread %q: recovered stream differs:\n--- want ---\n%s--- got ---\n%s", w.Name(), ws, gs)
		}
		wc, gc := 0, 0
		if w.Cursor() != nil {
			wc = w.Cursor().ID
		}
		if g.Cursor() != nil {
			gc = g.Cursor().ID
		}
		if wc != gc {
			t.Errorf("thread %q: recovered cursor %d, want %d", w.Name(), gc, wc)
		}
	}
}

// TestActivityWALRecoverRoundTrip: a thread with task history, a rework
// move, a branch, and a fork must recover from the log alone.
func TestActivityWALRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t)
	e.mgr.AttachWAL(l)

	th := shifterThread(t, e)
	// Rework: move the cursor back to the first record and run another
	// simulation so the stream branches via the insertion-point rule.
	first := th.Stream().Roots()[0]
	if err := th.MoveCursor(first); err != nil {
		t.Fatal(err)
	}
	if _, err := e.mgr.InvokeTask(th, "logic-simulator",
		map[string]string{"Inlogic": "shifter.logic", "Commands": "/specs/shifter.cmd"},
		map[string]string{"Report": "shifter.simreport2"}); err != nil {
		t.Fatal(err)
	}
	// A whole-stream fork exercises the thread-op payload path.
	if _, err := e.mgr.ForkThread(th, nil, true, "shifter-fork", "chiueh"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re := recoverEnv(t, dir)
	compareThreads(t, e.mgr, re.mgr)
}

// TestActivityWALRecoverErase: the erasing rework variant must replay
// the stream erasure (without touching the store — hides recover through
// the store's own log records).
func TestActivityWALRecoverErase(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t)
	e.mgr.AttachWAL(l)

	th := shifterThread(t, e)
	first := th.Stream().Roots()[0]
	gone, err := th.MoveCursorErasing(first)
	if err != nil {
		t.Fatal(err)
	}
	if len(gone) == 0 {
		t.Fatal("erasing rework removed nothing; test needs a non-trivial erase")
	}
	if th.Stream().Len() != 1 {
		t.Fatalf("stream len after erase = %d, want 1", th.Stream().Len())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re := recoverEnv(t, dir)
	compareThreads(t, e.mgr, re.mgr)
}

// TestActivityWALDropThread: dropped threads stay dropped after replay.
func TestActivityWALDropThread(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t)
	e.mgr.AttachWAL(l)
	keep := e.mgr.NewThread("keep", "u")
	drop := e.mgr.NewThread("drop", "u")
	e.mgr.DropThread(drop)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re := recoverEnv(t, dir)
	if got := len(re.mgr.Threads()); got != 1 {
		t.Fatalf("recovered %d threads, want 1", got)
	}
	if re.mgr.Threads()[0].Name() != keep.Name() {
		t.Errorf("recovered thread %q, want %q", re.mgr.Threads()[0].Name(), keep.Name())
	}
}

// TestHistoryRecoverSplice drives the incremental record encoding
// through a splice: records replayed one at a time must reproduce the
// spliced DAG byte-for-byte in persisted form.
func TestHistoryRecoverSplice(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t)
	e.mgr.AttachWAL(l)
	th := e.mgr.NewThread("splice", "u")
	e.seed(t, "/specs/s", oct.TypeBehavioral, oct.Text("spec"))

	// Build A -> B, rework to A, branch (A -> C), then invoke from A again
	// with the branch present: the insertion-point rule splices the new
	// record before the branching point.
	mkRec := func(n int) {
		t.Helper()
		if _, err := e.mgr.InvokeTask(th, "create-logic-description",
			map[string]string{"Spec": "/specs/shifter"},
			map[string]string{"Outlogic": fmt.Sprintf("splice.l%d", n)}); err != nil {
			t.Fatal(err)
		}
	}
	e.seed(t, "/specs/shifter", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(2)))
	mkRec(1)
	a := th.Cursor()
	mkRec(2)
	if err := th.MoveCursor(a); err != nil {
		t.Fatal(err)
	}
	mkRec(3)
	if err := th.MoveCursor(a); err != nil {
		t.Fatal(err)
	}
	mkRec(4)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re := recoverEnv(t, dir)
	compareThreads(t, e.mgr, re.mgr)
}

// TestLifecycleOpsCommitOnce: under strict durability each thread
// operation — fork, cascade, join, an erasing rework — is one
// acknowledgement. It appends several records (a fork logs its fresh
// thread and its copied stream; cascade and join log a fork first; an
// erase logs a cursor move, the hides and the erase marker) and must
// return with all of them synced at the cost of at most one fsync.
func TestLifecycleOpsCommitOnce(t *testing.T) {
	l, err := wal.Open(wal.Options{Dir: t.TempDir(), SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	e := newEnv(t)
	e.store.AttachWAL(l)
	e.mgr.AttachWAL(l)

	a := shifterThread(t, e)
	b := e.mgr.NewThread("Arithmetic-unit", "mary")
	e.seed(t, "/specs/adder", oct.TypeBehavioral, oct.Text(logic.AdderBehavior(2)))
	if _, err := e.mgr.InvokeTask(b, "create-logic-description",
		map[string]string{"Spec": "/specs/adder"},
		map[string]string{"Outlogic": "adder.logic"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil { // e.seed's direct puts
		t.Fatal(err)
	}

	ops := []struct {
		name string
		run  func() error
	}{
		{"fork", func() error {
			_, err := e.mgr.ForkThread(a, a.Stream().Roots()[0], false, "fork", "u")
			return err
		}},
		{"cascade", func() error {
			_, err := e.mgr.Cascade(a, b, a.Frontier()[0], "cascade", "u")
			return err
		}},
		{"join", func() error {
			_, err := e.mgr.Join(a, b, a.Frontier()[0], b.Frontier()[0], "ALU", "randy")
			return err
		}},
		{"erasing rework", func() error {
			gone, err := a.MoveCursorErasing(a.Stream().Roots()[0])
			if err == nil && len(gone) == 0 {
				err = fmt.Errorf("erase hid nothing")
			}
			return err
		}},
	}
	for _, op := range ops {
		fsyncs, appended := l.Fsyncs(), l.AppendedBytes()
		if err := op.run(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if l.AppendedBytes() == appended {
			t.Errorf("%s appended nothing", op.name)
		}
		if s, a := l.SyncedBytes(), l.AppendedBytes(); s != a {
			t.Errorf("%s returned with SyncedBytes() = %d, AppendedBytes() = %d", op.name, s, a)
		}
		if d := l.Fsyncs() - fsyncs; d != 1 {
			t.Errorf("%s cost %d fsyncs, want 1", op.name, d)
		}
	}
}
