package activity

// Coverage for the session-persistence and recovery entry points
// (ReinstateThread / ReplayRecord), the observability
// plumbing, and the small accessors the multi-session runner uses.

import (
	"strings"
	"testing"

	"papyrus/internal/history"
	"papyrus/internal/obs"
	"papyrus/internal/task"
)

func TestManagerAccessorsAndObservability(t *testing.T) {
	e := newEnv(t)
	if e.mgr.Store() != e.store {
		t.Fatal("Store() did not return the backing store")
	}
	if got, want := e.mgr.vt(), e.store.Clock(); got != want {
		t.Fatalf("vt() without a source = %d, want store clock %d", got, want)
	}
	e.mgr.SetObservability(obs.NewRegistry(), obs.NewTracer(), func() int64 { return 42 })
	if e.mgr.vt() != 42 {
		t.Fatalf("vt() = %d, want 42 from the injected source", e.mgr.vt())
	}

	e.mgr.SetThreadBase(100)
	th := e.mgr.NewThread("based", "chiueh")
	if th.ID() != 101 {
		t.Fatalf("thread ID = %d, want 101 after SetThreadBase(100)", th.ID())
	}
	if th.LastAccess() != e.store.Clock() {
		t.Fatalf("LastAccess = %d, want store clock %d", th.LastAccess(), e.store.Clock())
	}

	other := e.mgr.NewThread("library", "chiueh")
	if err := th.Import(other); err != nil {
		t.Fatal(err)
	}
	if got := th.Imports(); len(got) != 1 || got[0] != other {
		t.Fatalf("Imports() = %v", got)
	}

	// Cursor moves: a record outside the stream is rejected; moving to
	// the initial point emits the rework trace event.
	if err := th.MoveCursor(&history.Record{ID: 9999}); err == nil {
		t.Fatal("cursor moved to a record outside the stream")
	}
	if err := th.MoveCursor(nil); err != nil {
		t.Fatalf("move to initial point: %v", err)
	}
}

func TestRestoreAndReinstateThread(t *testing.T) {
	e := newEnv(t)
	th := shifterThread(t, e)
	cursorID := th.Cursor().ID
	want := len(th.Stream().Records())

	// Reinstate keeps the saved thread ID stable for WAL-tail replay.
	st, _ := copyStream(th.Stream())
	ri, err := e.mgr.ReinstateThread(500, "reinstated", "chiueh", st, cursorID)
	if err != nil {
		t.Fatalf("reinstate: %v", err)
	}
	if ri.ID() != 500 || ri.Cursor() == nil || ri.Cursor().ID != cursorID {
		t.Fatalf("reinstated thread = id %d cursor %+v, want 500/%d", ri.ID(), ri.Cursor(), cursorID)
	}
	if got := len(ri.Stream().Records()); got != want {
		t.Fatalf("reinstated stream has %d records, want %d", got, want)
	}

	st2, _ := copyStream(th.Stream())
	if _, err := e.mgr.ReinstateThread(501, "bad", "chiueh", st2, 99999); err == nil {
		t.Fatal("reinstate with a bogus cursor succeeded")
	}
}

func TestReplayRecordReruns(t *testing.T) {
	e := newEnv(t)
	th := shifterThread(t, e)
	rec := th.Cursor()
	if rec == nil {
		t.Fatal("shifter thread left no cursor")
	}

	replayed, err := e.mgr.ReplayRecord(th, rec)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if replayed.TaskName != rec.TaskName || replayed.ID == rec.ID {
		t.Fatalf("replayed = %+v, want a new record of task %q", replayed, rec.TaskName)
	}
	if th.Cursor() != replayed {
		t.Fatalf("cursor = %+v, want the replayed record", th.Cursor())
	}

	// A record whose refs no longer match the template's arity is
	// rejected rather than rebound arbitrarily.
	bad := *rec
	bad.Inputs = nil
	if _, err := e.mgr.ReplayRecord(th, &bad); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("arity mismatch error = %v", err)
	}
	bad2 := *rec
	bad2.TaskName = "no-such-task"
	if _, err := e.mgr.ReplayRecord(th, &bad2); err == nil {
		t.Fatal("replay of an unknown task succeeded")
	}
}

func TestInvokeOptionsApply(t *testing.T) {
	var inv task.Invocation
	WithOptionOverrides(map[string][]string{"S1": {"-fast"}})(&inv)
	restarted := false
	WithOnRestart(func(int, *task.Invocation) { restarted = true })(&inv)
	if inv.OptionOverrides == nil || inv.OnRestart == nil {
		t.Fatalf("options not applied: %+v", inv)
	}
	inv.OnRestart(1, &inv)
	if !restarted {
		t.Fatal("OnRestart hook did not run")
	}
}
