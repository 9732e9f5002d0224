package main

import (
	"bufio"
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"papyrus/internal/core"
	"papyrus/internal/oct"
)

// newTestShell builds a shell writing into a buffer.
func newTestShell(t *testing.T) (*shell, *bytes.Buffer) {
	t.Helper()
	sys, err := core.New(core.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	return &shell{sys: sys, out: bufio.NewWriter(&buf)}, &buf
}

// run dispatches one command line and returns the accumulated output.
func run(t *testing.T, sh *shell, buf *bytes.Buffer, line string) string {
	t.Helper()
	if err := sh.dispatch(strings.Fields(line)); err != nil {
		t.Fatalf("dispatch(%q): %v", line, err)
	}
	sh.out.Flush()
	out := buf.String()
	buf.Reset()
	return out
}

// runErr dispatches expecting an error.
func runErr(t *testing.T, sh *shell, line string) error {
	t.Helper()
	err := sh.dispatch(strings.Fields(line))
	if err == nil {
		t.Fatalf("dispatch(%q): expected error", line)
	}
	sh.out.Flush()
	return err
}

func TestShellSessionFlow(t *testing.T) {
	sh, buf := newTestShell(t)

	out := run(t, sh, buf, "help")
	if !strings.Contains(out, "commands:") {
		t.Errorf("help output: %q", out)
	}
	out = run(t, sh, buf, "tasks")
	if !strings.Contains(out, "Mosaico") {
		t.Errorf("tasks output: %q", out)
	}
	out = run(t, sh, buf, "man espresso")
	if !strings.Contains(out, "two-level logic minimizer") {
		t.Errorf("man output: %q", out)
	}
	run(t, sh, buf, "import /s shifter 3")
	run(t, sh, buf, "thread demo")
	out = run(t, sh, buf, "invoke create-logic-description Spec=/s Outlogic=sh.logic")
	if !strings.Contains(out, "Format_Transformation") {
		t.Errorf("invoke output: %q", out)
	}
	out = run(t, sh, buf, "show")
	if !strings.Contains(out, "create-logic-description") {
		t.Errorf("show output: %q", out)
	}
	out = run(t, sh, buf, "scope")
	if !strings.Contains(out, "sh.logic") {
		t.Errorf("scope output: %q", out)
	}
	out = run(t, sh, buf, "meta sh.logic")
	if !strings.Contains(out, "inferred type: logic") {
		t.Errorf("meta output: %q", out)
	}
	out = run(t, sh, buf, "objects")
	if !strings.Contains(out, "/s") {
		t.Errorf("objects output: %q", out)
	}
	run(t, sh, buf, "annotate 1 first milestone")
	out = run(t, sh, buf, "show")
	if !strings.Contains(out, "first milestone") {
		t.Errorf("annotation not rendered: %q", out)
	}
	run(t, sh, buf, "move initial")
	out = run(t, sh, buf, "show")
	if !strings.Contains(out, "cursor at initial design point") {
		t.Errorf("cursor move: %q", out)
	}
	run(t, sh, buf, "move 1")
	out = run(t, sh, buf, "threads")
	if !strings.Contains(out, "* 1 demo") {
		t.Errorf("threads output: %q", out)
	}
}

func TestShellRebuildFlow(t *testing.T) {
	sh, buf := newTestShell(t)
	run(t, sh, buf, "import /s shifter 3")
	run(t, sh, buf, "thread demo")
	run(t, sh, buf, "invoke create-logic-description Spec=/s Outlogic=sh.logic")
	out := run(t, sh, buf, "outofdate sh.logic")
	if !strings.Contains(out, "out of date: false") {
		t.Errorf("outofdate: %q", out)
	}
	// A new spec version makes it stale; rebuild regenerates.
	run(t, sh, buf, "import /s shifter 4")
	out = run(t, sh, buf, "outofdate sh.logic")
	if !strings.Contains(out, "out of date: true") {
		t.Errorf("outofdate after modify: %q", out)
	}
	out = run(t, sh, buf, "rebuild sh.logic")
	if !strings.Contains(out, "rebuilt sh.logic@1 ->") {
		t.Errorf("rebuild: %q", out)
	}
}

func TestShellGCAndTime(t *testing.T) {
	sh, buf := newTestShell(t)
	run(t, sh, buf, "import /s shifter 3")
	if _, err := sh.sys.ImportObject("/c", oct.TypeText, oct.Text("set d0 1\nsim\n")); err != nil {
		t.Fatal(err)
	}
	run(t, sh, buf, "thread demo")
	run(t, sh, buf, "invoke create-logic-description Spec=/s Outlogic=l")
	for i := 0; i < 4; i++ {
		run(t, sh, buf, "invoke logic-simulator Inlogic=l Commands=/c Report=r")
	}
	out := run(t, sh, buf, "gc")
	if !strings.Contains(out, "detected 1 iterative processes") {
		t.Errorf("gc output: %q", out)
	}
	out = run(t, sh, buf, "attime 0")
	if !strings.Contains(out, "record 1") {
		t.Errorf("attime output: %q", out)
	}
}

func TestShellSaveLoad(t *testing.T) {
	sh, buf := newTestShell(t)
	dir := t.TempDir()
	run(t, sh, buf, "import /s shifter 3")
	run(t, sh, buf, "thread demo")
	run(t, sh, buf, "invoke create-logic-description Spec=/s Outlogic=l")
	out := run(t, sh, buf, "save "+dir)
	if !strings.Contains(out, "session saved") {
		t.Errorf("save: %q", out)
	}
	out = run(t, sh, buf, "load "+dir)
	if !strings.Contains(out, "session loaded (1 threads)") {
		t.Errorf("load: %q", out)
	}
	out = run(t, sh, buf, "scope")
	if !strings.Contains(out, "l : version 1") {
		t.Errorf("restored scope: %q", out)
	}
}

func TestShellErrors(t *testing.T) {
	sh, _ := newTestShell(t)
	for _, line := range []string{
		"bogus",
		"man",
		"man ghosttool",
		"import x unknown 3",
		"import x shifter abc",
		"use 99",
		"show",   // no thread
		"move 1", // no thread
		"invoke", // no thread
		"gc",
		"attime 5",
		"load /nonexistent-dir-xyz",
	} {
		runErr(t, sh, line)
	}
	// With a thread but bad arguments.
	var buf bytes.Buffer
	sh.out = bufio.NewWriter(&buf)
	if err := sh.dispatch([]string{"thread", "t"}); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"invoke nosuchtask",
		"invoke Padp Incell=/missing Outcell=o",
		"invoke Padp Incell=/s", // missing output binding
		"move 99",
		"annotate 99 text",
		"meta ghost",
	} {
		runErr(t, sh, line)
	}
}

func TestShellWorkspaceCommand(t *testing.T) {
	sh, buf := newTestShell(t)
	run(t, sh, buf, "import /s shifter 3")
	run(t, sh, buf, "thread demo")
	run(t, sh, buf, "invoke create-logic-description Spec=/s Outlogic=l")
	// Branch so the workspace is the union of two frontier states.
	run(t, sh, buf, "move initial")
	run(t, sh, buf, "invoke create-logic-description Spec=/s Outlogic=l2")
	out := run(t, sh, buf, "workspace")
	if !strings.Contains(out, "l :") || !strings.Contains(out, "l2 :") {
		t.Errorf("workspace missing a branch: %q", out)
	}
	// Scope only shows the current branch.
	out = run(t, sh, buf, "scope")
	if strings.Contains(out, "l :") {
		t.Errorf("scope leaked the other branch: %q", out)
	}
}

func TestShellMemoReplay(t *testing.T) {
	old := *useMemo
	*useMemo = true
	defer func() { *useMemo = old }()

	sys, err := core.New(shellConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sh := &shell{sys: sys, out: bufio.NewWriter(&buf)}

	out := run(t, sh, &buf, "memo")
	if !strings.Contains(out, "0 entries, 0 hits") {
		t.Errorf("memo before work: %q", out)
	}
	run(t, sh, &buf, "import /s shifter 3")
	run(t, sh, &buf, "thread demo")
	run(t, sh, &buf, "invoke create-logic-description Spec=/s Outlogic=l")
	out = run(t, sh, &buf, "memo")
	if !strings.Contains(out, "2 entries, 0 hits, 2 misses") {
		t.Errorf("memo after cold run: %q", out)
	}

	// Redo record 1 through the rework path: both steps should hit.
	run(t, sh, &buf, "move initial")
	out = run(t, sh, &buf, "replay 1")
	if !strings.Contains(out, "create-logic-description") {
		t.Errorf("replay progress: %q", out)
	}
	out = run(t, sh, &buf, "memo")
	if !strings.Contains(out, "2 entries, 2 hits, 2 misses") {
		t.Errorf("memo after replay: %q", out)
	}

	runErr(t, sh, "replay")    // missing id
	runErr(t, sh, "replay x")  // non-numeric id
	runErr(t, sh, "replay 99") // unknown record
}

func TestShellMemoDisabled(t *testing.T) {
	sh, buf := newTestShell(t)
	out := run(t, sh, buf, "memo")
	if !strings.Contains(out, "memo cache disabled") {
		t.Errorf("memo without cache: %q", out)
	}
	runErr(t, sh, "replay 1") // no thread
}

func TestShellRecover(t *testing.T) {
	oldDir, oldEvery := *walDir, *fsyncEvery
	*walDir, *fsyncEvery = t.TempDir(), 1
	defer func() { *walDir, *fsyncEvery = oldDir, oldEvery }()

	sys, err := core.New(shellConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sh := &shell{sys: sys, out: bufio.NewWriter(&buf)}
	run(t, sh, &buf, "import /s shifter 3")
	run(t, sh, &buf, "thread demo")
	run(t, sh, &buf, "invoke create-logic-description Spec=/s Outlogic=l")

	// Log alone: the shell swaps in a fresh System rebuilt from the WAL.
	out := run(t, sh, &buf, "recover")
	if !strings.Contains(out, "1 threads") {
		t.Errorf("recover: %q", out)
	}
	out = run(t, sh, &buf, "scope")
	if !strings.Contains(out, "l : version 1") {
		t.Errorf("recovered scope: %q", out)
	}

	// Snapshot + tail: save (checkpointing the log), do more work, recover
	// from the snapshot directory.
	snap := t.TempDir()
	run(t, sh, &buf, "save "+snap)
	run(t, sh, &buf, "invoke PLA-generation Inlogic=l Outcell=l.pla")
	out = run(t, sh, &buf, "recover "+snap)
	if !strings.Contains(out, "1 threads") {
		t.Errorf("recover with snapshot: %q", out)
	}
	out = run(t, sh, &buf, "scope")
	if !strings.Contains(out, "l.pla : version 1") {
		t.Errorf("post-checkpoint delta lost: %q", out)
	}
	if err := runErr(t, sh, "recover a b"); err == nil {
		t.Error("recover with two args accepted")
	}
	if err := sh.sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShellLoadKeepsLoggedWork: with a log armed, `load` recovers the
// snapshot plus the work logged after it — the object created after the
// save stays in scope.
func TestShellLoadKeepsLoggedWork(t *testing.T) {
	oldDir, oldEvery := *walDir, *fsyncEvery
	*walDir, *fsyncEvery = t.TempDir(), 1
	defer func() { *walDir, *fsyncEvery = oldDir, oldEvery }()

	sys, err := core.New(shellConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sh := &shell{sys: sys, out: bufio.NewWriter(&buf)}
	snap := t.TempDir()
	run(t, sh, &buf, "import /s shifter 3")
	run(t, sh, &buf, "thread demo")
	run(t, sh, &buf, "invoke create-logic-description Spec=/s Outlogic=l")
	run(t, sh, &buf, "save "+snap)
	run(t, sh, &buf, "invoke PLA-generation Inlogic=l Outcell=l.pla")
	out := run(t, sh, &buf, "load "+snap)
	if !strings.Contains(out, "session loaded (1 threads)") {
		t.Errorf("load: %q", out)
	}
	out = run(t, sh, &buf, "scope")
	if !strings.Contains(out, "l.pla : version 1") {
		t.Errorf("work logged after the save lost by load: %q", out)
	}
	if err := sh.sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestUsageFlagOrder pins the -h contract of the satellite fix: every
// registered flag appears in the usage output, in flagOrder (wal-dir
// before the -fsync-every that modifies it), not alphabetically.
func TestUsageFlagOrder(t *testing.T) {
	var buf bytes.Buffer
	flag.CommandLine.SetOutput(&buf)
	defer flag.CommandLine.SetOutput(nil)
	usage()
	out := buf.String()

	last := -1
	flag.VisitAll(func(f *flag.Flag) {
		i := strings.Index(out, "  -"+f.Name+"\n")
		if i < 0 {
			t.Errorf("flag -%s missing from usage output", f.Name)
		}
	})
	for _, name := range flagOrder {
		i := strings.Index(out, "  -"+name+"\n")
		if i < 0 {
			t.Fatalf("flag -%s missing from usage output", name)
		}
		if i < last {
			t.Errorf("flag -%s printed out of order", name)
		}
		last = i
	}
}

// TestShellFailedLoadWithLog: with a log armed, a failed load has already
// closed the session, so every later session command fails naming that
// load until a recover succeeds.
func TestShellFailedLoadWithLog(t *testing.T) {
	oldDir, oldEvery := *walDir, *fsyncEvery
	*walDir, *fsyncEvery = t.TempDir(), 1
	defer func() { *walDir, *fsyncEvery = oldDir, oldEvery }()

	sys, err := core.New(shellConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sh := &shell{sys: sys, out: bufio.NewWriter(&buf)}
	run(t, sh, &buf, "import /s shifter 3")
	run(t, sh, &buf, "thread demo")
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "session.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	runErr(t, sh, "load "+bad)
	for _, line := range []string{"invoke create-logic-description Spec=/s Outlogic=l", "objects", "save " + t.TempDir()} {
		if err := runErr(t, sh, line); !strings.Contains(err.Error(), "load "+bad+" failed") {
			t.Errorf("%s after a failed load: %v", line, err)
		}
	}
	run(t, sh, &buf, "help")
	out := run(t, sh, &buf, "recover")
	if !strings.Contains(out, "session loaded (1 threads)") {
		t.Errorf("recover: %q", out)
	}
	run(t, sh, &buf, "invoke create-logic-description Spec=/s Outlogic=l")
	if err := sh.sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShellFailedLoadWithoutLog: without a log nothing was closed, so a
// failed load leaves the prior session usable.
func TestShellFailedLoadWithoutLog(t *testing.T) {
	sh, buf := newTestShell(t)
	run(t, sh, buf, "import /s shifter 3")
	run(t, sh, buf, "thread demo")
	runErr(t, sh, "load /nonexistent-dir-xyz")
	out := run(t, sh, buf, "invoke create-logic-description Spec=/s Outlogic=l")
	if !strings.Contains(out, "Format_Transformation") {
		t.Errorf("invoke after a failed load: %q", out)
	}
}
