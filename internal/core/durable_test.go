package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"papyrus/internal/cad/logic"
	"papyrus/internal/oct"
	"papyrus/internal/wal"
)

// durableWorkload drives a small design session: two task invocations in
// one thread, then a rework move back to the first record.
func durableWorkload(t *testing.T, s *System) {
	t.Helper()
	if _, err := s.ImportObject("/spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4))); err != nil {
		t.Fatal(err)
	}
	th := s.NewThread("Shifter", "chiueh")
	rec, err := s.Invoke(th, "create-logic-description",
		map[string]string{"Spec": "/spec"},
		map[string]string{"Outlogic": "sh.logic"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Invoke(th, "PLA-generation",
		map[string]string{"Inlogic": "sh.logic"},
		map[string]string{"Outcell": "sh.pla"}); err != nil {
		t.Fatal(err)
	}
	if err := th.MoveCursor(rec); err != nil {
		t.Fatal(err)
	}
}

// compareRecovered asserts the recovered system's store and threads match
// the original's.
func compareRecovered(t *testing.T, want, got *System) {
	t.Helper()
	if w, g := want.Store.VersionMapText(), got.Store.VersionMapText(); w != g {
		t.Errorf("recovered version map differs:\n--- want ---\n%s--- got ---\n%s", w, g)
	}
	wantThreads, gotThreads := want.Activity.Threads(), got.Activity.Threads()
	if len(wantThreads) != len(gotThreads) {
		t.Fatalf("recovered %d threads, want %d", len(gotThreads), len(wantThreads))
	}
	for i, w := range wantThreads {
		g := gotThreads[i]
		if g.ID() != w.ID() || g.Name() != w.Name() || g.Owner() != w.Owner() {
			t.Errorf("thread %d: identity %d/%q/%q, want %d/%q/%q",
				i, g.ID(), g.Name(), g.Owner(), w.ID(), w.Name(), w.Owner())
		}
		if g.Stream().Len() != w.Stream().Len() {
			t.Errorf("thread %q: stream len %d, want %d", w.Name(), g.Stream().Len(), w.Stream().Len())
		}
		wc, gc := 0, 0
		if w.Cursor() != nil {
			wc = w.Cursor().ID
		}
		if g.Cursor() != nil {
			gc = g.Cursor().ID
		}
		if wc != gc {
			t.Errorf("thread %q: cursor %d, want %d", w.Name(), gc, wc)
		}
	}
}

// TestRecoverFromLogAlone: with no snapshot ever taken, the WAL alone
// rebuilds the store, the threads, the cursor, and the inferred metadata;
// the recovered system keeps working on the same log.
func TestRecoverFromLogAlone(t *testing.T) {
	cfg := Config{Nodes: 2, Durability: &DurabilityConfig{Dir: t.TempDir()}}
	s := newSystem(t, cfg)
	durableWorkload(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, stats, err := Recover(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records == 0 {
		t.Fatal("recovery replayed no records")
	}
	compareRecovered(t, s, r)

	// Inference was rebuilt from the recovered history.
	ref, err := r.Activity.Threads()[0].ResolveInput("sh.logic")
	if err != nil {
		t.Fatal(err)
	}
	if typ, ok := r.Inference.TypeOf(ref); !ok || typ != oct.TypeLogic {
		t.Errorf("recovered inference type %s ok=%v", typ, ok)
	}

	// The recovered session continues from the reworked cursor, appending
	// to the same log: sh.logic is in the cursor's data scope.
	rt := r.Activity.Threads()[0]
	if _, err := r.Invoke(rt, "PLA-generation",
		map[string]string{"Inlogic": "sh.logic"},
		map[string]string{"Outcell": "sh.pla2"}); err != nil {
		t.Fatalf("continuing recovered session: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// segmentFiles counts the log segments in dir.
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

// TestRecoverSnapshotPlusTail: SaveSession checkpoints (and compacts) the
// log; recovery restores the snapshot and replays only the delta since.
// Recovering a checkpointed log without its snapshot must fail the
// fingerprint check rather than fabricate a diverged history.
func TestRecoverSnapshotPlusTail(t *testing.T) {
	snapDir := t.TempDir()
	cfg := Config{Nodes: 2, Durability: &DurabilityConfig{Dir: t.TempDir()}}
	s := newSystem(t, cfg)
	durableWorkload(t, s)
	if err := s.SaveSession(snapDir); err != nil {
		t.Fatal(err)
	}
	if n := segmentFiles(t, cfg.Durability.Dir); n != 1 {
		t.Fatalf("segments after checkpoint = %d, want 1", n)
	}
	// Post-checkpoint delta: another invocation from the reworked cursor.
	th := s.Activity.Threads()[0]
	if _, err := s.Invoke(th, "PLA-generation",
		map[string]string{"Inlogic": "sh.logic"},
		map[string]string{"Outcell": "sh.pla2"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, _, err := Recover(cfg, snapDir)
	if err != nil {
		t.Fatal(err)
	}
	compareRecovered(t, s, r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	if _, _, err := Recover(cfg, ""); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("recovery without the snapshot = %v, want fingerprint mismatch", err)
	}
}

// TestRecoverTornLogTail: chopping bytes off the live segment must not
// stop recovery — the torn tail is truncated and the prefix recovers.
func TestRecoverTornLogTail(t *testing.T) {
	cfg := Config{Nodes: 2, Durability: &DurabilityConfig{Dir: t.TempDir()}}
	s := newSystem(t, cfg)
	durableWorkload(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(cfg.Durability.Dir, "wal-*.log"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments (%v)", err)
	}
	sort.Strings(names)
	last := names[len(names)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	r, stats, err := Recover(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Truncated == 0 {
		t.Error("expected truncated tail bytes to be reported")
	}
	// The recovered map is a prefix of the full run: every surviving
	// version existed, and per-name versions stay contiguous from 1.
	full := map[string]bool{}
	for _, line := range strings.Split(s.Store.VersionMapText(), "\n") {
		full[line] = true
	}
	for _, line := range strings.Split(r.Store.VersionMapText(), "\n") {
		if !full[line] {
			t.Errorf("recovered phantom line %q", line)
		}
	}
	for _, name := range r.Store.Names() {
		for v := 1; v <= r.Store.LatestVersion(name); v++ {
			if _, err := r.Store.Peek(oct.Ref{Name: name, Version: v}); err != nil {
				t.Errorf("version hole: %s@%d: %v", name, v, err)
			}
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRunSessionsDurableRecover: concurrent sessions share one log;
// recovery rebuilds every session's threads (disjoint ID ranges) and the
// shared store into a single root manager.
func TestRunSessionsDurableRecover(t *testing.T) {
	cfg := Config{
		Workers:          4,
		DisableInference: true,
		ExtraTemplates:   map[string]string{"Fanout4": sessFanout},
		Durability:       &DurabilityConfig{Dir: t.TempDir()},
	}
	sys := newSystem(t, cfg)
	if _, err := sys.RunSessions(fanoutSpecs(t, sys, 3)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	r, _, err := Recover(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if w, g := sys.Store.VersionMapText(), r.Store.VersionMapText(); w != g {
		t.Errorf("recovered version map differs:\n--- want ---\n%s--- got ---\n%s", w, g)
	}
	threads := r.Activity.Threads()
	if len(threads) != 3 {
		t.Fatalf("recovered %d threads, want 3", len(threads))
	}
	for i, th := range threads {
		wantID := (i+1)*sessionThreadStride + 1
		if th.ID() != wantID {
			t.Errorf("thread %d: ID %d, want %d", i, th.ID(), wantID)
		}
		if th.Stream().Len() != 1 {
			t.Errorf("thread %d: stream len %d, want 1", i, th.Stream().Len())
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSaveRecoverKeepsThreadIDs: the session file carries thread IDs so a
// snapshot-restored thread answers to the IDs the log tail references.
func TestSaveRecoverKeepsThreadIDs(t *testing.T) {
	snapDir := t.TempDir()
	cfg := Config{Nodes: 1, Durability: &DurabilityConfig{Dir: t.TempDir()}}
	s := newSystem(t, cfg)
	a := s.NewThread("a", "u")
	b := s.NewThread("b", "u")
	s.Activity.DropThread(a)
	if err := s.SaveSession(snapDir); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, _, err := Recover(cfg, snapDir)
	if err != nil {
		t.Fatal(err)
	}
	threads := r.Activity.Threads()
	if len(threads) != 1 || threads[0].ID() != b.ID() {
		t.Fatalf("recovered threads %v, want one with ID %d", threads, b.ID())
	}
	// A fresh thread in the recovered manager must not reuse IDs.
	if id := r.NewThread("c", "u").ID(); id <= b.ID() {
		t.Errorf("new thread ID %d not past restored %d", id, b.ID())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// stateText renders what a crash cut must preserve: the version map and,
// per thread, its identity, cursor and saved control stream.
func stateText(t *testing.T, s *System) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(s.Store.VersionMapText())
	for _, th := range s.Activity.Threads() {
		cursor := 0
		if c := th.Cursor(); c != nil {
			cursor = c.ID
		}
		fmt.Fprintf(&b, "thread %d %q %q cursor %d\n", th.ID(), th.Name(), th.Owner(), cursor)
		if err := th.Stream().Save(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// copyDir copies every regular file of src into a fresh dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryMatrixCheckpoint is the checkpoint dimension of the
// crash-recovery matrix. A durable run saves, works on, and saves again;
// the second save is cut after every filesystem step of its write order
// (checkpoint record durable, temp written, temp synced, renamed,
// directory synced, old segments pruned), before it starts, inside its checkpoint frame and
// at torn offsets of its temp file. Every cut must recover through
// Recover(cfg, snapDir) to the pre-save or the post-save state, and the
// recovered system must save and recover once more to its own state.
func TestRecoveryMatrixCheckpoint(t *testing.T) {
	walDir, snapDir := t.TempDir(), t.TempDir()
	cfg := Config{Nodes: 2, Durability: &DurabilityConfig{Dir: walDir, FsyncEvery: 1}}
	s := newSystem(t, cfg)
	durableWorkload(t, s)
	if err := s.SaveSession(snapDir); err != nil {
		t.Fatal(err)
	}
	// Post-save work: a new branch in the reworked thread and a second
	// thread, so the log tail holds commits, attaches and thread ops.
	th := s.Activity.Threads()[0]
	if _, err := s.Invoke(th, "PLA-generation",
		map[string]string{"Inlogic": "sh.logic"},
		map[string]string{"Outcell": "sh.pla2"}); err != nil {
		t.Fatal(err)
	}
	s.NewThread("second", "u")
	pre := stateText(t, s)

	cuts := t.TempDir()
	capture := func(name string) string {
		dir := filepath.Join(cuts, name)
		copyDir(t, walDir, filepath.Join(dir, "wal"))
		copyDir(t, snapDir, filepath.Join(dir, "snap"))
		return dir
	}
	capture("begin")
	var steps []string
	saveStep = func(step string) { steps = append(steps, step); capture(step) }
	err := s.SaveSession(snapDir)
	saveStep = func(string) {}
	if err != nil {
		t.Fatal(err)
	}
	post := stateText(t, s)
	if want := "checkpoint write sync rename dirsync prune"; strings.Join(steps, " ") != want {
		t.Fatalf("save steps %v, want %s", steps, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Derived cuts: the checkpoint frame torn (rotation done, record not
	// yet whole) and the temp snapshot torn.
	segs, err := filepath.Glob(filepath.Join(cuts, "checkpoint", "wal", "wal-*.log"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("checkpoint cut has segments %v (%v), want the old ones kept", segs, err)
	}
	sort.Strings(segs)
	data, err := os.ReadFile(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}
	// The live segment holds the checkpoint frame and then the writer's
	// zero-filled remainder: the torn offsets lie inside the frame.
	_, _, frame := wal.Scan(data)
	if frame == 0 {
		t.Fatal("checkpoint cut's last segment holds no frame")
	}
	for _, n := range []int{0, 1, frame / 2, frame - 1} {
		dir := filepath.Join(cuts, fmt.Sprintf("frame-%d", n))
		copyDir(t, filepath.Join(cuts, "checkpoint", "wal"), filepath.Join(dir, "wal"))
		copyDir(t, filepath.Join(cuts, "begin", "snap"), filepath.Join(dir, "snap"))
		if err := os.Truncate(filepath.Join(dir, "wal", filepath.Base(segs[len(segs)-1])), int64(n)); err != nil {
			t.Fatal(err)
		}
	}
	tmp, err := os.ReadFile(filepath.Join(cuts, "write", "snap", snapshotTemp))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, len(tmp) / 2, len(tmp) - 1} {
		dir := filepath.Join(cuts, fmt.Sprintf("temp-%d", n))
		copyDir(t, filepath.Join(cuts, "write", "wal"), filepath.Join(dir, "wal"))
		copyDir(t, filepath.Join(cuts, "write", "snap"), filepath.Join(dir, "snap"))
		if err := os.Truncate(filepath.Join(dir, "snap", snapshotTemp), int64(n)); err != nil {
			t.Fatal(err)
		}
	}

	entries, err := os.ReadDir(cuts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		dir := filepath.Join(cuts, e.Name())
		ccfg := cfg
		ccfg.Durability = &DurabilityConfig{Dir: filepath.Join(dir, "wal"), FsyncEvery: 1}
		r, _, err := Recover(ccfg, filepath.Join(dir, "snap"))
		if err != nil {
			t.Errorf("cut %s: recovery failed: %v", e.Name(), err)
			continue
		}
		if got := stateText(t, r); got != pre && got != post {
			t.Errorf("cut %s: recovered neither the pre-save nor the post-save state:\n%s", e.Name(), got)
		}
		// The recovered system checkpoints on: its next save must not
		// reuse a generation the cut log already holds, or a crash of
		// that save before it prunes would verify the new snapshot
		// against the stale checkpoint record.
		if _, err := r.ImportObject("/after", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3))); err != nil {
			t.Fatal(err)
		}
		want := stateText(t, r)
		unpruned := filepath.Join(dir, "unpruned")
		saveStep = func(step string) {
			if step == "dirsync" {
				copyDir(t, ccfg.Durability.Dir, filepath.Join(unpruned, "wal"))
				copyDir(t, filepath.Join(dir, "snap"), filepath.Join(unpruned, "snap"))
			}
		}
		err = r.SaveSession(filepath.Join(dir, "snap"))
		saveStep = func(string) {}
		if err != nil {
			t.Fatalf("cut %s: save after recovery: %v", e.Name(), err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		for _, d := range []string{dir, unpruned} {
			dcfg := cfg
			dcfg.Durability = &DurabilityConfig{Dir: filepath.Join(d, "wal"), FsyncEvery: 1}
			again, _, err := Recover(dcfg, filepath.Join(d, "snap"))
			if err != nil {
				t.Errorf("cut %s: recovery after a post-recovery save (%s) failed: %v", e.Name(), d, err)
				continue
			}
			if got := stateText(t, again); got != want {
				t.Errorf("cut %s: post-recovery save lost state:\n--- want ---\n%s--- got ---\n%s", e.Name(), want, got)
			}
			if err := again.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("recovered %d checkpoint cuts", len(entries))
}

// TestRecoverRules pins what Recover does with each combination of
// snapshot and log.
func TestRecoverRules(t *testing.T) {
	durable := func() Config {
		return Config{Nodes: 2, Durability: &DurabilityConfig{Dir: t.TempDir()}}
	}

	// Neither a snapshot nor a log record: nothing to recover.
	for _, cfg := range []Config{{Nodes: 2}, durable()} {
		for _, dir := range []string{"", t.TempDir()} {
			if _, _, err := Recover(cfg, dir); err == nil || !strings.Contains(err.Error(), "nothing to recover") {
				t.Errorf("durable=%v dir=%q: Recover error %v, want nothing to recover", cfg.Durability != nil, dir, err)
			}
		}
	}

	// A snapshot with an empty log is adopted, and a fresh checkpoint
	// anchors the log: later work recovers on top of the same snapshot.
	snap := t.TempDir()
	plain := newSystem(t, Config{Nodes: 2})
	durableWorkload(t, plain)
	if err := plain.SaveSession(snap); err != nil {
		t.Fatal(err)
	}
	cfg := durable()
	r, stats, err := Recover(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 0 {
		t.Errorf("adopting replayed %d records from an empty log", stats.Records)
	}
	compareRecovered(t, plain, r)
	if _, err := r.Invoke(r.Activity.Threads()[0], "PLA-generation",
		map[string]string{"Inlogic": "sh.logic"},
		map[string]string{"Outcell": "sh.pla2"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	again, _, err := Recover(cfg, snap)
	if err != nil {
		t.Fatalf("recovering the anchored log: %v", err)
	}
	compareRecovered(t, r, again)
	if err := again.Close(); err != nil {
		t.Fatal(err)
	}

	// A missing snapshot with a log recovers from the log alone.
	logOnly := durable()
	w := newSystem(t, logOnly)
	durableWorkload(t, w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fromLog, _, err := Recover(logOnly, t.TempDir())
	if err != nil {
		t.Fatalf("missing snapshot with a log: %v", err)
	}
	compareRecovered(t, w, fromLog)
	if err := fromLog.Close(); err != nil {
		t.Fatal(err)
	}

	// A non-empty log that never checkpointed the snapshot's generation
	// belongs to another history.
	if _, _, err := Recover(logOnly, snap); err == nil || !strings.Contains(err.Error(), "never checkpointed") {
		t.Errorf("foreign log: Recover error %v, want never checkpointed", err)
	}
}

// TestRecoveryMatrixRebuild is the rebuild dimension of the crash-recovery
// matrix. A durable run derives sh.pla, edits its source and rebuilds it;
// the System is abandoned without Close. The log is cut at every record
// boundary, and each cut must recover a prefix of the run: no version
// and no history record the run did not have. The full log must recover
// the run's state, the rebuilt version's derivation, and a rebuild record
// that replays.
func TestRecoveryMatrixRebuild(t *testing.T) {
	walDir := t.TempDir()
	s := newSystem(t, Config{Nodes: 2, Durability: &DurabilityConfig{Dir: walDir, FsyncEvery: 1, SegmentBytes: 1 << 30}})
	defer s.Close()
	spec := func() {
		if _, err := s.ImportObject("/spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3))); err != nil {
			t.Fatal(err)
		}
	}
	spec()
	th := s.NewThread("Shifter", "chiueh")
	if _, err := s.Invoke(th, "create-logic-description",
		map[string]string{"Spec": "/spec"}, map[string]string{"Outlogic": "sh.logic"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Invoke(th, "PLA-generation",
		map[string]string{"Inlogic": "sh.logic"}, map[string]string{"Outcell": "sh.pla"}); err != nil {
		t.Fatal(err)
	}
	spec()
	fresh, err := s.Rebuild(th, oct.Ref{Name: "sh.pla", Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := stateText(t, s)
	// A cut inside a task still shows its intermediates visible: the task
	// hides them at commit. So a prefix is held to each version's content,
	// not to its visibility.
	contentLines := func(s *System) []string {
		lines := strings.Split(s.Store.VersionMapText(), "\n")
		for i, line := range lines {
			lines[i] = strings.Replace(strings.Replace(line, " visible=false", "", 1), " visible=true", "", 1)
		}
		return lines
	}
	full := map[string]bool{}
	for _, line := range contentLines(s) {
		full[line] = true
	}
	records := map[int]string{}
	for _, rec := range th.Stream().Records() {
		records[rec.ID] = rec.TaskName
	}
	names, err := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	if err != nil || len(names) != 1 {
		t.Fatalf("segments %v (%v), want 1", names, err)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	// The segment is live, so the writer's zero-filled remainder follows
	// its last frame; any nonzero byte after the valid prefix is damage.
	_, ends, valid := wal.Scan(data)
	if len(ends) == 0 || len(bytes.Trim(data[valid:], "\x00")) != 0 {
		t.Fatalf("uninterrupted log invalid: %d records, %d/%d bytes valid", len(ends), valid, len(data))
	}

	for _, cut := range ends {
		dir := filepath.Join(t.TempDir(), "wal")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal-00000001.log"), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, _, err := Recover(Config{Nodes: 2, Durability: &DurabilityConfig{Dir: dir, FsyncEvery: 1}}, "")
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		for _, line := range contentLines(r) {
			if !full[line] && !strings.HasPrefix(line, "total ") {
				t.Errorf("cut %d: phantom version map line %q", cut, line)
			}
		}
		for _, rt := range r.Activity.Threads() {
			for _, rec := range rt.Stream().Records() {
				if records[rec.ID] != rec.TaskName {
					t.Errorf("cut %d: phantom record %d %q", cut, rec.ID, rec.TaskName)
				}
			}
		}
		if cut == valid {
			if got := stateText(t, r); got != want {
				t.Errorf("full log recovers a different state:\n--- want ---\n%s--- got ---\n%s", want, got)
			}
			if _, ok := r.Inference.Graph().Producer(fresh); !ok {
				t.Errorf("recovered ADG has no producer of %v", fresh)
			}
			rt := r.Activity.Threads()[0]
			redo, err := r.Activity.ReplayRecord(rt, rt.Cursor())
			if err != nil {
				t.Fatalf("replaying the recovered rebuild record: %v", err)
			}
			if len(redo.Outputs) != 2 || redo.Outputs[1].Name != "sh.pla" {
				t.Errorf("replayed rebuild outputs %v", redo.Outputs)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("recovered %d cuts (%d bytes)", len(ends), len(data))
}

// TestWALBytesRepeatable: the same session writes the same log bytes on
// every run. Structure_Synthesis discards three intermediates at commit;
// each hide is a log record and takes a store clock tick, so the hides
// must run in a fixed order, not in map iteration order.
func TestWALBytesRepeatable(t *testing.T) {
	var first []byte
	for run := 0; run < 8; run++ {
		dir := t.TempDir()
		s := newSystem(t, Config{Nodes: 2, Durability: &DurabilityConfig{Dir: dir}})
		if _, err := s.ImportObject("/spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4))); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ImportObject("/cmd", oct.TypeText, oct.Text("sim\n")); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Invoke(s.NewThread("t", "d"), "Structure_Synthesis",
			map[string]string{"Incell": "/spec", "Musa_Command": "/cmd"},
			map[string]string{"Outcell": "out.cell", "Cell_Statistics": "out.stats"}); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "wal-00000001.log"))
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = data
		} else if !bytes.Equal(data, first) {
			t.Fatalf("run %d wrote %d log bytes that differ from run 0's %d", run, len(data), len(first))
		}
	}
}
