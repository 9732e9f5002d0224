package papyrus

// The crash-recovery matrix: the E10 fault workload runs with write-ahead
// logging armed, then the log is cut at every record boundary and at
// three offsets inside every frame — simulating a writer killed at any
// byte — and each cut must recover to a state that is a prefix of the
// uninterrupted run: no phantom versions, no duplicates, no per-name
// version holes. The companion property test proves snapshot-at-k plus
// log replay reproduces the in-memory version map for every prefix k,
// byte-identically across worker counts. CI runs this file under -race
// -count=2 (.github/workflows/ci.yml, docs/DURABILITY.md).

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"papyrus/internal/cad"
	"papyrus/internal/cad/logic"
	"papyrus/internal/core"
	"papyrus/internal/fault"
	"papyrus/internal/obs"
	"papyrus/internal/oct"
	"papyrus/internal/task"
	"papyrus/internal/wal"
	"papyrus/internal/workload"
)

// recoverStore rebuilds a store alone from a store snapshot (nil for
// none) plus the WAL tail in walDir, through the primitives core.Recover
// composes: Restore, then wal.Replay over ReplayWALRecord.
func recoverStore(snapshot io.Reader, walDir string) (*oct.Store, wal.ReplayStats, error) {
	s := oct.NewStore()
	if snapshot != nil {
		if err := s.Restore(snapshot); err != nil {
			return nil, wal.ReplayStats{}, err
		}
	}
	stats, err := wal.Replay(walDir, func(r wal.Record) error {
		_, err := s.ReplayWALRecord(r)
		return err
	})
	if err != nil {
		return nil, stats, err
	}
	return s, stats, nil
}

// recoveryPlan is the full E10 combination: a node crash, transient step
// failures, and migration stalls, all while every commit is logged.
const recoveryPlan = "seed=7,crash=1@40-600,stepfail=*:0.5:2,stall=0.5:9"

// durableFaultWorkload is faultWorkload with write-ahead logging armed:
// strict fsync-per-append and a segment size large enough that the whole
// run lands in one segment file (the matrix cuts it at arbitrary bytes).
func durableFaultWorkload(t *testing.T, planText, walDir string, workers int) *core.System {
	t.Helper()
	var plan *fault.Plan
	if planText != "" {
		p, err := fault.ParsePlan(planText)
		if err != nil {
			t.Fatal(err)
		}
		plan = &p
	}
	sys, err := core.New(core.Config{
		Nodes:          4,
		ReMigrateEvery: 20,
		Workers:        workers,
		Metrics:        obs.NewRegistry(),
		ExtraTemplates: map[string]string{"Crashy": crashyTemplate},
		Fault:          plan,
		Retry:          task.RetryPolicy{MaxAttempts: 4, BackoffBase: 8},
		Durability: &core.DurabilityConfig{
			Dir: walDir, FsyncEvery: 1, SegmentBytes: 1 << 30,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Suite.Register(&cad.Tool{
		Name: "burn", Brief: "fixed-cost test tool", Man: "fixed-cost test tool",
		TSD:  cad.TSD{Writes: oct.TypeLogic},
		Cost: func(in []*oct.Object, opts []string) float64 { return 100 },
		Run: func(ctx *cad.Ctx) error {
			return ctx.PutOutput(0, oct.TypeLogic, ctx.Inputs[0].Data)
		},
	})
	inputs := map[string]oct.Ref{}
	for _, n := range []string{"A", "B", "C", "D"} {
		ref, err := sys.ImportObject("/spec/"+n, oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)))
		if err != nil {
			t.Fatal(err)
		}
		inputs[n] = ref
	}
	rec, err := sys.Tasks.RunTask(task.Invocation{
		Task:   "Crashy",
		Inputs: inputs,
		Outputs: map[string]string{
			"O1": "o1", "O2": "o2", "O3": "o3", "O4": "o4",
		},
	})
	if err != nil {
		t.Fatalf("plan %q: task did not survive: %v", planText, err)
	}
	if len(rec.Steps) != 4 {
		t.Fatalf("plan %q: %d steps recorded, want 4", planText, len(rec.Steps))
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// readSingleSegment returns the raw bytes of the run's one log segment.
func readSingleSegment(t *testing.T, walDir string) []byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("%d segments, want 1 (raise SegmentBytes)", len(names))
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// assertPrefixState asserts the recovered store is a consistent prefix of
// the uninterrupted run: every recovered version existed in the full run
// (no phantoms, no divergent content) and per-name versions are
// contiguous from 1 (no holes, no duplicates).
func assertPrefixState(t *testing.T, cut int, full map[string]bool, s *oct.Store) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSuffix(s.VersionMapText(), "\n"), "\n") {
		// The trailing "total versions=..." summary legitimately shrinks
		// with the prefix; every per-version line must exist in the full run.
		if line == "" || strings.HasPrefix(line, "total ") {
			continue
		}
		if !full[line] {
			t.Errorf("cut %d: phantom version map line %q", cut, line)
		}
	}
	for _, name := range s.Names() {
		latest := s.LatestVersion(name)
		seen := map[int]bool{}
		for _, v := range s.Versions(name) {
			if seen[v.Version] {
				t.Errorf("cut %d: duplicate version %s@%d", cut, name, v.Version)
			}
			seen[v.Version] = true
		}
		for v := 1; v <= latest; v++ {
			if !seen[v] {
				t.Errorf("cut %d: version hole %s@%d (latest %d)", cut, name, v, latest)
			}
		}
	}
}

// TestRecoveryMatrixKillAtEveryByte is the acceptance scenario: the E10
// workload's log is truncated at every record boundary and at three
// offsets inside every frame, and every cut must recover cleanly, with
// and without the zero-filled remainder a preallocated segment keeps.
func TestRecoveryMatrixKillAtEveryByte(t *testing.T) {
	walDir := t.TempDir()
	sys := durableFaultWorkload(t, recoveryPlan, walDir, 0)
	fullMap := sys.Store.VersionMapText()
	full := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(fullMap, "\n"), "\n") {
		full[line] = true
	}

	data := readSingleSegment(t, walDir)
	recs, ends, valid := wal.Scan(data)
	if valid != len(data) || len(recs) == 0 {
		t.Fatalf("uninterrupted log invalid: %d records, %d/%d bytes valid", len(recs), valid, len(data))
	}

	// Every record boundary (including the empty log), plus three
	// mid-frame offsets per record: just inside the frame, the middle,
	// and one byte short of the end.
	cuts := map[int]bool{0: true}
	prev := 0
	for _, end := range ends {
		cuts[end] = true
		for _, mid := range []int{prev + 1, (prev + end) / 2, end - 1} {
			if mid > prev && mid < end {
				cuts[mid] = true
			}
		}
		prev = end
	}

	// A crash of a preallocated live segment leaves the cut followed by
	// the writer's zero-filled remainder: each cut is also recovered with
	// a 64 KiB zero tail, which must reach the bare cut's version map and
	// count the same torn bytes — none at a record boundary.
	zeroTail := make([]byte, 64<<10)
	boundary := map[int]bool{0: true}
	for _, end := range ends {
		boundary[end] = true
	}
	scratch := t.TempDir()
	for cut := range cuts {
		dir := filepath.Join(scratch, fmt.Sprintf("cut-%06d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal-00000001.log"), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, stats, err := recoverStore(nil, dir)
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		assertPrefixState(t, cut, full, s)
		if cut == len(data) {
			if got := s.VersionMapText(); got != fullMap {
				t.Errorf("full log recovery differs from in-memory state:\n--- want ---\n%s--- got ---\n%s",
					fullMap, got)
			}
			if stats.Truncated != 0 {
				t.Errorf("full log reported %d truncated bytes", stats.Truncated)
			}
		}

		tailed := append(append([]byte(nil), data[:cut]...), zeroTail...)
		if err := os.WriteFile(filepath.Join(dir, "wal-00000001.log"), tailed, 0o644); err != nil {
			t.Fatal(err)
		}
		zs, zstats, err := recoverStore(nil, dir)
		if err != nil {
			t.Fatalf("cut %d + zero tail: recovery failed: %v", cut, err)
		}
		if got, want := zs.VersionMapText(), s.VersionMapText(); got != want {
			t.Errorf("cut %d + zero tail: version map differs from the bare cut:\n--- bare ---\n%s--- tailed ---\n%s",
				cut, want, got)
		}
		if zstats.Truncated != stats.Truncated {
			t.Errorf("cut %d + zero tail: %d truncated bytes, bare cut %d", cut, zstats.Truncated, stats.Truncated)
		}
		if boundary[cut] && zstats.Truncated != 0 {
			t.Errorf("cut %d (record boundary) + zero tail: %d truncated bytes, want 0", cut, zstats.Truncated)
		}
	}
	t.Logf("recovered %d cuts, bare and zero-tailed, over %d records (%d bytes)", len(cuts), len(recs), len(data))
}

// TestRecoveryMatrixWithReclaim is the reclaim dimension of the matrix:
// the deep-rework workload runs with sweeps at every round barrier and a
// non-zero grace period, so the log interleaves commit, remove, and
// reclaim records. The prefix-of-full-run assertion does not apply —
// reclaimed versions legitimately vanish from later states — so each cut
// is held to the contracts that survive physical deletion: disk recovery
// converges byte-for-byte with a direct replay of the cut's valid
// records, re-applying the same records is a no-op (reclaim replays
// idempotently), no per-name duplicates ever appear, and the full log
// recovers the exact pre-close state.
func TestRecoveryMatrixWithReclaim(t *testing.T) {
	walDir := t.TempDir()
	w, err := workload.Generate(workload.Spec{Profile: "rework", Seed: 7, Sessions: 2, Depth: 16, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(w.CoreConfig(core.Config{
		Nodes:            4,
		Workers:          4,
		DisableInference: true,
		Metrics:          obs.NewRegistry(),
		ReclaimGrace:     2,
		Durability: &core.DurabilityConfig{
			Dir: walDir, FsyncEvery: 1, SegmentBytes: 1 << 30,
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.RunInProcess(sys, w, workload.Options{ForceRounds: true, SweepEveryRounds: 1}); err != nil {
		t.Fatal(err)
	}
	fullMap := sys.Store.VersionMapText()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	data := readSingleSegment(t, walDir)
	recs, ends, valid := wal.Scan(data)
	if valid != len(data) || len(recs) == 0 {
		t.Fatalf("uninterrupted log invalid: %d records, %d/%d bytes valid", len(recs), valid, len(data))
	}
	reclaims := 0
	for _, r := range recs {
		if r.Type == wal.RecReclaim {
			reclaims++
		}
	}
	if reclaims == 0 {
		t.Fatal("workload produced no reclaim records — the dimension is not exercised")
	}

	cuts := map[int]bool{0: true}
	prev := 0
	for _, end := range ends {
		cuts[end] = true
		for _, mid := range []int{prev + 1, (prev + end) / 2, end - 1} {
			if mid > prev && mid < end {
				cuts[mid] = true
			}
		}
		prev = end
	}

	scratch := t.TempDir()
	for cut := range cuts {
		dir := filepath.Join(scratch, fmt.Sprintf("cut-%06d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal-00000001.log"), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		prefix, _, _ := wal.Scan(data[:cut])
		s, _, err := recoverStore(nil, dir)
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		recovered := s.VersionMapText()
		// Convergence: disk recovery equals a direct replay of the cut's
		// valid records into a fresh store.
		ref := oct.NewStore()
		for _, r := range prefix {
			if _, err := ref.ReplayWALRecord(r); err != nil {
				t.Fatalf("cut %d: direct replay failed: %v", cut, err)
			}
		}
		if refMap := ref.VersionMapText(); refMap != recovered {
			t.Errorf("cut %d: recovery diverges from direct replay:\n--- replay ---\n%s--- recovered ---\n%s",
				cut, refMap, recovered)
		}
		// Idempotence: re-applying the same records (the crash-retry
		// shape) must not change the state — reclaim deletes included.
		for _, r := range prefix {
			if _, err := s.ReplayWALRecord(r); err != nil {
				t.Fatalf("cut %d: re-replay failed: %v", cut, err)
			}
		}
		if again := s.VersionMapText(); again != recovered {
			t.Errorf("cut %d: re-applying the prefix changed the state:\n--- first ---\n%s--- second ---\n%s",
				cut, recovered, again)
		}
		for _, name := range s.Names() {
			seen := map[int]bool{}
			for _, v := range s.Versions(name) {
				if seen[v.Version] {
					t.Errorf("cut %d: duplicate version %s@%d", cut, name, v.Version)
				}
				seen[v.Version] = true
			}
		}
		if cut == len(data) && recovered != fullMap {
			t.Errorf("full log recovery differs from pre-close state:\n--- want ---\n%s--- got ---\n%s",
				fullMap, recovered)
		}
	}
	t.Logf("recovered %d cuts over %d records (%d reclaim records, %d bytes)",
		len(cuts), len(recs), reclaims, len(data))
}

// TestSnapshotPlusWALMatchesMemory is the compaction property: for every
// prefix length k, a snapshot of the first k records plus a replay of the
// whole log reproduces the uninterrupted run's version map byte for byte
// — overlapping records are skipped idempotently, missing ones are
// applied. The workload runs at several worker counts; the map (and so
// the property's fixed point) must not depend on the pool size.
func TestSnapshotPlusWALMatchesMemory(t *testing.T) {
	var wantMap string
	for _, workers := range []int{1, 8} {
		walDir := t.TempDir()
		sys := durableFaultWorkload(t, recoveryPlan, walDir, workers)
		fullMap := sys.Store.VersionMapText()
		if wantMap == "" {
			wantMap = fullMap
		} else if fullMap != wantMap {
			t.Fatalf("workers=%d: version map diverged from workers=1:\n--- want ---\n%s--- got ---\n%s",
				workers, wantMap, fullMap)
		}

		data := readSingleSegment(t, walDir)
		recs, _, valid := wal.Scan(data)
		if valid != len(data) {
			t.Fatalf("workers=%d: log has invalid tail", workers)
		}
		for k := 0; k <= len(recs); k++ {
			base := oct.NewStore()
			for _, r := range recs[:k] {
				if _, err := base.ReplayWALRecord(r); err != nil {
					t.Fatalf("workers=%d k=%d: building snapshot: %v", workers, k, err)
				}
			}
			var snap bytes.Buffer
			if err := base.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			got, _, err := recoverStore(&snap, walDir)
			if err != nil {
				t.Fatalf("workers=%d k=%d: recovery failed: %v", workers, k, err)
			}
			if gotMap := got.VersionMapText(); gotMap != fullMap {
				t.Errorf("workers=%d k=%d: snapshot + replay differs from memory:\n--- want ---\n%s--- got ---\n%s",
					workers, k, fullMap, gotMap)
			}
		}
	}
}
