package papyrus

// The memoization determinism matrix (docs/CACHING.md, EXPERIMENTS.md
// E12). Two contracts, each checked at worker counts {1, 4, 16}:
//
//  1. Cold workload (multi-session fan-out, fresh cache, disjoint input
//     namespaces -> every step misses): the oracle's stats export,
//     the merged trace, and the store version map must be byte-identical
//     with the cache on and off — keying and populating are pure
//     observers of a miss-only run.
//
//  2. Replay workload (fan-out + intermediate chain, cursor move, redo):
//     the version map must be byte-identical with the cache on and off —
//     serving a hit may only change how fast the store reaches a state,
//     never which state — and within each memo setting the full
//     unfiltered exports must be worker-count invariant.
//
// TestMemoCrashRecovery closes the durability loop: a WAL-armed memoized
// run is abandoned without Close, Recover rebuilds a *fresh* cache from
// the recovered history in its re-derive pass, and the post-crash redo
// is all hits with a store identical to the memo-off reference.
// CI runs this file under -race -count=2 (.github/workflows/ci.yml).

import (
	"bytes"
	"fmt"
	"testing"

	"papyrus/internal/activity"
	"papyrus/internal/cad/logic"
	"papyrus/internal/core"
	"papyrus/internal/history"
	"papyrus/internal/memo"
	"papyrus/internal/obs"
	"papyrus/internal/oct"
	"papyrus/internal/oracle"
)

const memoFanoutTpl = `task Fanout4 {A B C D} {O1 O2 O3 O4}
step S1 {A} {O1} {misII -o O1 A}
step S2 {B} {O2} {misII -o O2 B}
step S3 {C} {O3} {misII -o O3 C}
step S4 {D} {O4} {misII -o O4 D}
`

// memoChainTpl threads two intermediates, so replay hits depend on
// instance-suffix normalization and content-addressed version tokens.
const memoChainTpl = `task MemoChain {A} {Out}
step {1 Build} {A} {m1} {bdsyn -o m1 A}
step {2 Optimize} {m1} {m2} {misII -o m2 m1}
step {3 Finish} {m2} {Out} {misII -o Out m2}
`

// runMemoColdCell executes 6 disjoint fan-out sessions and returns the
// deterministic exports (the oracle's stats export, version map, merged
// trace).
func runMemoColdCell(t *testing.T, workers int, withMemo bool) (stats, versions, trace string) {
	t.Helper()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer()
	cfg := core.Config{
		Workers:          workers,
		DisableInference: true,
		Metrics:          reg,
		Trace:            tracer,
		ExtraTemplates:   map[string]string{"Fanout4": memoFanoutTpl},
	}
	if withMemo {
		cfg.Memo = memo.NewCache()
	}
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 6
	specs := make([]core.SessionSpec, sessions)
	for i := 0; i < sessions; i++ {
		i := i
		specs[i] = core.SessionSpec{
			Name: fmt.Sprintf("designer%d", i),
			Run: func(s *core.Session) error {
				inputs := map[string]string{}
				for _, formal := range []string{"A", "B", "C", "D"} {
					name := fmt.Sprintf("/s%d/%s", i, formal)
					if _, err := sys.ImportObject(name, oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4))); err != nil {
						return err
					}
					inputs[formal] = name
				}
				outputs := map[string]string{}
				for j := 1; j <= 4; j++ {
					outputs[fmt.Sprintf("O%d", j)] = fmt.Sprintf("/s%d/out%d", i, j)
				}
				th := s.Activity.NewThread(s.Name, "test")
				_, err := s.Invoke(th, "Fanout4", inputs, outputs)
				return err
			},
		}
	}
	if _, err := sys.RunSessions(specs); err != nil {
		t.Fatal(err)
	}
	var traceBuf bytes.Buffer
	if err := tracer.WriteChromeTrace(&traceBuf); err != nil {
		t.Fatal(err)
	}
	if withMemo {
		// Sanity: the workload really was all-miss with every step cached.
		if got := reg.Counter("memo.hit"); got != 0 {
			t.Fatalf("cold cell workers=%d: %d unexpected hits", workers, got)
		}
		if got := reg.Counter("memo.miss"); got != 4*sessions {
			t.Fatalf("cold cell workers=%d: memo.miss = %d, want %d", workers, got, 4*sessions)
		}
		if got := cfg.Memo.Len(); got != 4*sessions {
			t.Fatalf("cold cell workers=%d: cache holds %d entries, want %d", workers, got, 4*sessions)
		}
	}
	return oracle.StatsText(reg), sys.Store.VersionMapText(), traceBuf.String()
}

func TestMemoMatrixColdRunInvariant(t *testing.T) {
	baseStats, baseVersions, baseTrace := runMemoColdCell(t, 1, false)
	for _, workers := range []int{1, 4, 16} {
		for _, withMemo := range []bool{false, true} {
			if workers == 1 && !withMemo {
				continue
			}
			stats, versions, trace := runMemoColdCell(t, workers, withMemo)
			if stats != baseStats {
				t.Errorf("workers=%d memo=%v: filtered stats diverge:\n%s\nvs\n%s", workers, withMemo, stats, baseStats)
			}
			if versions != baseVersions {
				t.Errorf("workers=%d memo=%v: version map diverges:\n%s\nvs\n%s", workers, withMemo, versions, baseVersions)
			}
			if trace != baseTrace {
				t.Errorf("workers=%d memo=%v: merged trace diverges", workers, withMemo)
			}
		}
	}
}

// replayWorkload runs Fanout4 plus the intermediate chain in one thread,
// moves the cursor back to the initial state, and redoes both records.
// Returns the system and the full stats export: memo.* included, so this
// within-setting check is stricter than the oracle's rule.
func replayWorkload(t *testing.T, workers int, withMemo bool) (*core.System, string) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := core.Config{
		Nodes: 4, Workers: workers, DisableInference: true, Metrics: reg,
		ExtraTemplates: map[string]string{"Fanout4": memoFanoutTpl, "MemoChain": memoChainTpl},
	}
	if withMemo {
		cfg.Memo = memo.NewCache()
	}
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	th, recs := seedAndRunReplayThread(t, sys)
	if err := th.MoveCursor(nil); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := sys.Activity.ReplayRecord(th, rec); err != nil {
			t.Fatal(err)
		}
	}
	if withMemo {
		if hits := reg.Counter("memo.hit"); hits != 7 {
			t.Fatalf("workers=%d: redo produced %d hits, want 7 (all steps)", workers, hits)
		}
	}
	var b bytes.Buffer
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return sys, b.String()
}

// seedAndRunReplayThread imports the shared inputs and runs both replay
// tasks once, returning the thread and its two records.
func seedAndRunReplayThread(t *testing.T, sys *core.System) (*activity.Thread, []*history.Record) {
	t.Helper()
	for _, n := range []string{"a", "b", "c", "d"} {
		if _, err := sys.ImportObject("/replay/"+n, oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4))); err != nil {
			t.Fatal(err)
		}
	}
	th := sys.NewThread("replay", "test")
	recFan, err := sys.Invoke(th, "Fanout4",
		map[string]string{"A": "/replay/a", "B": "/replay/b", "C": "/replay/c", "D": "/replay/d"},
		map[string]string{"O1": "o1", "O2": "o2", "O3": "o3", "O4": "o4"})
	if err != nil {
		t.Fatal(err)
	}
	recChain, err := sys.Invoke(th, "MemoChain",
		map[string]string{"A": "/replay/a"}, map[string]string{"Out": "chain.out"})
	if err != nil {
		t.Fatal(err)
	}
	return th, []*history.Record{recFan, recChain}
}

func TestMemoMatrixReplayInvariant(t *testing.T) {
	var wantVersions string
	for _, withMemo := range []bool{false, true} {
		var wantStats string
		for _, workers := range []int{1, 4, 16} {
			sys, stats := replayWorkload(t, workers, withMemo)
			versions := sys.Store.VersionMapText()
			// The version map is the cross-setting contract: hit-served
			// replay must land the store in the byte-identical state.
			if wantVersions == "" {
				wantVersions = versions
			} else if versions != wantVersions {
				t.Errorf("workers=%d memo=%v: version map diverges:\n%s\nvs\n%s",
					workers, withMemo, versions, wantVersions)
			}
			// Full exports are only comparable within a memo setting (the
			// hit path legitimately skips sprite issue), but there they
			// must be worker-count invariant.
			if wantStats == "" {
				wantStats = stats
			} else if stats != wantStats {
				t.Errorf("workers=%d memo=%v: stats diverge across worker counts:\n%s\nvs\n%s",
					workers, withMemo, stats, wantStats)
			}
		}
	}
}

// reclaimRedo seeds the replay workload, erases the whole thread back to
// its initial point, sweeps the hidden versions away with the reclaimer,
// and then re-invokes both tasks. With the cache armed, the sweep must
// invalidate every entry keyed by a reclaimed version — the redo may not
// serve a single hit whose outputs no longer exist — and the final store
// must be byte-identical to the memo-off flow.
func reclaimRedo(t *testing.T, workers int, withMemo bool) string {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := core.Config{
		Nodes: 4, Workers: workers, DisableInference: true, Metrics: reg,
		ExtraTemplates: map[string]string{"Fanout4": memoFanoutTpl, "MemoChain": memoChainTpl},
	}
	if withMemo {
		cfg.Memo = memo.NewCache()
	}
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	th, _ := seedAndRunReplayThread(t, sys)
	if withMemo && cfg.Memo.Len() != 7 {
		t.Fatalf("workers=%d: cache holds %d entries after seeding, want 7", workers, cfg.Memo.Len())
	}
	if _, err := th.MoveCursorErasing(nil); err != nil {
		t.Fatal(err)
	}
	st, err := sys.Reclaimer.Sweep(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Versions == 0 {
		t.Fatalf("workers=%d: sweep reclaimed nothing — the erase hid no versions", workers)
	}
	if withMemo {
		if got := cfg.Memo.Len(); got != 0 {
			t.Errorf("workers=%d: %d cache entries survived the sweep (invalidated %d)",
				workers, got, st.MemoInvalidated)
		}
	} else if st.MemoInvalidated != 0 {
		t.Errorf("workers=%d: memo-off sweep reported %d invalidations", workers, st.MemoInvalidated)
	}
	// Redo with fresh invocations: stale entries would hit here (the keys
	// only cover inputs, which are untouched) and resurrect output refs
	// the sweep just deleted.
	if _, err := sys.Invoke(th, "Fanout4",
		map[string]string{"A": "/replay/a", "B": "/replay/b", "C": "/replay/c", "D": "/replay/d"},
		map[string]string{"O1": "o1", "O2": "o2", "O3": "o3", "O4": "o4"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Invoke(th, "MemoChain",
		map[string]string{"A": "/replay/a"}, map[string]string{"Out": "chain.out"}); err != nil {
		t.Fatal(err)
	}
	if withMemo {
		if hits := reg.Counter("memo.hit"); hits != 0 {
			t.Errorf("workers=%d: post-reclaim redo served %d stale hits", workers, hits)
		}
		if misses := reg.Counter("memo.miss"); misses != 14 {
			t.Errorf("workers=%d: memo.miss = %d, want 14 (7 seed + 7 redo)", workers, misses)
		}
	}
	return sys.Store.VersionMapText()
}

// TestMemoReclaimCoherence is the reclaim dimension of the memo matrix:
// physically reclaiming versions must invalidate every cache entry keyed
// by them, so a redo over reclaimed ground re-executes instead of serving
// hits that reference deleted versions (docs/RECLAIM.md). Checked at two
// worker counts.
func TestMemoReclaimCoherence(t *testing.T) {
	var want string
	for _, workers := range []int{1, 4} {
		for _, withMemo := range []bool{false, true} {
			got := reclaimRedo(t, workers, withMemo)
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("workers=%d memo=%v: version map diverges:\n--- want ---\n%s--- got ---\n%s",
					workers, withMemo, want, got)
			}
		}
	}
}

// crashRedo runs the replay workload under write-ahead logging, abandons
// the system without Close (the crash — any populated cache dies with the
// process), recovers with the same config shape, moves the cursor back,
// redoes every task record, and returns the final store map and system.
func crashRedo(t *testing.T, withMemo bool) (string, *core.System) {
	t.Helper()
	walDir := t.TempDir()
	mkConfig := func() core.Config {
		cfg := core.Config{
			Nodes: 4, DisableInference: true,
			Metrics:        obs.NewRegistry(),
			ExtraTemplates: map[string]string{"Fanout4": memoFanoutTpl, "MemoChain": memoChainTpl},
			Durability:     &core.DurabilityConfig{Dir: walDir, FsyncEvery: 1},
		}
		if withMemo {
			cfg.Memo = memo.NewCache()
		}
		return cfg
	}
	crashed, err := core.New(mkConfig())
	if err != nil {
		t.Fatal(err)
	}
	seedAndRunReplayThread(t, crashed)
	// Crash: no Close; the log keeps its open tail and the cache is lost.

	sys, _, err := core.Recover(mkConfig(), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	})
	threads := sys.Activity.Threads()
	if len(threads) != 1 {
		t.Fatalf("recovered %d threads, want 1", len(threads))
	}
	th := threads[0]
	if err := th.MoveCursor(nil); err != nil {
		t.Fatal(err)
	}
	for _, rec := range th.SortedRecords() {
		if len(rec.Steps) == 0 {
			continue // import records have nothing to replay
		}
		if _, err := sys.Activity.ReplayRecord(th, rec); err != nil {
			t.Fatal(err)
		}
	}
	return sys.Store.VersionMapText(), sys
}

// TestMemoCrashRecovery: crash after a memoized WAL-armed run (no Close),
// recover with a fresh cache, and verify the re-warmed cache makes the
// post-crash redo all-hits with a store byte-identical to the memo-off
// flow through the identical crash-and-recover path.
func TestMemoCrashRecovery(t *testing.T) {
	// The subtest is named for the map version index it runs on.
	t.Run("map", func(t *testing.T) {
		wantVersions, _ := crashRedo(t, false)
		gotVersions, sys := crashRedo(t, true)

		// Recovery rebuilt the fresh cache from the recovered history alone.
		if warmed := sys.Metrics.Counter("memo.warm"); warmed != 7 {
			t.Fatalf("memo.warm = %d, want 7 (4 fan-out + 3 chain steps)", warmed)
		}
		if hits := sys.Metrics.Counter("memo.hit"); hits != 7 {
			t.Errorf("post-crash redo produced %d hits, want 7", hits)
		}
		if misses := sys.Metrics.Counter("memo.miss"); misses != 0 {
			t.Errorf("post-crash redo produced %d misses, want 0", misses)
		}
		if gotVersions != wantVersions {
			t.Errorf("post-crash redo store differs from the memo-off reference:\n--- want ---\n%s--- got ---\n%s",
				wantVersions, gotVersions)
		}
	})
}
