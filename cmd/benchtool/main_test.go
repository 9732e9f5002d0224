package main

// The experiment functions are exercised directly, with the flag-bound
// globals set to small matrices, so the tables CI regenerates are also
// covered by `go test`. Every experiment is deterministic (virtual time,
// seeded workloads); a log.Fatal inside one — a fingerprint divergence —
// fails the test binary, and a tripped gate lands in benchGateErrs,
// which the tests check.

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQualitativeExperiments(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"speedup", expSpeedup},
		{"remigration", expReMigration},
		{"scopecache", expScopeCache},
		{"storage", expStorage},
		{"rework", expRework},
		{"viewport", expViewport},
		{"inference", expInference},
		{"abort", expAbort},
		{"rebuild", expRebuild},
		{"faults", expFaults},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run() })
	}
}

func TestReplayExperiment(t *testing.T) {
	replayWorkers = "1,2"
	outDir = t.TempDir()
	benchGateErrs = nil
	defer func() { benchGateErrs = nil }()

	expReplay()

	if len(benchGateErrs) != 0 {
		t.Fatalf("replay gate tripped: %v", benchGateErrs)
	}

	raw, err := os.ReadFile(filepath.Join(outDir, "BENCH_replay.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []replayRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4 (2 workers x memo off/on)", len(rows))
	}
	for _, row := range rows {
		if row.Memo && row.ReplayTicks != 0 {
			t.Errorf("workers=%d memo=on: replay cost %d ticks, want 0", row.Workers, row.ReplayTicks)
		}
		if !row.Memo && row.ReplayTicks != row.FirstTicks {
			t.Errorf("workers=%d memo=off: replay %d != first run %d", row.Workers, row.ReplayTicks, row.FirstTicks)
		}
	}
}

// TestReclaimExperiment drives the full E17 path at a small size: the
// deep-rework soak in all four cells (swept, swept repeat, unswept,
// WAL-armed with crash recovery). The repeat, modulo-reclaimed,
// step-identity, and recovery gates all log.Fatal inside expReclaim on
// divergence — the same check CI's reclaim-soak job performs at full
// depth. The growth gate stays off: it runs only at depth >= 128,
// where both soak halves contain kept chains (docs/RECLAIM.md).
func TestReclaimExperiment(t *testing.T) {
	dir := t.TempDir()
	cellSpec.Seed, cellSpec.Sessions, cellSpec.Fanout, rcDepth = 11, 2, 2, 8
	rcWorkers, rcSweep, rcBudget = 2, 1, 0
	outDir = dir
	summaryPath = filepath.Join(dir, "summary.md")
	benchGateErrs = nil
	defer func() { summaryPath, benchGateErrs = "", nil }()

	expReclaim()

	if len(benchGateErrs) != 0 {
		t.Fatalf("reclaim gates tripped below the growth-gate depth: %v", benchGateErrs)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_reclaim.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []reclaimRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	// 3 modes (the repeat run is a gate, not a row).
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	for _, row := range rows {
		if row.Steps <= 0 || row.WrittenBytes <= 0 || row.VersionSHA == "" || row.VisibleSHA == "" {
			t.Errorf("%s: empty cell: %+v", row.Mode, row)
		}
		switch row.Mode {
		case "swept", "durable":
			// The rework profile erases chains every round; barrier
			// sweeps with grace 0 must physically delete them.
			if row.ReclaimedVersions <= 0 || row.ReclaimedBytes <= 0 {
				t.Errorf("%s: sweeps reclaimed nothing: %+v", row.Mode, row)
			}
			if row.Ratio >= 1 {
				t.Errorf("%s: live/written ratio %.4f not reduced", row.Mode, row.Ratio)
			}
			if row.Mode == "durable" && !row.Recovered {
				t.Error("durable cell did not record recovery")
			}
			if row.StatsSHA == "" || row.StatsSHA != rows[0].StatsSHA {
				t.Errorf("%s: stats fingerprint %q, swept %q", row.Mode, row.StatsSHA, rows[0].StatsSHA)
			}
		case "unswept":
			if row.ReclaimedVersions != 0 {
				t.Errorf("unswept: reclaimed %d versions with sweeps off", row.ReclaimedVersions)
			}
		default:
			t.Errorf("unknown mode %q", row.Mode)
		}
		// expReclaim already fataled on any visible-map divergence;
		// re-assert the modulo-reclaimed contract on the emitted rows.
		if row.VisibleSHA != rows[0].VisibleSHA {
			t.Errorf("%s: visible fingerprint diverged across modes", row.Mode)
		}
	}
	md, err := os.ReadFile(summaryPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "### E17 reclaim") {
		t.Errorf("summary missing E17 section:\n%s", md)
	}
}

// TestUsage pins the flag set: every experiment -exp advertises is one
// it runs, and the flags folded into -out or into constants, or deleted
// with the wall-clock experiments that moved to internal/oracle tests,
// stay gone.
func TestUsage(t *testing.T) {
	_, list, _ := strings.Cut(flag.Lookup("exp").Usage, ": ")
	for _, name := range strings.Split(list, "|") {
		found := name == "all"
		for _, e := range experiments {
			found = found || e.name == name
		}
		if !found {
			t.Errorf("-exp advertises %s, which does not run", name)
		}
	}
	for _, name := range []string{"benchmem", "allocmax", "scaleout", "replayout",
		"serveout", "wlout", "rcout", "replaymin", "rcgrowth", "rcmaxratio",
		"scalesessions", "scaleworkers", "scalelatency", "scalemin", "scaleregress",
		"scalewal", "scalefsync", "memo",
		"servesessions", "serveshards", "serveworkers", "servetenants", "serverate",
		"serveburst", "servequeue", "servemin", "servep99",
		"wlprofiles", "wldepth", "wlworkers", "wlmin"} {
		if flag.Lookup(name) != nil {
			t.Errorf("-%s is registered; it was removed", name)
		}
	}
}

// TestGateFailRecords pins the deferred-exit contract: gateFail records
// and returns, so writers registered after the exit check still flush.
func TestGateFailRecords(t *testing.T) {
	benchGateErrs = nil
	defer func() { benchGateErrs = nil }()
	gateFail("synthetic gate: %d < %d", 1, 2)
	if len(benchGateErrs) != 1 || !strings.Contains(benchGateErrs[0], "synthetic gate: 1 < 2") {
		t.Fatalf("benchGateErrs = %v", benchGateErrs)
	}
	// appendSummary with no -summary file is a no-op, not an error.
	summaryPath = ""
	appendSummary("### nothing\n")
}

func TestParseIntList(t *testing.T) {
	got := parseIntList(" 1, 8 ,64,")
	want := []int{1, 8, 64}
	if len(got) != len(want) {
		t.Fatalf("parseIntList: %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseIntList: %v, want %v", got, want)
		}
	}
}

func TestFanTemplate(t *testing.T) {
	tpl := fanTemplate(3)
	if !strings.Contains(tpl, "task Fan {A} {D0 D1 D2 }") ||
		!strings.Contains(tpl, "step S3 {net} {D2} {misII -o D2 net}") {
		t.Errorf("fanTemplate(3):\n%s", tpl)
	}
}
