package main

// The experiment functions are exercised directly, with the flag-bound
// globals set to small matrices, so the tables CI regenerates are also
// covered by `go test`. Every experiment is deterministic (virtual time,
// seeded workloads); a log.Fatal inside one — a gate failure or a
// fingerprint divergence — fails the test binary, which is exactly the
// check CI's bench-smoke job performs at full size.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
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

func TestScaleExperiment(t *testing.T) {
	dir := t.TempDir()
	scaleSessions, scaleWorkers = "2", "1,2"
	scaleLatency, scaleMin = 100*time.Microsecond, 0
	outDir = dir
	summaryPath = filepath.Join(dir, "summary.md")
	benchGateErrs = nil
	defer func() { summaryPath, benchGateErrs = "", nil }()

	for _, memo := range []bool{false, true} {
		scaleMemo = memo
		expScale()
		raw, err := os.ReadFile(filepath.Join(dir, "BENCH_scale.json"))
		if err != nil {
			t.Fatal(err)
		}
		var rows []scaleRow
		if err := json.Unmarshal(raw, &rows); err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("memo=%v: %d rows, want 2", memo, len(rows))
		}
		// expScale already fataled on any intra-run divergence; across the
		// memo settings the filtered fingerprints must agree too.
		if rows[0].StatsSHA == "" || rows[0].VersionSHA == "" {
			t.Fatalf("memo=%v: empty fingerprints: %+v", memo, rows[0])
		}
	}
	if len(benchGateErrs) != 0 {
		t.Fatalf("gates tripped with no thresholds set: %v", benchGateErrs)
	}
	md, err := os.ReadFile(summaryPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "### E11 scale") {
		t.Errorf("summary table missing expected sections:\n%s", md)
	}
}

// TestScaleGatesDefer exercises the deferred-gate path: a regression
// floor above perfect scaling must record a violation without aborting
// the run (profiles/summaries flush first; main exits non-zero
// afterwards).
func TestScaleGatesDefer(t *testing.T) {
	scaleSessions, scaleWorkers = "2", "1,2"
	scaleLatency, scaleMin = 100*time.Microsecond, 0
	outDir = t.TempDir()
	scaleMemo = false
	scaleRegress = 1000.0 // impossible: demands 1000x scaling from 1->2 workers
	benchGateErrs = nil
	defer func() { scaleRegress, benchGateErrs = 0, nil }()

	expScale() // must return, not exit
	if len(benchGateErrs) != 1 {
		t.Fatalf("want 1 recorded gate violation (regression), got %v", benchGateErrs)
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

// TestServeExperiment drives the full E13 path at a small size: an
// in-process papyrusd on a loopback listener, concurrent wire sessions,
// latency quantiles, gates, and the summary table.
func TestServeExperiment(t *testing.T) {
	dir := t.TempDir()
	serveSessions, serveShards, serveWorkers, serveTenants = 8, 2, 4, 4
	serveRate, serveBurst, serveQueue = 0, 0, 256
	serveMin, serveP99 = 1, 60000 // loose thresholds: exercise the gate code, catch only collapse
	outDir = dir
	summaryPath = filepath.Join(dir, "summary.md")
	benchGateErrs = nil
	defer func() { summaryPath, benchGateErrs = "", nil }()

	expServe()

	if len(benchGateErrs) != 0 {
		t.Fatalf("serve gates tripped: %v", benchGateErrs)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_serve.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []serveRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1", len(rows))
	}
	if rows[0].Steps != 32 {
		t.Errorf("steps = %d, want 32 (8 sessions x 4 steps)", rows[0].Steps)
	}
	if rows[0].VersionSHA == "" {
		t.Error("empty version fingerprint")
	}
	md, err := os.ReadFile(summaryPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "### E13 serve") {
		t.Errorf("summary missing E13 section:\n%s", md)
	}
}

// TestWorkloadExperiment drives the full E15 path at a small size: two
// profiles expanded from one seed, the repeat and worker-invariance
// gates in-process, the wire-parity cell, and the summary table. Any
// fingerprint divergence log.Fatals inside expWorkload and fails the
// binary, which is the same check CI's workload-smoke job performs at
// full size.
func TestWorkloadExperiment(t *testing.T) {
	dir := t.TempDir()
	wlProfiles = "interactive,agentic"
	cellSpec.Seed, cellSpec.Sessions, cellSpec.Fanout, wlDepth = 11, 2, 3, 3
	wlWorkers, wlMin = "1,2", 1
	outDir = dir
	summaryPath = filepath.Join(dir, "summary.md")
	benchGateErrs = nil
	defer func() { summaryPath, benchGateErrs = "", nil }()

	expWorkload()

	if len(benchGateErrs) != 0 {
		t.Fatalf("workload gates tripped: %v", benchGateErrs)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_workload.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []workloadRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	// 2 profiles x (2 core worker counts + 1 wire cell).
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for _, row := range rows {
		if row.Steps <= 0 || row.VersionSHA == "" {
			t.Errorf("%s/%s: empty cell: %+v", row.Profile, row.Path, row)
		}
		if row.StatsSHA == "" {
			t.Errorf("%s/%s: empty stats fingerprint: %+v", row.Profile, row.Path, row)
		}
	}
	md, err := os.ReadFile(summaryPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "### E15 workload") {
		t.Errorf("summary missing E15 section:\n%s", md)
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

// TestUsage pins the ordered -h listing: known flags come out in
// flagOrder and unknown ones are appended rather than dropped, and every
// experiment the header advertises is one -exp runs. It also pins the
// flag set: flagOrder names every registered flag, and the flags folded
// into -out or into constants stay gone.
func TestUsage(t *testing.T) {
	registered := 0 // benchtool's own flags; the test binary adds -test.*
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			registered++
		}
	})
	if registered != len(flagOrder) {
		t.Errorf("%d flags registered, flagOrder lists %d", registered, len(flagOrder))
	}
	for _, name := range flagOrder {
		if flag.Lookup(name) == nil {
			t.Errorf("flagOrder lists -%s, which is not registered", name)
		}
	}
	for _, name := range []string{"benchmem", "allocmax", "scaleout", "replayout",
		"serveout", "wlout", "rcout", "replaymin", "rcgrowth", "rcmaxratio"} {
		if flag.Lookup(name) != nil {
			t.Errorf("-%s is registered; it was removed", name)
		}
	}

	var buf bytes.Buffer
	out := flag.CommandLine.Output()
	flag.CommandLine.SetOutput(&buf)
	defer flag.CommandLine.SetOutput(out)
	usage()
	header, _, _ := strings.Cut(buf.String(), "\n")
	_, list, ok := strings.Cut(header, "usage: benchtool [-exp ")
	list, _, _ = strings.Cut(list, "]")
	if !ok {
		t.Fatalf("usage output missing header:\n%s", buf.String())
	}
	for _, name := range strings.Split(list, "|") {
		found := name == "all"
		for _, e := range experiments {
			found = found || e.name == name
		}
		if !found {
			t.Errorf("usage advertises -exp %s, which does not run", name)
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
	if max64(3, 5) != 5 || max64(5, 3) != 5 {
		t.Error("max64 broken")
	}
}

func TestFanTemplate(t *testing.T) {
	tpl := fanTemplate(3)
	if !strings.Contains(tpl, "task Fan {A} {D0 D1 D2 }") ||
		!strings.Contains(tpl, "step S3 {net} {D2} {misII -o D2 net}") {
		t.Errorf("fanTemplate(3):\n%s", tpl)
	}
}
