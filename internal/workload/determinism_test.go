package workload_test

// The E15 determinism property: one Spec produces byte-identical TDL
// scripts, and every cell of it leaves the same internal/oracle
// fingerprint behind at any worker count (1, 4, 8), any store stripe
// count (1 vs 64), under the round-barrier driver vs the free-running
// one, and over the papyrusd wire path. CI runs this file under -race,
// so the invariance is proven against real concurrency. It is an
// external test package because the oracle imports workload.

import (
	"testing"

	"papyrus/internal/oracle"
	"papyrus/internal/workload"
)

// testSpec keeps matrix cells small enough for -race.
func testSpec(profile string) workload.Spec {
	return workload.Spec{Profile: profile, Seed: 11, Sessions: 3, Depth: 4, Fanout: 3}
}

func run(t *testing.T, c oracle.Cell) oracle.Result {
	t.Helper()
	res, err := oracle.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestScriptTextByteIdentical(t *testing.T) {
	for _, profile := range workload.Profiles() {
		a, err := workload.Generate(testSpec(profile))
		if err != nil {
			t.Fatal(err)
		}
		b, err := workload.Generate(testSpec(profile))
		if err != nil {
			t.Fatal(err)
		}
		if a.ScriptText() != b.ScriptText() {
			t.Errorf("%s: same Spec produced different scripts:\n%s\nvs\n%s",
				profile, a.ScriptText(), b.ScriptText())
		}
		if a.ScriptText() == "" {
			t.Errorf("%s: empty script", profile)
		}
	}
}

func TestRunFingerprintsWorkerAndStripeInvariant(t *testing.T) {
	for _, profile := range workload.Profiles() {
		profile := profile
		t.Run(profile, func(t *testing.T) {
			ref := oracle.Cell{Spec: testSpec(profile), Workers: 1, Stripes: 1}
			want := run(t, ref).Fingerprint
			if d := run(t, ref).Diff(want); d != "" {
				t.Fatalf("repeat run diverged: %s", d)
			}
			for _, k := range []struct{ workers, stripes int }{{4, 1}, {8, 1}, {4, 64}} {
				c := oracle.Cell{Spec: ref.Spec, Workers: k.workers, Stripes: k.stripes}
				if d := run(t, c).Diff(want); d != "" {
					t.Errorf("workers=%d stripes=%d: %s", k.workers, k.stripes, d)
				}
			}
		})
	}
}

// TestDeepCooperatingProfilesRepeatable drives the cooperating profiles
// far enough (8 rounds) to reach their sparser branches — the collab
// ring's every-6th-round fork, the agentic leader rotation wrapping past
// the designer count — and pins repeat-run identity there too.
func TestDeepCooperatingProfilesRepeatable(t *testing.T) {
	for _, profile := range []string{"collab", "agentic"} {
		c := oracle.Cell{
			Spec:    workload.Spec{Profile: profile, Seed: 3, Sessions: 2, Depth: 8, Fanout: 2},
			Workers: 4, Stripes: 1,
		}
		if d := run(t, c).Diff(run(t, c).Fingerprint); d != "" {
			t.Errorf("%s: deep run not repeatable: %s", profile, d)
		}
	}
}

// TestForceRoundsMatchesFreeRunning proves the two in-process drivers are
// interchangeable for non-cooperating profiles: barrier placement may
// change wall-clock interleaving but never the store content. (Stats are
// not compared — the barrier driver runs reclaim hooks and session
// opening differently; the store is the contract.)
func TestForceRoundsMatchesFreeRunning(t *testing.T) {
	for _, profile := range workload.Profiles() {
		w, err := workload.Generate(testSpec(profile))
		if err != nil {
			t.Fatal(err)
		}
		if w.Coop {
			continue // always round-driven; nothing to compare
		}
		c := oracle.Cell{Spec: testSpec(profile), Workers: 4, Stripes: 1}
		free := run(t, c)
		c.ForceRounds = true
		if round := run(t, c); round.Versions != free.Versions {
			t.Errorf("%s: round-barrier driver diverged from free-running (%.12s vs %.12s)",
				profile, round.Versions, free.Versions)
		}
	}
}

// TestWireMatchesInProcess is the cross-path half of the contract: a
// profile driven through a single-shard papyrusd must leave the same
// fingerprint behind as the in-process driver, stats included. The
// profiles chosen here exercise
// every wire verb: rework (record rework + erase), collab (contribute /
// retrieve / watch / space sequence), replay (initial-point rework +
// history replay), agentic (inference queries).
func TestWireMatchesInProcess(t *testing.T) {
	for _, profile := range []string{"rework", "collab", "replay", "agentic"} {
		profile := profile
		t.Run(profile, func(t *testing.T) {
			core := run(t, oracle.Cell{Spec: testSpec(profile), Workers: 4, Stripes: 1})
			wire := run(t, oracle.Cell{Spec: testSpec(profile), Workers: 4, Wire: true})
			if d := wire.Diff(core.Fingerprint); d != "" {
				t.Errorf("wire diverged from in-process: %s", d)
			}
		})
	}
}
