package oracle

import (
	"strings"
	"testing"

	"papyrus/internal/obs"
	"papyrus/internal/oct"
	"papyrus/internal/workload"
)

// TestStatsExclusionRule pins the one exclusion rule: memo.*, wal.* and
// server.* entries, counters and histograms alike, never reach the
// fingerprint, and every other entry does.
func TestStatsExclusionRule(t *testing.T) {
	only, all := obs.NewRegistry(), obs.NewRegistry()
	only.Inc("task.w")
	all.Inc("task.w")
	all.Inc("memo.x")
	all.Add("wal.y", 3)
	all.Inc("server.z")
	all.Observe("server.req.us", 917)
	if Stats(all) != Stats(only) {
		t.Errorf("excluded namespaces leaked into the fingerprint:\n%s", StatsText(all))
	}
	all.Inc("task.w")
	if Stats(all) == Stats(only) {
		t.Error("a change to task.w was not detected")
	}
}

// TestVisibleProjection pins the projection the modulo-reclaimed gate
// compares: hidden versions are ignored, visible content is not.
func TestVisibleProjection(t *testing.T) {
	put := func(s *oct.Store, name, data string) oct.Ref {
		t.Helper()
		obj, err := s.Put(name, oct.TypeText, oct.Text(data), "test")
		if err != nil {
			t.Fatal(err)
		}
		return oct.Ref{Name: obj.Name, Version: obj.Version}
	}
	base := oct.NewStore()
	put(base, "/a", "xy")
	withHidden := oct.NewStore()
	put(withHidden, "/a", "xy")
	if err := withHidden.Hide(put(withHidden, "/b", "hidden")); err != nil {
		t.Fatal(err)
	}
	changed := oct.NewStore()
	put(changed, "/a", "xyz")

	if Visible(withHidden) != Visible(base) {
		t.Error("an invisible version changed the visible fingerprint")
	}
	if Versions(withHidden) == Versions(base) {
		t.Error("the version fingerprint ignored a hidden version")
	}
	if Visible(changed) == Visible(base) {
		t.Error("a visible content change was not detected")
	}
}

func TestDiffNamesTheDivergentPart(t *testing.T) {
	ref := Fingerprint{Stats: "s1", Versions: "v1"}
	if d := ref.Diff(ref); d != "" {
		t.Errorf("identical fingerprints diff as %q", d)
	}
	if d := (Fingerprint{Stats: "s2", Versions: "v1"}).Diff(ref); !strings.HasPrefix(d, "stats") {
		t.Errorf("stats divergence reported as %q", d)
	}
	if d := (Fingerprint{Stats: "s2", Versions: "v2"}).Diff(ref); !strings.HasPrefix(d, "version map") {
		t.Errorf("version divergence reported as %q", d)
	}
}

// TestWALCellMatchesVolatile runs the kill-and-recover path of a WAL
// cell: Run fails unless the recovered store equals the pre-crash one,
// and with wal.* excluded the cell must fingerprint like its volatile
// twin, sweeps included.
func TestWALCellMatchesVolatile(t *testing.T) {
	cell := Cell{
		Spec:       workload.Spec{Profile: "rework", Seed: 11, Sessions: 2, Depth: 8, Fanout: 2},
		Workers:    2,
		SweepEvery: 1,
	}
	ref, err := Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	cell.WAL = true
	got, err := Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.Diff(ref.Fingerprint); d != "" {
		t.Errorf("WAL cell diverged from the volatile cell: %s", d)
	}
	if got.Metrics.Counter("wal.append.records") < 1 {
		t.Error("the WAL cell appended nothing")
	}
	if len(got.Checkpoints) != got.Rounds {
		t.Errorf("%d checkpoints for %d rounds", len(got.Checkpoints), got.Rounds)
	}
}

func TestWireCellRejectsEngineKnobs(t *testing.T) {
	spec := workload.Spec{Profile: "rework", Seed: 11}
	for _, c := range []Cell{
		{Spec: spec, Wire: true, WAL: true},
		{Spec: spec, Wire: true, Stripes: 64},
		{Spec: spec, Wire: true, SweepEvery: 1},
		{Spec: spec, Wire: true, ForceRounds: true},
	} {
		if _, err := Run(c); err == nil {
			t.Errorf("%+v: accepted", c)
		}
	}
	if _, err := Run(Cell{Spec: workload.Spec{Profile: "bogus"}}); err == nil {
		t.Error("unknown profile accepted")
	}
}
