package workload

// The reclaim soak: the rework profile at depth 64 generates deep OLAP
// chains and erases three of every four, so most of what it writes is
// dead the moment the chain is abandoned. Run with barrier sweeps and a
// zero grace period, the live set must stay bounded — the erased chains'
// bytes leave the store — while the unswept run keeps everything. Grace
// 0 makes every hidden version past due at the barrier, so the swept
// outcome is order-independent and repeat-run identical.

import (
	"testing"

	"papyrus/internal/core"
)

// runSoak drives the deep rework profile and returns the final live-set
// size, sweeping at every round barrier when sweep is true.
func runSoak(t *testing.T, sweep bool) (bytes int64, versions int) {
	t.Helper()
	w, err := Generate(Spec{Profile: "rework", Seed: 11, Sessions: 2, Depth: 64, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(w.CoreConfig(core.Config{
		Nodes:            4,
		DisableInference: true,
		ReclaimGrace:     0,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	opts := Options{ForceRounds: true}
	if sweep {
		opts.SweepEveryRounds = 1
	}
	if err := RunInProcess(sys, w, opts); err != nil {
		t.Fatal(err)
	}
	// One final sweep picks up the last round's erasures.
	if sweep {
		if _, err := sys.Reclaimer.Sweep(0); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range sys.Store.Names() {
		versions += len(sys.Store.Versions(name))
	}
	return sys.Store.TotalBytes(), versions
}

func TestReworkSoakLiveSetBounded(t *testing.T) {
	sweptBytes, sweptVersions := runSoak(t, true)
	keptBytes, keptVersions := runSoak(t, false)
	if sweptBytes <= 0 || sweptVersions <= 0 {
		t.Fatalf("swept run ended empty (bytes=%d versions=%d)", sweptBytes, sweptVersions)
	}
	// Depth 64 means each OLAP round writes 64 chain links per designer
	// and erases 3 of every 4 chains; the swept live set must be a small
	// fraction of the unswept one, not within a constant of it.
	if sweptBytes*2 > keptBytes {
		t.Errorf("live set not bounded: swept %d bytes vs unswept %d (want <= half)", sweptBytes, keptBytes)
	}
	if sweptVersions*2 > keptVersions {
		t.Errorf("version count not bounded: swept %d vs unswept %d (want <= half)", sweptVersions, keptVersions)
	}
	// Grace 0 + barrier sweeps = deterministic outcome.
	againBytes, againVersions := runSoak(t, true)
	if againBytes != sweptBytes || againVersions != sweptVersions {
		t.Errorf("swept soak not repeatable: bytes %d vs %d, versions %d vs %d",
			againBytes, sweptBytes, againVersions, sweptVersions)
	}
}
