package papyrus

// The fault-matrix integration test: a seeded workload is run under a
// matrix of fault plans — none, transient step failures, a node crash
// with recovery, migration stalls, and all combined — and each cell must
// (a) still commit through retry/re-migration recovery, (b) export
// byte-identical stats across two runs of the same seed, and (c) leave
// exactly one OCT version per object (no double-applied writes).
// CI runs this file with -count=2 to also catch cross-run state leaks
// (.github/workflows/ci.yml, docs/FAULTS.md).

import (
	"fmt"
	"testing"

	"papyrus/internal/cad"
	"papyrus/internal/cad/logic"
	"papyrus/internal/core"
	"papyrus/internal/fault"
	"papyrus/internal/obs"
	"papyrus/internal/oct"
	"papyrus/internal/oracle"
	"papyrus/internal/task"
	"papyrus/internal/workload"
)

// crashyTemplate fans four fixed-cost steps across the cluster so a
// planned crash deterministically lands on a busy node.
const crashyTemplate = `task Crashy {A B C D} {O1 O2 O3 O4}
step S1 {A} {O1} {burn -o O1 A}
step S2 {B} {O2} {burn -o O2 B}
step S3 {C} {O3} {burn -o O3 C}
step S4 {D} {O4} {burn -o O4 D}
`

// faultWorkload runs the Crashy task under a fault plan and returns the
// oracle's stats export plus the makespan, the system, and its registry.
func faultWorkload(t *testing.T, planText string, workers int) (string, *core.System, *obs.Registry) {
	t.Helper()
	return faultWorkloadDurable(t, planText, workers, nil)
}

// faultWorkloadDurable is faultWorkload with an optional write-ahead
// log: the batched group-commit fault cell runs the same seeded plan
// with durability armed and must be indistinguishable; the oracle's
// export leaves the wal.* namespace out.
func faultWorkloadDurable(t *testing.T, planText string, workers int, durable *core.DurabilityConfig) (string, *core.System, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
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
		Metrics:        reg,
		ExtraTemplates: map[string]string{"Crashy": crashyTemplate},
		Fault:          plan,
		Retry:          task.RetryPolicy{MaxAttempts: 4, BackoffBase: 8},
		Durability:     durable,
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
	return fmt.Sprintf("%smakespan %d\n", oracle.StatsText(reg), sys.Cluster.Now()), sys, reg
}

func TestFaultMatrixByteIdenticalStats(t *testing.T) {
	plans := []string{
		"",
		"seed=7",
		"seed=7,stepfail=*:0.6:2",
		"seed=7,crash=1@40-600",
		"seed=7,stall=0.6:9",
		"seed=7,crash=1@40-600,stepfail=*:0.5:2,stall=0.5:9",
	}
	for _, plan := range plans {
		// Repeat-run determinism at the default pool size, then
		// worker-count invariance: the batch schedule must make the pool
		// size unobservable even while faults, retries, and crashes fire.
		first, _, _ := faultWorkload(t, plan, 0)
		second, _, _ := faultWorkload(t, plan, 0)
		if first != second {
			t.Errorf("plan %q: stats export not byte-identical across runs:\n--- run 1 ---\n%s--- run 2 ---\n%s",
				plan, first, second)
		}
		for _, workers := range []int{1, 4, 16} {
			got, _, _ := faultWorkload(t, plan, workers)
			if got != first {
				t.Errorf("plan %q: stats export diverges at workers=%d:\n--- workers=%d ---\n%s--- default ---\n%s",
					plan, workers, workers, got, first)
			}
		}
	}
}

func TestFaultMatrixFaultsActuallyFire(t *testing.T) {
	// The matrix is only meaningful if its fault cells inject something;
	// decisions are pure hashes of the seed, so these are deterministic.
	_, _, reg := faultWorkload(t, "seed=7,stepfail=*:0.6:2", 0)
	if got := reg.Counter("fault.injected.stepfail"); got < 1 {
		t.Errorf("fault.injected.stepfail = %d, want >= 1", got)
	}
	_, _, reg = faultWorkload(t, "seed=7,stall=1:9", 0)
	if got := reg.Counter("fault.injected.stall"); got < 1 {
		t.Errorf("fault.injected.stall = %d, want >= 1", got)
	}
}

// TestCrashedNodeRecoveryNoDuplicateVersions is the acceptance scenario:
// a workstation crashes under a running step; the task must complete via
// step retry onto surviving nodes and the store must hold exactly one
// version of every object.
func TestCrashedNodeRecoveryNoDuplicateVersions(t *testing.T) {
	_, sys, reg := faultWorkload(t, "seed=7,crash=1@40-600", 0)
	if got := reg.Counter("sprite.node.crash"); got != 1 {
		t.Errorf("sprite.node.crash = %d, want 1", got)
	}
	if got := reg.Counter("sprite.proc.crashkill"); got < 1 {
		t.Errorf("sprite.proc.crashkill = %d, want >= 1 (crash must hit a running step)", got)
	}
	if got := reg.Counter("task.step.retry"); got < 1 {
		t.Errorf("task.step.retry = %d, want >= 1", got)
	}
	if got := reg.Counter("task.run.commit"); got != 1 {
		t.Errorf("task.run.commit = %d, want 1", got)
	}
	if got := reg.Counter("task.run.restart"); got != 0 {
		t.Errorf("task.run.restart = %d, want 0 (retries must not consume restarts)", got)
	}
	for _, name := range sys.Store.Names() {
		if vs := sys.Store.Versions(name); len(vs) != 1 {
			t.Errorf("object %s has %d versions, want 1 (duplicate write after retry)", name, len(vs))
		}
	}
	for _, out := range []string{"o1", "o2", "o3", "o4"} {
		if _, err := sys.Store.Get(oct.Ref{Name: out}); err != nil {
			t.Errorf("output %s missing after recovery: %v", out, err)
		}
	}
}

// TestFaultMatrixStormWorkload is the generated-workload cell of the
// matrix: the E15 storm profile (per-session fault arming, abort/erase
// salvage rounds) must inject real faults, retry through them, commit
// every round, leave exactly one OCT version per object name, and
// fingerprint identically across repeat runs and across memo on/off.
func TestFaultMatrixStormWorkload(t *testing.T) {
	storm := oracle.Cell{Spec: workload.Spec{Profile: "storm", Seed: 11, Sessions: 3, Depth: 5, Fanout: 3}}
	withMemo := storm
	withMemo.Memo = true
	var ref oracle.Result
	for i, c := range []oracle.Cell{storm, storm, withMemo, withMemo} {
		res, err := oracle.Run(c)
		if err != nil {
			t.Fatalf("cell %d (memo=%v): storm did not survive its own fault plan: %v", i, c.Memo, err)
		}
		if i == 0 {
			ref = res
			if got := res.Metrics.Counter("fault.injected.stepfail"); got < 1 {
				t.Errorf("fault.injected.stepfail = %d, want >= 1 (the storm plan must fire)", got)
			}
			if got := res.Metrics.Counter("task.step.retry"); got < 1 {
				t.Errorf("task.step.retry = %d, want >= 1", got)
			}
			for _, name := range res.Store.Names() {
				if vs := res.Store.Versions(name); len(vs) != 1 {
					t.Errorf("object %s has %d versions, want 1 (duplicate write after abort/retry)", name, len(vs))
				}
			}
			continue
		}
		if d := res.Diff(ref.Fingerprint); d != "" {
			t.Errorf("cell %d (memo=%v): diverged from the memo-free reference: %s", i, c.Memo, d)
		}
		if got := res.Metrics.Counter("memo.miss"); c.Memo && got < 1 {
			t.Errorf("cell %d: memo.miss = %d, want >= 1 (the cache must have been keyed)", i, got)
		}
	}
}

// TestFaultMatrixGroupCommitDurability is the batched group-commit
// fault cell: the combined fault plan at 8 workers, re-run with the
// write-ahead log in strict (fsync-every-append) and batched
// (fsync-every-8) modes. Both must survive the faults and be
// byte-identical to the non-durable reference outside wal.* — group
// commit may only change how appends reach disk, never what the run
// computes.
func TestFaultMatrixGroupCommitDurability(t *testing.T) {
	const plan = "seed=7,crash=1@40-600,stepfail=*:0.5:2,stall=0.5:9"
	wantStats, refSys, _ := faultWorkload(t, plan, 8)
	wantVersions := refSys.Store.VersionMapText()

	for _, fsyncEvery := range []int64{1, 8} {
		got, sys, reg := faultWorkloadDurable(t, plan, 8,
			&core.DurabilityConfig{Dir: t.TempDir(), FsyncEvery: fsyncEvery})
		if got != wantStats {
			t.Errorf("fsyncEvery=%d: stats diverge from the non-durable reference:\n%s\nvs\n%s",
				fsyncEvery, got, wantStats)
		}
		if got := sys.Store.VersionMapText(); got != wantVersions {
			t.Errorf("fsyncEvery=%d: version map diverges:\n%s\nvs\n%s", fsyncEvery, got, wantVersions)
		}
		if got := reg.Counter("wal.append.records"); got < 1 {
			t.Errorf("fsyncEvery=%d: wal.append.records = %d, want >= 1 (the log must have been exercised)", fsyncEvery, got)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
