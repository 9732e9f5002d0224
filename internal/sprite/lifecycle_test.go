package sprite

import "testing"

// The process table's lifecycle: a process leaves Cluster.procs the
// moment it finishes, however it finishes, and its Completion carries
// the node and migration count it last reported. A finished pid is then
// unknown to Process and Kill.

// seen is what a live process last reported through the process table.
type seen struct {
	node       NodeID
	migrations int
}

// watcher records every live process's node and migration count each
// virtual tick, plus on demand (right after a Spawn, right before a Kill).
type watcher struct {
	c    *Cluster
	last map[PID]seen
	stop func()
}

func watch(c *Cluster) *watcher {
	w := &watcher{c: c, last: map[PID]seen{}}
	w.stop = c.Every(1, func(int64) { w.observe() })
	return w
}

func (w *watcher) observe() {
	for _, row := range w.c.ProcessTable() {
		p, ok := w.c.Process(row.PID)
		if !ok {
			continue
		}
		w.last[row.PID] = seen{p.Node(), p.Migrations()}
	}
}

// await collects n completions. The watcher's ticker keeps the event
// queue busy, so the loop counts instead of draining.
func (w *watcher) await(t *testing.T, n int) []Completion {
	t.Helper()
	var out []Completion
	for len(out) < n {
		c, ok := w.c.AwaitCompletion()
		if !ok {
			t.Fatalf("cluster stalled after %d of %d completions", len(out), n)
		}
		out = append(out, c)
	}
	w.stop()
	return out
}

// checkFinished asserts the table is empty, every finished pid is gone
// from Process and Kill, and each completion reports the node and
// migrations its process last showed (want overrides the watcher for
// processes the table never listed).
func checkFinished(t *testing.T, c *Cluster, w *watcher, done []Completion, want map[PID]seen) {
	t.Helper()
	if len(c.procs) != 0 {
		t.Errorf("len(procs) = %d after every process finished, want 0", len(c.procs))
	}
	if rows := c.ProcessTable(); len(rows) != 0 {
		t.Errorf("ProcessTable() = %+v, want empty", rows)
	}
	for _, d := range done {
		if _, ok := c.Process(d.PID); ok {
			t.Errorf("Process(%d) found a finished process", d.PID)
		}
		if err := c.Kill(d.PID); err == nil {
			t.Errorf("Kill(%d) of a finished process succeeded", d.PID)
		}
		exp, ok := want[d.PID]
		if !ok {
			exp, ok = w.last[d.PID]
		}
		if !ok {
			t.Errorf("pid %d was never observed", d.PID)
			continue
		}
		if d.Node != exp.node || d.Migrations != exp.migrations {
			t.Errorf("pid %d completion node %d migrations %d, last reported node %d migrations %d",
				d.PID, d.Node, d.Migrations, exp.node, exp.migrations)
		}
	}
}

func TestCompletedProcessLeavesTable(t *testing.T) {
	c := mustCluster(t, Config{Nodes: 1})
	w := watch(c)
	p := c.Spawn(Spec{Name: "a", Work: 100, Home: 0})
	w.observe()
	done := w.await(t, 1)
	if done[0].PID != p.PID || done[0].Killed || p.State() != StateDone {
		t.Fatalf("completion %+v, state %v, want a clean finish", done[0], p.State())
	}
	checkFinished(t, c, w, done, nil)
}

func TestMigratedProcessCompletesAndLeavesTable(t *testing.T) {
	c := mustCluster(t, Config{Nodes: 3, MigrationDelay: 3})
	w := watch(c)
	c.Spawn(Spec{Name: "local", Work: 200, Home: 0})
	mover := c.Spawn(Spec{Name: "mover", Work: 100, Home: 0, Migratable: true})
	w.observe()
	c.After(10, func(int64) {
		if err := c.Migrate(mover.PID, 2); err != nil {
			t.Error(err)
		}
	})
	done := w.await(t, 2)
	var got Completion
	for _, d := range done {
		if d.PID == mover.PID {
			got = d
		}
	}
	if got.Node != 2 || got.Migrations != 2 {
		t.Errorf("mover completion %+v, want node 2 after 2 migrations (place + remigrate)", got)
	}
	checkFinished(t, c, w, done, nil)
}

func TestKilledProcessLeavesTable(t *testing.T) {
	c := mustCluster(t, Config{Nodes: 2, MigrationDelay: 5})
	w := watch(c)
	run := c.Spawn(Spec{Name: "running", Work: 100, Home: 0})
	moving := c.Spawn(Spec{Name: "moving", Work: 100, Home: 0})
	if err := c.Migrate(moving.PID, 1); err != nil {
		t.Fatal(err)
	}
	w.observe()
	for _, pid := range []PID{run.PID, moving.PID} {
		if err := c.Kill(pid); err != nil {
			t.Fatal(err)
		}
	}
	done := w.await(t, 2)
	for _, d := range done {
		if !d.Killed || d.Crashed {
			t.Errorf("completion %+v, want a deliberate kill", d)
		}
	}
	checkFinished(t, c, w, done, nil)
}

func TestCrashKilledProcessLeavesTable(t *testing.T) {
	c := mustCluster(t, Config{Nodes: 2, MigrationDelay: 5})
	w := watch(c)
	c.ScheduleCrash(0, 30)
	c.ScheduleCrash(1, 32)
	c.Spawn(Spec{Name: "resident", Work: 100, Home: 0})
	// In transit toward node 1 when node 0 (home) crashes; node 1 crashes
	// before it arrives, so it dies on arrival with nowhere to bounce.
	mover := c.Spawn(Spec{Name: "mover", Work: 100, Home: 0})
	c.After(29, func(int64) {
		if err := c.Migrate(mover.PID, 1); err != nil {
			t.Error(err)
		}
	})
	w.observe()
	done := w.await(t, 2)
	for _, d := range done {
		if !d.Crashed {
			t.Errorf("completion %+v, want a crash kill", d)
		}
		if d.PID == mover.PID && (d.Node != 1 || d.Migrations != 1) {
			t.Errorf("mover completion %+v, want node 1 (its transit target) after 1 migration", d)
		}
	}
	// Spawn onto the down home node: the process dies inside Spawn, so
	// the table never lists it; its last state is what Spawn returned.
	doa := c.Spawn(Spec{Name: "doa", Work: 100, Home: 0})
	late, ok := c.AwaitCompletion()
	if !ok || late.PID != doa.PID || !late.Crashed {
		t.Fatalf("completion %+v, want pid %d crash-killed on spawn", late, doa.PID)
	}
	checkFinished(t, c, w, append(done, late), map[PID]seen{doa.PID: {doa.Node(), doa.Migrations()}})
}
