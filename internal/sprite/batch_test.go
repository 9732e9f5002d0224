package sprite

import (
	"testing"

	"papyrus/internal/obs"
)

// TestAwaitBatchGroupsSameInstant: processes finishing at the same virtual
// instant come back as one batch, in event order; a later finisher starts
// the next batch.
func TestAwaitBatchGroupsSameInstant(t *testing.T) {
	c := mustCluster(t, Config{Nodes: 4})
	// Three equal processes on three idle nodes finish together at t=100;
	// the long one on the fourth node finishes alone at t=300.
	a := c.Spawn(Spec{Name: "a", Work: 100, Home: 0, Migratable: true})
	b := c.Spawn(Spec{Name: "b", Work: 100, Home: 1, Migratable: true})
	d := c.Spawn(Spec{Name: "d", Work: 100, Home: 2, Migratable: true})
	long := c.Spawn(Spec{Name: "long", Work: 300, Home: 3, Migratable: true})

	batch, ok := c.AwaitBatch()
	if !ok {
		t.Fatal("no first batch")
	}
	if len(batch) != 3 {
		t.Fatalf("first batch has %d completions, want 3: %+v", len(batch), batch)
	}
	want := []PID{a.PID, b.PID, d.PID}
	for i, comp := range batch {
		if comp.At != 100 {
			t.Errorf("batch[%d] at t=%d, want 100", i, comp.At)
		}
		if comp.PID != want[i] {
			t.Errorf("batch[%d] pid %d, want %d (event order)", i, comp.PID, want[i])
		}
	}

	batch, ok = c.AwaitBatch()
	if !ok {
		t.Fatal("no second batch")
	}
	if len(batch) != 1 || batch[0].PID != long.PID || batch[0].At != 300 {
		t.Fatalf("second batch %+v, want just %d at t=300", batch, long.PID)
	}

	if _, ok := c.AwaitBatch(); ok {
		t.Error("batch from a drained cluster")
	}
}

// TestAwaitBatchDeterministicOrder: the same spawn sequence yields the
// same batch order on every run (rescheduleNode pushes in PID order, so
// simultaneous completions can't be shuffled by map iteration).
func TestAwaitBatchDeterministicOrder(t *testing.T) {
	order := func() []PID {
		c := mustCluster(t, Config{Nodes: 2})
		// Six processes share two nodes; sharing makes several finish at
		// the same instant after the first wave frees capacity.
		for i := 0; i < 6; i++ {
			c.Spawn(Spec{Name: "p", Work: 100, Home: NodeID(i % 2), Migratable: true})
		}
		var pids []PID
		for {
			batch, ok := c.AwaitBatch()
			if !ok {
				return pids
			}
			pids = append(pids, PID(-1)) // batch boundary marker
			for _, comp := range batch {
				pids = append(pids, comp.PID)
			}
		}
	}
	first := order()
	for run := 0; run < 10; run++ {
		got := order()
		if len(got) != len(first) {
			t.Fatalf("run %d: %v vs %v", run, got, first)
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("run %d: batch order diverged: %v vs %v", run, got, first)
			}
		}
	}
}

// TestRequeuePrepends: requeued completions come back first, in the given
// order, ahead of completions that were already pending.
func TestRequeuePrepends(t *testing.T) {
	c := mustCluster(t, Config{Nodes: 3})
	c.Spawn(Spec{Name: "a", Work: 100, Home: 0, Migratable: true})
	c.Spawn(Spec{Name: "b", Work: 100, Home: 1, Migratable: true})
	c.Spawn(Spec{Name: "d", Work: 100, Home: 2, Migratable: true})
	batch, ok := c.AwaitBatch()
	if !ok || len(batch) != 3 {
		t.Fatalf("batch %+v, want 3 completions", batch)
	}
	// Apply the first, requeue the unapplied tail, as the task manager
	// does when a restart stops a batch early.
	c.Requeue(batch[1:])
	c.Requeue(nil) // no-op
	again, ok := c.AwaitBatch()
	if !ok || len(again) != 2 {
		t.Fatalf("requeued batch %+v, want 2 completions", again)
	}
	if again[0].PID != batch[1].PID || again[1].PID != batch[2].PID {
		t.Errorf("requeued order %+v, want %+v", again, batch[1:])
	}
}

// TestProcessLookupAndStates covers the PCB-style accessors: Process
// finds an unfinished pid, and the pointer Spawn returned keeps the
// final state once the process has left the table.
func TestProcessLookupAndStates(t *testing.T) {
	c := mustCluster(t, Config{Nodes: 1})
	p := c.Spawn(Spec{Name: "a", Work: 100, Home: 0})
	got, ok := c.Process(p.PID)
	if !ok || got != p {
		t.Fatalf("Process(%d) = %v, %v", p.PID, got, ok)
	}
	if _, ok := c.Process(p.PID + 999); ok {
		t.Error("lookup of unknown pid succeeded")
	}
	if s := p.State().String(); s != "running" {
		t.Errorf("state %q, want running", s)
	}
	if _, ok := c.AwaitBatch(); !ok {
		t.Fatal("no completion")
	}
	if _, ok := c.Process(p.PID); ok {
		t.Error("lookup of a finished pid succeeded")
	}
	if s := p.State().String(); s != "done" {
		t.Errorf("state %q, want done", s)
	}
	if at := p.FinishedAt(); at != 100 {
		t.Errorf("FinishedAt %d, want 100", at)
	}
}

// TestObserveUtilization: the sampled histogram lands in the registry
// (and the call is a no-op without one).
func TestObserveUtilization(t *testing.T) {
	bare := mustCluster(t, Config{Nodes: 1})
	bare.Spawn(Spec{Name: "a", Work: 100, Home: 0})
	bare.Drain()
	bare.ObserveUtilization() // must not panic without a registry

	reg := obs.NewRegistry()
	c := mustCluster(t, Config{Nodes: 2, Metrics: reg})
	c.Spawn(Spec{Name: "a", Work: 100, Home: 0})
	c.Drain()
	c.ObserveUtilization()
	snap := reg.Snapshot()
	if h, ok := snap.Histograms["sprite.node.utilization"]; !ok || h.Count != 2 {
		t.Fatalf("sprite.node.utilization histogram %+v ok=%v, want 2 samples", h, ok)
	}
}

// TestAwaitBatchStopsAtNonCompletionEvent: a scheduled cluster event at
// the batch instant ends the batch, so its handler observes the same
// state it would under one-at-a-time stepping.
func TestAwaitBatchStopsAtNonCompletionEvent(t *testing.T) {
	c := mustCluster(t, Config{Nodes: 2})
	c.Spawn(Spec{Name: "a", Work: 100, Home: 0, Migratable: true})
	c.Spawn(Spec{Name: "b", Work: 100, Home: 1, Migratable: true})
	// An owner returns to node 1 at the completion instant: the batch must
	// not absorb past it blindly. Whichever side of the tick each
	// completion lands on, every completion must still be delivered.
	c.ScheduleOwnerActivity(1, 100, 200)
	seen := 0
	for {
		batch, ok := c.AwaitBatch()
		if !ok {
			break
		}
		seen += len(batch)
	}
	if seen != 2 {
		t.Errorf("saw %d completions, want 2", seen)
	}
}
