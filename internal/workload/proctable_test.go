package workload

// After a run, each session's sprite cluster holds no finished process:
// under the storm profile's fault plan, completed steps, crash-killed
// steps and their retries all leave the process table as they finish,
// so the table does not grow with the number of steps a session runs.

import (
	"fmt"
	"testing"

	"papyrus/internal/core"
	"papyrus/internal/obs"
	"papyrus/internal/sprite"
)

func TestStormLeavesNoFinishedProcess(t *testing.T) {
	w, err := Generate(Spec{Profile: "storm", Seed: 2, Sessions: 2, Depth: 6, Fanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	if w.Fault == nil || len(w.Fault.Crashes) == 0 {
		t.Fatal("seed 2's storm plan has no node crash; pick a seed whose plan crashes a node")
	}
	reg := obs.NewRegistry()
	sys, err := core.New(w.CoreConfig(core.Config{Nodes: 4, DisableInference: true, Metrics: reg}))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	designers := make([]*Designer, w.Spec.Sessions)
	clusters := make([]*sprite.Cluster, w.Spec.Sessions)
	for i := range designers {
		sess, err := sys.OpenSession(i, fmt.Sprintf("d%d", i))
		if err != nil {
			t.Fatal(err)
		}
		clusters[i] = sess.Cluster
		designers[i] = newDesigner(w, i, newProcEnv(sys, sess, fmt.Sprintf("wl-storm-d%d", i), "workload"))
	}
	if err := w.drive(designers, false, nil); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sprite.proc.crashkill", "task.step.retry"} {
		if reg.Counter(name) == 0 {
			t.Errorf("%s = 0: the run never exercised that way of finishing", name)
		}
	}
	spawned := reg.Counter("sprite.proc.spawn")
	if spawned == 0 {
		t.Fatal("no process was spawned")
	}
	for i, c := range clusters {
		for pid := sprite.PID(1); pid <= sprite.PID(spawned); pid++ {
			if p, ok := c.Process(pid); ok {
				t.Errorf("session %d: pid %d (%s) still in the process table, state %v", i, pid, p.Name, p.State())
			}
		}
	}
}
