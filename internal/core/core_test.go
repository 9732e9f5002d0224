package core

import (
	"fmt"
	"strings"
	"testing"

	"papyrus/internal/cad/logic"
	"papyrus/internal/oct"
)

func newSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEndToEndSession(t *testing.T) {
	s := newSystem(t, Config{})
	if _, err := s.ImportObject("/specs/shifter", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4))); err != nil {
		t.Fatal(err)
	}
	th := s.NewThread("Shifter-synthesis", "chiueh")
	rec, err := s.Invoke(th, "create-logic-description",
		map[string]string{"Spec": "/specs/shifter"},
		map[string]string{"Outlogic": "shifter.logic"})
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || len(rec.Steps) != 2 {
		t.Fatalf("record %+v", rec)
	}
	// Inference observed the steps: the output's type is known.
	if s.Inference == nil {
		t.Fatal("inference engine missing")
	}
	outRef := rec.Outputs[0]
	typ, ok := s.Inference.TypeOf(outRef)
	if !ok || typ != oct.TypeLogic {
		t.Errorf("inferred type %s ok=%v", typ, ok)
	}
	// Rendering works.
	view := s.RenderThread(th)
	if !strings.Contains(view, "create-logic-description") {
		t.Errorf("thread render:\n%s", view)
	}
	scope := s.RenderScope(th)
	if !strings.Contains(scope, "shifter.logic") {
		t.Errorf("scope render:\n%s", scope)
	}
}

func TestTableIPapyrusSatisfiesAll(t *testing.T) {
	s := newSystem(t, Config{})
	rows := s.TableI()
	if len(rows) != 14 {
		t.Fatalf("rows %d, want 14", len(rows))
	}
	last := rows[len(rows)-1]
	if last.Name != "Papyrus" || !last.Implemented {
		t.Fatalf("last row %+v", last)
	}
	f := last.F
	if !(f.ToolEncapsulation && f.ToolNavigation && f.DesignExploration &&
		f.DataEvolution && f.ContextManagement && f.CooperativeWork && f.DistributedArchitecture) {
		t.Errorf("Papyrus row not all-Yes: %+v", f)
	}
	implemented := 0
	for _, r := range rows {
		if r.Implemented {
			implemented++
		}
	}
	if implemented != 3 { // Powerframe, VOV, Papyrus
		t.Errorf("implemented rows %d, want 3", implemented)
	}
}

func TestSpacesAreMemoized(t *testing.T) {
	s := newSystem(t, Config{})
	a := s.Space("A")
	if s.Space("A") != a {
		t.Error("Space not memoized")
	}
	if s.Space("B") == a {
		t.Error("distinct spaces share identity")
	}
}

func TestConfigDefaults(t *testing.T) {
	s := newSystem(t, Config{})
	if s.Cluster.NodeCount() != 4 {
		t.Errorf("default nodes %d, want 4", s.Cluster.NodeCount())
	}
	s2 := newSystem(t, Config{Nodes: 2, DisableInference: true})
	if s2.Inference != nil {
		t.Error("inference not disabled")
	}
	if s2.Cluster.NodeCount() != 2 {
		t.Error("node count ignored")
	}
}

func TestExtraTemplates(t *testing.T) {
	s := newSystem(t, Config{ExtraTemplates: map[string]string{
		"Custom": "task Custom {A} {Out}\nstep S {A} {Out} {bdsyn -o Out A}\n",
	}})
	if _, err := s.ImportObject("/x", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(2))); err != nil {
		t.Fatal(err)
	}
	th := s.NewThread("t", "u")
	if _, err := s.Invoke(th, "Custom",
		map[string]string{"A": "/x"}, map[string]string{"Out": "o"}); err != nil {
		t.Fatal(err)
	}
}

func TestReclaimerWired(t *testing.T) {
	s := newSystem(t, Config{ReclaimGrace: 0})
	ref, _ := s.ImportObject("junk", oct.TypeText, oct.Text("bytes"))
	s.Store.Hide(ref)
	st, err := s.Reclaimer.Sweep(0)
	if err != nil || st.Versions != 1 {
		t.Errorf("sweep %+v err %v", st, err)
	}
}

// TestRootStackSerializesInference: a root-stack step feeds the inference
// engine under the mutex InferenceQuery takes, as a session step does, so
// a query may run beside a root Invoke (go test -race checks the claim).
func TestRootStackSerializesInference(t *testing.T) {
	s := newSystem(t, Config{})
	spec, err := s.ImportObject("/spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(2)))
	if err != nil {
		t.Fatal(err)
	}
	th := s.NewThread("t", "u")
	stop, queried := make(chan struct{}), make(chan error)
	go func() {
		for {
			select {
			case <-stop:
				queried <- nil
				return
			default:
			}
			if _, err := s.InferenceQuery("lineage", spec); err != nil {
				queried <- err
				return
			}
		}
	}()
	for i := 0; i < 8; i++ {
		if _, err := s.Invoke(th, "create-logic-description",
			map[string]string{"Spec": "/spec"},
			map[string]string{"Outlogic": fmt.Sprintf("l%d", i)}); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	if err := <-queried; err != nil {
		t.Fatal(err)
	}
}
