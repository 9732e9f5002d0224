package papyrus

// A full-system integration narrative: two designers take a design from
// behavioral specifications through exploration, cooperation, joining,
// storage reclamation, metadata queries, rebuild, and session persistence
// — every subsystem crossing paths the way the dissertation's scenario
// chapters describe.

import (
	"strings"
	"testing"

	"papyrus/internal/activity"
	"papyrus/internal/cad/logic"
	"papyrus/internal/core"
	"papyrus/internal/history"
	"papyrus/internal/infer"
	"papyrus/internal/oct"
	"papyrus/internal/reclaim"
	"papyrus/internal/sds"
)

func TestDissertationWalkthrough(t *testing.T) {
	sys, err := core.New(core.Config{Nodes: 4, ReMigrateEvery: 25})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	// --- Act 1: Randy explores the shifter (Ch. 3) -------------------
	_, err = sys.ImportObject("/specs/shifter", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4)))
	must(err)
	_, err = sys.ImportObject("/specs/shifter.cmd", oct.TypeText, oct.Text("set d0 1\nsim\nexpect q0 1\n"))
	must(err)

	randy := sys.NewThread("Shifter-synthesis", "randy")
	_, err = sys.Invoke(randy, "create-logic-description",
		map[string]string{"Spec": "/specs/shifter"},
		map[string]string{"Outlogic": "shifter.logic"})
	must(err)
	_, err = sys.Invoke(randy, "logic-simulator",
		map[string]string{"Inlogic": "shifter.logic", "Commands": "/specs/shifter.cmd"},
		map[string]string{"Report": "shifter.rep"})
	must(err)
	simPoint := randy.Cursor()

	// Standard-cell branch, then rework to the PLA branch.
	_, err = sys.Invoke(randy, "standard-cell-place-and-route",
		map[string]string{"Inlogic": "shifter.logic"},
		map[string]string{"Outcell": "shifter.sc"})
	must(err)
	must(randy.MoveCursor(simPoint))
	must(randy.Annotate(simPoint, "The Start of PLA Approach"))
	_, err = sys.Invoke(randy, "PLA-generation",
		map[string]string{"Inlogic": "shifter.logic"},
		map[string]string{"Outcell": "shifter.pla"})
	must(err)
	if len(randy.Frontier()) != 2 {
		t.Fatalf("exploration should leave 2 frontiers, got %d", len(randy.Frontier()))
	}

	// --- Act 2: Mary builds the adder; they cooperate (Ch. 3) --------
	_, err = sys.ImportObject("/specs/adder", oct.TypeBehavioral, oct.Text(logic.AdderBehavior(2)))
	must(err)
	mary := sys.NewThread("Arithmetic-unit", "mary")
	_, err = sys.Invoke(mary, "create-logic-description",
		map[string]string{"Spec": "/specs/adder"},
		map[string]string{"Outlogic": "adder.logic"})
	must(err)

	space := sys.Space("A")
	space.Register(randy.ID())
	space.Register(mary.ID())
	_, err = sys.Activity.MoveToSDS(randy, "shifter.logic", space)
	must(err)
	_, err = sys.Activity.MoveFromSDS(space, "shifter.logic", 0, mary, "marys.shifter", true,
		sds.Predicate(func(prev, next *oct.Object) bool { return true }))
	must(err)
	_, err = sys.Activity.MoveToSDS(randy, "shifter.logic", space)
	must(err)
	if n := mary.Notifications(); len(n) != 1 {
		t.Fatalf("mary notifications %d, want 1", len(n))
	}

	// --- Act 3: the ALU join and continued work (Fig 3.10) -----------
	alu, err := sys.Activity.Join(randy, mary, randy.Frontier()[0], mary.Frontier()[0], "ALU", "randy")
	must(err)
	_, err = sys.Invoke(alu, "standard-cell-place-and-route",
		map[string]string{"Inlogic": "adder.logic"},
		map[string]string{"Outcell": "alu.cell"})
	must(err)
	_, err = sys.Invoke(alu, "place-pads",
		map[string]string{"Incell": "alu.cell"},
		map[string]string{"Outcell": "alu.padded"})
	must(err)

	// --- Act 4: metadata queries (Ch. 6) ------------------------------
	padded, err := alu.ResolveInput("alu.padded")
	must(err)
	typ, ok := sys.Inference.TypeOf(padded)
	if !ok || typ != oct.TypeLayout {
		t.Errorf("inferred type %s ok=%v", typ, ok)
	}
	if comps := sys.Inference.RelatedBy(infer.RelConfiguration, padded); len(comps) == 0 {
		t.Error("no configuration components for the padded ALU cell")
	}
	area, err := sys.Inference.AttrOf(padded, "area")
	must(err)
	if area == "" || area == "0" {
		t.Errorf("area attribute %q", area)
	}
	ops, err := sys.Inference.Graph().Derivation(padded)
	must(err)
	if len(ops) < 3 {
		t.Errorf("derivation depth %d, want >= 3", len(ops))
	}

	// --- Act 5: the spec changes; rebuild on demand (§1.4) ------------
	_, err = sys.ImportObject("/specs/adder", oct.TypeBehavioral, oct.Text(logic.AdderBehavior(3)))
	must(err)
	stale, err := sys.OutOfDate(padded)
	must(err)
	if !stale {
		t.Error("padded ALU not reported stale after spec edit")
	}
	fresh, err := sys.Rebuild(alu, padded)
	must(err)
	if fresh.Version <= padded.Version {
		t.Errorf("rebuild version %d not newer than %d", fresh.Version, padded.Version)
	}

	// --- Act 6: reclamation (Ch. 5) -----------------------------------
	// Iterate simulations on the ALU thread, then GC the rounds.
	var rounds [][]*history.Record
	for i := 0; i < 4; i++ {
		rec, err := sys.Invoke(alu, "logic-simulator",
			map[string]string{"Inlogic": "adder.logic", "Commands": "/specs/shifter.cmd"},
			map[string]string{"Report": "alu.rep"})
		if err != nil {
			// The shifter command file sets d0, which the adder lacks;
			// use a trivial command file instead.
			_, err2 := sys.ImportObject("/specs/trivial.cmd", oct.TypeText, oct.Text("sim\n"))
			must(err2)
			rec, err = sys.Invoke(alu, "logic-simulator",
				map[string]string{"Inlogic": "adder.logic", "Commands": "/specs/trivial.cmd"},
				map[string]string{"Report": "alu.rep"})
			must(err)
		}
		rounds = append(rounds, []*history.Record{rec})
	}
	hints := reclaim.DetectIterations(alu)
	if len(hints) == 0 {
		t.Fatal("iteration detection found nothing")
	}
	before := sys.Store.ObjectCount()
	removed, err := sys.Reclaimer.CollectIterations(alu, hints[0])
	must(err)
	if removed == 0 {
		t.Error("iteration GC removed nothing")
	}
	_, err = sys.Reclaimer.Sweep(0)
	must(err)
	if sys.Store.ObjectCount() >= before {
		t.Error("sweep did not shrink the store")
	}
	_ = rounds

	// --- Act 7: persistence across sessions ---------------------------
	dir := t.TempDir()
	must(sys.SaveSession(dir))
	restored, _, err := core.Recover(core.Config{Nodes: 4}, dir)
	must(err)
	aluRestored := findThread(t, restored, "ALU")
	if _, err := aluRestored.ResolveInput("alu.padded"); err != nil {
		t.Errorf("restored session lost alu.padded: %v", err)
	}
	// The ALU thread carries a full copy of Randy's history (Fig 3.10:
	// the merged thread "works as if it had been created from scratch"),
	// so the annotation appears there too.
	if _, ok := aluRestored.FindAnnotation("The Start of PLA Approach"); !ok {
		t.Error("join did not carry the annotated history")
	}
	randyRestored := findThread(t, restored, "Shifter-synthesis")
	if _, ok := randyRestored.FindAnnotation("The Start of PLA Approach"); !ok {
		t.Error("annotation lost across sessions")
	}

	// The rendered view still tells the story.
	view := restored.RenderThread(randyRestored)
	if !strings.Contains(view, "PLA-generation") || !strings.Contains(view, "standard-cell-place-and-route") {
		t.Errorf("restored render lost branches:\n%s", view)
	}
}

func findThread(t *testing.T, sys *core.System, name string) *activity.Thread {
	t.Helper()
	for _, th := range sys.Activity.Threads() {
		if th.Name() == name {
			return th
		}
	}
	t.Fatalf("thread %q not found", name)
	return nil
}
