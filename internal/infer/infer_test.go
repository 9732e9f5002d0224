package infer

import (
	"testing"

	"papyrus/internal/attr"
	"papyrus/internal/cad"
	"papyrus/internal/cad/logic"
	"papyrus/internal/history"
	"papyrus/internal/oct"
	"papyrus/internal/sprite"
	"papyrus/internal/task"
	"papyrus/internal/templates"
)

type env struct {
	suite  *cad.Suite
	store  *oct.Store
	attrs  *attr.DB
	engine *Engine
	tasks  *task.Manager
}

func newEnv(t *testing.T) *env {
	t.Helper()
	cluster, err := sprite.NewCluster(sprite.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := &env{
		suite: cad.NewSuite(),
		store: oct.NewStore(),
	}
	e.attrs = attr.New(cad.Measure)
	e.engine = NewEngine(e.suite, e.store, e.attrs)
	e.tasks, err = task.New(task.Config{
		Suite:     e.suite,
		Store:     e.store,
		Cluster:   cluster,
		Templates: templates.Source(nil),
		AttrDB:    e.attrs,
		OnStep:    e.engine.ObserveStep,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runSynthesis drives the Structure_Synthesis task with the inference
// engine observing, so metadata accrues purely from the history.
func runSynthesis(t *testing.T, e *env) *history.Record {
	t.Helper()
	spec, err := e.store.Put("spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4)), "seed")
	if err != nil {
		t.Fatal(err)
	}
	cmd, _ := e.store.Put("cmd", oct.TypeText, oct.Text(`
set d0 1
sim
expect q0 1
`), "seed")
	rec, err := e.tasks.RunTask(task.Invocation{
		Task: "Structure_Synthesis",
		Inputs: map[string]oct.Ref{
			"Incell":       {Name: spec.Name, Version: spec.Version},
			"Musa_Command": {Name: cmd.Name, Version: cmd.Version},
		},
		Outputs: map[string]string{"Outcell": "chip", "Cell_Statistics": "stats"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func findOutput(rec *history.Record, tool string) (oct.Ref, bool) {
	for _, s := range rec.Steps {
		if s.Tool == tool && len(s.Outputs) > 0 {
			return s.Outputs[0], true
		}
	}
	return oct.Ref{}, false
}

func TestTypeInferenceFromHistory(t *testing.T) {
	e := newEnv(t)
	rec := runSynthesis(t, e)
	cases := []struct {
		tool string
		want oct.Type
	}{
		{"bdsyn", oct.TypeLogic},
		{"misII", oct.TypeLogic},
		{"padplace", oct.TypeLayout},
		{"wolfe", oct.TypeLayout},
		{"chipstats", oct.TypeStats},
	}
	for _, c := range cases {
		ref, ok := findOutput(rec, c.tool)
		if !ok {
			t.Fatalf("no output for %s", c.tool)
		}
		got, ok := e.engine.TypeOf(ref)
		if !ok || got != c.want {
			t.Errorf("TypeOf(%s output) = %s ok=%v, want %s", c.tool, got, ok, c.want)
		}
	}
}

func TestFig64EspressoTSDInheritance(t *testing.T) {
	e := newEnv(t)
	// Build a logic network and minimize it via a small task; the
	// inference engine should inherit #inputs/#outputs from the input to
	// the espresso output, and leave minterms for recomputation.
	b, _ := logic.ParseBehavior(logic.ShifterBehavior(3))
	nw, _ := b.Synthesize()
	in, _ := e.store.Put("net", oct.TypeLogic, nw, "bdsyn")
	inRef := oct.Ref{Name: in.Name, Version: in.Version}
	// Seed the input's attributes (as its own creation would have).
	e.attrs.Set(inRef, "inputs", "4", "")
	e.attrs.Set(inRef, "outputs", "3", "")
	e.attrs.Set(inRef, "minterms", "999", "") // stale if inherited

	rec, err := e.tasks.RunTask(task.Invocation{
		Task:    "PLA-generation",
		Inputs:  map[string]oct.Ref{"Inlogic": inRef},
		Outputs: map[string]string{"Outcell": "pla.layout"},
	})
	if err != nil {
		t.Fatal(err)
	}
	espOut, ok := findOutput(rec, "espresso")
	if !ok {
		t.Fatal("no espresso output")
	}
	got, ok := e.attrs.Peek(espOut, "inputs")
	if !ok || got.Value != "4" || got.Source != "inherited" {
		t.Errorf("inputs not inherited: %+v ok=%v", got, ok)
	}
	// minterms must NOT be inherited (espresso changes it, Fig 6.4); a
	// lazy lookup measures the real value.
	if entry, ok := e.attrs.Peek(espOut, "minterms"); ok && entry.Source == "inherited" {
		t.Errorf("minterms wrongly inherited: %+v", entry)
	}
	v, err := e.engine.AttrOf(espOut, "minterms")
	if err != nil {
		t.Fatal(err)
	}
	if v == "999" || v == "" {
		t.Errorf("lazily measured minterms = %q", v)
	}
}

func TestRelationshipEstablishment(t *testing.T) {
	e := newEnv(t)
	rec := runSynthesis(t, e)
	// Derivation: every step output derives from its inputs.
	misOut, _ := findOutput(rec, "misII")
	rels := e.engine.Relationships(misOut)
	hasDerivation := false
	for _, r := range rels {
		if r.Kind == RelDerivation && r.From == misOut {
			hasDerivation = true
		}
	}
	if !hasDerivation {
		t.Error("no derivation relationship for misII output")
	}
	// Configuration: padplace is a composition tool; its input is a
	// component of the padded layout.
	padOut, _ := findOutput(rec, "padplace")
	comps := e.engine.RelatedBy(RelConfiguration, padOut)
	if len(comps) == 0 {
		t.Error("no configuration components for padplace output")
	}
}

func TestEquivalenceFromFormatTransform(t *testing.T) {
	e := newEnv(t)
	spec, _ := e.store.Put("m.spec", oct.TypeBehavioral,
		oct.Text(logic.GenBehavior(logic.GenConfig{Seed: 2, Inputs: 5, Outputs: 3, Depth: 3})), "seed")
	rec, err := e.tasks.RunTask(task.Invocation{
		Task:    "Mosaico",
		Inputs:  map[string]oct.Ref{"Incell": {Name: spec.Name, Version: spec.Version}},
		Outputs: map[string]string{"Outcell": "m.out", "Cell_statistics": "m.stats"},
	})
	if err != nil {
		t.Fatal(err)
	}
	flOut, ok := findOutput(rec, "octflatten")
	if !ok {
		t.Fatal("no octflatten output")
	}
	found := false
	for _, r := range e.engine.Relationships(flOut) {
		if r.Kind == RelEquivalence && r.From == flOut {
			found = true
		}
	}
	if !found {
		t.Error("octflatten output lacks equivalence relationship")
	}
}

func TestVersionRelationship(t *testing.T) {
	e := newEnv(t)
	e.engine.ObserveStep(history.StepRecord{
		Name: "s", Tool: "espresso",
		Inputs:  []oct.Ref{{Name: "c", Version: 1}},
		Outputs: []oct.Ref{{Name: "c", Version: 2}},
	})
	rels := e.engine.Relationships(oct.Ref{Name: "c", Version: 2})
	hasVersion := false
	for _, r := range rels {
		if r.Kind == RelVersion {
			hasVersion = true
		}
	}
	if !hasVersion {
		t.Error("same-lineage update lacks version relationship")
	}
}

func TestCheckApplicable(t *testing.T) {
	e := newEnv(t)
	b, _ := logic.ParseBehavior(logic.ShifterBehavior(2))
	nw, _ := b.Synthesize()
	obj, _ := e.store.Put("net", oct.TypeLogic, nw, "bdsyn")
	ref := oct.Ref{Name: obj.Name, Version: obj.Version}
	e.engine.ObserveStep(history.StepRecord{
		Name: "s", Tool: "bdsyn", Outputs: []oct.Ref{ref},
	})
	// sparcs (layout compactor) on a logic object: rejected (§6.4.1).
	if err := e.engine.CheckApplicable("sparcs", []oct.Ref{ref}); err == nil {
		t.Error("compactor accepted a logic object")
	}
	if err := e.engine.CheckApplicable("espresso", []oct.Ref{ref}); err != nil {
		t.Errorf("espresso rejected a logic object: %v", err)
	}
	if err := e.engine.CheckApplicable("nosuch", nil); err == nil {
		t.Error("unknown tool accepted")
	}
}

func TestFig65PropagatedAttributes(t *testing.T) {
	e := newEnv(t)
	// Build a configuration hierarchy by hand: chip contains alu and
	// shifter; alu contains adder. Leaf powers come from the attribute DB.
	chip := oct.Ref{Name: "chip", Version: 1}
	alu := oct.Ref{Name: "alu", Version: 1}
	sh := oct.Ref{Name: "sh", Version: 1}
	adder := oct.Ref{Name: "adder", Version: 1}
	for _, link := range [][2]oct.Ref{{alu, chip}, {sh, chip}, {adder, alu}} {
		if err := e.engine.AddConfiguration(link[0], link[1], "compose"); err != nil {
			t.Fatal(err)
		}
	}
	e.attrs.Set(adder, "power", "30", "")
	e.attrs.Set(sh, "power", "12", "")

	// Need store objects for leaf fallback measurement: none needed since
	// values are in the DB. alu's power = sum of its components = 30;
	// chip = 30 + 12 = 42.
	got, err := e.engine.PropagatedAttr(chip, "power")
	if err != nil {
		t.Fatal(err)
	}
	if got != "42" {
		t.Errorf("chip power = %s, want 42", got)
	}
	// Cached now; a new component version invalidates up the hierarchy.
	adder2 := oct.Ref{Name: "adder", Version: 2}
	e.attrs.Set(adder2, "power", "50", "")
	if err := e.engine.AddConfiguration(adder2, alu, "compose"); err != nil {
		t.Fatal(err)
	}
	got, err = e.engine.PropagatedAttr(chip, "power")
	if err != nil {
		t.Fatal(err)
	}
	if got != "92" { // 30 + 50 + 12
		t.Errorf("chip power after update = %s, want 92", got)
	}
	// Unknown rule.
	if _, err := e.engine.PropagatedAttr(chip, "aroma"); err == nil {
		t.Error("unknown propagated attribute accepted")
	}
}

// TestAddConfigurationRefusesCycles: a link that would make a composite
// contain itself, directly or through its components, is an error and
// leaves the hierarchy and its cached attributes as they were.
func TestAddConfigurationRefusesCycles(t *testing.T) {
	e := newEnv(t)
	chip := oct.Ref{Name: "chip", Version: 1}
	alu := oct.Ref{Name: "alu", Version: 1}
	adder := oct.Ref{Name: "adder", Version: 1}
	for _, link := range [][2]oct.Ref{{alu, chip}, {adder, alu}} {
		if err := e.engine.AddConfiguration(link[0], link[1], "compose"); err != nil {
			t.Fatal(err)
		}
	}
	e.attrs.Set(adder, "power", "30", "")
	for _, link := range [][2]oct.Ref{{chip, alu}, {chip, adder}, {alu, alu}} {
		if err := e.engine.AddConfiguration(link[0], link[1], "compose"); err == nil {
			t.Errorf("AddConfiguration(%s, %s) closed a cycle", link[0], link[1])
		}
	}
	if got, err := e.engine.PropagatedAttr(chip, "power"); err != nil || got != "30" {
		t.Errorf("chip power = %q, %v; want 30", got, err)
	}
	if comps := e.engine.RelatedBy(RelConfiguration, alu); len(comps) != 1 || comps[0] != adder {
		t.Errorf("alu components = %v, want [%s]", comps, adder)
	}
}

func TestPropagatedAttrLeafFallsBackToMeasurement(t *testing.T) {
	e := newEnv(t)
	nl, _ := logic.ParseBehavior(logic.ShifterBehavior(2))
	nw, _ := nl.Synthesize()
	// A placed layout leaf measured for power.
	layoutObj := buildLayout(t, e, nw)
	leaf := oct.Ref{Name: layoutObj.Name, Version: layoutObj.Version}
	comp := oct.Ref{Name: "composite", Version: 1}
	e.engine.AddConfiguration(leaf, comp, "compose")
	got, err := e.engine.PropagatedAttr(comp, "power")
	if err != nil {
		t.Fatal(err)
	}
	if got == "" || got == "0" {
		t.Errorf("propagated power = %q", got)
	}
}

func buildLayout(t *testing.T, e *env, nw *logic.Network) *oct.Object {
	t.Helper()
	l, err := layoutFrom(nw)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := e.store.Put("leaf.layout", oct.TypeLayout, l, "wolfe")
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestADGGrowsWithHistory(t *testing.T) {
	e := newEnv(t)
	rec := runSynthesis(t, e)
	g := e.engine.Graph()
	if len(g.Ops()) != len(rec.Steps) {
		t.Errorf("ADG ops %d, steps %d", len(g.Ops()), len(rec.Steps))
	}
	// The final layout's derivation includes bdsyn, misII, padplace, wolfe.
	chipRef, _ := findOutput(rec, "wolfe")
	order, err := g.Derivation(chipRef)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		tools := make([]string, len(order))
		for i, op := range order {
			tools[i] = op.Tool
		}
		t.Errorf("derivation %v", tools)
	}
}

func TestEquivalenceClassAndLineage(t *testing.T) {
	e := newEnv(t)
	// Format transformations: spec -> net (bdsyn is a format transform),
	// net -> flat (another transform), plus a version chain c@1..c@3.
	a := oct.Ref{Name: "a", Version: 1}
	b := oct.Ref{Name: "b", Version: 1}
	c := oct.Ref{Name: "c", Version: 1}
	e.engine.ObserveStep(history.StepRecord{
		Name: "s1", Tool: "octflatten", Inputs: []oct.Ref{a}, Outputs: []oct.Ref{b},
	})
	e.engine.ObserveStep(history.StepRecord{
		Name: "s2", Tool: "octflatten", Inputs: []oct.Ref{b}, Outputs: []oct.Ref{c},
	})
	class := e.engine.EquivalenceClass(a)
	if len(class) != 3 {
		t.Fatalf("equivalence class %v, want 3 members", class)
	}
	// From any member the class is identical.
	class2 := e.engine.EquivalenceClass(c)
	if len(class2) != 3 {
		t.Errorf("class from c: %v", class2)
	}

	v1 := oct.Ref{Name: "cell", Version: 1}
	v2 := oct.Ref{Name: "cell", Version: 2}
	v3 := oct.Ref{Name: "cell", Version: 3}
	e.engine.ObserveStep(history.StepRecord{
		Name: "u1", Tool: "espresso", Inputs: []oct.Ref{v1}, Outputs: []oct.Ref{v2},
	})
	e.engine.ObserveStep(history.StepRecord{
		Name: "u2", Tool: "espresso", Inputs: []oct.Ref{v2}, Outputs: []oct.Ref{v3},
	})
	lineage := e.engine.Lineage(v3)
	if len(lineage) != 3 || lineage[0] != v1 || lineage[2] != v3 {
		t.Errorf("lineage %v", lineage)
	}
	// A version with no predecessors is its own lineage.
	if got := e.engine.Lineage(v1); len(got) != 1 {
		t.Errorf("root lineage %v", got)
	}
}
