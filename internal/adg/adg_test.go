package adg

import (
	"reflect"
	"testing"

	"papyrus/internal/history"
	"papyrus/internal/oct"
)

func ref(name string, v int) oct.Ref { return oct.Ref{Name: name, Version: v} }

func step(tool string, ins, outs []oct.Ref) history.StepRecord {
	return history.StepRecord{Name: tool + "_step", Tool: tool, Inputs: ins, Outputs: outs}
}

// buildChain models Fig 6.2(a): spec -> bdsyn -> logic -> misII -> opt ->
// wolfe -> layout, with a side branch espresso consuming logic.
func buildChain() *Graph {
	g := New()
	g.AddStep(step("bdsyn", []oct.Ref{ref("spec", 1)}, []oct.Ref{ref("logic", 1)}))
	g.AddStep(step("misII", []oct.Ref{ref("logic", 1)}, []oct.Ref{ref("opt", 1)}))
	g.AddStep(step("wolfe", []oct.Ref{ref("opt", 1)}, []oct.Ref{ref("layout", 1)}))
	g.AddStep(step("espresso", []oct.Ref{ref("logic", 1)}, []oct.Ref{ref("min", 1)}))
	return g
}

func TestProducersAndConsumers(t *testing.T) {
	g := buildChain()
	op, ok := g.Producer(ref("opt", 1))
	if !ok || op.Tool != "misII" {
		t.Errorf("producer of opt = %v", op)
	}
	if _, ok := g.Producer(ref("spec", 1)); ok {
		t.Error("source object has a producer")
	}
	var cons []string
	for _, op := range g.Ops() {
		for _, in := range op.Inputs {
			if in == ref("logic", 1) {
				cons = append(cons, op.Tool)
			}
		}
	}
	if !reflect.DeepEqual(cons, []string{"misII", "espresso"}) {
		t.Errorf("consumers of logic = %v, want [misII espresso]", cons)
	}
}

func TestDerivationOrder(t *testing.T) {
	g := buildChain()
	order, err := g.Derivation(ref("layout", 1))
	if err != nil {
		t.Fatal(err)
	}
	tools := make([]string, len(order))
	for i, op := range order {
		tools[i] = op.Tool
	}
	want := []string{"bdsyn", "misII", "wolfe"}
	if len(tools) != len(want) {
		t.Fatalf("derivation %v", tools)
	}
	for i := range want {
		if tools[i] != want[i] {
			t.Errorf("derivation[%d] = %s, want %s", i, tools[i], want[i])
		}
	}
}

func TestSourcesAndObjects(t *testing.T) {
	g := buildChain()
	src := g.Sources()
	if len(src) != 1 || src[0] != ref("spec", 1) {
		t.Errorf("sources %v", src)
	}
	if len(g.Objects()) != 5 {
		t.Errorf("objects %v", g.Objects())
	}
	if len(g.Ops()) != 4 {
		t.Errorf("ops %d", len(g.Ops()))
	}
}

func TestMultiInputOp(t *testing.T) {
	// Fig 6.2(b): an operation with more than one input.
	g := New()
	g.AddStep(step("musa", []oct.Ref{ref("cmd", 1), ref("net", 1)}, []oct.Ref{ref("report", 1)}))
	order, err := g.Derivation(ref("report", 1))
	if err != nil || len(order) != 1 {
		t.Fatalf("derivation %v %v", order, err)
	}
	if len(order[0].Inputs) != 2 {
		t.Errorf("inputs %v", order[0].Inputs)
	}
}

func TestFromStream(t *testing.T) {
	s := history.NewStream()
	r1 := &history.Record{
		TaskName: "t1",
		Steps: []history.StepRecord{
			step("bdsyn", []oct.Ref{ref("spec", 1)}, []oct.Ref{ref("logic", 1)}),
		},
	}
	s.Append(r1, nil)
	r2 := &history.Record{
		TaskName: "t2",
		Steps: []history.StepRecord{
			step("espresso", []oct.Ref{ref("logic", 1)}, []oct.Ref{ref("min", 1)}),
		},
	}
	s.Append(r2, r1)
	g := FromStream(s)
	if len(g.Ops()) != 2 {
		t.Fatalf("ops %d", len(g.Ops()))
	}
	order, err := g.Derivation(ref("min", 1))
	if err != nil || len(order) != 2 {
		t.Errorf("derivation %v %v", order, err)
	}
}

func TestVersionsAreDistinctNodes(t *testing.T) {
	g := New()
	g.AddStep(step("espresso", []oct.Ref{ref("c", 1)}, []oct.Ref{ref("c", 2)}))
	g.AddStep(step("espresso", []oct.Ref{ref("c", 2)}, []oct.Ref{ref("c", 3)}))
	order, err := g.Derivation(ref("c", 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Errorf("derivation across versions %d ops, want 2", len(order))
	}
}

// TestFromStreamMatchesIncremental: rebuilding the graph from a stream
// gives the same ops and producers as feeding the same steps
// to AddStep one at a time (the inference layer's OnStep path). The ops
// share the records' slices rather than copying them.
func TestFromStreamMatchesIncremental(t *testing.T) {
	withOpts := func(s history.StepRecord, opts ...string) history.StepRecord {
		s.Options = opts
		return s
	}
	records := []*history.Record{
		{TaskName: "synth", Steps: []history.StepRecord{
			withOpts(step("bdsyn", []oct.Ref{ref("spec", 1)}, []oct.Ref{ref("logic", 1)}), "-o", "logic"),
			withOpts(step("misII", []oct.Ref{ref("logic", 1)}, []oct.Ref{ref("opt", 1), ref("rpt", 1)}), "-f", "script.rugged"),
		}},
		{TaskName: "check", Steps: []history.StepRecord{
			step("equiv", []oct.Ref{ref("logic", 1), ref("opt", 1)}, nil),
		}},
		{TaskName: "edit", Steps: []history.StepRecord{
			withOpts(step("espresso", []oct.Ref{ref("opt", 1)}, []oct.Ref{ref("opt", 2)}), "-Dexact"),
			step("wolfe", []oct.Ref{ref("opt", 2)}, []oct.Ref{ref("layout", 1)}),
		}},
	}
	s := history.NewStream()
	incr := New()
	var parent *history.Record
	at := int64(0)
	for _, rec := range records {
		for i := range rec.Steps {
			at += 10
			rec.Steps[i].CompletedAt = at
			incr.AddStep(rec.Steps[i])
		}
		parent = s.Append(rec, parent)
	}
	rebuilt := FromStream(s)
	if !reflect.DeepEqual(rebuilt.Ops(), incr.Ops()) {
		t.Fatalf("FromStream ops differ from incremental AddStep:\n%+v\nvs\n%+v", rebuilt.Ops(), incr.Ops())
	}
	if len(incr.Ops()) != 5 {
		t.Fatalf("%d ops, want 5", len(incr.Ops()))
	}
	for _, obj := range incr.Objects() {
		a, aok := incr.Producer(obj)
		b, bok := rebuilt.Producer(obj)
		if aok != bok || (aok && a.ID != b.ID) {
			t.Errorf("producer of %s: incremental %v, rebuilt %v", obj, a, b)
		}
	}
	op := rebuilt.Ops()[1]
	st := records[0].Steps[1]
	if &op.Options[0] != &st.Options[0] || &op.Inputs[0] != &st.Inputs[0] || &op.Outputs[0] != &st.Outputs[0] {
		t.Error("op copied the step record's slices instead of sharing them")
	}
}
