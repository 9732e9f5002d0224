// Package adg implements the augmented derivation graph (dissertation
// §6.3, Fig 6.2): the data-oriented representation of design history. An
// ADG is a bipartite graph of design objects and tool invocations; each
// invocation edge carries the control parameters involved in creating the
// data dependency. The ADG is independent of execution temporal order —
// that aspect lives in the operation-oriented control streams (Fig 6.1,
// package history).
//
// The metadata inference engine (package infer) consumes the ADG, and
// package rebuild writes a Derivation as a task (§1.4's Make recipe).
package adg

import (
	"fmt"
	"sort"

	"papyrus/internal/history"
	"papyrus/internal/oct"
)

// Op is one recorded tool invocation: an edge bundle of the bipartite
// graph connecting its inputs to its outputs.
type Op struct {
	ID      int
	Tool    string
	Step    string
	Options []string
	Inputs  []oct.Ref
	Outputs []oct.Ref
	At      int64
}

// Graph is an augmented derivation graph.
type Graph struct {
	ops       []*Op
	producers map[oct.Ref]*Op
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		producers: make(map[oct.Ref]*Op),
	}
}

// AddStep records a completed design step. Steps that produced nothing
// (pure checks) still appear as ops. The op shares the
// record's Options, Inputs and Outputs slices, which StepRecord promises
// are never mutated; callers must not mutate an Op's slices either.
func (g *Graph) AddStep(rec history.StepRecord) *Op {
	op := &Op{
		ID:      len(g.ops) + 1,
		Tool:    rec.Tool,
		Step:    rec.Name,
		Options: rec.Options,
		Inputs:  rec.Inputs,
		Outputs: rec.Outputs,
		At:      rec.CompletedAt,
	}
	g.ops = append(g.ops, op)
	for _, out := range op.Outputs {
		g.producers[out] = op
	}
	return op
}

// FromStream builds an ADG from every step of every record in a control
// stream (Fig 6.2 is "the corresponding ADG of the activity control
// thread in Figure 6.1").
func FromStream(s *history.Stream) *Graph {
	g := New()
	recs := append([]*history.Record(nil), s.Records()...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	for _, rec := range recs {
		for _, step := range rec.Steps {
			g.AddStep(step)
		}
	}
	return g
}

// Ops returns all operations in insertion order.
func (g *Graph) Ops() []*Op { return g.ops }

// Producer returns the operation that created the object version.
func (g *Graph) Producer(ref oct.Ref) (*Op, bool) {
	op, ok := g.producers[ref]
	return op, ok
}

// Objects returns every object version appearing in the graph, sorted.
func (g *Graph) Objects() []oct.Ref {
	seen := map[oct.Ref]bool{}
	for _, op := range g.ops {
		for _, r := range op.Inputs {
			seen[r] = true
		}
		for _, r := range op.Outputs {
			seen[r] = true
		}
	}
	out := make([]oct.Ref, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Version < out[j].Version
	})
	return out
}

// Derivation returns the object's derivation history: the transitive
// producing operations in dependency (rebuild) order — the operation-based
// recipe a Make facility needs to reconstruct the object (§1.4, §6.2).
func (g *Graph) Derivation(ref oct.Ref) ([]*Op, error) {
	var order []*Op
	state := map[*Op]int{} // 1 = visiting, 2 = done
	var visit func(r oct.Ref) error
	visit = func(r oct.Ref) error {
		op, ok := g.producers[r]
		if !ok {
			return nil // primary source object
		}
		switch state[op] {
		case 1:
			return fmt.Errorf("adg: derivation cycle through %s", op.Tool)
		case 2:
			return nil
		}
		state[op] = 1
		for _, in := range op.Inputs {
			if err := visit(in); err != nil {
				return err
			}
		}
		state[op] = 2
		order = append(order, op)
		return nil
	}
	if err := visit(ref); err != nil {
		return nil, err
	}
	return order, nil
}

// Sources returns objects with no producer (primary inputs of the design).
func (g *Graph) Sources() []oct.Ref {
	var out []oct.Ref
	for _, r := range g.Objects() {
		if _, ok := g.producers[r]; !ok {
			out = append(out, r)
		}
	}
	return out
}
