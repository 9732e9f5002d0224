package infer

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"papyrus/internal/history"
	"papyrus/internal/oct"
)

// TestSameInputTwiceOneRelationship: a step that names one object twice
// among its inputs derives its output from that object once.
func TestSameInputTwiceOneRelationship(t *testing.T) {
	e := newEnv(t)
	in := oct.Ref{Name: "net", Version: 1}
	out := oct.Ref{Name: "opt", Version: 1}
	e.engine.ObserveStep(history.StepRecord{
		Name: "s", Tool: "misII", Inputs: []oct.Ref{in, in}, Outputs: []oct.Ref{out},
	})
	want := []Relationship{{Kind: RelDerivation, From: out, To: in, Via: "misII"}}
	if got := e.engine.Relationships(out); !reflect.DeepEqual(got, want) {
		t.Errorf("Relationships(%s) = %v, want %v", out, got, want)
	}
	if got := e.engine.Relationships(in); !reflect.DeepEqual(got, want) {
		t.Errorf("Relationships(%s) = %v, want %v", in, got, want)
	}
}

// TestLineageFollowsInsertionOrder: when a version has two predecessor
// versions, Lineage follows the relationship established first.
func TestLineageFollowsInsertionOrder(t *testing.T) {
	v := func(n int) oct.Ref { return oct.Ref{Name: "cell", Version: n} }
	for _, tc := range []struct {
		inputs []oct.Ref
		want   []oct.Ref
	}{
		{[]oct.Ref{v(2), v(1)}, []oct.Ref{v(1), v(2), v(3)}},
		{[]oct.Ref{v(1), v(2)}, []oct.Ref{v(1), v(3)}},
	} {
		e := newEnv(t)
		e.engine.ObserveStep(history.StepRecord{Name: "u1", Tool: "espresso", Inputs: []oct.Ref{v(1)}, Outputs: []oct.Ref{v(2)}})
		e.engine.ObserveStep(history.StepRecord{Name: "u2", Tool: "espresso", Inputs: tc.inputs, Outputs: []oct.Ref{v(3)}})
		if got := e.engine.Lineage(v(3)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("inputs %v: Lineage = %v, want %v", tc.inputs, got, tc.want)
		}
	}
}

// scanRels is the reference for the relationship index: every
// relationship in the order it was established, deduplicated by a linear
// scan, and queried by scanning all of them.
type scanRels []Relationship

func (s *scanRels) add(r Relationship) {
	for _, x := range *s {
		if x == r {
			return
		}
	}
	*s = append(*s, r)
}

// observe applies ObserveStep's type and relationship rules (§6.4) to
// rec, for a store that holds none of rec's objects.
func (s *scanRels) observe(e *Engine, rec history.StepRecord, types map[oct.Ref]oct.Type) {
	tool, ok := e.suite.Tool(rec.Tool)
	if rec.ExitStatus != 0 || len(rec.Outputs) == 0 || !ok {
		return
	}
	for _, out := range rec.Outputs {
		types[out] = tool.TSD.OutputTypeFor(rec.Options)
		for _, in := range rec.Inputs {
			s.add(Relationship{Kind: RelDerivation, From: out, To: in, Via: rec.Tool})
			if in.Name == out.Name && out.Version > in.Version {
				s.add(Relationship{Kind: RelVersion, From: out, To: in, Via: rec.Tool})
			}
		}
		if tool.TSD.FormatTransform && len(rec.Inputs) > 0 {
			s.add(Relationship{Kind: RelEquivalence, From: out, To: rec.Inputs[len(rec.Inputs)-1], Via: rec.Tool})
		}
		if tool.TSD.Composition {
			for _, in := range rec.Inputs {
				s.add(Relationship{Kind: RelConfiguration, From: in, To: out, Via: rec.Tool})
			}
		}
	}
}

func (s scanRels) relationships(ref oct.Ref) []Relationship {
	var out []Relationship
	for _, r := range s {
		if r.From == ref || r.To == ref {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		if out[i].From != out[j].From {
			return out[i].From.String() < out[j].From.String()
		}
		if out[i].To != out[j].To {
			return out[i].To.String() < out[j].To.String()
		}
		return out[i].Via < out[j].Via
	})
	return out
}

func (s scanRels) relatedBy(kind RelKind, ref oct.Ref) []oct.Ref {
	var out []oct.Ref
	for _, r := range s {
		if r.Kind == kind && r.To == ref {
			out = append(out, r.From)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func (s scanRels) equivalenceClass(ref oct.Ref) []oct.Ref {
	seen := map[oct.Ref]bool{ref: true}
	for queue := []oct.Ref{ref}; len(queue) > 0; queue = queue[1:] {
		for _, r := range s {
			if r.Kind != RelEquivalence {
				continue
			}
			for _, pair := range [][2]oct.Ref{{r.From, r.To}, {r.To, r.From}} {
				if pair[0] == queue[0] && !seen[pair[1]] {
					seen[pair[1]] = true
					queue = append(queue, pair[1])
				}
			}
		}
	}
	out := make([]oct.Ref, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func (s scanRels) lineage(ref oct.Ref) []oct.Ref {
	chain := []oct.Ref{ref}
	for cur, found := ref, true; found; {
		found = false
		for _, r := range s {
			if r.Kind == RelVersion && r.From == cur {
				cur, found = r.To, true
				chain = append([]oct.Ref{cur}, chain...)
				break
			}
		}
	}
	return chain
}

// TestIndexMatchesLinearScan drives the engine with generated histories
// and checks every query against the linear-scan reference, and every
// inferred type, for every object version the history names.
func TestIndexMatchesLinearScan(t *testing.T) {
	tools := []string{"octflatten", "padplace", "espresso", "misII", "bdsyn", "edit", "no-such-tool"}
	names := []string{"a", "b", "c", "d"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := newEnv(t)
		var ref scanRels
		types := map[oct.Ref]oct.Type{}
		next := map[string]int{}
		fresh := func() oct.Ref {
			n := names[rng.Intn(len(names))]
			next[n]++
			return oct.Ref{Name: n, Version: next[n]}
		}
		refs := []oct.Ref{fresh(), fresh(), fresh()}
		for i := 0; i < 60; i++ {
			if rng.Intn(8) == 0 {
				// A configuration registered outside a tool run; the
				// composite is newer than the component.
				j := rng.Intn(len(refs))
				comp, whole := refs[j], refs[j+rng.Intn(len(refs)-j)]
				if comp != whole {
					e.engine.AddConfiguration(comp, whole, "join")
					ref.add(Relationship{Kind: RelConfiguration, From: comp, To: whole, Via: "join"})
				}
				continue
			}
			rec := history.StepRecord{Name: "s", Tool: tools[rng.Intn(len(tools))]}
			for k := rng.Intn(3) + 1; k > 0; k-- {
				rec.Inputs = append(rec.Inputs, refs[rng.Intn(len(refs))]) // repeats allowed
			}
			for k := rng.Intn(2) + 1; k > 0; k-- {
				rec.Outputs = append(rec.Outputs, fresh())
			}
			if rng.Intn(10) == 0 {
				rec.ExitStatus = 1
			}
			e.engine.ObserveStep(rec)
			ref.observe(e.engine, rec, types)
			refs = append(refs, rec.Outputs...)
		}
		for _, r := range refs {
			if got, ok := e.engine.TypeOf(r); got != types[r] || ok != (types[r] != "") {
				t.Fatalf("seed %d: TypeOf(%s) = %q, %v; want %q", seed, r, got, ok, types[r])
			}
			if got, want := e.engine.Relationships(r), ref.relationships(r); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: Relationships(%s) = %v, want %v", seed, r, got, want)
			}
			for _, kind := range relKinds {
				if got, want := e.engine.RelatedBy(kind, r), ref.relatedBy(kind, r); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: RelatedBy(%s, %s) = %v, want %v", seed, kind, r, got, want)
				}
			}
			if got, want := e.engine.EquivalenceClass(r), ref.equivalenceClass(r); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: EquivalenceClass(%s) = %v, want %v", seed, r, got, want)
			}
			if got, want := e.engine.Lineage(r), ref.lineage(r); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: Lineage(%s) = %v, want %v", seed, r, got, want)
			}
		}
		if got := e.engine.RelatedBy("no-such-kind", refs[0]); got != nil {
			t.Fatalf("RelatedBy of an unknown kind = %v, want nil", got)
		}
	}
}
