// Package infer implements Papyrus's history-based metadata inference
// (dissertation Chapter 6): instead of asking users for design metadata,
// the system watches the design operation history and deduces object
// types, attributes, and inter-object relationships from each tool
// execution's semantics description (TSD, Fig 6.4).
//
// The analogy of Fig 6.3 runs through the implementation: a tool execution
// plays the role of a grammar-rule instantiation over the augmented
// derivation graph, and metadata are attribute values evaluated as a side
// effect, as in syntax-directed editors. Propagated-attribute evaluation
// rules are attached to relationships rather than objects (Fig 6.5), so
// they are shared by every object pair in the same kind of relationship
// and supply defaults without user registration.
//
// The query surface (TypeOf, Lineage, EquivalenceClass, Relationships)
// backs both the shell's metadata commands and the served front-end's
// GET /v1/sessions/{id}/query endpoint (docs/SERVER.md).
package infer

import (
	"fmt"
	"sort"
	"strconv"

	"papyrus/internal/adg"
	"papyrus/internal/attr"
	"papyrus/internal/cad"
	"papyrus/internal/history"
	"papyrus/internal/oct"
)

// RelKind classifies inferred inter-object relationships (§6.4.2, as
// reconstructed in DESIGN.md §4).
type RelKind string

// Relationship kinds.
const (
	RelDerivation    RelKind = "derivation"    // output derived-from input
	RelVersion       RelKind = "version"       // successor version of a lineage
	RelEquivalence   RelKind = "equivalence"   // format transformation
	RelConfiguration RelKind = "configuration" // component-of a composite
)

// Relationship is a first-class inferred relationship object.
type Relationship struct {
	Kind RelKind
	From oct.Ref // the dependent/component/equivalent/new-version object
	To   oct.Ref // the source/composite/original object
	Via  string  // creating tool
}

// EvalMode selects when an intrinsic attribute is computed (§6.4.1).
type EvalMode int

// Evaluation modes.
const (
	Lazy      EvalMode = iota // demand-driven
	Immediate                 // data-driven (constraints, index attributes)
)

// AttrSpec declares one attribute of a type specification.
type AttrSpec struct {
	Name string
	Mode EvalMode
}

// TypeSpec lists the attributes attached to objects of a type when they
// are created (§6.4.1: "a set of attributes are automatically attached").
type TypeSpec struct {
	Attrs []AttrSpec
}

// DefaultTypeSpecs mirrors the measurable attributes of the CAD suite,
// with the cheap interface attributes immediate and the expensive ones
// lazy.
func DefaultTypeSpecs() map[oct.Type]TypeSpec {
	return map[oct.Type]TypeSpec{
		oct.TypeBehavioral: {Attrs: []AttrSpec{
			{Name: "inputs", Mode: Immediate}, {Name: "outputs", Mode: Immediate},
		}},
		oct.TypeLogic: {Attrs: []AttrSpec{
			{Name: "inputs", Mode: Immediate}, {Name: "outputs", Mode: Immediate},
			{Name: "literals", Mode: Lazy}, {Name: "minterms", Mode: Lazy},
			{Name: "depth", Mode: Lazy}, {Name: "nodes", Mode: Lazy},
		}},
		oct.TypePLA: {Attrs: []AttrSpec{
			{Name: "inputs", Mode: Immediate}, {Name: "outputs", Mode: Immediate},
			{Name: "rows", Mode: Lazy}, {Name: "columns", Mode: Lazy},
			{Name: "area", Mode: Lazy},
		}},
		oct.TypeLayout: {Attrs: []AttrSpec{
			{Name: "cells", Mode: Immediate},
			{Name: "area", Mode: Lazy}, {Name: "hpwl", Mode: Lazy},
			{Name: "tracks", Mode: Lazy}, {Name: "vias", Mode: Lazy},
			{Name: "power", Mode: Lazy},
		}},
	}
}

// Engine incrementally constructs metadata from observed design steps.
// Plug its ObserveStep into task.Config.OnStep.
type Engine struct {
	suite *cad.Suite
	store *oct.Store
	attrs *attr.DB
	graph *adg.Graph
	specs map[oct.Type]TypeSpec

	// nodes holds what inference knows of each object version: its type
	// and the heads of its relationship lists.
	nodes map[oct.Ref]node
	// typeNames[c-1] is the type a node's typ code c names. The few
	// types are interned so that a node stays 16 bytes.
	typeNames []oct.Type
	// edges stores each distinct relationship once, threaded into the
	// out-list of its From version (in insertion order) and the in-list
	// of its To version. Every query reads these lists; none scans edges.
	edges []edge

	// propCache holds computed propagated-attribute values per object.
	propCache map[oct.Ref]map[string]string
	// propEvals counts composite recomputations (cache misses) since the
	// last CountedPropagate call — the incremental-evaluation metric.
	propEvals int
}

// node is one object version's entry in the relationship index. out,
// last and in are 1-based indexes into Engine.edges, 0 for none: the first
// and the last edge whose From is this version, and the most recently
// added edge whose To is this version.
type node struct {
	typ           uint16 // 0: no type inferred; else a typeNames code
	out, last, in int32
}

// edge is one stored relationship and its links to the next edge of the
// same From (nextOut) and of the same To (nextIn).
type edge struct {
	from, to        oct.Ref
	via             string
	nextOut, nextIn int32
	kind            uint8 // index into relKinds
}

// An edge stores its kind as a code that indexes relKinds.
const (
	codeDerivation uint8 = iota
	codeVersion
	codeEquivalence
	codeConfiguration
)

var relKinds = [...]RelKind{
	codeDerivation:    RelDerivation,
	codeVersion:       RelVersion,
	codeEquivalence:   RelEquivalence,
	codeConfiguration: RelConfiguration,
}

// kindCode returns k's index in relKinds; ok is false for a kind no
// relationship can have.
func kindCode(k RelKind) (code uint8, ok bool) {
	for i, rk := range relKinds {
		if rk == k {
			return uint8(i), true
		}
	}
	return 0, false
}

// at returns the edge at 1-based index i.
func (e *Engine) at(i int32) *edge { return &e.edges[i-1] }

// rel returns the edge at 1-based index i as a Relationship.
func (e *Engine) rel(i int32) Relationship {
	x := e.at(i)
	return Relationship{Kind: relKinds[x.kind], From: x.from, To: x.to, Via: x.via}
}

// NewEngine builds an inference engine.
func NewEngine(suite *cad.Suite, store *oct.Store, attrs *attr.DB) *Engine {
	return &Engine{
		suite:     suite,
		store:     store,
		attrs:     attrs,
		graph:     adg.New(),
		specs:     DefaultTypeSpecs(),
		nodes:     make(map[oct.Ref]node),
		propCache: make(map[oct.Ref]map[string]string),
	}
}

// Graph exposes the engine's augmented derivation graph.
func (e *Engine) Graph() *adg.Graph { return e.graph }

// ObserveStep is the incremental construction entry point (§6.4): each
// completed design step extends the ADG and triggers type inference,
// attribute attachment/evaluation, and relationship establishment for its
// outputs.
func (e *Engine) ObserveStep(rec history.StepRecord) {
	e.graph.AddStep(rec)
	if rec.ExitStatus != 0 || len(rec.Outputs) == 0 {
		return
	}
	tool, ok := e.suite.Tool(rec.Tool)
	if !ok {
		return
	}
	tsd := tool.TSD
	outType := tsd.OutputTypeFor(rec.Options)

	for _, out := range rec.Outputs {
		// --- Type inference (§6.4.1): the type comes from the creating
		// tool's TSD, refined by the stored object when available.
		t := outType
		if obj, err := e.store.Peek(out); err == nil && obj.Type != oct.TypeUntyped {
			t = obj.Type
		}
		n := e.nodes[out]
		n.typ = e.typeCode(t)
		e.nodes[out] = n

		// --- Attribute attachment: inherit what the TSD declares
		// unchanged, evaluate immediate attributes now, leave the rest
		// to demand (§6.4.1).
		if len(rec.Inputs) > 0 {
			e.attrs.Inherit(rec.Inputs[0], out, tsd.Inherit)
		}
		if spec, ok := e.specs[t]; ok {
			for _, as := range spec.Attrs {
				if as.Mode != Immediate {
					continue
				}
				if _, ok := e.attrs.Peek(out, as.Name); ok {
					continue // inherited
				}
				if obj, err := e.store.Peek(out); err == nil {
					_, _ = e.attrs.Get(out, as.Name, obj)
				}
			}
		}

		// --- Relationship establishment (§6.4.2).
		for _, in := range rec.Inputs {
			e.addRel(Relationship{Kind: RelDerivation, From: out, To: in, Via: rec.Tool})
			if in.Name == out.Name && out.Version > in.Version {
				e.addRel(Relationship{Kind: RelVersion, From: out, To: in, Via: rec.Tool})
			}
		}
		if tsd.FormatTransform && len(rec.Inputs) > 0 {
			// The transformed object is the last input by the suite's
			// convention (reference inputs come first).
			src := rec.Inputs[len(rec.Inputs)-1]
			e.addRel(Relationship{Kind: RelEquivalence, From: out, To: src, Via: rec.Tool})
		}
		if tsd.Composition {
			for _, in := range rec.Inputs {
				e.addRel(Relationship{Kind: RelConfiguration, From: in, To: out, Via: rec.Tool})
				// A new component version invalidates the composite's
				// propagated attributes (incremental re-evaluation).
				e.invalidateUp(out)
			}
		}
	}
}

// addRel adds r unless it is already known. Only r.From's out-list can
// hold it, so the check costs the degree of r.From.
func (e *Engine) addRel(r Relationship) {
	k, _ := kindCode(r.Kind) // callers pass the kind constants
	from := e.nodes[r.From]
	for i := from.out; i != 0; i = e.at(i).nextOut {
		if x := e.at(i); x.kind == k && x.to == r.To && x.via == r.Via {
			return
		}
	}
	e.edges = append(e.edges, edge{from: r.From, to: r.To, via: r.Via, kind: k})
	i := int32(len(e.edges))
	if from.last == 0 {
		from.out = i
	} else {
		e.at(from.last).nextOut = i
	}
	from.last = i
	e.nodes[r.From] = from
	to := e.nodes[r.To] // read after the write: From and To may be one ref
	e.at(i).nextIn, to.in = to.in, i
	e.nodes[r.To] = to
}

// typeCode interns t.
func (e *Engine) typeCode(t oct.Type) uint16 {
	for i, name := range e.typeNames {
		if name == t {
			return uint16(i + 1)
		}
	}
	e.typeNames = append(e.typeNames, t)
	return uint16(len(e.typeNames))
}

// TypeOf returns the inferred type of an object version.
func (e *Engine) TypeOf(ref oct.Ref) (oct.Type, bool) {
	if c := e.nodes[ref].typ; c != 0 {
		return e.typeNames[c-1], true
	}
	return "", false
}

// Relationships returns the inferred relationships touching ref, sorted
// for determinism.
func (e *Engine) Relationships(ref oct.Ref) []Relationship {
	var out []Relationship
	n := e.nodes[ref]
	for i := n.out; i != 0; i = e.at(i).nextOut {
		out = append(out, e.rel(i))
	}
	for i := n.in; i != 0; i = e.at(i).nextIn {
		if e.at(i).from != ref { // a self-relationship is already in
			out = append(out, e.rel(i))
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

// RelatedBy returns the partners of ref under one relationship kind:
// objects X with (X kind-of ref), e.g. the components of a configuration.
func (e *Engine) RelatedBy(kind RelKind, ref oct.Ref) []oct.Ref {
	k, ok := kindCode(kind)
	if !ok {
		return nil
	}
	var out []oct.Ref
	for i := e.nodes[ref].in; i != 0; i = e.at(i).nextIn {
		if x := e.at(i); x.kind == k {
			out = append(out, x.from)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// EquivalenceClass returns all object versions transitively linked to ref
// by equivalence relationships (the different representations of one
// design that format transformations produce), including ref itself.
func (e *Engine) EquivalenceClass(ref oct.Ref) []oct.Ref {
	seen := map[oct.Ref]bool{ref: true}
	queue := []oct.Ref{ref}
	visit := func(other oct.Ref) {
		if !seen[other] {
			seen[other] = true
			queue = append(queue, other)
		}
	}
	for len(queue) > 0 {
		n := e.nodes[queue[0]]
		queue = queue[1:]
		for i := n.out; i != 0; i = e.at(i).nextOut {
			if x := e.at(i); x.kind == codeEquivalence {
				visit(x.to)
			}
		}
		for i := n.in; i != 0; i = e.at(i).nextIn {
			if x := e.at(i); x.kind == codeEquivalence {
				visit(x.from)
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

// Lineage returns the version chain ending at ref, oldest first, following
// the inferred version relationships (the version-history view a DFM can
// synthesize for a version-control system, §1.3).
func (e *Engine) Lineage(ref oct.Ref) []oct.Ref {
	chain := []oct.Ref{ref}
	for cur := ref; ; {
		i := e.nodes[cur].out
		for i != 0 && e.at(i).kind != codeVersion {
			i = e.at(i).nextOut
		}
		if i == 0 {
			break
		}
		cur = e.at(i).to
		chain = append(chain, cur)
	}
	// Reverse to oldest-first.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// CheckApplicable verifies a tool application against inferred types:
// "the system can detect incompatible tool applications, e.g. invoking a
// layout compaction tool on a logic object" (§6.4.1).
func (e *Engine) CheckApplicable(toolName string, inputs []oct.Ref) error {
	tool, ok := e.suite.Tool(toolName)
	if !ok {
		return fmt.Errorf("infer: unknown tool %q", toolName)
	}
	if len(tool.TSD.Reads) == 0 {
		return nil
	}
	accepts := map[oct.Type]bool{}
	for _, t := range tool.TSD.Reads {
		accepts[t] = true
	}
	// Text command files accompany many tools.
	accepts[oct.TypeText] = true
	accepts[oct.TypeBehavioral] = accepts[oct.TypeBehavioral] || accepts[oct.TypeLogic]
	for _, in := range inputs {
		t, ok := e.TypeOf(in)
		if !ok {
			if obj, err := e.store.Peek(in); err == nil {
				t = obj.Type
			} else {
				continue // unknown object: cannot judge
			}
		}
		if !accepts[t] {
			return fmt.Errorf("infer: tool %q cannot be applied to %s (type %s)", toolName, in, t)
		}
	}
	return nil
}

// AttrOf returns an attribute value, computing it lazily through the
// attribute database when absent (§6.4.1's demand-driven evaluation).
func (e *Engine) AttrOf(ref oct.Ref, name string) (string, error) {
	obj, err := e.store.Peek(ref)
	if err != nil {
		return "", err
	}
	return e.attrs.Get(ref, name, obj)
}

// --- Propagated attributes (Fig 6.5) --------------------------------

// Propagated attribute rules hang on the configuration relationship: a
// composite's value is an aggregate of its components' plus its own.
// The rule set is keyed by attribute name; Combine folds component values.
type propRule struct {
	combine func(values []int64) int64
}

var configRules = map[string]propRule{
	// Power of a composite is the sum of the components' (Fig 6.5's
	// example propagates power up the configuration hierarchy).
	"power": {combine: sumInt64},
	// Area aggregates additively as a lower bound for the composite.
	"area": {combine: sumInt64},
	// Interface pin count aggregates additively.
	"pins": {combine: sumInt64},
}

func sumInt64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// PropagatedAttr evaluates a propagated attribute of a composite object by
// folding the components' values through the rule attached to the
// configuration relationship. Results are cached; invalidateUp clears the
// cache when components change.
func (e *Engine) PropagatedAttr(ref oct.Ref, name string) (string, error) {
	if cached, ok := e.propCache[ref][name]; ok {
		return cached, nil
	}
	rule, ok := configRules[name]
	if !ok {
		return "", fmt.Errorf("infer: no propagated-attribute rule for %q", name)
	}
	components := e.RelatedBy(RelConfiguration, ref)
	if len(components) == 0 {
		// Leaf: the intrinsic value — stored attribute first, measurement
		// as fallback.
		if entry, ok := e.attrs.Peek(ref, name); ok {
			return entry.Value, nil
		}
		return e.AttrOf(ref, name)
	}
	var values []int64
	for _, c := range components {
		v, err := e.PropagatedAttr(c, name)
		if err != nil {
			// Fall back to the intrinsic measurement of the component.
			v, err = e.AttrOf(c, name)
			if err != nil {
				return "", err
			}
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return "", fmt.Errorf("infer: non-numeric %s of %s: %q", name, c, v)
		}
		values = append(values, n)
	}
	result := strconv.FormatInt(rule.combine(values), 10)
	if e.propCache[ref] == nil {
		e.propCache[ref] = map[string]string{}
	}
	e.propCache[ref][name] = result
	e.propEvals++
	return result, nil
}

// CountedPropagate evaluates a propagated attribute and returns how many
// composite nodes had to be recomputed (cache misses) — the metric of the
// incremental-vs-full experiment (§6.4.1).
func (e *Engine) CountedPropagate(ref oct.Ref, name string) int {
	e.propEvals = 0
	_, _ = e.PropagatedAttr(ref, name)
	return e.propEvals
}

// AddConfiguration registers a configuration relationship directly (used
// when composites are assembled outside tool runs, e.g. thread joins). It
// refuses a link that would close a cycle: one from a ref to itself, or
// to a composite that already contains component.
func (e *Engine) AddConfiguration(component, composite oct.Ref, via string) error {
	if e.containedIn(composite, component, map[oct.Ref]bool{}) {
		return fmt.Errorf("infer: configuration %s -> %s would close a cycle", component, composite)
	}
	e.addRel(Relationship{Kind: RelConfiguration, From: component, To: composite, Via: via})
	e.invalidateUp(composite)
	return nil
}

// containedIn reports whether ref is, or configuration edges lead from
// it up to, composite.
func (e *Engine) containedIn(ref, composite oct.Ref, seen map[oct.Ref]bool) bool {
	if ref == composite {
		return true
	}
	seen[ref] = true
	for i := e.nodes[ref].out; i != 0; i = e.at(i).nextOut {
		if x := e.at(i); x.kind == codeConfiguration && !seen[x.to] && e.containedIn(x.to, composite, seen) {
			return true
		}
	}
	return false
}

// invalidateUp clears cached propagated attributes of ref and every
// composite transitively containing it — the incremental re-evaluation of
// §6.4.1 (only the affected part of the hierarchy recomputes).
func (e *Engine) invalidateUp(ref oct.Ref) {
	delete(e.propCache, ref)
	for i := e.nodes[ref].out; i != 0; i = e.at(i).nextOut {
		if x := e.at(i); x.kind == codeConfiguration {
			e.invalidateUp(x.to)
		}
	}
}

// InvalidateAll clears the whole propagated cache (the "full
// re-evaluation" strawman the incremental bench compares against).
func (e *Engine) InvalidateAll() {
	e.propCache = make(map[oct.Ref]map[string]string)
}
