package rebuild_test

import (
	"strings"
	"testing"

	"papyrus/internal/activity"
	"papyrus/internal/cad/logic"
	"papyrus/internal/core"
	"papyrus/internal/history"
	"papyrus/internal/memo"
	"papyrus/internal/oct"
	"papyrus/internal/rebuild"
)

// diamond derives net from a spec, then opt (misII) and min (espresso)
// from net: the shape of a demand-driven rebuild that must leave min alone.
const diamond = `task Diamond {Spec} {Net Opt Min}
step Synthesize {Spec} {Net} {bdsyn -o Net Spec}
step Optimize {Net} {Opt} {misII -o Opt Net}
step Minimize {Net} {Min} {espresso -o Min Net}
`

// fan derives one netlist through an intermediate and two misII
// derivatives of it (benchtool E9 at fan-out 2).
const fan = `task Fan {A} {D0 D1}
step S0 {A} {net} {bdsyn -o net A}
step S1 {net} {D0} {misII -o D0 net}
step S2 {net} {D1} {misII -o D1 net}
`

func newSystem(t *testing.T, cfg core.Config) *core.System {
	t.Helper()
	if cfg.Nodes == 0 {
		cfg.Nodes = 2
	}
	cfg.ExtraTemplates = map[string]string{"Diamond": diamond, "Fan": fan}
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func importSpec(t *testing.T, sys *core.System, name string, width int) oct.Ref {
	t.Helper()
	ref, err := sys.ImportObject(name, oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(width)))
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func invoke(t *testing.T, sys *core.System, th *activity.Thread, task string, in, out map[string]string) *history.Record {
	t.Helper()
	rec, err := sys.Invoke(th, task, in, out)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func resolve(t *testing.T, th *activity.Thread, name string) oct.Ref {
	t.Helper()
	ref, err := th.ResolveInput(name)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// buildDiamond runs the Diamond task on a width-3 spec.
func buildDiamond(t *testing.T, sys *core.System) *activity.Thread {
	t.Helper()
	importSpec(t, sys, "/spec", 3)
	th := sys.NewThread("t", "u")
	invoke(t, sys, th, "Diamond", map[string]string{"Spec": "/spec"},
		map[string]string{"Net": "net", "Opt": "opt", "Min": "min"})
	return th
}

func outOfDate(t *testing.T, sys *core.System, ref oct.Ref) bool {
	t.Helper()
	stale, err := sys.OutOfDate(ref)
	if err != nil {
		t.Fatal(err)
	}
	return stale
}

func TestOutOfDate(t *testing.T) {
	sys := newSystem(t, core.Config{})
	th := buildDiamond(t, sys)
	opt := resolve(t, th, "opt")
	if outOfDate(t, sys, opt) {
		t.Error("fresh chain reported out of date")
	}
	// A new spec version makes the chain stale.
	importSpec(t, sys, "/spec", 4)
	if !outOfDate(t, sys, opt) {
		t.Error("modified source not detected")
	}
}

func TestRebuildRegeneratesFromLatestSource(t *testing.T) {
	sys := newSystem(t, core.Config{})
	th := buildDiamond(t, sys)
	opt := resolve(t, th, "opt")
	// Modify the source: wider shifter.
	importSpec(t, sys, "/spec", 4)
	newOpt, err := sys.Rebuild(th, opt)
	if err != nil {
		t.Fatal(err)
	}
	if newOpt.Name != "opt" || newOpt.Version <= opt.Version {
		t.Fatalf("rebuilt ref %v (old %v)", newOpt, opt)
	}
	obj, err := sys.Store.Get(newOpt)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(obj.Data.(*logic.Network).Inputs); n != 5 { // 4 data + select: the NEW spec
		t.Errorf("rebuilt network has %d inputs, want 5", n)
	}
	// Single assignment: the old version is untouched.
	oldObj, err := sys.Store.Get(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(oldObj.Data.(*logic.Network).Inputs) != 4 {
		t.Error("rebuild mutated the old version")
	}
}

func TestRebuildNoDerivation(t *testing.T) {
	sys := newSystem(t, core.Config{})
	src := importSpec(t, sys, "/orphan", 2)
	th := sys.NewThread("t", "u")
	if _, err := sys.Rebuild(th, src); err == nil || !strings.Contains(err.Error(), "no recorded derivation") {
		t.Errorf("source object rebuild: err %v, want no recorded derivation", err)
	}
	if th.Stream().Len() != 0 {
		t.Error("failed rebuild left a history record")
	}
}

func TestRebuildUnknownTool(t *testing.T) {
	sys := newSystem(t, core.Config{})
	spec := importSpec(t, sys, "/spec", 2)
	sys.Inference.Graph().AddStep(history.StepRecord{
		Name: "gone", Tool: "extinct-tool",
		Inputs:  []oct.Ref{spec},
		Outputs: []oct.Ref{{Name: "x", Version: 1}},
	})
	th := sys.NewThread("t", "u")
	if _, err := sys.Rebuild(th, oct.Ref{Name: "x", Version: 1}); err == nil || !strings.Contains(err.Error(), "extinct-tool") {
		t.Errorf("missing tool: err %v, want it named", err)
	}
	if th.Stream().Len() != 0 || sys.Store.Exists("x") {
		t.Error("aborted rebuild left a record or a version behind")
	}
}

func TestRebuildDiamond(t *testing.T) {
	sys := newSystem(t, core.Config{})
	th := buildDiamond(t, sys)
	opt := resolve(t, th, "opt")
	// Rebuild only opt after a spec change: espresso's output is not
	// touched (demand-driven, unlike VOV's retrace-everything).
	minVersionsBefore := sys.Store.LatestVersion("min")
	importSpec(t, sys, "/spec", 4)
	if _, err := sys.Rebuild(th, opt); err != nil {
		t.Fatal(err)
	}
	if sys.Store.LatestVersion("min") != minVersionsBefore {
		t.Error("demand-driven rebuild regenerated an unrelated object")
	}
	if sys.Store.LatestVersion("opt") <= 1 {
		t.Error("target not regenerated")
	}
}

// TestRebuildFixpoint: a rebuilt version is a design step's output like
// any other — recorded, typed, in scope, rebuildable, and stale again
// only when a source changes again.
func TestRebuildFixpoint(t *testing.T) {
	sys := newSystem(t, core.Config{})
	importSpec(t, sys, "/spec", 3)
	th := sys.NewThread("demo", "u")
	invoke(t, sys, th, "create-logic-description", map[string]string{"Spec": "/spec"}, map[string]string{"Outlogic": "sh.logic"})
	invoke(t, sys, th, "PLA-generation", map[string]string{"Inlogic": "sh.logic"}, map[string]string{"Outcell": "sh.pla"})
	target := resolve(t, th, "sh.pla")
	importSpec(t, sys, "/spec", 4)

	fresh, err := sys.Rebuild(th, target)
	if err != nil {
		t.Fatal(err)
	}
	if th.Stream().Len() != 3 || th.Cursor().TaskName != rebuild.Prefix+target.String() {
		t.Fatalf("thread has %d records, cursor %q; want the rebuild recorded third", th.Stream().Len(), th.Cursor().TaskName)
	}
	if outOfDate(t, sys, fresh) {
		t.Error("rebuilt version reported out of date")
	}
	if _, ok := sys.Inference.Graph().Producer(fresh); !ok {
		t.Error("rebuilt version has no producer in the ADG")
	}
	if typ, ok := sys.Inference.TypeOf(fresh); !ok || typ != oct.TypeLayout {
		t.Errorf("rebuilt version type %q ok=%v", typ, ok)
	}
	if got := resolve(t, th, "sh.pla"); got != fresh {
		t.Errorf("thread resolves sh.pla to %v, want %v", got, fresh)
	}
	rec := th.Cursor()
	outputs := map[oct.Ref]bool{}
	for _, ref := range rec.Outputs {
		outputs[ref] = true
	}
	for _, step := range rec.Steps {
		for _, ref := range step.Outputs {
			visible, err := sys.Store.Visible(ref)
			if err != nil {
				t.Fatal(err)
			}
			if visible != outputs[ref] {
				t.Errorf("%v visible=%v, want %v", ref, visible, outputs[ref])
			}
		}
	}

	importSpec(t, sys, "/spec", 5)
	if !outOfDate(t, sys, fresh) {
		t.Error("rebuilt version not stale after a second source edit")
	}
	again, err := sys.Rebuild(th, fresh)
	if err != nil {
		t.Fatalf("rebuilding the rebuilt version: %v", err)
	}
	if again.Version <= fresh.Version || outOfDate(t, sys, again) {
		t.Errorf("second rebuild %v after %v", again, fresh)
	}
}

// TestRebuildSecondTargetHitsMemo: a regenerated step keys the memo cache
// like the step it repeats, so a rebuild with unchanged sources is all
// hits; and two targets share a derivation prefix, so after a source edit
// the second target's bdsyn step is a hit on the first one's rebuild.
func TestRebuildSecondTargetHitsMemo(t *testing.T) {
	sys := newSystem(t, core.Config{Memo: memo.NewCache()})
	importSpec(t, sys, "/a", 3)
	th := sys.NewThread("t", "u")
	invoke(t, sys, th, "Fan", map[string]string{"A": "/a"}, map[string]string{"D0": "d0", "D1": "d1"})
	rebuildCounting := func(name string, hits, misses int64) {
		t.Helper()
		before := sys.Memo.Snapshot()
		if _, err := sys.Rebuild(th, resolve(t, th, name)); err != nil {
			t.Fatal(err)
		}
		after := sys.Memo.Snapshot()
		if h, m := after.Hits-before.Hits, after.Misses-before.Misses; h != hits || m != misses {
			t.Errorf("rebuild %s: %d hits, %d misses; want %d and %d", name, h, m, hits, misses)
		}
	}
	rebuildCounting("d0", 2, 0)
	importSpec(t, sys, "/a", 4)
	rebuildCounting("d0", 0, 2)
	rebuildCounting("d1", 1, 1)
	for _, step := range th.Cursor().Steps {
		if hit := step.StartedAt == step.CompletedAt; hit != (step.Tool == "bdsyn") {
			t.Errorf("step %s (%s): memo hit %v", step.Name, step.Tool, hit)
		}
	}
}

// TestTemplateKeepsOptions: every step a rebuild regenerates from the
// Mosaico flow — redirections ("> pgOutput", "|& tee") and option values
// ("-r YACR") included — records the tool and options of the op it
// repeats.
func TestTemplateKeepsOptions(t *testing.T) {
	sys := newSystem(t, core.Config{Nodes: 4})
	importSpec(t, sys, "/cell", 4)
	th := sys.NewThread("t", "u")
	mosaico := invoke(t, sys, th, "Mosaico", map[string]string{"Incell": "/cell"},
		map[string]string{"Outcell": "cell.out", "Cell_statistics": "cell.stats"})
	var targets []oct.Ref
	for _, step := range mosaico.Steps {
		targets = append(targets, step.Outputs...)
	}
	checked := map[string]bool{}
	for _, target := range targets {
		if _, err := sys.Rebuild(th, target); err != nil {
			text, _ := rebuild.Template(sys.Inference.Graph(), target)
			t.Fatalf("rebuild %v: %v\n%s", target, err, text)
		}
		for _, step := range th.Cursor().Steps {
			op := findOp(t, mosaico, step.Name)
			if step.Tool != op.Tool || strings.Join(step.Options, " ") != strings.Join(op.Options, " ") {
				t.Errorf("step %s: %s %q, recorded %s %q", step.Name, step.Tool, step.Options, op.Tool, op.Options)
			}
			checked[step.Name] = true
		}
	}
	for _, name := range []string{"Power_Ground_Current_Calculation", "Channel_Routing", "Statistics_Calculation"} {
		if !checked[name] {
			t.Errorf("step %s never regenerated", name)
		}
	}
}

func findOp(t *testing.T, rec *history.Record, name string) history.StepRecord {
	t.Helper()
	for _, step := range rec.Steps {
		if step.Name == name {
			return step
		}
	}
	t.Fatalf("no step %s in %s", name, rec.TaskName)
	return history.StepRecord{}
}

// TestTemplateRejectsWhatTDLCannotSay: a derivation whose source is also
// one of its outputs, or whose recorded options would read as step I/O,
// has no faithful TDL form, so generation fails instead of rebuilding
// something else.
func TestTemplateRejectsWhatTDLCannotSay(t *testing.T) {
	sys := newSystem(t, core.Config{})
	importSpec(t, sys, "/s", 3)
	th := sys.NewThread("t", "u")
	invoke(t, sys, th, "create-logic-description", map[string]string{"Spec": "/s"}, map[string]string{"Outlogic": "/s"})
	if _, err := sys.Rebuild(th, resolve(t, th, "/s")); err == nil || !strings.Contains(err.Error(), `declares "/s" twice`) {
		t.Errorf("source rewritten by its own derivation: err %v", err)
	}
	sys.Inference.Graph().AddStep(history.StepRecord{
		Name: "odd", Tool: "bdsyn", Options: []string{"-o", "/s"},
		Inputs:  []oct.Ref{{Name: "/s", Version: 1}},
		Outputs: []oct.Ref{{Name: "y", Version: 1}},
	})
	if _, err := rebuild.Template(sys.Inference.Graph(), oct.Ref{Name: "y", Version: 1}); err == nil || !strings.Contains(err.Error(), "do not survive") {
		t.Errorf("option naming a step input: err %v", err)
	}
}
