package task

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"papyrus/internal/cad/logic"
	"papyrus/internal/obs"
	"papyrus/internal/oct"
)

// TestTemplateEditTakesEffect: templates are plain text that may change
// between runs (§4.1). The compiled template is reused while the text is
// unchanged and recompiled as soon as it differs.
func TestTemplateEditTakesEffect(t *testing.T) {
	text := "task Edit {A} {Out}\nstep S1 {A} {Out} {bdsyn -o Out A}\n"
	e := newEnv(t, 2, nil, func(c *Config) {
		c.Templates = func(name string) (string, error) {
			if name != "Edit" {
				return "", fmt.Errorf("no template %q", name)
			}
			return text, nil
		}
	})
	a := e.seed(t, "a.spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)))
	run := func() []string {
		t.Helper()
		rec, err := e.mgr.RunTask(Invocation{
			Task:    "Edit",
			Inputs:  map[string]oct.Ref{"A": a},
			Outputs: map[string]string{"Out": "out"},
		})
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, s := range rec.Steps {
			names = append(names, s.Name)
		}
		return names
	}
	if got := strings.Join(run(), " "); got != "S1" {
		t.Fatalf("first run steps %q, want S1", got)
	}
	first := e.mgr.compiled["Edit"]
	run()
	if e.mgr.compiled["Edit"] != first {
		t.Fatal("unchanged template text was compiled again")
	}

	text = "task Edit {A} {Out}\nstep S1 {A} {m1} {bdsyn -o m1 A}\nstep S2 {m1} {Out} {misII -o Out m1}\n"
	if got := strings.Join(run(), " "); got != "S1 S2" {
		t.Fatalf("run after the edit executed %q, want the new text's S1 S2", got)
	}
	if e.mgr.compiled["Edit"] == first {
		t.Fatal("edited template kept its stale compiled form")
	}
	if st := e.mgr.compiled["Edit"].Steps[1]; st == nil || st.Spec.Name != "S2" || st.Tool != "misII" {
		t.Fatalf("edited template's pre-parsed second step is %+v, want S2 running misII", st)
	}
}

// TestCompiledStepsKeepTclSemantics: a literal step command is registered
// from its compile-time parse; everything else is evaluated by the
// interpreter. A step with substitution sees the run's variables, and a
// proc named step replaces the TDL command for the steps after it, even
// when a subtask defined it.
func TestCompiledStepsKeepTclSemantics(t *testing.T) {
	const procStep = `proc step {id in out inv} {error "proc step: $id reads $in"}`
	tpl := map[string]string{
		"VarStep": `task VarStep {A} {Out}
set tool misII
step {1 Build} {A} {m1} {bdsyn -o m1 A}
step {2 Opt} {m1} {Out} "$tool -o Out m1"
`,
		"ProcStep": "task ProcStep {A} {Out}\nstep {1 Build} {A} {m1} {bdsyn -o m1 A}\n" + procStep +
			"\nstep {2 Opt} {m1} {Out} {misII -o Out m1}\n",
		"Defs": "task Defs {} {}\n" + procStep + "\n",
		"SubProcStep": `task SubProcStep {A} {Out}
step {1 Build} {A} {m1} {bdsyn -o m1 A}
subtask Defs {} {}
step {2 Opt} {m1} {Out} {misII -o Out m1}
`,
	}
	cases := []struct {
		task, result string // recorded steps as name:tool, or the error
	}{
		{"VarStep", "Build:bdsyn Opt:misII"},
		{"ProcStep", "task aborted: proc step: 2 Opt reads m1"},
		{"SubProcStep", "task aborted: proc step: 2 Opt reads m1"},
	}
	e := newEnv(t, 2, tpl, nil)
	a := e.seed(t, "a.spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)))
	for _, c := range cases {
		for run := 0; run < 2; run++ {
			rec, err := e.mgr.RunTask(Invocation{
				Task:    c.task,
				Inputs:  map[string]oct.Ref{"A": a},
				Outputs: map[string]string{"Out": "out"},
			})
			var got string
			if err != nil {
				got = err.Error()
			} else {
				var steps []string
				for _, s := range rec.Steps {
					steps = append(steps, s.Name+":"+s.Tool)
				}
				got = strings.Join(steps, " ")
			}
			if got != c.result {
				t.Errorf("%s run %d: %s, want %s", c.task, run, got, c.result)
			}
		}
	}
	if e.mgr.compiled["VarStep"].Steps[2] != nil {
		t.Error("a step with $ substitution was pre-parsed")
	}
	if e.mgr.compiled["ProcStep"].Steps[2] == nil {
		t.Error("a literal step was not pre-parsed")
	}
}

// TestCompiledTemplateShared: a replay's TemplateIO lookup, the replayed
// run and the subtasks it expands all work from one compiled template per
// task name.
func TestCompiledTemplateShared(t *testing.T) {
	tpl := map[string]string{
		"Inner": "task Inner {X} {Y}\nstep {1 InnerStep} {X} {Y} {misII -o Y X}\n",
		"Outer": `task Outer {A} {Out}
step {1 Build} {A} {m1} {bdsyn -o m1 A}
subtask {2 Inner} {m1} {m2}
subtask {3 Inner} {m2} {Out}
`,
	}
	e := newEnv(t, 2, tpl, nil)
	a := e.seed(t, "a.spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)))
	rec, err := e.mgr.RunTask(Invocation{
		Task:    "Outer",
		Inputs:  map[string]oct.Ref{"A": a},
		Outputs: map[string]string{"Out": "out"},
	})
	if err != nil {
		t.Fatal(err)
	}
	outer, inner := e.mgr.compiled["Outer"], e.mgr.compiled["Inner"]
	if outer == nil || inner == nil {
		t.Fatalf("compiled cache holds %v, want Outer and Inner", e.mgr.compiled)
	}

	// Replay the record the way the activity manager does: formals from
	// TemplateIO, actuals from the record (sorted by formal name).
	for i := 0; i < 3; i++ {
		ins, outs, err := e.mgr.TemplateIO("Outer")
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(ins, ",") != "A" || strings.Join(outs, ",") != "Out" {
			t.Fatalf("TemplateIO = %v %v", ins, outs)
		}
		again, err := e.mgr.RunTask(Invocation{
			Task:    "Outer",
			Inputs:  map[string]oct.Ref{ins[0]: rec.Inputs[0]},
			Outputs: map[string]string{outs[0]: rec.Outputs[0].Name},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Steps) != 3 {
			t.Fatalf("replay %d: %d steps, want 3", i, len(again.Steps))
		}
	}
	if e.mgr.compiled["Outer"] != outer || e.mgr.compiled["Inner"] != inner {
		t.Fatal("a replay, TemplateIO or subtask expansion recompiled its template")
	}
	if len(e.mgr.compiled) != 2 {
		t.Fatalf("compiled cache has %d entries, want 2", len(e.mgr.compiled))
	}
}

// TestMalformedTemplateErrors: compiling templates once changes neither
// where a malformed command fails nor the error text. A malformed body
// command rejects the template before anything runs; a parse error inside
// a control body surfaces only when that body runs, after the commands
// before it in the body.
func TestMalformedTemplateErrors(t *testing.T) {
	tpl := map[string]string{
		"BadTop": "task BadTop {A} {Out}\nstep S1 {A} {Out} {misII -o Out A}\nset x {unclosed\n",
		"BadBody": `task BadBody {A} {Out}
step S1 {A} {m1} {bdsyn -o m1 A}
if {1} {step S2 {A} {m2} {bdsyn -o m2 A}; set z "open}
step S3 {m1} {Out} {misII -o Out m1}
`,
		"BadSub":   "task BadSub {A} {Out}\nstep S1 {A} {m1} {bdsyn -o m1 A}\nsubtask {2 BadInner} {m1} {Out}\n",
		"BadInner": "task BadInner {X} {Y}\nstep S1 {X} {Y} {misII -o Y X}\nset q [list a\n",
		// Literal steps that fail in the run: too few fields, an unknown
		// optional field, an unknown tool.
		"BadStep":  "task BadStep {A} {Out}\nstep S1 {A} {m1} {bdsyn -o m1 A}\nstep {2 Bad} {m1} {Out}\n",
		"BadField": "task BadField {A} {Out}\nstep S1 {A} {m1} {bdsyn -o m1 A}\nstep S2 {m1} {Out} {misII -o Out m1} {Bogus 1}\n",
		"BadTool":  "task BadTool {A} {Out}\nstep S1 {A} {m1} {bdsyn -o m1 A}\nstep S2 {m1} {Out} {nosuchtool -o Out m1}\n",
	}
	cases := []struct {
		task, err string
		issued    string // steps issued before the failure
	}{
		{"BadTop", "tdl: missing close-brace for brace at offset 63", ""},
		{"BadBody", "task aborted: missing close-quote for quote at offset 40", "S1 S2"},
		{"BadSub", "task aborted: subtask BadInner: tdl: missing close-bracket for bracket at offset 59", "S1"},
		{"BadStep", "task aborted: tdl: step wants {ID? Name} {inputs} {outputs} {invocation} ?options?, got 3 args", "S1"},
		{"BadField", `task aborted: tdl: step S2: unknown optional field "Bogus"`, "S1"},
		{"BadTool", `task aborted: step S2: unknown tool "nosuchtool"`, "S1"},
	}
	for _, c := range cases {
		tracer := obs.NewTracer()
		e := newEnv(t, 2, tpl, func(cfg *Config) { cfg.Tracer = tracer })
		a := e.seed(t, "a.spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)))
		for run := 0; run < 2; run++ { // the second run uses the cached compile
			tracer.Reset()
			_, err := e.mgr.RunTask(Invocation{
				Task:    c.task,
				Inputs:  map[string]oct.Ref{"A": a},
				Outputs: map[string]string{"Out": "out"},
			})
			if err == nil || err.Error() != c.err {
				t.Fatalf("%s run %d: error %v, want %q", c.task, run, err, c.err)
			}
			var issued []string
			for _, ev := range tracer.Events() {
				if ev.Type == obs.EvStepIssued {
					issued = append(issued, ev.Name)
				}
			}
			if got := strings.Join(issued, " "); got != c.issued {
				t.Fatalf("%s run %d: issued %q before failing, want %q", c.task, run, got, c.issued)
			}
		}
	}
}

// subOptTemplate is expanded twice by the abort-by-name tests, so two live
// steps share the name Opt.
const subOptTemplate = "task SubOpt {X} {Y}\nstep {1 Opt} {X} {Y} {misII -o Y X} {ResumedStep 1}\n"

// restarts runs a task and returns the resumed step and cause of each
// programmable-abort restart, in order.
func restarts(t *testing.T, tpl map[string]string, task string, maxRestarts int) ([]string, error) {
	t.Helper()
	tracer := obs.NewTracer()
	e := newEnv(t, 2, tpl, func(c *Config) {
		c.Tracer = tracer
		c.MaxRestarts = maxRestarts
	})
	a := e.seed(t, "a.spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)))
	_, err := e.mgr.RunTask(Invocation{
		Task:    task,
		Inputs:  map[string]oct.Ref{"A": a},
		Outputs: map[string]string{"Out": "out"},
	})
	var got []string
	for _, ev := range tracer.Events() {
		if ev.Type == obs.EvTaskRestart {
			got = append(got, ev.Args["resumed"]+" ("+ev.Args["cause"]+")")
		}
	}
	return got, err
}

// TestAbortByNameDeterministic: when two live steps share a name, `abort
// <name>` restarts at the most recently registered one's resumed step —
// every time, not whichever a map iteration happens to visit first.
func TestAbortByNameDeterministic(t *testing.T) {
	tpl := map[string]string{
		"SubOpt": subOptTemplate,
		"TwoOpt": `task TwoOpt {A} {Out}
step {1 Build} {A} {m1} {bdsyn -o m1 A}
subtask {2 SubOpt} {m1} {m2}
subtask {3 SubOpt} {m2} {Out}
if {$status == 0} {abort Opt}
`,
	}
	seen := map[string]int{}
	for i := 0; i < 40; i++ {
		got, err := restarts(t, tpl, "TwoOpt", 3)
		if err == nil {
			t.Fatal("an abort on every pass must exhaust the restart budget")
		}
		if len(got) != 3 {
			t.Fatalf("run %d: %d restarts %v, want 3", i, len(got), got)
		}
		for _, r := range got {
			seen[r]++
		}
	}
	var keys []string
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) != 1 || keys[0] != "3.1 (abort Opt)" {
		t.Fatalf("restarts resumed at %v, want only 3.1 (the later Opt)", seen)
	}
}

// TestAbortByNameSkipsRewoundSteps: a step rewound by a restart is no
// longer a candidate for abort-by-name, so the name falls back to the
// earlier step that is still live.
func TestAbortByNameSkipsRewoundSteps(t *testing.T) {
	tpl := map[string]string{
		"SubOpt": subOptTemplate,
		// Pass 1 registers 2.1 and 3.1 (both Opt), then rewinds to 2.1,
		// which drops 3.1. Pass 2 takes the else branch, so Opt names
		// only 2.1 when it aborts by name. Pass 3 commits.
		"Rewind": `task Rewind {A} {Out}
set n 0
step {1 Build} {A} {m1} {bdsyn -o m1 A}
subtask {2 SubOpt} {m1} {m2}
if {$n == 0} {subtask {3 SubOpt} {m2} {Out}} else {step {4 Copy} {m2} {Out} {misII -o Out m2}}
if {[incr n] == 1} {abort 2.1} elseif {$n == 2} {abort Opt}
`,
	}
	for i := 0; i < 20; i++ {
		got, err := restarts(t, tpl, "Rewind", 3)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		want := "2.1 (abort 2.1),2.1 (abort Opt)"
		if strings.Join(got, ",") != want {
			t.Fatalf("run %d: restarts %v, want %s", i, got, want)
		}
	}
}

// TestErrorTextIsNotARestart: a restart is a typed signal only. An
// `error` command whose message reads like one — written out, or
// re-raising the message of an `abort` that `catch` caught — fails the
// task like any other error, with no restart.
func TestErrorTextIsNotARestart(t *testing.T) {
	for _, tc := range []struct{ name, script string }{
		{"literal", `error {restart at resumed step "0"}`},
		{"rethrown", "catch {abort Build} msg\nerror $msg"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tpl := map[string]string{
				"Raise": "task Raise {A} {Out}\nstep {1 Build} {A} {Out} {bdsyn -o Out A} {ResumedStep 1}\n" + tc.script + "\n",
			}
			reg := obs.NewRegistry()
			e := newEnv(t, 1, tpl, func(c *Config) {
				c.Metrics = reg
				c.MaxRestarts = 3
			})
			a := e.seed(t, "a.spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(2)))
			_, err := e.mgr.RunTask(Invocation{
				Task:    "Raise",
				Inputs:  map[string]oct.Ref{"A": a},
				Outputs: map[string]string{"Out": "out"},
			})
			if err == nil || !strings.Contains(err.Error(), "restart at resumed step") {
				t.Fatalf("RunTask err = %v, want the error command's failure", err)
			}
			if got := reg.Counter("task.run.restart"); got != 0 {
				t.Errorf("task.run.restart = %d, want 0 (error text is not a restart)", got)
			}
		})
	}
}
