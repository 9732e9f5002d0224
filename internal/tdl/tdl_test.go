package tdl

import (
	"reflect"
	"strings"
	"testing"
)

const demoTemplate = `task Demo {In1 In2} {Out1}
step {1 First} {In1} {mid} {bdsyn -o mid In1}
step Second {mid In2} {Out1} {misII -o Out1 mid} {ControlDependency 1} {NonMigrate}
`

func TestParseTemplate(t *testing.T) {
	tpl, err := Parse(demoTemplate)
	if err != nil {
		t.Fatal(err)
	}
	if tpl.Name != "Demo" {
		t.Errorf("name %q", tpl.Name)
	}
	if len(tpl.Inputs) != 2 || tpl.Inputs[0] != "In1" {
		t.Errorf("inputs %v", tpl.Inputs)
	}
	if len(tpl.Outputs) != 1 || tpl.Outputs[0] != "Out1" {
		t.Errorf("outputs %v", tpl.Outputs)
	}
	if len(tpl.Commands) != 2 {
		t.Errorf("commands %d: %v", len(tpl.Commands), tpl.Commands)
	}
}

func TestParseTemplateErrors(t *testing.T) {
	for _, text := range []string{
		"",
		"step S {a} {b} {t b a}", // no task header
		"task T {A A} {B}",       // duplicate formal
		"task T {A} {A}",         // input/output collision
		"notask",                 // not a task command
	} {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q): expected error", text)
		}
	}
}

func TestParseStepArgs(t *testing.T) {
	spec, err := ParseStepArgs([]string{
		"1 Place_and_Route", "cell.padp", "Outcell",
		"wolfe -f -r 2 -o Outcell cell.padp",
		"ResumedStep 2", "ControlDependency 3 4", "NonMigrate", "OnFail continue",
	})
	if err != nil {
		t.Fatal(err)
	}
	if spec.ID != "1" || spec.Name != "Place_and_Route" {
		t.Errorf("id/name = %q/%q", spec.ID, spec.Name)
	}
	if !spec.HasResumed || spec.ResumedStep != "2" {
		t.Errorf("resumed %v %q", spec.HasResumed, spec.ResumedStep)
	}
	if len(spec.ControlDeps) != 2 || spec.ControlDeps[0] != "3" {
		t.Errorf("ctl deps %v", spec.ControlDeps)
	}
	if !spec.NonMigrate || !spec.OnFailCont {
		t.Error("flags not parsed")
	}
	if len(spec.Invocation) == 0 || spec.Invocation[0] != "wolfe" {
		t.Errorf("invocation %v", spec.Invocation)
	}
}

func TestParseStepArgsUnnumbered(t *testing.T) {
	spec, err := ParseStepArgs([]string{"Simulate", "a b", "", "musa -i a b"})
	if err != nil {
		t.Fatal(err)
	}
	if spec.ID != "" || spec.Name != "Simulate" {
		t.Errorf("id/name = %q/%q", spec.ID, spec.Name)
	}
	if len(spec.Outputs) != 0 {
		t.Errorf("outputs %v", spec.Outputs)
	}
}

func TestParseStepArgsErrors(t *testing.T) {
	cases := [][]string{
		{"S", "a", "b"},                               // too few
		{"S", "a", "b", ""},                           // empty invocation
		{"S", "a", "b", "t a b", "Bogus 1"},           // unknown optional
		{"S", "a", "b", "t a b", "ResumedStep"},       // missing arg
		{"S", "a", "b", "t a b", "OnFail abort"},      // bad OnFail
		{"x y z", "a", "b", "t"},                      // bad identifier
		{"S", "a", "b", "t a b", "ControlDependency"}, // missing deps
	}
	for _, args := range cases {
		if _, err := ParseStepArgs(args); err == nil {
			t.Errorf("ParseStepArgs(%v): expected error", args)
		}
	}
}

func TestParseSubtaskArgs(t *testing.T) {
	spec, err := ParseSubtaskArgs([]string{"Padp", "cell.logic", "cell.padp"})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "Padp" || spec.ID != "" {
		t.Errorf("spec %+v", spec)
	}
	spec, err = ParseSubtaskArgs([]string{"7 Padp", "a", "b"})
	if err != nil || spec.ID != "7" {
		t.Errorf("numbered subtask: %+v %v", spec, err)
	}
	if _, err := ParseSubtaskArgs([]string{"Padp", "a"}); err == nil {
		t.Error("short subtask accepted")
	}
}

func TestSplitInvocation(t *testing.T) {
	tool, opts, err := SplitInvocation(
		[]string{"wolfe", "-f", "-r", "2", "-o", "Outcell", "cell.padp"},
		[]string{"cell.padp", "Outcell"})
	if err != nil {
		t.Fatal(err)
	}
	if tool != "wolfe" {
		t.Errorf("tool %q", tool)
	}
	want := []string{"-f", "-r", "2", "-o"}
	if len(opts) != len(want) {
		t.Fatalf("options %v, want %v", opts, want)
	}
	for i := range want {
		if opts[i] != want[i] {
			t.Errorf("option %d = %q, want %q", i, opts[i], want[i])
		}
	}
}

func TestSplitInvocationRedirects(t *testing.T) {
	// chipstats Outcell1 |& tee Cell_statistics
	tool, opts, err := SplitInvocation(
		[]string{"chipstats", "Outcell1", "|&", "tee", "Cell_statistics"},
		[]string{"Outcell1", "Cell_statistics"})
	if err != nil {
		t.Fatal(err)
	}
	if tool != "chipstats" || len(opts) != 0 {
		t.Errorf("tool %q opts %v", tool, opts)
	}
	// PGcurrent grOutput > pgOutput
	_, opts, _ = SplitInvocation(
		[]string{"PGcurrent", "grOutput", ">", "pgOutput"},
		[]string{"grOutput", "pgOutput"})
	if len(opts) != 0 {
		t.Errorf("opts %v", opts)
	}
	if _, _, err := SplitInvocation(nil, nil); err == nil {
		t.Error("empty invocation accepted")
	}
}

func TestStatusBarrier(t *testing.T) {
	cases := []struct {
		cmd  string
		want bool
	}{
		{"if {$status} {step V {a} {b} {t b a}}", true},
		{"if {${status}} {x}", true},
		{"set x [attribute obj area]", true},
		{"step S {a} {b} {t b a}", false},
		{"set x 5", false},
	}
	for _, c := range cases {
		if got := StatusBarrier(c.cmd); got != c.want {
			t.Errorf("StatusBarrier(%q) = %v, want %v", c.cmd, got, c.want)
		}
	}
}

func TestParseStepPriority(t *testing.T) {
	spec, err := ParseStepArgs([]string{"S", "a", "b", "t b a", "Priority 7"})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Priority != 7 {
		t.Errorf("priority %d, want 7", spec.Priority)
	}
	if _, err := ParseStepArgs([]string{"S", "a", "b", "t b a", "Priority x"}); err == nil {
		t.Error("bad priority accepted")
	}
	if _, err := ParseStepArgs([]string{"S", "a", "b", "t b a", "Priority"}); err == nil {
		t.Error("missing priority accepted")
	}
}

// TestCompileLiteralSteps: Compile pre-parses exactly the step commands
// whose words are all literal and that parse; the rest keep only their
// compiled script.
func TestCompileLiteralSteps(t *testing.T) {
	c, err := Compile(`task T {A} {Out}
step {1 Build} {A} {m1} {bdsyn -o m1 A}
step Opt {m1} {m2} "misII -o m2 m1" {Priority 2}
step Var {m2} {m3} "$tool -o m3 m2"
step Sub {m3} {m4} [list misII -o m4 m3]
step Short {m4} {Out}
set x 1
if {$status == 0} {step In {A} {m5} {bdsyn -o m5 A}}
`)
	if err != nil {
		t.Fatal(err)
	}
	pre := make([]string, len(c.Steps))
	for i, st := range c.Steps {
		if st != nil {
			pre[i] = st.Spec.Name + ":" + st.Tool + ":" + strings.Join(st.Options, ",")
		}
	}
	want := []string{"Build:bdsyn:-o", "Opt:misII:-o", "", "", "", "", ""}
	if !reflect.DeepEqual(pre, want) {
		t.Fatalf("pre-parsed steps %q, want %q", pre, want)
	}
	if st := c.Steps[1]; st.Spec.Priority != 2 || cap(st.Options) != len(st.Options) {
		t.Errorf("Opt: priority %d, options len %d cap %d", st.Spec.Priority, len(st.Options), cap(st.Options))
	}
}
