package tcl

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"
)

// builtinNames is the sorted builtin command set a fresh interpreter
// reports through Commands and `info commands`.
const builtinNames = "append break case catch concat continue error eval expr for foreach format " +
	"global if incr info join lappend lindex list llength lrange lsearch proc puts return set " +
	"source split string subst switch unset while"

func TestCommandsSortedSet(t *testing.T) {
	in := New()
	if got := strings.Join(in.Commands(), " "); got != builtinNames {
		t.Fatalf("Commands() = %q\nwant        %q", got, builtinNames)
	}
	info, err := in.Eval("info commands")
	if err != nil || info != builtinNames {
		t.Fatalf("info commands = %q, %v", info, err)
	}

	in.Register("zeta", cmdList)
	in.Register("aaa", cmdList)
	in.Unregister("puts")
	in.Unregister("zeta")
	want := "aaa " + strings.Replace(builtinNames, " puts", "", 1)
	if got := strings.Join(in.Commands(), " "); got != want {
		t.Fatalf("after Register/Unregister: Commands() = %q\nwant %q", got, want)
	}
	if info, _ := in.Eval("info commands"); info != want {
		t.Fatalf("after Register/Unregister: info commands = %q", info)
	}
	// Re-registering an unregistered builtin brings it back, once.
	in.Register("puts", cmdPuts)
	if got := strings.Count(strings.Join(in.Commands(), " "), "puts"); got != 1 {
		t.Fatalf("puts listed %d times after re-registering", got)
	}
}

// TestBuiltinTableIsolation: interpreters share one builtin table, but a
// Register, Unregister or proc in one interpreter is visible only there.
func TestBuiltinTableIsolation(t *testing.T) {
	a := New()
	a.Register("set", func(*Interp, []string) (string, error) { return "shadowed", nil })
	a.Unregister("puts")
	if _, err := a.Eval("proc list {args} {return mine}"); err != nil {
		t.Fatal(err)
	}
	if got, _ := a.Eval("set x 1"); got != "shadowed" {
		t.Fatalf("registered set in a: %q", got)
	}
	if got, _ := a.Eval("list p q"); got != "mine" {
		t.Fatalf("proc list in a: %q", got)
	}
	if _, err := a.Eval("puts hi"); err == nil || err.Error() != `invalid command name "puts"` {
		t.Fatalf("unregistered puts in a: %v", err)
	}

	b := New()
	var out bytes.Buffer
	b.Out = &out
	for script, want := range map[string]string{
		"set x 1":          "1",
		"list p q":         "p q",
		"puts hi; set x 2": "2",
	} {
		if got, err := b.Eval(script); err != nil || got != want {
			t.Fatalf("fresh interpreter: %q = %q, %v; want %q", script, got, err, want)
		}
	}
	if out.String() != "hi\n" {
		t.Fatalf("fresh interpreter's puts wrote %q", out.String())
	}
	if got := strings.Join(b.Commands(), " "); got != builtinNames {
		t.Fatalf("fresh interpreter's Commands() = %q", got)
	}
}

// TestScriptSharedAcrossInterps: one compiled Script evaluated in two fresh
// interpreters gives the same results as evaluating its text.
func TestScriptSharedAcrossInterps(t *testing.T) {
	text := `
proc fib {n} {
    if {$n < 2} {return $n}
    return [expr {[fib [expr {$n - 1}]] + [fib [expr {$n - 2}]]}]
}
set acc {}
foreach i {1 2 3 4 5 6} {lappend acc [fib $i]}
puts "fib: $acc"
set k 0
while {$k < 3} {incr k; puts -nonewline "$k,"}
set acc
`
	s := Compile(text)
	run := func(eval func(*Interp) (string, error)) (string, string) {
		in := New()
		var out bytes.Buffer
		in.Out = &out
		res, err := eval(in)
		if err != nil {
			t.Fatal(err)
		}
		return res, out.String()
	}
	r1, o1 := run(func(in *Interp) (string, error) { return in.EvalScript(s) })
	r2, o2 := run(func(in *Interp) (string, error) { return in.EvalScript(s) })
	r3, o3 := run(func(in *Interp) (string, error) { return in.Eval(text) })
	if r1 != "1 1 2 3 5 8" || o1 != "fib: 1 1 2 3 5 8\n1,2,3," {
		t.Fatalf("result %q output %q", r1, o1)
	}
	if r1 != r2 || o1 != o2 || r1 != r3 || o1 != o3 {
		t.Fatalf("shared script diverged: %q/%q, %q/%q, Eval %q/%q", r1, o1, r2, o2, r3, o3)
	}
}

// TestCompileParseErrorInPlace: a parse error is reported where
// command-by-command interpretation meets it — after the commands before
// it have run — with the same text.
func TestCompileParseErrorInPlace(t *testing.T) {
	text := "set a 1\nset b {oops\nset c 3\n"
	s := Compile(text)
	if s.Len() != 1 || s.Source(0) != "set a 1" {
		t.Fatalf("compiled %d commands, first %q", s.Len(), s.Source(0))
	}
	const want = "missing close-brace for brace at offset 14"
	if s.Err() == nil || s.Err().Error() != want {
		t.Fatalf("Err() = %v, want %q", s.Err(), want)
	}
	in := New()
	if _, err := in.EvalScript(s); err == nil || err.Error() != want {
		t.Fatalf("EvalScript error %v, want %q", err, want)
	}
	if v, _ := in.Var("a"); v != "1" {
		t.Fatalf("command before the parse error did not run: a = %q", v)
	}
	if _, ok := in.Var("c"); ok {
		t.Fatal("command after the parse error ran")
	}
}

// TestCompiledWordsPointIntoSource: literal words without escapes are
// substrings of the script text, not copies.
func TestCompiledWordsPointIntoSource(t *testing.T) {
	text := "step {1 Opt} {m1} {m2} {misII -o m2 m1} \"quoted word\" bare\n"
	s := Compile(text)
	if s.Len() != 1 {
		t.Fatalf("%d commands", s.Len())
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	hi := lo + uintptr(len(text))
	for _, w := range s.cmds[0].words {
		if w.parts != nil {
			t.Fatalf("word %+v has substitution parts", w)
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(w.text)))
		if p < lo || p >= hi {
			t.Fatalf("word %q is a copy, not a substring of the script", w.text)
		}
	}
	// An escape forces a copy, with the escape applied.
	if got, err := New().Eval(`set x a\tb`); err != nil || got != "a\tb" {
		t.Fatalf("escaped bare word = %q, %v", got, err)
	}
}

// TestLiteralWords: a one-command script yields its words only when no
// substitution is left for evaluation.
func TestLiteralWords(t *testing.T) {
	for _, c := range []struct {
		src  string
		want []string // nil: not literal
	}{
		{`step {1 A} {x y} "q r" a\tb {}`, []string{"step", "1 A", "x y", "q r", "a\tb", ""}},
		{`step {$x} {[y]}`, []string{"step", "$x", "[y]"}},
		{`step $x`, nil},
		{`step "a $x"`, nil},
		{`step [list a]`, nil},
		{"step a; step b", nil},
	} {
		got, ok := Compile(c.src).LiteralWords()
		if ok != (c.want != nil) || strings.Join(got, "|") != strings.Join(c.want, "|") {
			t.Errorf("LiteralWords(%q) = %q, %v; want %q", c.src, got, ok, c.want)
		}
	}
}

// TestIsProc: IsProc reports a command that proc defined, until Register
// or Unregister rebinds the name.
func TestIsProc(t *testing.T) {
	in := New()
	in.Register("step", func(*Interp, []string) (string, error) { return "", nil })
	if in.IsProc("step") || in.IsProc("set") {
		t.Fatal("a registered command or a builtin reads as a proc")
	}
	if _, err := in.Eval("proc step {args} {return x}"); err != nil {
		t.Fatal(err)
	}
	if !in.IsProc("step") {
		t.Fatal("proc step not reported")
	}
	in.Register("step", func(*Interp, []string) (string, error) { return "", nil })
	if in.IsProc("step") {
		t.Fatal("Register left step reported as a proc")
	}
	if _, err := in.Eval("proc step {args} {return x}"); err != nil {
		t.Fatal(err)
	}
	in.Unregister("step")
	if in.IsProc("step") {
		t.Fatal("Unregister left step reported as a proc")
	}
}
