package tcl

import (
	"bytes"
	"fmt"
	"testing"
)

// Fuzz targets for the parsing layers, plus one for the compiled
// evaluator that runs scripts under a command budget (fuzzCompileEval).

func FuzzSplitCommands(f *testing.F) {
	f.Add("set a 1\nset b 2")
	f.Add("if {1} {set a [expr {1+2}]}")
	f.Add("# comment\nputs \"hi there\"; puts {done}")
	f.Add("set a {unbalanced")
	f.Add("proc p {x} {return $x}")
	f.Fuzz(func(t *testing.T, script string) {
		cmds, err := SplitCommands(script)
		if err != nil {
			return
		}
		// Each command must itself split to exactly one command.
		for _, c := range cmds {
			sub, err := SplitCommands(c)
			if err != nil {
				t.Fatalf("command %q from a valid split fails to re-split: %v", c, err)
			}
			if len(sub) != 1 {
				t.Fatalf("command %q re-splits into %d commands", c, len(sub))
			}
		}
	})
}

func FuzzParseList(f *testing.F) {
	f.Add("a b c")
	f.Add("{a b} \"c d\" e")
	f.Add("nested {a {b c}} end")
	f.Add("{unbalanced")
	f.Fuzz(func(t *testing.T, s string) {
		elems, err := ParseList(s)
		if err != nil {
			return
		}
		// Accepted lists round-trip through FormatList.
		back, err := ParseList(FormatList(elems))
		if err != nil {
			t.Fatalf("re-parse of formatted list failed: %v", err)
		}
		if len(back) != len(elems) {
			t.Fatalf("round trip changed length %d -> %d", len(elems), len(back))
		}
		for i := range elems {
			if back[i] != elems[i] {
				t.Fatalf("element %d changed: %q -> %q", i, elems[i], back[i])
			}
		}
	})
}

// fuzzBudget bounds what one fuzzed script may do: commands invoked, and
// the bytes of any command's arguments or result. Without it the fuzzer
// would synthesize infinite loops and exponential growth.
const (
	fuzzMaxCommands = 2000
	fuzzMaxBytes    = 1 << 12
)

// fuzzInterp returns a fresh interpreter whose every command, procs
// included, is charged against the fuzz budget. while and for are removed
// (an empty body would loop without invoking a command), as are format
// (a width can allocate without bound) and source.
func fuzzInterp(out *bytes.Buffer) *Interp {
	in := New()
	in.Out = out
	in.MaxDepth = 64
	calls := 0
	var budgeted func(cmd Command) Command
	budgeted = func(cmd Command) Command {
		return func(in *Interp, args []string) (string, error) {
			calls++
			size := 0
			for _, a := range args {
				size += len(a)
			}
			if calls > fuzzMaxCommands || size > fuzzMaxBytes {
				return "", fmt.Errorf("fuzz budget exceeded")
			}
			res, err := cmd(in, args)
			if len(res) > fuzzMaxBytes {
				return "", fmt.Errorf("fuzz budget exceeded")
			}
			return res, err
		}
	}
	for name, cmd := range builtins {
		in.Register(name, budgeted(cmd))
	}
	in.Register("proc", budgeted(func(in *Interp, args []string) (string, error) {
		res, err := cmdProc(in, args)
		if err == nil {
			in.Register(args[1], budgeted(in.commands[args[1]]))
		}
		return res, err
	}))
	for _, name := range []string{"while", "for", "format", "source"} {
		in.Unregister(name)
	}
	return in
}

// FuzzCompileEval: one compiled Script evaluated in two fresh interpreters
// matches Eval of the text in a third — same result, same error text and
// same puts output. A Script is immutable, so evaluating it can leave no
// trace in it.
func FuzzCompileEval(f *testing.F) {
	f.Add("set a 1\nset b [expr {$a + 2}]")
	f.Add("proc p {x} {return [expr {$x * 2}]}\nputs [p 21]")
	f.Add("foreach i {1 2 3} {if {$i == 2} {continue}; puts $i}")
	f.Add("set x {unbalanced\nputs never")
	f.Add("puts first; set y \"open")
	f.Add("catch {error boom} msg; puts $msg; set l [list a {b c} d]; lindex $l 1")
	f.Add("proc r {n} {if {$n > 0} {r [expr {$n - 1}]}}; r 100")
	f.Add("switch b {a {puts A} b - c {puts BC}}; info commands")
	f.Fuzz(func(t *testing.T, script string) {
		type outcome struct{ result, err, out string }
		eval := func(run func(*Interp) (string, error)) outcome {
			var out bytes.Buffer
			res, err := run(fuzzInterp(&out))
			o := outcome{result: res, out: out.String()}
			if err != nil {
				o.err = err.Error()
			}
			return o
		}
		s := Compile(script)
		first := eval(func(in *Interp) (string, error) { return in.EvalScript(s) })
		second := eval(func(in *Interp) (string, error) { return in.EvalScript(s) })
		text := eval(func(in *Interp) (string, error) { return in.Eval(script) })
		if first != second {
			t.Fatalf("one Script, two interpreters:\n%+v\n%+v", first, second)
		}
		if first != text {
			t.Fatalf("EvalScript %+v\nEval       %+v", first, text)
		}
	})
}
