// Package tcl implements a small Tcl interpreter, the substrate on which
// Papyrus's Task Description Language is built (dissertation §4.2.1).
//
// The subset implemented here is the one the dissertation relies on: commands
// are whitespace-separated words terminated by newline or semicolon; braces
// suppress substitution, double quotes allow it; $name and ${name} perform
// variable substitution; [script] performs command substitution; expressions
// are C-like and integer-valued; strings double as lists. Control structures
// (if, while, for, foreach, switch, proc, ...) are ordinary commands.
//
// Applications extend the language by registering new commands
// (Interp.Register), exactly as Figure 4.1 of the dissertation describes; the
// TDL package registers task, step, subtask, abort and attribute this way.
package tcl

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Command is the implementation of a Tcl command. It receives the evaluated
// argument words, args[0] being the command name itself.
type Command func(in *Interp, args []string) (string, error)

// flow-control signals are modeled as sentinel errors so that ordinary Go
// error plumbing carries them out of nested evaluations.
var (
	errBreak    = errors.New("invoked \"break\" outside of a loop")
	errContinue = errors.New("invoked \"continue\" outside of a loop")
)

// returnSignal unwinds a proc body when `return` executes.
type returnSignal struct{ value string }

func (r returnSignal) Error() string { return "invoked \"return\" outside of a proc" }

// frame is one variable scope. Frame 0 is the global scope; each proc call
// pushes a fresh frame. Variables linked with `global` alias the global frame.
type frame struct {
	vars    map[string]string
	globals map[string]bool // names aliased to the global frame
}

// newFrame returns an empty scope. Its globals map is made by the first
// `global` command, since most scopes never declare one.
func newFrame() *frame {
	return &frame{vars: make(map[string]string)}
}

// Interp is a Tcl interpreter: a command table plus a stack of variable
// scopes. It is not safe for concurrent use; Papyrus runs one Interp per task
// manager instance.
type Interp struct {
	// commands holds this interpreter's own bindings, consulted before
	// the shared builtin table. A nil entry is a tombstone: the name was
	// unregistered here, hiding any builtin of that name.
	commands map[string]Command
	// procs names the commands of this interpreter that proc defined.
	procs  map[string]bool
	frames []*frame

	// Out receives the output of `puts`. Defaults to io.Discard.
	Out io.Writer

	// Source resolves `source` and subtask template lookups. Nil disables
	// the source command.
	Source func(name string) (string, error)

	// MaxDepth bounds recursive evaluation (proc recursion, nested
	// substitution) to keep runaway scripts from exhausting the stack.
	MaxDepth int

	depth int
}

// New returns an interpreter with the built-in command set available. The
// builtins live in one table shared read-only by every interpreter, so New
// copies none of them.
func New() *Interp {
	return &Interp{
		frames:   []*frame{newFrame()},
		Out:      io.Discard,
		MaxDepth: 1000,
	}
}

// Register installs (or replaces) a command binding in this interpreter
// only.
func (in *Interp) Register(name string, cmd Command) {
	if in.commands == nil {
		in.commands = make(map[string]Command)
	}
	in.commands[name] = cmd
	delete(in.procs, name)
}

// IsProc reports whether name is bound to a procedure defined by proc.
func (in *Interp) IsProc(name string) bool { return in.procs[name] }

// Unregister removes a command binding from this interpreter. Removing a
// builtin leaves a tombstone that hides it here and nowhere else.
func (in *Interp) Unregister(name string) {
	delete(in.procs, name)
	if _, ok := builtins[name]; !ok {
		delete(in.commands, name)
		return
	}
	if in.commands == nil {
		in.commands = make(map[string]Command)
	}
	in.commands[name] = nil
}

// lookup resolves a command name: own bindings (and tombstones) first,
// then the builtin table.
func (in *Interp) lookup(name string) (Command, bool) {
	if cmd, ok := in.commands[name]; ok {
		return cmd, cmd != nil
	}
	cmd, ok := builtins[name]
	return cmd, ok
}

// Commands returns the sorted names of all registered commands.
func (in *Interp) Commands() []string {
	names := make([]string, 0, len(builtins)+len(in.commands))
	for n := range builtins {
		if _, own := in.commands[n]; !own {
			names = append(names, n)
		}
	}
	for n, cmd := range in.commands {
		if cmd != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// global returns the global (outermost) variable frame.
func (in *Interp) global() *frame { return in.frames[0] }

// top returns the current (innermost) variable frame.
func (in *Interp) top() *frame { return in.frames[len(in.frames)-1] }

// SetVar assigns a variable in the current scope (or the global scope if the
// name was declared with `global`).
func (in *Interp) SetVar(name, value string) {
	f := in.top()
	if f.globals[name] {
		in.global().vars[name] = value
		return
	}
	f.vars[name] = value
}

// SetGlobalVar assigns a variable in the global scope regardless of the
// current call depth. The task manager uses this for the `status` variable.
func (in *Interp) SetGlobalVar(name, value string) {
	in.global().vars[name] = value
}

// Var reads a variable from the current scope, following `global` links.
func (in *Interp) Var(name string) (string, bool) {
	f := in.top()
	if f.globals[name] {
		v, ok := in.global().vars[name]
		return v, ok
	}
	v, ok := f.vars[name]
	return v, ok
}

// UnsetVar removes a variable from the current scope.
func (in *Interp) UnsetVar(name string) {
	f := in.top()
	if f.globals[name] {
		delete(in.global().vars, name)
		return
	}
	delete(f.vars, name)
}

// Eval evaluates a script and returns the result of its last command. It
// is Compile followed by EvalScript; callers that evaluate the same text
// repeatedly should compile it once.
func (in *Interp) Eval(script string) (string, error) {
	return in.EvalScript(Compile(script))
}

// EvalScript evaluates a compiled script and returns the result of its last
// command. A parse error recorded in the script is returned after the
// commands before it have run, exactly where interpreting the text command
// by command would meet it.
func (in *Interp) EvalScript(s *Script) (string, error) {
	if in.depth >= in.MaxDepth {
		return "", fmt.Errorf("too many nested evaluations (max %d)", in.MaxDepth)
	}
	in.depth++
	defer func() { in.depth-- }()

	result := ""
	for i := range s.cmds {
		raw := s.cmds[i].words
		words := make([]string, len(raw))
		for j := range raw {
			w, err := in.substWord(raw[j])
			if err != nil {
				return "", err
			}
			words[j] = w
		}
		var err error
		result, err = in.Call(words)
		if err != nil {
			return result, err
		}
	}
	if s.err != nil {
		return "", s.err
	}
	return result, nil
}

// Call invokes a command given its already-substituted words.
func (in *Interp) Call(words []string) (string, error) {
	cmd, ok := in.lookup(words[0])
	if !ok {
		return "", fmt.Errorf("invalid command name %q", words[0])
	}
	return cmd(in, words)
}

// substWord evaluates one parsed word's parts into its final string value.
func (in *Interp) substWord(w word) (string, error) {
	switch len(w.parts) {
	case 0:
		return w.text, nil
	case 1:
		return in.substPart(w.parts[0])
	}
	var b strings.Builder
	for _, part := range w.parts {
		s, err := in.substPart(part)
		if err != nil {
			return "", err
		}
		b.WriteString(s)
	}
	return b.String(), nil
}

func (in *Interp) substPart(part wordPart) (string, error) {
	switch part.kind {
	case partLiteral:
		return part.text, nil
	case partVar:
		v, ok := in.Var(part.text)
		if !ok {
			return "", fmt.Errorf("can't read %q: no such variable", part.text)
		}
		return v, nil
	case partScript:
		return in.Eval(part.text)
	default:
		return "", fmt.Errorf("internal: unknown word part kind %d", part.kind)
	}
}

// Subst performs $-, \- and []-substitution on text without treating it as a
// command, mirroring Tcl's subst. `expr` uses it before parsing.
func (in *Interp) Subst(text string) (string, error) {
	w, err := parseSubstWord(text)
	if err != nil {
		return "", err
	}
	return in.substWord(w)
}
