// Package tdl implements the Task Description Language of dissertation
// Chapter 4: template parsing and the argument grammar of the five TDL
// extension commands (task, step, subtask, abort, attribute). TDL is Tcl
// plus these commands; the task manager (internal/task) registers their
// implementations into a tcl.Interp and interprets templates top-level
// command by top-level command, so that each command carries an internal
// ID for the programmable-abort machinery (§4.3.4). Compile parses a
// template once into per-command compiled scripts that every run shares,
// and parses each step command whose words are all literal into its Step.
package tdl

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"papyrus/internal/tcl"
)

// Template is a parsed task template.
type Template struct {
	// Name, Inputs and Outputs come from the leading task command:
	//   task Task_Name {Task_Input} {Task_Output}
	Name    string
	Inputs  []string
	Outputs []string
	// Commands holds the raw top-level commands of the template body
	// (everything after the task command); index = internal ID base.
	Commands []string
}

// Parse parses a template file's text.
func Parse(script string) (*Template, error) {
	t, _, err := parse(script)
	return t, err
}

// Compiled is a template compiled once for repeated interpretation: the
// parsed Template plus each body command's compiled script and status
// barrier. It is immutable, so every run of the task can share it.
type Compiled struct {
	*Template
	// Text is the template text this was compiled from. A cache keeps an
	// entry only while its source still returns this text, so an edited
	// template takes effect on its next run (§4.1).
	Text string
	// Scripts[i] is Commands[i] compiled for tcl.Interp.EvalScript.
	Scripts []*tcl.Script
	// Barrier[i] is StatusBarrier(Commands[i]).
	Barrier []bool
	// Steps[i] is Commands[i] parsed by ParseStep when it is a step
	// command with only literal words that parses; nil otherwise. Such a
	// command means the same in every run, so a run registers Steps[i]
	// instead of evaluating Scripts[i] — unless the template redefined
	// step with proc.
	Steps []*Step
}

// Compile parses a template's text and compiles its body commands. The
// text is parsed once; the commands' words point into it.
func Compile(script string) (*Compiled, error) {
	t, s, err := parse(script)
	if err != nil {
		return nil, err
	}
	c := &Compiled{
		Template: t,
		Text:     script,
		Scripts:  make([]*tcl.Script, len(t.Commands)),
		Barrier:  make([]bool, len(t.Commands)),
		Steps:    make([]*Step, len(t.Commands)),
	}
	for i, raw := range t.Commands {
		c.Scripts[i] = s.Command(i + 1) // command 0 is the task header
		c.Barrier[i] = StatusBarrier(raw)
		if words, ok := c.Scripts[i].LiteralWords(); ok && words[0] == "step" {
			// A step that fails to parse is left to fail in the run,
			// where the interpreted command reports it.
			c.Steps[i], _ = ParseStep(words[1:])
		}
	}
	return c, nil
}

// parse parses a template into its header fields and returns the compiled
// script of the whole text alongside.
func parse(script string) (*Template, *tcl.Script, error) {
	s := tcl.Compile(script)
	if err := s.Err(); err != nil {
		return nil, nil, fmt.Errorf("tdl: %v", err)
	}
	if s.Len() == 0 {
		return nil, nil, fmt.Errorf("tdl: empty template")
	}
	cmds := make([]string, s.Len())
	for i := range cmds {
		cmds[i] = s.Source(i)
	}
	head, err := tcl.ParseList(cmds[0])
	if err != nil {
		return nil, nil, fmt.Errorf("tdl: task command: %v", err)
	}
	if len(head) < 2 || head[0] != "task" {
		return nil, nil, fmt.Errorf("tdl: template must begin with a task command, got %q", cmds[0])
	}
	t := &Template{Name: head[1], Commands: cmds[1:]}
	if len(head) > 2 {
		ins, err := tcl.ParseList(head[2])
		if err != nil {
			return nil, nil, fmt.Errorf("tdl: task input list: %v", err)
		}
		t.Inputs = ins
	}
	if len(head) > 3 {
		outs, err := tcl.ParseList(head[3])
		if err != nil {
			return nil, nil, fmt.Errorf("tdl: task output list: %v", err)
		}
		t.Outputs = outs
	}
	seen := map[string]bool{}
	for _, n := range append(append([]string{}, t.Inputs...), t.Outputs...) {
		if seen[n] {
			return nil, nil, fmt.Errorf("tdl: task %q declares %q twice", t.Name, n)
		}
		seen[n] = true
	}
	return t, s, nil
}

// StepSpec is a parsed step command (§4.2.2):
//
//	step {StepID Step_Name} {Input_List} {Output_List} {Invocation_Details}
//	     {NonMigrate} {ResumedStep n} {ControlDependency n...} {OnFail continue}
//
// The OnFail field is our documented extension (DESIGN.md §6): the
// dissertation's Mosaico template relies on a failing compaction step NOT
// aborting the task so the $status conditional can recover; OnFail
// continue expresses that contract explicitly.
type StepSpec struct {
	ID          string // user step ID ("" when unnumbered)
	Name        string
	Inputs      []string
	Outputs     []string
	Invocation  []string // raw invocation tokens (tool name first)
	NonMigrate  bool
	ResumedStep string // "" = unset; "0" = restart from scratch
	HasResumed  bool
	ControlDeps []string
	OnFailCont  bool
	// Priority orders re-migration and placement preferences (§1.4's
	// "priority mechanism to prioritize tool execution"); default 0.
	Priority int
}

// Step is a parsed step command together with its invocation split into
// the tool name and its options (SplitInvocation). It is immutable: a
// compiled template's Steps are shared by every run.
type Step struct {
	Spec    *StepSpec
	Tool    string
	Options []string // capacity clipped, so appending copies
}

// ParseStep parses the evaluated words following "step" and splits the
// step's invocation details.
func ParseStep(args []string) (*Step, error) {
	spec, err := ParseStepArgs(args)
	if err != nil {
		return nil, err
	}
	io := make([]string, 0, len(spec.Inputs)+len(spec.Outputs))
	io = append(append(io, spec.Inputs...), spec.Outputs...)
	tool, options, err := SplitInvocation(spec.Invocation, io)
	if err != nil {
		return nil, err
	}
	return &Step{Spec: spec, Tool: tool, Options: slices.Clip(options)}, nil
}

// ParseStepArgs parses the evaluated words following "step".
func ParseStepArgs(args []string) (*StepSpec, error) {
	if len(args) < 4 {
		return nil, fmt.Errorf("tdl: step wants {ID? Name} {inputs} {outputs} {invocation} ?options?, got %d args", len(args))
	}
	spec := &StepSpec{}
	var err error
	spec.ID, spec.Name, err = parseIDName(args[0])
	if err != nil {
		return nil, err
	}
	if spec.Inputs, err = tcl.ParseList(args[1]); err != nil {
		return nil, fmt.Errorf("tdl: step %s inputs: %v", spec.Name, err)
	}
	if spec.Outputs, err = tcl.ParseList(args[2]); err != nil {
		return nil, fmt.Errorf("tdl: step %s outputs: %v", spec.Name, err)
	}
	if spec.Invocation, err = tcl.ParseList(args[3]); err != nil {
		return nil, fmt.Errorf("tdl: step %s invocation: %v", spec.Name, err)
	}
	if len(spec.Invocation) == 0 {
		return nil, fmt.Errorf("tdl: step %s has empty invocation details", spec.Name)
	}
	for _, opt := range args[4:] {
		fields, err := tcl.ParseList(opt)
		if err != nil || len(fields) == 0 {
			return nil, fmt.Errorf("tdl: step %s optional field %q malformed", spec.Name, opt)
		}
		switch fields[0] {
		case "NonMigrate":
			spec.NonMigrate = true
		case "ResumedStep":
			if len(fields) != 2 {
				return nil, fmt.Errorf("tdl: step %s: ResumedStep wants one step ID", spec.Name)
			}
			spec.ResumedStep = fields[1]
			spec.HasResumed = true
		case "ControlDependency":
			if len(fields) < 2 {
				return nil, fmt.Errorf("tdl: step %s: ControlDependency wants step IDs", spec.Name)
			}
			spec.ControlDeps = append(spec.ControlDeps, fields[1:]...)
		case "OnFail":
			if len(fields) != 2 || fields[1] != "continue" {
				return nil, fmt.Errorf("tdl: step %s: OnFail wants \"continue\"", spec.Name)
			}
			spec.OnFailCont = true
		case "Priority":
			if len(fields) != 2 {
				return nil, fmt.Errorf("tdl: step %s: Priority wants one integer", spec.Name)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("tdl: step %s: bad priority %q", spec.Name, fields[1])
			}
			spec.Priority = n
		default:
			return nil, fmt.Errorf("tdl: step %s: unknown optional field %q", spec.Name, fields[0])
		}
	}
	return spec, nil
}

// SubtaskSpec is a parsed subtask command:
//
//	subtask {StepID? Task_Name} {Input_List} {Output_List}
type SubtaskSpec struct {
	ID      string
	Name    string
	Inputs  []string
	Outputs []string
}

// ParseSubtaskArgs parses the evaluated words following "subtask".
func ParseSubtaskArgs(args []string) (*SubtaskSpec, error) {
	if len(args) < 3 {
		return nil, fmt.Errorf("tdl: subtask wants {ID? Name} {inputs} {outputs}, got %d args", len(args))
	}
	spec := &SubtaskSpec{}
	var err error
	spec.ID, spec.Name, err = parseIDName(args[0])
	if err != nil {
		return nil, err
	}
	if spec.Inputs, err = tcl.ParseList(args[1]); err != nil {
		return nil, fmt.Errorf("tdl: subtask %s inputs: %v", spec.Name, err)
	}
	if spec.Outputs, err = tcl.ParseList(args[2]); err != nil {
		return nil, fmt.Errorf("tdl: subtask %s outputs: %v", spec.Name, err)
	}
	return spec, nil
}

// parseIDName splits the first step/subtask field: "{1 Place_and_Route}"
// has an integer StepID; "Pads_Placement" has none.
func parseIDName(field string) (id, name string, err error) {
	fields, err := tcl.ParseList(field)
	if err != nil || len(fields) == 0 {
		return "", "", fmt.Errorf("tdl: bad step identifier %q", field)
	}
	if len(fields) == 2 {
		if _, convErr := strconv.Atoi(fields[0]); convErr == nil {
			return fields[0], fields[1], nil
		}
	}
	if len(fields) == 1 {
		return "", fields[0], nil
	}
	return "", "", fmt.Errorf("tdl: step identifier %q must be Name or {ID Name}", field)
}

// SplitInvocation separates a step's invocation details into the tool name
// and its option tokens, dropping the tokens that name the step's declared
// inputs/outputs and shell plumbing (">", "|&", "tee"): the task manager
// supplies I/O bindings itself, so only genuine options remain
// (overridable by the user per §4.3.1).
func SplitInvocation(invocation []string, ioNames []string) (tool string, options []string, err error) {
	if len(invocation) == 0 {
		return "", nil, fmt.Errorf("tdl: empty invocation")
	}
	io := map[string]bool{}
	for _, n := range ioNames {
		io[n] = true
	}
	tool = invocation[0]
	skipNext := false
	for _, tok := range invocation[1:] {
		if skipNext {
			skipNext = false
			continue
		}
		switch {
		case io[tok]:
			// An input/output placeholder; bound by the task manager.
		case tok == ">" || tok == "|&" || tok == "|":
			skipNext = true // drop the redirect target / pipe stage
		case tok == "tee":
			// dropped with its argument by the pipe handling above
		default:
			options = append(options, tok)
		}
	}
	return tool, options, nil
}

// StatusBarrier reports whether a raw command consults the $status
// variable or evaluates an object attribute: before interpreting such a
// command the task manager must drain outstanding steps so the value
// reflects "the exit status of the most recent completed design step"
// (§4.2.3) and attribute computation is synchronous (§4.3.6).
func StatusBarrier(rawCommand string) bool {
	return strings.Contains(rawCommand, "$status") ||
		strings.Contains(rawCommand, "${status}") ||
		strings.Contains(rawCommand, "[attribute ")
}
