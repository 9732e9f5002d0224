package tcl

import (
	"fmt"
	"strconv"
	"strings"
)

// builtins is the core command set, built once and shared read-only by
// every interpreter (an Interp's own table only holds its registrations).
// The set covers everything the dissertation's TDL templates use (set,
// expr, if, while, for, foreach, proc, list operations, catch/error,
// switch) plus a few conveniences. It is filled in init because several
// builtins (info, eval, ...) reach back to it through the interpreter.
var builtins map[string]Command

func init() {
	builtins = map[string]Command{
		"set":      cmdSet,
		"unset":    cmdUnset,
		"incr":     cmdIncr,
		"append":   cmdAppend,
		"expr":     cmdExpr,
		"if":       cmdIf,
		"while":    cmdWhile,
		"for":      cmdFor,
		"foreach":  cmdForeach,
		"break":    cmdBreak,
		"continue": cmdContinue,
		"proc":     cmdProc,
		"return":   cmdReturn,
		"global":   cmdGlobal,
		"list":     cmdList,
		"lindex":   cmdLindex,
		"llength":  cmdLlength,
		"lappend":  cmdLappend,
		"lrange":   cmdLrange,
		"lsearch":  cmdLsearch,
		"concat":   cmdConcat,
		"split":    cmdSplit,
		"join":     cmdJoin,
		"string":   cmdString,
		"format":   cmdFormat,
		"eval":     cmdEval,
		"subst":    cmdSubst,
		"catch":    cmdCatch,
		"error":    cmdError,
		"switch":   cmdSwitch,
		"case":     cmdSwitch, // pre-Tcl7 spelling used in older scripts
		"puts":     cmdPuts,
		"info":     cmdInfo,
		"source":   cmdSource,
	}
}

func arity(args []string, min, max int) error {
	n := len(args) - 1
	if n < min || (max >= 0 && n > max) {
		return fmt.Errorf("wrong # args for %q", args[0])
	}
	return nil
}

func cmdSet(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 2); err != nil {
		return "", err
	}
	if len(args) == 2 {
		v, ok := in.Var(args[1])
		if !ok {
			return "", fmt.Errorf("can't read %q: no such variable", args[1])
		}
		return v, nil
	}
	in.SetVar(args[1], args[2])
	return args[2], nil
}

func cmdUnset(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, -1); err != nil {
		return "", err
	}
	for _, name := range args[1:] {
		in.UnsetVar(name)
	}
	return "", nil
}

func cmdIncr(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 2); err != nil {
		return "", err
	}
	delta := int64(1)
	if len(args) == 3 {
		d, err := strconv.ParseInt(args[2], 0, 64)
		if err != nil {
			return "", fmt.Errorf("incr: bad increment %q", args[2])
		}
		delta = d
	}
	cur := int64(0)
	if v, ok := in.Var(args[1]); ok {
		n, err := strconv.ParseInt(strings.TrimSpace(v), 0, 64)
		if err != nil {
			return "", fmt.Errorf("incr: variable %q is not an integer", args[1])
		}
		cur = n
	}
	cur += delta
	s := strconv.FormatInt(cur, 10)
	in.SetVar(args[1], s)
	return s, nil
}

func cmdAppend(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, -1); err != nil {
		return "", err
	}
	v, _ := in.Var(args[1])
	v += strings.Join(args[2:], "")
	in.SetVar(args[1], v)
	return v, nil
}

func cmdExpr(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, -1); err != nil {
		return "", err
	}
	return in.EvalExpr(strings.Join(args[1:], " "))
}

func cmdIf(in *Interp, args []string) (string, error) {
	// if cond ?then? body ?elseif cond ?then? body?... ?else? ?body?
	i := 1
	for {
		if i >= len(args) {
			return "", fmt.Errorf("if: missing condition")
		}
		cond := args[i]
		i++
		if i < len(args) && args[i] == "then" {
			i++
		}
		if i >= len(args) {
			return "", fmt.Errorf("if: missing body after condition")
		}
		body := args[i]
		i++
		ok, err := in.EvalCond(cond)
		if err != nil {
			return "", err
		}
		if ok {
			return in.Eval(body)
		}
		if i >= len(args) {
			return "", nil
		}
		switch args[i] {
		case "elseif":
			i++
			continue
		case "else":
			i++
			if i >= len(args) {
				return "", fmt.Errorf("if: missing body after else")
			}
			return in.Eval(args[i])
		default:
			// Bare else-body form: if {c} {a} {b}
			return in.Eval(args[i])
		}
	}
}

func cmdWhile(in *Interp, args []string) (string, error) {
	if err := arity(args, 2, 2); err != nil {
		return "", err
	}
	body := Compile(args[2])
	for {
		ok, err := in.EvalCond(args[1])
		if err != nil {
			return "", err
		}
		if !ok {
			return "", nil
		}
		if _, err := in.EvalScript(body); err != nil {
			if err == errBreak {
				return "", nil
			}
			if err == errContinue {
				continue
			}
			return "", err
		}
	}
}

func cmdFor(in *Interp, args []string) (string, error) {
	if err := arity(args, 4, 4); err != nil {
		return "", err
	}
	if _, err := in.Eval(args[1]); err != nil {
		return "", err
	}
	next, body := Compile(args[3]), Compile(args[4])
	for {
		ok, err := in.EvalCond(args[2])
		if err != nil {
			return "", err
		}
		if !ok {
			return "", nil
		}
		_, err = in.EvalScript(body)
		if err == errBreak {
			return "", nil
		}
		if err != nil && err != errContinue {
			return "", err
		}
		if _, err := in.EvalScript(next); err != nil {
			return "", err
		}
	}
}

func cmdForeach(in *Interp, args []string) (string, error) {
	if err := arity(args, 3, 3); err != nil {
		return "", err
	}
	names, err := ParseList(args[1])
	if err != nil {
		return "", err
	}
	if len(names) == 0 {
		return "", fmt.Errorf("foreach: empty variable list")
	}
	values, err := ParseList(args[2])
	if err != nil {
		return "", err
	}
	body := Compile(args[3])
	for i := 0; i < len(values); i += len(names) {
		for j, name := range names {
			v := ""
			if i+j < len(values) {
				v = values[i+j]
			}
			in.SetVar(name, v)
		}
		_, err := in.EvalScript(body)
		if err == errBreak {
			return "", nil
		}
		if err != nil && err != errContinue {
			return "", err
		}
	}
	return "", nil
}

func cmdBreak(in *Interp, args []string) (string, error)    { return "", errBreak }
func cmdContinue(in *Interp, args []string) (string, error) { return "", errContinue }

func cmdProc(in *Interp, args []string) (string, error) {
	if err := arity(args, 3, 3); err != nil {
		return "", err
	}
	name := args[1]
	params, err := ParseList(args[2])
	if err != nil {
		return "", err
	}
	body := Compile(args[3])
	in.Register(name, func(in *Interp, callArgs []string) (string, error) {
		f := newFrame()
		for i, p := range params {
			// A parameter may be {name default}.
			spec, err := ParseList(p)
			if err != nil || len(spec) == 0 {
				return "", fmt.Errorf("proc %q: bad parameter %q", name, p)
			}
			if spec[0] == "args" && i == len(params)-1 {
				f.vars["args"] = FormatList(callArgs[i+1:])
				break
			}
			if i+1 < len(callArgs) {
				f.vars[spec[0]] = callArgs[i+1]
			} else if len(spec) > 1 {
				f.vars[spec[0]] = spec[1]
			} else {
				return "", fmt.Errorf("wrong # args for proc %q", name)
			}
		}
		in.frames = append(in.frames, f)
		defer func() { in.frames = in.frames[:len(in.frames)-1] }()
		result, err := in.EvalScript(body)
		if ret, ok := err.(returnSignal); ok {
			return ret.value, nil
		}
		return result, err
	})
	if in.procs == nil {
		in.procs = make(map[string]bool)
	}
	in.procs[name] = true
	return "", nil
}

func cmdReturn(in *Interp, args []string) (string, error) {
	if err := arity(args, 0, 1); err != nil {
		return "", err
	}
	v := ""
	if len(args) == 2 {
		v = args[1]
	}
	return "", returnSignal{value: v}
}

func cmdGlobal(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, -1); err != nil {
		return "", err
	}
	f := in.top()
	if f.globals == nil {
		f.globals = make(map[string]bool)
	}
	for _, name := range args[1:] {
		f.globals[name] = true
	}
	return "", nil
}

func cmdList(in *Interp, args []string) (string, error) {
	return FormatList(args[1:]), nil
}

func cmdLindex(in *Interp, args []string) (string, error) {
	if err := arity(args, 2, 2); err != nil {
		return "", err
	}
	elems, err := ParseList(args[1])
	if err != nil {
		return "", err
	}
	idx, err := listIndex(args[2], len(elems))
	if err != nil {
		return "", err
	}
	if idx < 0 || idx >= len(elems) {
		return "", nil
	}
	return elems[idx], nil
}

func listIndex(s string, length int) (int, error) {
	if s == "end" {
		return length - 1, nil
	}
	if rest, ok := strings.CutPrefix(s, "end-"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil {
			return 0, fmt.Errorf("bad index %q", s)
		}
		return length - 1 - n, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad index %q", s)
	}
	return n, nil
}

func cmdLlength(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 1); err != nil {
		return "", err
	}
	elems, err := ParseList(args[1])
	if err != nil {
		return "", err
	}
	return strconv.Itoa(len(elems)), nil
}

func cmdLappend(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, -1); err != nil {
		return "", err
	}
	cur, _ := in.Var(args[1])
	elems, err := ParseList(cur)
	if err != nil {
		return "", err
	}
	elems = append(elems, args[2:]...)
	v := FormatList(elems)
	in.SetVar(args[1], v)
	return v, nil
}

func cmdLrange(in *Interp, args []string) (string, error) {
	if err := arity(args, 3, 3); err != nil {
		return "", err
	}
	elems, err := ParseList(args[1])
	if err != nil {
		return "", err
	}
	first, err := listIndex(args[2], len(elems))
	if err != nil {
		return "", err
	}
	last, err := listIndex(args[3], len(elems))
	if err != nil {
		return "", err
	}
	if first < 0 {
		first = 0
	}
	if last >= len(elems) {
		last = len(elems) - 1
	}
	if first > last {
		return "", nil
	}
	return FormatList(elems[first : last+1]), nil
}

func cmdLsearch(in *Interp, args []string) (string, error) {
	if err := arity(args, 2, 2); err != nil {
		return "", err
	}
	elems, err := ParseList(args[1])
	if err != nil {
		return "", err
	}
	for i, e := range elems {
		if globMatch(args[2], e) {
			return strconv.Itoa(i), nil
		}
	}
	return "-1", nil
}

func cmdConcat(in *Interp, args []string) (string, error) {
	var all []string
	for _, a := range args[1:] {
		elems, err := ParseList(a)
		if err != nil {
			return "", err
		}
		all = append(all, elems...)
	}
	return FormatList(all), nil
}

func cmdSplit(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 2); err != nil {
		return "", err
	}
	seps := " \t\n\r"
	if len(args) == 3 {
		seps = args[2]
	}
	if seps == "" {
		parts := make([]string, 0, len(args[1]))
		for _, r := range args[1] {
			parts = append(parts, string(r))
		}
		return FormatList(parts), nil
	}
	parts := strings.FieldsFunc(args[1], func(r rune) bool {
		return strings.ContainsRune(seps, r)
	})
	return FormatList(parts), nil
}

func cmdJoin(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 2); err != nil {
		return "", err
	}
	sep := " "
	if len(args) == 3 {
		sep = args[2]
	}
	elems, err := ParseList(args[1])
	if err != nil {
		return "", err
	}
	return strings.Join(elems, sep), nil
}

func cmdString(in *Interp, args []string) (string, error) {
	if err := arity(args, 2, -1); err != nil {
		return "", err
	}
	op, s := args[1], args[2]
	switch op {
	case "length":
		return strconv.Itoa(len(s)), nil
	case "tolower":
		return strings.ToLower(s), nil
	case "toupper":
		return strings.ToUpper(s), nil
	case "trim":
		return strings.TrimSpace(s), nil
	case "index":
		if len(args) < 4 {
			return "", fmt.Errorf("string index: missing index")
		}
		idx, err := listIndex(args[3], len(s))
		if err != nil {
			return "", err
		}
		if idx < 0 || idx >= len(s) {
			return "", nil
		}
		return string(s[idx]), nil
	case "range":
		if len(args) < 5 {
			return "", fmt.Errorf("string range: missing indices")
		}
		first, err := listIndex(args[3], len(s))
		if err != nil {
			return "", err
		}
		last, err := listIndex(args[4], len(s))
		if err != nil {
			return "", err
		}
		if first < 0 {
			first = 0
		}
		if last >= len(s) {
			last = len(s) - 1
		}
		if first > last {
			return "", nil
		}
		return s[first : last+1], nil
	case "match":
		if len(args) < 4 {
			return "", fmt.Errorf("string match: missing string")
		}
		if globMatch(s, args[3]) {
			return "1", nil
		}
		return "0", nil
	case "compare":
		if len(args) < 4 {
			return "", fmt.Errorf("string compare: missing string")
		}
		return strconv.Itoa(strings.Compare(s, args[3])), nil
	case "first":
		if len(args) < 4 {
			return "", fmt.Errorf("string first: missing string")
		}
		return strconv.Itoa(strings.Index(args[3], s)), nil
	default:
		return "", fmt.Errorf("string: unknown operation %q", op)
	}
}

func cmdFormat(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, -1); err != nil {
		return "", err
	}
	spec := args[1]
	rest := args[2:]
	vals := make([]any, 0, len(rest))
	// Walk the format string to coerce arguments by verb.
	vi := 0
	for i := 0; i < len(spec) && vi < len(rest); i++ {
		if spec[i] != '%' {
			continue
		}
		i++
		for i < len(spec) && strings.IndexByte("-+ #0123456789.", spec[i]) >= 0 {
			i++
		}
		if i >= len(spec) {
			break
		}
		switch spec[i] {
		case '%':
			continue
		case 'd', 'x', 'X', 'o', 'c':
			n, err := strconv.ParseInt(strings.TrimSpace(rest[vi]), 0, 64)
			if err != nil {
				return "", fmt.Errorf("format: expected integer for %%%c but got %q", spec[i], rest[vi])
			}
			vals = append(vals, n)
		case 'f', 'g', 'e':
			f, err := strconv.ParseFloat(strings.TrimSpace(rest[vi]), 64)
			if err != nil {
				return "", fmt.Errorf("format: expected float for %%%c but got %q", spec[i], rest[vi])
			}
			vals = append(vals, f)
		default:
			vals = append(vals, rest[vi])
		}
		vi++
	}
	return fmt.Sprintf(spec, vals...), nil
}

func cmdEval(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, -1); err != nil {
		return "", err
	}
	return in.Eval(strings.Join(args[1:], " "))
}

func cmdSubst(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 1); err != nil {
		return "", err
	}
	return in.Subst(args[1])
}

func cmdCatch(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 2); err != nil {
		return "", err
	}
	result, err := in.Eval(args[1])
	code := "0"
	if err != nil {
		code = "1"
		result = err.Error()
	}
	if len(args) == 3 {
		in.SetVar(args[2], result)
	}
	return code, nil
}

func cmdError(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 1); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s", args[1])
}

func cmdSwitch(in *Interp, args []string) (string, error) {
	if err := arity(args, 2, -1); err != nil {
		return "", err
	}
	value := args[1]
	var pairs []string
	if len(args) == 3 {
		elems, err := ParseList(args[2])
		if err != nil {
			return "", err
		}
		pairs = elems
	} else {
		pairs = args[2:]
	}
	if len(pairs)%2 != 0 {
		return "", fmt.Errorf("switch: pattern with no body")
	}
	for i := 0; i < len(pairs); i += 2 {
		pat, body := pairs[i], pairs[i+1]
		if pat == "default" || globMatch(pat, value) {
			// "-" chains to the following body.
			for body == "-" && i+3 < len(pairs) {
				i += 2
				body = pairs[i+1]
			}
			return in.Eval(body)
		}
	}
	return "", nil
}

func cmdPuts(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 2); err != nil {
		return "", err
	}
	text := args[len(args)-1]
	if len(args) == 3 && args[1] == "-nonewline" {
		fmt.Fprint(in.Out, text)
	} else {
		fmt.Fprintln(in.Out, text)
	}
	return "", nil
}

func cmdInfo(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 2); err != nil {
		return "", err
	}
	switch args[1] {
	case "exists":
		if len(args) < 3 {
			return "", fmt.Errorf("info exists: missing variable name")
		}
		if _, ok := in.Var(args[2]); ok {
			return "1", nil
		}
		return "0", nil
	case "commands":
		return FormatList(in.Commands()), nil
	case "level":
		return strconv.Itoa(len(in.frames) - 1), nil
	default:
		return "", fmt.Errorf("info: unknown query %q", args[1])
	}
}

func cmdSource(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 1); err != nil {
		return "", err
	}
	if in.Source == nil {
		return "", fmt.Errorf("source: no script resolver configured")
	}
	script, err := in.Source(args[1])
	if err != nil {
		return "", err
	}
	return in.Eval(script)
}

// globMatch implements Tcl's string match globbing: * ? [chars] \x.
func globMatch(pattern, s string) bool {
	return globAt(pattern, s, 0, 0)
}

func globAt(pattern, s string, pi, si int) bool {
	for pi < len(pattern) {
		c := pattern[pi]
		switch c {
		case '*':
			for pi < len(pattern) && pattern[pi] == '*' {
				pi++
			}
			if pi == len(pattern) {
				return true
			}
			for k := si; k <= len(s); k++ {
				if globAt(pattern, s, pi, k) {
					return true
				}
			}
			return false
		case '?':
			if si >= len(s) {
				return false
			}
			pi++
			si++
		case '[':
			if si >= len(s) {
				return false
			}
			end := strings.IndexByte(pattern[pi:], ']')
			if end < 0 {
				return false
			}
			set := pattern[pi+1 : pi+end]
			if !charSetMatch(set, s[si]) {
				return false
			}
			pi += end + 1
			si++
		case '\\':
			pi++
			if pi >= len(pattern) {
				return false
			}
			fallthrough
		default:
			if si >= len(s) || s[si] != pattern[pi] {
				return false
			}
			pi++
			si++
		}
	}
	return si == len(s)
}

func charSetMatch(set string, c byte) bool {
	for i := 0; i < len(set); i++ {
		if i+2 < len(set) && set[i+1] == '-' {
			if c >= set[i] && c <= set[i+2] {
				return true
			}
			i += 2
			continue
		}
		if set[i] == c {
			return true
		}
	}
	return false
}
