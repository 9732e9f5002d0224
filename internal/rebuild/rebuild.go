// Package rebuild turns derivation history into reconstruction. §1.4:
// Make "requires the knowledge of the detailed tool execution sequence
// that are involved in creating an object, i.e., its derivation history,
// to reconstruct the design object when one or more of its dependent
// objects are modified." Template writes one target's recorded derivation
// as a TDL task, so a rebuild is a design step like any other, and
// OutOfDate says whether one is due. Unlike the VOV baseline's retracing,
// a rebuild regenerates one target, not everything downstream of an edit.
package rebuild

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"papyrus/internal/adg"
	"papyrus/internal/memo"
	"papyrus/internal/oct"
	"papyrus/internal/tcl"
	"papyrus/internal/tdl"
)

// Prefix starts the name of every generated task: the task that rebuilds
// target is named Prefix + target.String().
const Prefix = "rebuild "

// Template writes target's derivation in g as the task Prefix+target, one
// step per op with the op's recorded tool and options. Its formal inputs
// are the derivation's sources; its formal outputs are the target and
// each op output that is the derivation's newest version of its name and
// no task intermediate (no '#'). Both are named after their objects, so a
// source that is also an output is declared twice, which the template
// parser rejects. Every other output is an intermediate, hidden at commit
// (§4.3.5), whose formal drops the instance suffix so the step keys the
// memo cache like the one it repeats. The text depends only on target
// and g.
func Template(g *adg.Graph, target oct.Ref) (string, error) {
	ops, err := g.Derivation(target)
	if err != nil {
		return "", err
	}
	if len(ops) == 0 {
		return "", fmt.Errorf("rebuild: %s has no recorded derivation", target)
	}
	formal := map[oct.Ref]string{} // sources under their version-0 ref
	used := map[string]bool{}
	newest := map[string]int{}
	var ins, outs []string
	for _, op := range ops {
		for _, in := range op.Inputs {
			if _, produced := g.Producer(in); !produced && !used[in.Name] {
				used[in.Name], formal[oct.Ref{Name: in.Name}] = true, in.Name
				ins = append(ins, in.Name)
			}
		}
		for _, out := range op.Outputs {
			newest[out.Name] = max(newest[out.Name], out.Version)
		}
	}
	for _, op := range ops {
		for _, out := range op.Outputs {
			if out == target || (!strings.Contains(out.Name, "#") && out.Version == newest[out.Name]) {
				used[out.Name], formal[out] = true, out.Name
				outs = append(outs, out.Name)
			}
		}
	}
	lines := []string{tcl.FormatList([]string{"task", Prefix + target.String(), tcl.FormatList(ins), tcl.FormatList(outs)})}
	for _, op := range ops {
		var io []string
		for _, in := range op.Inputs {
			if _, produced := g.Producer(in); !produced {
				in = oct.Ref{Name: in.Name}
			}
			io = append(io, formal[in])
		}
		for _, out := range op.Outputs {
			if formal[out] == "" {
				f := memo.NormalizeName(out.Name)
				for n := 2; used[f]; n++ {
					f = memo.NormalizeName(out.Name) + "." + strconv.Itoa(n)
				}
				used[f], formal[out] = true, f
			}
			io = append(io, formal[out])
		}
		invocation := append([]string{op.Tool}, op.Options...)
		if tool, options, _ := tdl.SplitInvocation(invocation, io); tool != op.Tool || !slices.Equal(options, op.Options) {
			return "", fmt.Errorf("rebuild: step %s: options %q do not survive as TDL", op.Step, op.Options)
		}
		lines = append(lines, tcl.FormatList([]string{"step", tcl.FormatList([]string{op.Step}),
			tcl.FormatList(io[:len(op.Inputs)]), tcl.FormatList(io[len(op.Inputs):]), tcl.FormatList(invocation)}))
	}
	return strings.Join(lines, "\n") + "\n", nil
}

// OutOfDate reports whether any source of target's derivation in g has a
// newer live version in store than the one the derivation used. Rebuilds
// bind each source to that version (Store.LatestVersion), so a rebuilt
// object is not out of date until a source changes again.
func OutOfDate(g *adg.Graph, store *oct.Store, target oct.Ref) (bool, error) {
	ops, err := g.Derivation(target)
	if err != nil {
		return false, err
	}
	for _, op := range ops {
		for _, in := range op.Inputs {
			if _, produced := g.Producer(in); !produced && store.LatestVersion(in.Name) > in.Version {
				return true, nil
			}
		}
	}
	return false, nil
}
