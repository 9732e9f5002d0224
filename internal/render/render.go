// Package render replaces the Tk GUI of the Papyrus prototype (Figs 4.4,
// 4.5, 5.1–5.5) with deterministic ASCII renderings: the task manager's
// step-progress display, the activity manager's control-stream browser,
// and the data-scope listing. DESIGN.md documents the substitution: the
// testable behavior (what the interface shows) is preserved, the pixels
// are not.
package render

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"papyrus/internal/history"
	"papyrus/internal/oct"
)

// StepStatus mirrors the color coding of Fig 4.4: white = waiting,
// red = running, green = completed.
type StepStatus int

// Step display states.
const (
	StepWaiting StepStatus = iota
	StepRunning
	StepDone
	StepFailed
)

func (s StepStatus) symbol() string {
	switch s {
	case StepRunning:
		return "[*]"
	case StepDone:
		return "[x]"
	case StepFailed:
		return "[!]"
	default:
		return "[ ]"
	}
}

// StepLine is one row of the task progress display.
type StepLine struct {
	Name   string
	Status StepStatus
	Node   int // workstation executing/executed the step (-1 unknown)
	Detail string
}

// TaskProgress renders the Fig 4.4 task-status window as text.
func TaskProgress(task string, lines []StepLine, message string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Task: %s\n", task)
	width := 0
	for _, l := range lines {
		if len(l.Name) > width {
			width = len(l.Name)
		}
	}
	for _, l := range lines {
		fmt.Fprintf(&b, "  %s %-*s", l.Status.symbol(), width, l.Name)
		if l.Node >= 0 {
			fmt.Fprintf(&b, "  @ws%d", l.Node)
		}
		if l.Detail != "" {
			fmt.Fprintf(&b, "  %s", l.Detail)
		}
		b.WriteByte('\n')
	}
	if message != "" {
		fmt.Fprintf(&b, "-- %s\n", message)
	}
	return b.String()
}

// ProgressFromRecord renders a completed task's history record in the
// progress format (all steps green, failed ones flagged).
func ProgressFromRecord(rec *history.Record) string {
	lines := make([]StepLine, 0, len(rec.Steps))
	for _, s := range rec.Steps {
		st := StepDone
		if s.ExitStatus != 0 {
			st = StepFailed
		}
		lines = append(lines, StepLine{
			Name:   s.Name,
			Status: st,
			Node:   s.Node,
			Detail: fmt.Sprintf("t=[%d,%d] %s", s.StartedAt, s.CompletedAt, s.Tool),
		})
	}
	return TaskProgress(rec.TaskName, lines, "")
}

// ControlStream renders a thread's control stream as an indented tree
// (Fig 5.1). The current cursor is marked with `=>`; annotations print in
// quotes; collapsed (vertically aged) records carry an ellipsis. A record
// with several parents prints in full under the first and as "(see
// above)" under the rest. Siblings print in ID order. Append adds IDs in
// ascending order, so most lists already are; only a list that is not
// (after InsertBefore, say) is copied and sorted.
func ControlStream(s *history.Stream, cursor *history.Record) string {
	w := streamWriter{cursor: cursor}
	w.b.Grow(64 * (s.Len() + 2))
	w.b.WriteString("(initial)\n")
	for _, r := range byID(s.Roots()) {
		w.walk(r, 1)
	}
	if cursor == nil {
		w.b.WriteString("=> cursor at initial design point\n")
	}
	return w.b.String()
}

// streamWriter is one ControlStream rendering in progress.
type streamWriter struct {
	b      strings.Builder
	num    [24]byte
	cursor *history.Record
	// printed holds the multi-parent records already printed in full;
	// a record with one parent is reached once.
	printed map[*history.Record]bool
}

func (w *streamWriter) walk(rec *history.Record, depth int) {
	for i := 0; i < depth; i++ {
		w.b.WriteString("  ")
	}
	if rec == w.cursor {
		w.b.WriteString("=>(")
	} else {
		w.b.WriteString("  (")
	}
	w.b.Write(strconv.AppendInt(w.num[:0], int64(rec.ID), 10))
	w.b.WriteString(") ")
	w.b.WriteString(rec.TaskName)
	if len(rec.Parents()) > 1 {
		if w.printed[rec] {
			w.b.WriteString(" (see above)\n")
			return
		}
		if w.printed == nil {
			w.printed = map[*history.Record]bool{}
		}
		w.printed[rec] = true
	}
	w.b.WriteByte('@')
	w.b.Write(strconv.AppendInt(w.num[:0], rec.Time, 10))
	if rec.Annotation != "" {
		w.b.WriteByte(' ')
		w.b.WriteString(strconv.Quote(rec.Annotation))
	}
	if rec.Collapsed {
		w.b.WriteString(" ...")
	}
	w.b.WriteByte('\n')
	for _, c := range byID(rec.Children()) {
		w.walk(c, depth+1)
	}
}

// byID returns recs in ascending ID order: recs itself when it already is,
// a sorted copy otherwise.
func byID(recs []*history.Record) []*history.Record {
	for i := 1; i < len(recs); i++ {
		if recs[i].ID < recs[i-1].ID {
			sorted := append([]*history.Record(nil), recs...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
			return sorted
		}
	}
	return recs
}

// DataScope renders the Fig 5.4 data-scope listing: object names with
// their visible versions, sorted.
func DataScope(title string, scope map[oct.Ref]bool) string {
	byName := map[string][]int{}
	for ref := range scope {
		byName[ref.Name] = append(byName[ref.Name], ref.Version)
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "Data Scope at the Current Cursor: %s\n", title)
	for _, n := range names {
		vs := byName[n]
		sort.Ints(vs)
		parts := make([]string, len(vs))
		for i, v := range vs {
			parts[i] = fmt.Sprintf("version %d", v)
		}
		fmt.Fprintf(&b, "  %s : %s\n", n, strings.Join(parts, ", "))
	}
	return b.String()
}

// Derivation renders an object's derivation history (the ADG recipe of
// Fig 6.2) as a numbered tool sequence with its data flow.
func Derivation(target string, ops []DerivationOp) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Derivation of %s:\n", target)
	if len(ops) == 0 {
		b.WriteString("  (source object — no recorded derivation)\n")
		return b.String()
	}
	for i, op := range ops {
		fmt.Fprintf(&b, "  %2d. %s", i+1, op.Tool)
		if len(op.Options) > 0 {
			fmt.Fprintf(&b, " %s", strings.Join(op.Options, " "))
		}
		fmt.Fprintf(&b, "  (%s -> %s)\n",
			strings.Join(op.Inputs, ", "), strings.Join(op.Outputs, ", "))
	}
	return b.String()
}

// DerivationOp is one row of a Derivation rendering; callers map their
// graph representation (e.g. adg.Op) into it.
type DerivationOp struct {
	Tool    string
	Options []string
	Inputs  []string
	Outputs []string
}

// TaskList renders the Fig 5.2 template chooser.
func TaskList(names []string) string {
	var b strings.Builder
	b.WriteString("Task Templates:\n")
	for i, n := range names {
		fmt.Fprintf(&b, "  %2d. %s\n", i+1, n)
	}
	return b.String()
}
