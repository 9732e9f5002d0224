// papyrus is an interactive shell over the design environment: the
// command-line analogue of the prototype's Tk interface. Create threads,
// invoke TDL tasks, browse and rework the design history, inspect data
// scopes and inferred metadata, and share objects through SDS spaces.
//
// Run it and type `help`.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"papyrus/internal/activity"
	"papyrus/internal/cad/logic"
	"papyrus/internal/core"
	"papyrus/internal/memo"
	"papyrus/internal/obs"
	"papyrus/internal/oct"
	"papyrus/internal/reclaim"
	"papyrus/internal/render"
	"papyrus/internal/templates"
)

const helpText = `commands:
  help                                this text
  tasks                               list task templates
  man <tool>                          show a CAD tool's manual page
  import <name> shifter <width>       import a shifter spec
  import <name> adder <width>         import an adder spec
  import <name> random <seed>         import a random behavioral spec
  thread <name>                       create a design thread and select it
  threads                             list threads
  use <id>                            select a thread
  invoke <task> <formal>=<obj> ...    instantiate a task in the thread
  show                                render the control stream
  scope                               render the current data scope
  workspace                           render the thread workspace (frontier union)
  move <record-id|initial>            rework: move the current cursor
  replay <record-id>                  re-run a record's task with the same bindings (memo turns it into hits)
  annotate <record-id> <text...>      annotate a history record
  objects                             list store objects
  meta <name[@v]>                     inferred metadata of an object
  outofdate <name[@v]>                is a derived object stale?
  rebuild <name[@v]>                  re-run its derivation on the latest sources, as a task in the thread
  gc                                  detect iterations, collect, sweep store
  attime <stamp>                      random access by time (hour buckets)
  stats                               session counters and histograms (obs registry)
  memo                                step-result cache statistics (docs/CACHING.md)
  trace <file>                        dump the session trace as Chrome trace_event JSON
  save <dir> | load <dir>             persist / restore the whole session (load = recover <dir>)
  recover [dir]                       rebuild from the snapshot dir and/or the write-ahead log
  quit`

type shell struct {
	sys     *core.System
	current *activity.Thread
	out     *bufio.Writer
	lost    error // the failed load or recover that closed a logged sys
}

// Durability flags: a non-empty -wal-dir makes every shell session
// write-ahead logged, so `recover` (or a restart with the same flags)
// survives a crash (docs/DURABILITY.md).
var (
	walDir     = flag.String("wal-dir", "", "write-ahead log directory; enables durability (docs/DURABILITY.md)")
	fsyncEvery = flag.Int64("fsync-every", 1, "group-commit flush interval in virtual ticks (<=1 fsyncs once per acknowledged operation)")
	useMemo    = flag.Bool("memo", false, "enable the history-based step-result cache (docs/CACHING.md)")
)

// flagOrder is the order -h prints flags in. The stock alphabetical
// listing put -fsync-every ahead of the -wal-dir it modifies.
var flagOrder = []string{"wal-dir", "fsync-every", "memo"}

// usage replaces the default flag.Usage: same per-flag format, but in
// flagOrder instead of alphabetically. Flags missing from flagOrder are
// appended at the end so nothing ever drops out of -h.
func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintln(w, "usage: papyrus [-wal-dir dir [-fsync-every n]] [-memo]")
	fmt.Fprintln(w, "\ninteractive design-process shell; type `help` at the prompt for commands.")
	fmt.Fprintln(w, "\nflags:")
	seen := make(map[string]bool, len(flagOrder))
	order := flagOrder
	for _, n := range order {
		seen[n] = true
	}
	flag.VisitAll(func(f *flag.Flag) {
		if !seen[f.Name] {
			order = append(order, f.Name)
		}
	})
	for _, name := range order {
		f := flag.Lookup(name)
		if f == nil {
			continue
		}
		u := f.Usage
		if f.DefValue != "" && f.DefValue != "false" && f.DefValue != "0" {
			u += " (default " + f.DefValue + ")"
		}
		fmt.Fprintf(w, "  -%s\n    \t%s\n", f.Name, u)
	}
}

// shellConfig is the System configuration the shell runs with: every
// session carries a live metrics registry and tracer so `stats` and
// `trace` work without flags.
func shellConfig() core.Config {
	cfg := core.Config{Nodes: 4, ReMigrateEvery: 25,
		Metrics: obs.NewRegistry(), Trace: obs.NewTracer()}
	if *walDir != "" {
		cfg.Durability = &core.DurabilityConfig{Dir: *walDir, FsyncEvery: *fsyncEvery}
	}
	// A fresh cache per config keeps `load` and `recover` honest: the
	// recovered session's cache is rebuilt from history, never inherited.
	if *useMemo {
		cfg.Memo = memo.NewCache()
	}
	return cfg
}

func main() {
	flag.Usage = usage
	flag.Parse()
	sys, err := core.New(shellConfig())
	if err != nil {
		log.Fatal(err)
	}
	sh := &shell{sys: sys, out: bufio.NewWriter(os.Stdout)}
	fmt.Fprintln(sh.out, "Papyrus design process manager — type `help`")
	sh.out.Flush()
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Fprint(sh.out, "papyrus> ")
		sh.out.Flush()
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			break
		}
		if err := sh.dispatch(strings.Fields(line)); err != nil {
			fmt.Fprintf(sh.out, "error: %v\n", err)
		}
		sh.out.Flush()
	}
	if err := sh.sys.Close(); err != nil {
		log.Fatal(err)
	}
}

func (sh *shell) dispatch(args []string) error {
	if sh.lost != nil && args[0] != "help" && args[0] != "load" && args[0] != "recover" {
		return fmt.Errorf("no session: %w; load or recover one", sh.lost)
	}
	switch args[0] {
	case "help":
		fmt.Fprintln(sh.out, helpText)
	case "tasks":
		fmt.Fprint(sh.out, render.TaskList(templates.Names()))
	case "man":
		if len(args) != 2 {
			return fmt.Errorf("usage: man <tool>")
		}
		page, err := sh.sys.Suite.ManPage(args[1])
		if err != nil {
			return err
		}
		fmt.Fprint(sh.out, page)
	case "import":
		return sh.cmdImport(args[1:])
	case "thread":
		if len(args) != 2 {
			return fmt.Errorf("usage: thread <name>")
		}
		sh.current = sh.sys.NewThread(args[1], os.Getenv("USER"))
		fmt.Fprintf(sh.out, "thread %d (%s) selected\n", sh.current.ID(), sh.current.Name())
	case "threads":
		for _, t := range sh.sys.Activity.Threads() {
			marker := " "
			if t == sh.current {
				marker = "*"
			}
			fmt.Fprintf(sh.out, "%s %d %s (%s), %d records\n", marker, t.ID(), t.Name(), t.Owner(), t.Stream().Len())
		}
	case "use":
		if len(args) != 2 {
			return fmt.Errorf("usage: use <id>")
		}
		id, err := strconv.Atoi(args[1])
		if err != nil {
			return err
		}
		for _, t := range sh.sys.Activity.Threads() {
			if t.ID() == id {
				sh.current = t
				fmt.Fprintf(sh.out, "thread %d selected\n", id)
				return nil
			}
		}
		return fmt.Errorf("no thread %d", id)
	case "invoke":
		return sh.cmdInvoke(args[1:])
	case "show":
		if err := sh.needThread(); err != nil {
			return err
		}
		fmt.Fprint(sh.out, sh.sys.RenderThread(sh.current))
	case "scope":
		if err := sh.needThread(); err != nil {
			return err
		}
		fmt.Fprint(sh.out, sh.sys.RenderScope(sh.current))
	case "workspace":
		// The Show Thread Workspace view (Fig 5.4): the union of the
		// frontier cursors' thread states.
		if err := sh.needThread(); err != nil {
			return err
		}
		fmt.Fprint(sh.out, render.DataScope("thread workspace "+sh.current.Name(), sh.current.Workspace()))
	case "move":
		return sh.cmdMove(args[1:])
	case "annotate":
		return sh.cmdAnnotate(args[1:])
	case "objects":
		names := sh.sys.Store.Names()
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(sh.out, "  %s (%d versions)\n", n, sh.sys.Store.LatestVersion(n))
		}
	case "meta":
		return sh.cmdMeta(args[1:])
	case "outofdate":
		if len(args) != 2 {
			return fmt.Errorf("usage: outofdate <name[@v]>")
		}
		ref, err := sh.resolveFull(args[1])
		if err != nil {
			return err
		}
		stale, err := sh.sys.OutOfDate(ref)
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "%s out of date: %v\n", ref, stale)
	case "rebuild":
		if err := sh.needThread(); err != nil {
			return err
		}
		if len(args) != 2 {
			return fmt.Errorf("usage: rebuild <name[@v]>")
		}
		ref, err := sh.resolveFull(args[1])
		if err != nil {
			return err
		}
		fresh, err := sh.sys.Rebuild(sh.current, ref)
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "rebuilt %s -> %s\n", ref, fresh)
	case "gc":
		return sh.cmdGC()
	case "attime":
		if err := sh.needThread(); err != nil {
			return err
		}
		if len(args) != 2 {
			return fmt.Errorf("usage: attime <stamp>")
		}
		stamp, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return err
		}
		rec, ok := sh.current.AtTime(stamp)
		if !ok {
			fmt.Fprintln(sh.out, "no record at or after that time")
			return nil
		}
		fmt.Fprintf(sh.out, "record %d: %s @ %d\n", rec.ID, rec.TaskName, rec.Time)
	case "stats":
		// Per-node utilization is sampled on demand so the histogram
		// reflects the cluster state at the moment of the query.
		sh.sys.Cluster.ObserveUtilization()
		return sh.sys.Metrics.WriteText(sh.out)
	case "memo":
		if sh.sys.Memo == nil {
			fmt.Fprintln(sh.out, "memo cache disabled (run with -memo)")
			return nil
		}
		st := sh.sys.Memo.Snapshot()
		fmt.Fprintf(sh.out, "memo: %d entries, %d hits, %d misses, %d bytes stored, %d bytes served\n",
			st.Entries, st.Hits, st.Misses, st.BytesStored, st.BytesServed)
	case "replay":
		return sh.cmdReplay(args[1:])
	case "trace":
		if len(args) != 2 {
			return fmt.Errorf("usage: trace <file>")
		}
		f, err := os.Create(args[1])
		if err != nil {
			return err
		}
		if err := sh.sys.Trace.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "%d events written to %s (open in chrome://tracing)\n", sh.sys.Trace.Len(), args[1])
	case "save":
		if len(args) != 2 {
			return fmt.Errorf("usage: save <dir>")
		}
		if err := sh.sys.SaveSession(args[1]); err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "session saved to %s\n", args[1])
	case "load", "recover": // recover may omit the snapshot dir
		if len(args) > 2 || (args[0] == "load" && len(args) != 2) {
			return fmt.Errorf("usage: load <dir> | recover [snapshot-dir]")
		}
		snapDir := ""
		if len(args) == 2 {
			snapDir = args[1]
		}
		// Release the current session's log before the recovered session
		// reopens the same directory; if recovery then fails, it is lost.
		if sh.sys.WAL != nil {
			if err := sh.sys.Close(); err != nil {
				return err
			}
		}
		sys, stats, err := core.Recover(shellConfig(), snapDir)
		if err != nil {
			if sh.sys.WAL != nil {
				sh.lost = fmt.Errorf("%s failed: %w", strings.Join(args, " "), err)
			}
			return err
		}
		sh.sys, sh.current, sh.lost = sys, nil, nil
		if ts := sys.Activity.Threads(); len(ts) > 0 {
			sh.current = ts[0]
		}
		fmt.Fprintf(sh.out, "session loaded (%d threads): %d log records from %d segments (%d torn bytes discarded)\n",
			len(sys.Activity.Threads()), stats.Records, stats.Segments, stats.Truncated)
	default:
		return fmt.Errorf("unknown command %q (try help)", args[0])
	}
	return nil
}

func (sh *shell) needThread() error {
	if sh.current == nil {
		return fmt.Errorf("no thread selected (use `thread <name>`)")
	}
	return nil
}

func (sh *shell) cmdImport(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("usage: import <name> shifter|adder|random <arg>")
	}
	n, err := strconv.Atoi(args[2])
	if err != nil {
		return fmt.Errorf("bad numeric argument %q", args[2])
	}
	var text string
	switch args[1] {
	case "shifter":
		text = logic.ShifterBehavior(n)
	case "adder":
		text = logic.AdderBehavior(n)
	case "random":
		text = logic.GenBehavior(logic.GenConfig{Seed: int64(n), Inputs: 5, Outputs: 3, Depth: 4})
	default:
		return fmt.Errorf("unknown generator %q", args[1])
	}
	ref, err := sh.sys.ImportObject(args[0], oct.TypeBehavioral, oct.Text(text))
	if err != nil {
		return err
	}
	fmt.Fprintf(sh.out, "imported %s\n", ref)
	return nil
}

func (sh *shell) cmdInvoke(args []string) error {
	if err := sh.needThread(); err != nil {
		return err
	}
	if len(args) < 1 {
		return fmt.Errorf("usage: invoke <task> formal=object ...")
	}
	taskName := args[0]
	text, err := templates.Lookup(taskName)
	if err != nil {
		return err
	}
	tpl, err := parseTemplate(text)
	if err != nil {
		return err
	}
	bindings := map[string]string{}
	for _, kv := range args[1:] {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return fmt.Errorf("binding %q is not formal=object", kv)
		}
		bindings[parts[0]] = parts[1]
	}
	inputs := map[string]string{}
	outputs := map[string]string{}
	for _, formal := range tpl.ins {
		v, ok := bindings[formal]
		if !ok {
			return fmt.Errorf("missing binding for input %q", formal)
		}
		inputs[formal] = v
	}
	for _, formal := range tpl.outs {
		v, ok := bindings[formal]
		if !ok {
			return fmt.Errorf("missing binding for output %q", formal)
		}
		outputs[formal] = v
	}
	rec, err := sh.sys.Invoke(sh.current, taskName, inputs, outputs)
	if err != nil {
		return err
	}
	if rec == nil {
		fmt.Fprintln(sh.out, "task completed (record filtered)")
		return nil
	}
	fmt.Fprint(sh.out, render.ProgressFromRecord(rec))
	return nil
}

func (sh *shell) cmdMove(args []string) error {
	if err := sh.needThread(); err != nil {
		return err
	}
	if len(args) != 1 {
		return fmt.Errorf("usage: move <record-id|initial>")
	}
	if args[0] == "initial" {
		return sh.current.MoveCursor(nil)
	}
	id, err := strconv.Atoi(args[0])
	if err != nil {
		return err
	}
	rec, ok := sh.current.Stream().ByID(id)
	if !ok {
		return fmt.Errorf("no record %d", id)
	}
	return sh.current.MoveCursor(rec)
}

// cmdReplay re-invokes a recorded task with the record's actual
// input/output bindings — the cursor-move rework flow (§3.3.3) as one
// command. With -memo the re-run resolves entirely from the cache.
func (sh *shell) cmdReplay(args []string) error {
	if err := sh.needThread(); err != nil {
		return err
	}
	if len(args) != 1 {
		return fmt.Errorf("usage: replay <record-id>")
	}
	id, err := strconv.Atoi(args[0])
	if err != nil {
		return err
	}
	rec, ok := sh.current.Stream().ByID(id)
	if !ok {
		return fmt.Errorf("no record %d", id)
	}
	fresh, err := sh.sys.Activity.ReplayRecord(sh.current, rec)
	if err != nil {
		return err
	}
	if fresh == nil {
		fmt.Fprintln(sh.out, "task completed (record filtered)")
		return nil
	}
	fmt.Fprint(sh.out, render.ProgressFromRecord(fresh))
	return nil
}

func (sh *shell) cmdAnnotate(args []string) error {
	if err := sh.needThread(); err != nil {
		return err
	}
	if len(args) < 2 {
		return fmt.Errorf("usage: annotate <record-id> <text>")
	}
	id, err := strconv.Atoi(args[0])
	if err != nil {
		return err
	}
	rec, ok := sh.current.Stream().ByID(id)
	if !ok {
		return fmt.Errorf("no record %d", id)
	}
	return sh.current.Annotate(rec, strings.Join(args[1:], " "))
}

func (sh *shell) cmdMeta(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: meta <name[@version]>")
	}
	ref, err := oct.ParseRef(args[0])
	if err != nil {
		return err
	}
	obj, err := sh.sys.Store.Peek(ref)
	if err != nil {
		return err
	}
	full := oct.Ref{Name: obj.Name, Version: obj.Version}
	fmt.Fprintf(sh.out, "%s: stored type %s, %d bytes, created by %s\n",
		full, obj.Type, obj.Data.Size(), obj.Creator)
	if typ, ok := sh.sys.Inference.TypeOf(full); ok {
		fmt.Fprintf(sh.out, "  inferred type: %s\n", typ)
	}
	for _, a := range sh.sys.Attrs.Attrs(full) {
		if e, ok := sh.sys.Attrs.Peek(full, a); ok {
			fmt.Fprintf(sh.out, "  %s = %s [%s]\n", a, e.Value, e.Source)
		}
	}
	for _, r := range sh.sys.Inference.Relationships(full) {
		fmt.Fprintf(sh.out, "  %s: %s -> %s (via %s)\n", r.Kind, r.From, r.To, r.Via)
	}
	if class := sh.sys.Inference.EquivalenceClass(full); len(class) > 1 {
		fmt.Fprintf(sh.out, "  equivalent representations: %v\n", class)
	}
	if lineage := sh.sys.Inference.Lineage(full); len(lineage) > 1 {
		fmt.Fprintf(sh.out, "  version lineage: %v\n", lineage)
	}
	ops, err := sh.sys.Inference.Graph().Derivation(full)
	if err == nil && len(ops) > 0 {
		rows := make([]render.DerivationOp, len(ops))
		for i, op := range ops {
			rows[i] = render.DerivationOp{Tool: op.Tool, Options: op.Options,
				Inputs: refStrings(op.Inputs), Outputs: refStrings(op.Outputs)}
		}
		fmt.Fprint(sh.out, render.Derivation(full.String(), rows))
	}
	return nil
}

func refStrings(refs []oct.Ref) []string {
	out := make([]string, len(refs))
	for i, r := range refs {
		out[i] = r.String()
	}
	return out
}

// resolveFull resolves a user-typed object name to a concrete versioned
// ref, preferring the current thread's scope rules when a thread is
// selected.
func (sh *shell) resolveFull(name string) (oct.Ref, error) {
	if sh.current != nil {
		if ref, err := sh.current.ResolveInput(name); err == nil {
			return ref, nil
		}
	}
	ref, err := oct.ParseRef(name)
	if err != nil {
		return oct.Ref{}, err
	}
	obj, err := sh.sys.Store.Peek(ref)
	if err != nil {
		return oct.Ref{}, err
	}
	return oct.Ref{Name: obj.Name, Version: obj.Version}, nil
}

// cmdGC runs the future-work iteration detection plus collection and a
// full object sweep through the system's reclaimer — so the sweep is
// WAL-logged, memo-coherent, and honors the configured grace period
// (docs/RECLAIM.md).
func (sh *shell) cmdGC() error {
	if err := sh.needThread(); err != nil {
		return err
	}
	hints := reclaim.DetectIterations(sh.current)
	rc := sh.sys.Reclaimer
	removed := 0
	for _, h := range hints {
		n, err := rc.CollectIterations(sh.current, h)
		if err != nil {
			return err
		}
		removed += n
	}
	stats, err := rc.Sweep(0)
	if err != nil {
		return err
	}
	fmt.Fprintf(sh.out, "detected %d iterative processes, removed %d records, reclaimed %d versions (%d bytes)\n",
		len(hints), removed, stats.Versions, stats.Bytes)
	if stats.MemoInvalidated > 0 {
		fmt.Fprintf(sh.out, "invalidated %d memo entries\n", stats.MemoInvalidated)
	}
	return nil
}

// parseTemplate extracts a template's formal argument lists.
type tplHeader struct{ ins, outs []string }

func parseTemplate(text string) (*tplHeader, error) {
	tpl, err := tdlParse(text)
	if err != nil {
		return nil, err
	}
	return tpl, nil
}
