// Package task implements Papyrus's Task Manager (dissertation Chapter 4):
// the interpreter/execution engine that turns TDL task templates into
// scheduled CAD tool invocations on the simulated workstation cluster.
//
// The engine reproduces the dissertation's machinery:
//
//   - dynamic parallelism extraction with Active/Suspending/Result lists
//     and out-of-order issue and completion (§4.3.2);
//   - transparent distribution: migratable steps run on idle workstations,
//     evicted steps are re-migrated by polling the process table (§4.3.3);
//   - programmable abort semantics: each top-level template command has an
//     internal ID; aborting a step restarts the task at its resumed task
//     state, undoing the side effects of later commands (§4.3.4);
//   - unique intermediate naming across concurrent task instances by
//     suffixing the instance ID (§4.3.4);
//   - history recording: a committed task yields a history.Record with its
//     steps ordered by completion time (§4.3.5);
//   - synchronous attribute evaluation through the attribute database
//     (§4.3.6).
//
// Failure semantics (DESIGN.md §6): a failing step with {OnFail continue}
// sets $status and execution proceeds; one with {ResumedStep n} restarts
// the task at that resumed state; otherwise the task aborts, removing all
// side effects — the "compulsory abort" of §4.3.4.
//
// Tool bodies of a same-instant completion batch execute on a worker
// pool (Config.Workers) over a deterministic three-phase batch schedule,
// so results are byte-identical at any pool size; a step whose memo key
// hits the step-result cache (internal/memo, docs/CACHING.md) completes
// without dispatching at all. In the served architecture the wire's
// admission-control layer (internal/server, docs/SERVER.md) stands in
// front of this engine and never inside it.
package task

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"papyrus/internal/attr"
	"papyrus/internal/cad"
	"papyrus/internal/history"
	"papyrus/internal/memo"
	"papyrus/internal/obs"
	"papyrus/internal/oct"
	"papyrus/internal/sprite"
	"papyrus/internal/tcl"
	"papyrus/internal/tdl"
)

// Config wires a Manager to its environment.
type Config struct {
	Suite   *cad.Suite
	Store   *oct.Store
	Cluster *sprite.Cluster
	// Templates resolves a task name to its template text.
	Templates func(name string) (string, error)
	// AttrDB serves the attribute command; nil disables it.
	AttrDB *attr.DB
	// MaxRestarts bounds programmable-abort restarts per invocation
	// (default 3); exceeding it aborts the task. Retries of transient
	// step failures are budgeted separately by Retry and never consume
	// a restart (docs/FAULTS.md).
	MaxRestarts int
	// Retry is the per-step retry policy for transient failures (node
	// crashes, injected faults); the zero value disables retries.
	Retry RetryPolicy
	// FaultStep is the fault-injection hook consulted when a step's
	// process completes: a true return fails that attempt transiently
	// before the tool body runs, so the attempt leaves no OCT writes
	// behind. See internal/fault and docs/FAULTS.md.
	FaultStep func(step string, attempt int) (bool, string)
	// ReMigrateEvery enables the re-migration poll at this virtual-time
	// interval (§4.3.3); 0 disables it.
	ReMigrateEvery int64
	// OnStep observes every completed step (the inference layer and the
	// activity manager subscribe). Called in completion order. The
	// record's slices are shared and read-only (history.StepRecord).
	OnStep func(history.StepRecord)
	// Workers caps the run-scoped pool that executes a completion
	// batch's tool bodies concurrently (pool.go); <= 0 selects
	// DefaultWorkers. Workers are spawned
	// lazily up to the cap, so a value wider than the workload's
	// batches costs nothing. Any value produces the same stats,
	// traces, and store content: batch boundaries and apply order are
	// functions of the event queue alone, never of goroutine
	// scheduling (docs/OBSERVABILITY.md, EXPERIMENTS.md E11).
	Workers int
	// StepLatency is an optional wall-clock sleep per executed tool
	// body, modeling the process-spawn and file-system cost of invoking
	// a real CAD tool. Virtual time is unaffected; the scale benchmark
	// uses it to make worker-pool overlap visible on any host.
	StepLatency time.Duration
	// Metrics and Tracer are optional observability sinks (nil = off);
	// see docs/OBSERVABILITY.md for the emitted counters and events.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	// Memo is the optional history-based step-result cache: a step whose
	// content-addressed fingerprint is cached completes by materializing
	// the cached output versions instead of dispatching a sprite
	// (docs/CACHING.md). Nil disables memoization. The cache may be
	// shared across managers and sessions; it is concurrency-safe and
	// holds no observability sinks of its own.
	Memo *memo.Cache
	// InstanceBase offsets this manager's task-instance IDs — the §4.3.4
	// suffix on intermediate object names. Managers sharing one store
	// (the multi-session scheme) must use disjoint bases, or two
	// sessions' task #k would both write "m1#k" and the shared name's
	// version order would depend on scheduling. 0 starts at instance 1.
	InstanceBase int
}

// DefaultWorkers is the worker-pool size when Config.Workers is unset.
const DefaultWorkers = 4

// home is the workstation every task manager runs on: steps spawn there
// and migrate away from it (§4.3.3).
const home sprite.NodeID = 0

// RetryPolicy bounds per-step retries of transient failures. It is
// deliberately independent of Config.MaxRestarts: a programmable-abort
// restart rewinds task state to a resumed step (§4.3.4), while a retry
// re-issues a single step whose failure left no side effects. The two
// budgets never draw on each other.
type RetryPolicy struct {
	// MaxAttempts is the total number of times one step may be issued,
	// first attempt included. 0 or 1 disables retries.
	MaxAttempts int
	// BackoffBase is the virtual-tick delay before the second attempt;
	// each further retry doubles it (exponential backoff in virtual
	// time). 0 re-issues immediately.
	BackoffBase int64
	// Classify optionally extends the transient set to genuine tool
	// failures (node-crash kills and injected faults are always
	// transient). Nil treats tool errors as fatal — the simulated tools
	// are deterministic, so blind re-runs would fail identically.
	Classify func(step string, err error) bool
}

// Backoff returns the virtual-tick delay before re-issuing a step that
// has already been attempted `attempts` times: BackoffBase doubled per
// extra attempt, clamped at 1<<20 ticks.
func (p RetryPolicy) Backoff(attempts int) int64 {
	if p.BackoffBase <= 0 || attempts < 1 {
		return 0
	}
	d := p.BackoffBase
	for i := 1; i < attempts; i++ {
		d <<= 1
		if d >= 1<<20 {
			return 1 << 20
		}
	}
	return d
}

// Invocation is one task instantiation request.
type Invocation struct {
	Task string
	// Inputs binds the template's formal input names to object versions.
	Inputs map[string]oct.Ref
	// Outputs binds the template's formal output names to the physical
	// object names to create.
	Outputs map[string]string
	// OptionOverrides replaces a step's default tool options (the GUI's
	// "New Options:" box, §4.3.1), keyed by step name.
	OptionOverrides map[string][]string
	// OnRestart is invoked before each programmable-abort restart with
	// the attempt number; it may adjust OptionOverrides — the
	// dissertation's "users can try different parameters" (§3.3.2).
	OnRestart func(attempt int, inv *Invocation)
}

// Manager instantiates design tasks. Like nextID, the compiled-template
// cache assumes one caller at a time; the compiled templates themselves
// are immutable and shared by every run.
type Manager struct {
	cfg    Config
	nextID int
	// compiled holds each task's compiled template by task name. An
	// entry serves only while Config.Templates returns the text it was
	// compiled from, so an edited template recompiles on its next use
	// (§4.1: templates change without touching the design database).
	compiled map[string]*tdl.Compiled
}

// New returns a Manager.
func New(cfg Config) (*Manager, error) {
	if cfg.Suite == nil || cfg.Store == nil || cfg.Cluster == nil || cfg.Templates == nil {
		return nil, fmt.Errorf("task: Config needs Suite, Store, Cluster and Templates")
	}
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = 3
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	cfg.Metrics.SetBuckets("task.worker.batch.steps", []int64{1, 2, 4, 8, 16, 32, 64})
	return &Manager{cfg: cfg, nextID: cfg.InstanceBase, compiled: map[string]*tdl.Compiled{}}, nil
}

// template returns the compiled template of task name for its current
// text, compiling it on first use and again whenever the text changed.
// Config.Templates hands back the same string for an unchanged template,
// so the comparison is a pointer check.
func (m *Manager) template(name, text string) (*tdl.Compiled, error) {
	if c := m.compiled[name]; c != nil && c.Text == text {
		return c, nil
	}
	c, err := tdl.Compile(text)
	if err != nil {
		return nil, err
	}
	m.compiled[name] = c
	return c, nil
}

// RunTask instantiates a template and runs it to commit, returning the
// task's history record. On task abort all side effects are removed and no
// record is produced (§4.1).
func (m *Manager) RunTask(inv Invocation) (*history.Record, error) {
	m.nextID++
	r := &run{m: m, inv: inv, id: m.nextID}
	return r.execute()
}

// TemplateIO returns a task template's formal input and output names in
// declaration order. The activity manager's replay surface uses it to
// rebind a history record's recorded actual refs to the template formals
// (records store actuals sorted by formal name; see run.execute). The
// slices belong to the compiled template: callers must not modify them.
func (m *Manager) TemplateIO(name string) (inputs, outputs []string, err error) {
	script, err := m.cfg.Templates(name)
	if err != nil {
		return nil, nil, fmt.Errorf("task: template %q: %v", name, err)
	}
	tpl, err := m.template(name, script)
	if err != nil {
		return nil, nil, err
	}
	return tpl.Inputs[:len(tpl.Inputs):len(tpl.Inputs)], tpl.Outputs[:len(tpl.Outputs):len(tpl.Outputs)], nil
}

// errTaskAbort marks a whole-task abort.
type errTaskAbort struct{ reason error }

func (e errTaskAbort) Error() string { return "task aborted: " + e.reason.Error() }
func (e errTaskAbort) Unwrap() error { return e.reason }

// restartReq signals a programmable-abort restart at a resumed step.
type restartReq struct {
	resumedStepID string // "0" = from scratch
	cause         string
}

func (e restartReq) Error() string {
	return fmt.Sprintf("restart at resumed step %q (%s)", e.resumedStepID, e.cause)
}

// scope is one subtask name-binding frame.
type scope struct {
	bind map[string]string // subtask formal -> resolved physical name
	path string            // ID prefix, e.g. "3.1:"
}

// pending is a registered design step (Active or Suspending list entry).
type pending struct {
	spec       *tdl.StepSpec
	internalID int
	stepID     string // prefixed user step ID ("" when unnumbered)
	displayID  string // for messages
	tool       *cad.Tool
	options    []string
	inputs     []string // physical names
	outputs    []string // physical names
	migratable bool
	// bound holds inputs[i]'s version as of the step's latest issue
	// (run.bind).
	bound []boundInput

	waitingData map[string]bool // unsatisfied physical input names
	waitingCtl  map[string]bool // unsatisfied control-dependency step IDs

	pid       sprite.PID
	startedAt int64
	attempts  int // times the step has been issued (retry accounting)

	// memoKey is the step's content-addressed fingerprint, computed at
	// first dispatch when a memo cache is configured ("" = unkeyable).
	memoKey string
	// memoTokens are the input identity tokens behind memoKey; populate
	// registers the entry under them (plus its output refs) so sweep-time
	// reclamation can invalidate it (memo.Cache.Invalidate).
	memoTokens []string
}

// boundInput is one input version a step issued on.
type boundInput struct {
	ref oct.Ref
	obj *oct.Object // nil when ref could not be read at issue
}

// run is the state of one task instantiation — the dissertation's "forked
// task manager instance".
type run struct {
	m   *Manager
	inv Invocation
	id  int

	interp *tcl.Interp
	tpl    *tdl.Compiled
	cmdIdx int
	scopes []scope

	// Result list: physical name -> resolved ref of the produced version.
	ready map[string]oct.Ref
	// producer maps physical name -> internal ID of the creating command.
	producer map[string]int
	// Active list: pid -> pending step.
	active map[sprite.PID]*pending
	// Suspending list.
	suspended []*pending
	// completed steps by prefixed ID, true = success.
	completed map[string]bool
	// stepInternal maps prefixed step ID -> internal command ID.
	stepInternal map[string]int
	// resumedSpecs maps a step's prefixed ID (or name for unnumbered
	// steps) to its declared resumed step ID.
	resumedSpecs map[string]string
	// named lists the live numbered steps in registration order, for
	// abort-by-name; undoAfter drops the entries it rewinds.
	named []namedStep
	// created tracks objects written per internal ID, for abort removal.
	created []createdObj
	// intermediates marks physical names to discard at commit.
	intermediates map[string]bool

	done     []doneStep
	restarts int
	marker   sprite.PID // pseudo parent PID for PCB filtering

	// Retry bookkeeping: steps waiting out a backoff delay before
	// re-issue. retryPending always equals len(retryCancels).
	retryPending int
	retryCancels map[*pending]func()

	// Re-entrancy guard for activateSuspended: a memo hit completes a
	// step synchronously inside dispatch, which may itself run inside an
	// activateSuspended sweep. The inner call only flags reactivate; the
	// outer sweep re-runs to a fixpoint (steps.go).
	activating bool
	reactivate bool

	// pool runs the tool bodies of every batch of this run; nil when
	// Workers <= 1 (pool.go).
	pool *workPool
}

// namedStep is one registered numbered step, for abort-by-name.
type namedStep struct {
	name       string
	stepID     string // prefixed
	internalID int
}

type createdObj struct {
	ref        oct.Ref
	internalID int
}

type doneStep struct {
	rec        history.StepRecord
	internalID int
}

func (r *run) execute() (*history.Record, error) {
	script, err := r.m.cfg.Templates(r.inv.Task)
	if err != nil {
		return nil, fmt.Errorf("task: template %q: %v", r.inv.Task, err)
	}
	tpl, err := r.m.template(r.inv.Task, script)
	if err != nil {
		return nil, err
	}
	if err := r.checkBindings(tpl.Template); err != nil {
		return nil, err
	}
	r.tpl = tpl
	r.ready = make(map[string]oct.Ref)
	r.producer = make(map[string]int)
	r.active = make(map[sprite.PID]*pending)
	r.completed = make(map[string]bool)
	r.stepInternal = make(map[string]int)
	r.intermediates = make(map[string]bool)
	r.retryCancels = make(map[*pending]func())
	r.marker = sprite.PID(-r.id)
	if r.m.cfg.Workers > 1 {
		r.pool = newWorkPool(r.m.cfg.Workers)
		defer r.pool.close()
	}

	// Seed the Result list with the task's actual inputs.
	inputNames := make([]string, 0, len(r.inv.Inputs))
	for formal := range r.inv.Inputs {
		inputNames = append(inputNames, formal)
	}
	sort.Strings(inputNames)
	var recInputs []oct.Ref
	for _, formal := range inputNames {
		ref := r.inv.Inputs[formal]
		resolved, err := r.m.cfg.Store.Peek(ref)
		if err != nil {
			return nil, fmt.Errorf("task: input %q: %v", formal, err)
		}
		full := oct.Ref{Name: resolved.Name, Version: resolved.Version}
		r.ready[full.String()] = full
		recInputs = append(recInputs, full)
	}

	r.interp = tcl.New()
	r.interp.Source = r.m.cfg.Templates
	r.interp.SetGlobalVar("status", "0")
	r.registerCommands()

	if r.m.cfg.ReMigrateEvery > 0 {
		stop := r.m.cfg.Cluster.Every(r.m.cfg.ReMigrateEvery, r.reMigrate)
		defer stop()
	}

	startVT := r.m.cfg.Cluster.Now()
	if err := r.interpret(0); err != nil {
		r.cleanupAbort()
		r.m.cfg.Metrics.Inc("task.run.abort")
		if tr := r.m.cfg.Tracer; tr != nil {
			tr.Emit(obs.Event{
				VT: r.m.cfg.Cluster.Now(), Type: obs.EvTaskAbort,
				Name: r.inv.Task, Task: r.id,
				Args: map[string]string{"error": err.Error()},
			})
		}
		return nil, errTaskAbort{reason: err}
	}
	r.m.cfg.Metrics.Inc("task.run.commit")
	r.m.cfg.Metrics.Observe("task.run.ticks", r.m.cfg.Cluster.Now()-startVT)
	if tr := r.m.cfg.Tracer; tr != nil {
		tr.Emit(obs.Event{
			VT: r.m.cfg.Cluster.Now(), Type: obs.EvTaskCommit,
			Name: r.inv.Task, Task: r.id,
		})
	}

	// Commit: discard intermediates (§4.3.5) and build the history record.
	// Each hide is a log record and a store clock tick, so hide in name
	// order: the log bytes and access stamps must not depend on map order.
	discard := make([]string, 0, len(r.intermediates))
	for phys := range r.intermediates {
		discard = append(discard, phys)
	}
	sort.Strings(discard)
	for _, phys := range discard {
		if ref, ok := r.ready[phys]; ok {
			_ = r.m.cfg.Store.Hide(ref)
		}
	}
	sort.Slice(r.done, func(i, j int) bool {
		if r.done[i].rec.CompletedAt != r.done[j].rec.CompletedAt {
			return r.done[i].rec.CompletedAt < r.done[j].rec.CompletedAt
		}
		return r.done[i].rec.Name < r.done[j].rec.Name
	})
	steps := make([]history.StepRecord, len(r.done))
	for i, d := range r.done {
		steps[i] = d.rec
	}
	rec := &history.Record{
		TaskName: r.inv.Task,
		Time:     r.m.cfg.Store.Clock(),
		Inputs:   recInputs,
		Steps:    steps,
	}
	outNames := make([]string, 0, len(r.inv.Outputs))
	for formal := range r.inv.Outputs {
		outNames = append(outNames, formal)
	}
	sort.Strings(outNames)
	for _, formal := range outNames {
		phys := r.inv.Outputs[formal]
		if ref, ok := r.ready[phys]; ok {
			rec.Outputs = append(rec.Outputs, ref)
		}
	}
	return rec, nil
}

// checkBindings verifies the invocation matches the template header.
func (r *run) checkBindings(tpl *tdl.Template) error {
	for _, formal := range tpl.Inputs {
		if _, ok := r.inv.Inputs[formal]; !ok {
			return fmt.Errorf("task %q: missing binding for input %q", tpl.Name, formal)
		}
	}
	for _, formal := range tpl.Outputs {
		if _, ok := r.inv.Outputs[formal]; !ok {
			return fmt.Errorf("task %q: missing binding for output %q", tpl.Name, formal)
		}
	}
	return nil
}

// interpret walks the top-level commands from start, handling restarts:
// a restart rewinds idx to the command after the resumed step's (§4.3.4).
func (r *run) interpret(start int) error {
	idx := start
	for idx < len(r.tpl.Scripts) {
		r.cmdIdx = idx
		if err := r.evalCommand(r.tpl, idx); err != nil {
			if next, ok := r.handleRestart(err); ok {
				idx = next
				continue
			}
			return err
		}
		idx++
	}
	if err := r.drain(); err != nil {
		if next, ok := r.handleRestart(err); ok {
			return r.interpret(next)
		}
		return err
	}
	return nil
}

// evalCommand interprets body command i of tpl. A command that consults
// $status or an attribute first drains the outstanding steps (§4.2.3,
// §4.3.6).
func (r *run) evalCommand(tpl *tdl.Compiled, i int) error {
	if tpl.Barrier[i] {
		if err := r.drain(); err != nil {
			return err
		}
	}
	if st := tpl.Steps[i]; st != nil && !r.interp.IsProc("step") {
		return r.registerStep(st) // what evaluating the command would do
	}
	_, err := r.interp.EvalScript(tpl.Scripts[i])
	return err
}

// handleRestart applies programmable-abort semantics when err carries a
// restartReq; it returns the command index to resume at.
func (r *run) handleRestart(err error) (int, bool) {
	req, ok := extractRestart(err)
	if !ok {
		return 0, false
	}
	r.restarts++
	if r.restarts > r.m.cfg.MaxRestarts {
		return 0, false // falls through to task abort
	}
	if r.inv.OnRestart != nil {
		r.inv.OnRestart(r.restarts, &r.inv)
	}

	// Map the resumed step to its internal command ID J; restart at J+1
	// after undoing the side effects of commands with internal ID > J.
	j := -1
	if req.resumedStepID != "" && req.resumedStepID != "0" {
		id, ok := r.stepInternal[req.resumedStepID]
		if !ok {
			return 0, false // unknown resumed step: full abort
		}
		j = id
	}
	r.undoAfter(j)
	r.interp.SetGlobalVar("status", "0")
	r.m.cfg.Metrics.Inc("task.run.restart")
	if tr := r.m.cfg.Tracer; tr != nil {
		tr.Emit(obs.Event{
			VT: r.m.cfg.Cluster.Now(), Type: obs.EvTaskRestart,
			Name: r.inv.Task, Task: r.id,
			Args: map[string]string{"resumed": req.resumedStepID, "cause": req.cause},
		})
	}
	return j + 1, true
}

// extractRestart finds the typed restart signal in err's chain. A
// restart is never recovered from message text: an error command that
// re-raises a caught restart's message fails the task like any error.
func extractRestart(err error) (restartReq, bool) {
	var req restartReq
	ok := errors.As(err, &req)
	return req, ok
}

// undoAfter removes side effects of commands with internal ID > j:
// created objects are hidden, active processes killed, suspended entries
// dropped, completion bookkeeping rewound (§4.3.4).
func (r *run) undoAfter(j int) {
	kept := r.created[:0]
	for _, c := range r.created {
		if c.internalID > j {
			_ = r.m.cfg.Store.Hide(c.ref)
			delete(r.ready, c.ref.String())
			delete(r.producer, c.ref.String())
		} else {
			kept = append(kept, c)
		}
	}
	r.created = kept

	for pid, p := range r.active {
		if p.internalID > j {
			_ = r.m.cfg.Cluster.Kill(pid)
			delete(r.active, pid)
		}
	}
	for p, cancel := range r.retryCancels {
		if p.internalID > j {
			cancel()
			delete(r.retryCancels, p)
			r.retryPending--
		}
	}
	keptSusp := r.suspended[:0]
	for _, p := range r.suspended {
		if p.internalID <= j {
			keptSusp = append(keptSusp, p)
		}
	}
	r.suspended = keptSusp

	for stepID, internal := range r.stepInternal {
		if internal > j {
			delete(r.stepInternal, stepID)
			delete(r.completed, stepID)
		}
	}
	keptNamed := r.named[:0]
	for _, n := range r.named {
		if n.internalID <= j {
			keptNamed = append(keptNamed, n)
		}
	}
	r.named = keptNamed
	keptDone := r.done[:0]
	for _, d := range r.done {
		if d.internalID <= j {
			keptDone = append(keptDone, d)
		}
	}
	r.done = keptDone
}

// cleanupAbort removes every side effect of an aborted task (§4.1).
func (r *run) cleanupAbort() {
	for p, cancel := range r.retryCancels {
		cancel()
		delete(r.retryCancels, p)
	}
	r.retryPending = 0
	for pid := range r.active {
		_ = r.m.cfg.Cluster.Kill(pid)
	}
	// Absorb the kill completions so the cluster queue stays clean.
	for len(r.active) > 0 {
		c, ok := r.m.cfg.Cluster.AwaitCompletion()
		if !ok {
			break
		}
		delete(r.active, c.PID)
	}
	for _, c := range r.created {
		_ = r.m.cfg.Store.Hide(c.ref)
	}
	r.active = map[sprite.PID]*pending{}
	r.suspended = nil
}
