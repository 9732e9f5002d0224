package task

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"papyrus/internal/cad"
	"papyrus/internal/history"
	"papyrus/internal/obs"
	"papyrus/internal/oct"
	"papyrus/internal/sprite"
	"papyrus/internal/tcl"
	"papyrus/internal/tdl"
)

// registerCommands installs the TDL extension commands into the run's
// interpreter (Fig 4.1's application-specific command registration).
func (r *run) registerCommands() {
	r.interp.Register("task", func(in *tcl.Interp, args []string) (string, error) {
		// The task header is parsed by tdl.Parse; a nested task command
		// in a body is a template error.
		return "", fmt.Errorf("task: task command only valid as a template header")
	})
	r.interp.Register("step", func(in *tcl.Interp, args []string) (string, error) {
		st, err := tdl.ParseStep(args[1:])
		if err != nil {
			return "", err
		}
		return "", r.registerStep(st)
	})
	r.interp.Register("subtask", func(in *tcl.Interp, args []string) (string, error) {
		spec, err := tdl.ParseSubtaskArgs(args[1:])
		if err != nil {
			return "", err
		}
		return "", r.expandSubtask(spec)
	})
	r.interp.Register("abort", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) == 1 {
			return "", fmt.Errorf("task aborted by abort command")
		}
		id := r.prefixID(args[1])
		// The identifier may be a step name; map it to its ID.
		if _, ok := r.stepInternal[id]; !ok {
			if mapped, ok2 := r.stepIDByName(args[1]); ok2 {
				id = mapped
			}
		}
		resumed, ok := r.resumedOf(id)
		if !ok {
			resumed = "0"
		}
		return "", restartReq{resumedStepID: resumed, cause: "abort " + args[1]}
	})
	r.interp.Register("attribute", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) != 3 {
			return "", fmt.Errorf("attribute wants Object_Name Attribute_Name")
		}
		return r.evalAttribute(args[1], args[2])
	})
}

// resumedOf returns the declared resumed step of a registered step.
func (r *run) resumedOf(stepID string) (string, bool) {
	spec, ok := r.resumedSpecs[stepID]
	return spec, ok
}

// stepIDByName finds a registered step's prefixed ID by its name. When
// several live steps share the name (one subtask template expanded twice),
// the most recently registered one wins.
func (r *run) stepIDByName(name string) (string, bool) {
	for i := len(r.named) - 1; i >= 0; i-- {
		if r.named[i].name == name {
			return r.named[i].stepID, true
		}
	}
	return "", false
}

// prefixID applies the current subtask scope's ID prefix (§4.3.4: step IDs
// within a subtask are prepended with the subtask's internal ID).
func (r *run) prefixID(id string) string {
	if id == "" {
		return ""
	}
	if len(r.scopes) == 0 {
		return id
	}
	return r.scopes[len(r.scopes)-1].path + id
}

// resolveName maps a formal object name to its physical name through the
// subtask scope chain, the task's bindings, and intermediate naming
// (§4.3.4: intermediates get the task-manager instance ID appended).
func (r *run) resolveName(formal string) string {
	for i := len(r.scopes) - 1; i >= 0; i-- {
		if phys, ok := r.scopes[i].bind[formal]; ok {
			return phys
		}
	}
	if ref, ok := r.inv.Inputs[formal]; ok {
		resolved, err := r.m.cfg.Store.Peek(ref)
		if err == nil {
			return oct.Ref{Name: resolved.Name, Version: resolved.Version}.String()
		}
		return ref.String()
	}
	if phys, ok := r.inv.Outputs[formal]; ok {
		return phys
	}
	// Intermediate: unique across instances and subtask scopes.
	suffix := fmt.Sprintf("#%d", r.id)
	if len(r.scopes) > 0 {
		suffix += "." + strings.TrimSuffix(r.scopes[len(r.scopes)-1].path, ":")
	}
	return formal + suffix
}

// isIntermediate reports whether a physical name is task-internal.
func (r *run) isIntermediate(phys string) bool {
	for _, out := range r.inv.Outputs {
		if out == phys {
			return false
		}
	}
	for _, ref := range r.inv.Inputs {
		if ref.Name == phys {
			return false
		}
	}
	return strings.Contains(phys, "#")
}

// registerStep resolves a step's names and either dispatches it or parks
// it on the Suspending list (§4.3.2's out-of-order issue). st may belong
// to the compiled template, so it is only read.
func (r *run) registerStep(st *tdl.Step) error {
	if r.resumedSpecs == nil {
		r.resumedSpecs = map[string]string{}
	}
	spec, options := st.Spec, st.Options
	tool, ok := r.m.cfg.Suite.Tool(st.Tool)
	if !ok {
		return fmt.Errorf("step %s: unknown tool %q", spec.Name, st.Tool)
	}
	if ov, ok := r.inv.OptionOverrides[spec.Name]; ok {
		options = append([]string(nil), ov...)
	}

	p := &pending{
		spec:       spec,
		internalID: r.cmdIdx,
		stepID:     r.prefixID(spec.ID),
		displayID:  spec.Name,
		tool:       tool,
		options:    options,
		migratable: !spec.NonMigrate && !tool.Interactive,
	}
	for _, formal := range spec.Inputs {
		p.inputs = append(p.inputs, r.resolveName(formal))
	}
	for _, formal := range spec.Outputs {
		phys := r.resolveName(formal)
		p.outputs = append(p.outputs, phys)
		if r.isIntermediate(phys) {
			r.intermediates[phys] = true
		}
	}
	if p.stepID != "" {
		r.stepInternal[p.stepID] = p.internalID
		if spec.HasResumed {
			r.resumedSpecs[p.stepID] = r.prefixResumed(spec.ResumedStep)
		}
		r.named = append(r.named, namedStep{name: spec.Name, stepID: p.stepID, internalID: p.internalID})
	} else if spec.HasResumed {
		// Unnumbered steps may still declare a resumed step; key by name.
		r.resumedSpecs[spec.Name] = r.prefixResumed(spec.ResumedStep)
	}

	// The wait sets are made only for a step that actually waits; a nil
	// set reads as empty everywhere else.
	for _, phys := range p.inputs {
		if _, ok := r.ready[phys]; !ok {
			if p.waitingData == nil {
				p.waitingData = map[string]bool{}
			}
			p.waitingData[phys] = true
		}
	}
	for _, dep := range spec.ControlDeps {
		dep = r.prefixID(dep)
		if !r.completed[dep] {
			if p.waitingCtl == nil {
				p.waitingCtl = map[string]bool{}
			}
			p.waitingCtl[dep] = true
		}
	}
	if len(p.waitingData) == 0 && len(p.waitingCtl) == 0 {
		r.dispatch(p)
	} else {
		r.suspended = append(r.suspended, p)
	}
	return nil
}

// prefixResumed prefixes a resumed-step ID unless it is the whole-task 0.
func (r *run) prefixResumed(id string) string {
	if id == "0" {
		return "0"
	}
	return r.prefixID(id)
}

// dispatch issues a ready step: it binds the step's inputs, then puts the
// step on the cluster (the Active list) — unless a memo cache is armed and
// holds the step's fingerprint, in which case the cached result is
// materialized and the step completes without a sprite
// (internal/task/memo.go). The hit decision runs only at sequential
// points (registerStep, apply, retry timers), so it is independent of the
// worker count.
func (r *run) dispatch(p *pending) {
	r.bind(p)
	if r.tryMemoHit(p) {
		return
	}
	var inputObjs []*oct.Object
	for _, b := range p.bound {
		if b.obj != nil {
			inputObjs = append(inputObjs, b.obj)
		}
	}
	work := p.tool.Cost(inputObjs, p.options)
	p.startedAt = r.m.cfg.Cluster.Now()
	p.attempts++
	proc := r.m.cfg.Cluster.Spawn(sprite.Spec{
		Name:       p.spec.Name,
		Work:       work,
		Parent:     r.marker,
		Home:       home,
		Migratable: p.migratable,
		Priority:   p.spec.Priority,
		Tag:        p,
	})
	p.pid = proc.PID
	r.active[p.pid] = p
	r.m.cfg.Metrics.Inc("task.step.issue")
	if tr := r.m.cfg.Tracer; tr != nil {
		tr.Emit(obs.Event{
			VT: p.startedAt, Type: obs.EvStepIssued, Name: p.spec.Name,
			Task: r.id, PID: int(p.pid), Node: int(proc.Node()),
			Args: map[string]string{"tool": p.tool.Name},
		})
	}
}

// bind binds each of p's inputs to the version the Result list names for
// it now, at issue. A step reads the versions it issued on, even when a
// sibling that completes first writes a newer version of the same name:
// the cost estimate, the memo key, the tool body and the history record
// all read p.bound (DESIGN.md §1, "One input binding per step").
func (r *run) bind(p *pending) {
	p.bound = p.bound[:0]
	for _, phys := range p.inputs {
		ref := r.ready[phys]
		obj, _ := r.m.cfg.Store.Peek(ref) // nil when ref cannot be read
		p.bound = append(p.bound, boundInput{ref: ref, obj: obj})
	}
}

// drain processes completion batches until no step is active, suspended,
// or waiting out a retry backoff. It surfaces restart requests and
// deadlocks (§4.3.2's wait loop).
func (r *run) drain() error {
	for len(r.active) > 0 || len(r.suspended) > 0 || r.retryPending > 0 {
		if len(r.active) == 0 && r.retryPending == 0 {
			return r.deadlockError()
		}
		batch, ok := r.m.cfg.Cluster.AwaitBatch()
		if !ok {
			return fmt.Errorf("cluster stalled with %d active steps", len(r.active))
		}
		if err := r.onBatch(batch); err != nil {
			return err
		}
	}
	return nil
}

func (r *run) deadlockError() error {
	var missing []string
	for _, p := range r.suspended {
		for phys := range p.waitingData {
			missing = append(missing, fmt.Sprintf("%s needs %s", p.spec.Name, phys))
		}
		for dep := range p.waitingCtl {
			missing = append(missing, fmt.Sprintf("%s waits on step %s", p.spec.Name, dep))
		}
	}
	sort.Strings(missing)
	return fmt.Errorf("unsatisfiable dependencies: %s", strings.Join(missing, "; "))
}

// stepExec carries one completion through the three phases of the batch
// schedule: prepare (sequential, in event order), body execution
// (concurrent on the worker pool) and apply (sequential, in event order).
type stepExec struct {
	c sprite.Completion
	p *pending // nil: completion of a process from a rewound generation

	drop         bool  // deliberate Kill; nothing to run or apply
	transientErr error // crash/injected fault decided before the body
	prepErr      error // inputs vanished during prepare; fatal at apply

	ctx     *cad.Ctx // prepared tool context (nil unless body runs)
	toolErr error    // body result
}

// onBatch processes one same-instant completion batch under the phased
// schedule that keeps parallel execution deterministic (§4.3.2 extended):
// phase one classifies each completion and prepares its tool context
// sequentially in event order; phase two runs the pure tool bodies
// concurrently on the worker pool; phase three applies results — commit,
// history, failure semantics — sequentially in event order again. Worker
// count only changes phase overlap, so every export is byte-identical at
// any setting. If applying a result stops the batch early (restart or
// abort), the unapplied tail is requeued on the cluster and its prepared
// transactions discarded; tool bodies only stage writes, so a body that
// ran but was never applied leaves no trace in the store.
func (r *run) onBatch(batch []sprite.Completion) error {
	r.m.cfg.Metrics.Inc("task.worker.batch")
	r.m.cfg.Metrics.Observe("task.worker.batch.steps", int64(len(batch)))
	execs := make([]*stepExec, len(batch))
	for i, c := range batch {
		execs[i] = r.prepare(c)
	}
	r.runBodies(execs)
	for i, ex := range execs {
		if err := r.apply(ex); err != nil {
			var rest []sprite.Completion
			for _, later := range execs[i+1:] {
				if later.ctx != nil {
					later.ctx.Txn.Abort()
				}
				rest = append(rest, later.c)
			}
			r.m.cfg.Cluster.Requeue(rest)
			return err
		}
	}
	return nil
}

// prepare classifies a completion and builds the tool context for bodies
// that will run. It reads run state but leaves the Active list intact
// (apply owns removal, so a restart that rewinds mid-batch still sees the
// unapplied steps). Transient failures — node crashes and injected faults
// — are decided here, before the tool body runs, so a failed attempt
// leaves no OCT writes behind and a retry cannot double-apply (the
// store's single-assignment rule would reject the duplicate anyway).
func (r *run) prepare(c sprite.Completion) *stepExec {
	ex := &stepExec{c: c}
	p, ok := r.active[c.PID]
	if !ok {
		return ex // a killed process from a restarted generation
	}
	ex.p = p
	if c.Killed && !c.Crashed {
		ex.drop = true // deliberate Kill during rewind or teardown
		return ex
	}

	if c.Crashed {
		ex.transientErr = fmt.Errorf("workstation crash killed step %s (attempt %d)", p.spec.Name, p.attempts)
	} else if ff := r.m.cfg.FaultStep; ff != nil {
		if fail, reason := ff(p.spec.Name, p.attempts); fail {
			if reason == "" {
				reason = "injected fault"
			}
			ex.transientErr = fmt.Errorf("step %s (attempt %d): %s", p.spec.Name, p.attempts, reason)
		}
	}
	if ex.transientErr != nil {
		return ex
	}

	ctx := &cad.Ctx{
		Txn:         r.m.cfg.Store.Begin(),
		Tool:        p.tool.Name,
		Options:     p.options,
		OutputNames: p.outputs,
	}
	for i, b := range p.bound {
		obj, err := r.m.cfg.Store.Get(b.ref)
		if err != nil {
			ctx.Txn.Abort()
			ex.prepErr = fmt.Errorf("step %s: input %s vanished: %v", p.spec.Name, p.inputs[i], err)
			return ex
		}
		ctx.Inputs = append(ctx.Inputs, obj)
	}
	ex.ctx = ctx
	return ex
}

// runBodies executes the batch's runnable tool bodies on the worker pool.
// Bodies are pure over run state: they read their prepared context and
// stage writes into its transaction, so execution order — the only thing
// the worker count changes — is unobservable.
func (r *run) runBodies(execs []*stepExec) {
	var runnable []*stepExec
	for _, ex := range execs {
		if ex.ctx != nil {
			runnable = append(runnable, ex)
		}
	}
	if len(runnable) == 0 {
		return
	}
	r.pool.runExecs(runnable, func(ex *stepExec) {
		if d := r.m.cfg.StepLatency; d > 0 {
			time.Sleep(d)
		}
		ex.toolErr = ex.p.tool.Run(ex.ctx)
	})
}

// apply takes one executed completion through the sequential tail of the
// batch schedule: commit (the only place a tool run's transaction
// commits) or failure semantics, the Result list, history, metrics/trace,
// and re-activation of suspended steps.
func (r *run) apply(ex *stepExec) error {
	if ex.p == nil {
		return nil
	}
	p, c := ex.p, ex.c
	delete(r.active, c.PID)
	if ex.drop {
		return nil
	}
	if ex.prepErr != nil {
		return ex.prepErr
	}
	transientErr := ex.transientErr
	if transientErr != nil && r.scheduleRetry(p, transientErr) {
		return nil
	}

	exit := 0
	var toolErr error
	var objs []*oct.Object
	var logText string
	if transientErr != nil {
		// Retry budget spent: surface the transient failure through the
		// normal failure semantics. The tool body never ran.
		exit, toolErr = 1, transientErr
	} else {
		ctx := ex.ctx
		if toolErr = ex.toolErr; toolErr != nil {
			ctx.Txn.Abort()
			exit = 1
			// A genuine tool failure is fatal unless the policy's
			// classifier marks it transient; the aborted transaction
			// guarantees a retry re-issues from a clean slate.
			if cl := r.m.cfg.Retry.Classify; cl != nil && cl(p.spec.Name, toolErr) && r.scheduleRetry(p, toolErr) {
				return nil
			}
		} else {
			var err error
			if objs, err = ctx.Txn.Commit(); err != nil {
				return fmt.Errorf("step %s: commit: %v", p.spec.Name, err)
			}
		}
		logText = ctx.Log.String()
	}

	stepRec := r.record(p, history.StepRecord{
		StartedAt:   p.startedAt,
		CompletedAt: c.At,
		Node:        int(c.Node),
		Migrations:  c.Migrations,
		ExitStatus:  exit,
		Log:         logText,
	}, objs)
	if exit == 0 {
		// Clean completion: commit applied, no crash, no fault, no tool
		// error. Only now may the step's result enter the cache.
		r.populateMemo(p, stepRec.Outputs, logText)
		r.m.cfg.Metrics.Inc("task.step.complete")
	} else {
		r.m.cfg.Metrics.Inc("task.step.fail")
	}
	r.m.cfg.Metrics.Observe("task.step.ticks", c.At-p.startedAt)
	if tr := r.m.cfg.Tracer; tr != nil {
		ev := obs.Event{
			VT: c.At, Type: obs.EvStepCompleted, Name: p.spec.Name,
			Task: r.id, PID: int(c.PID), Node: stepRec.Node, Start: p.startedAt,
			Args: map[string]string{"tool": p.tool.Name},
		}
		if exit != 0 {
			ev.Type = obs.EvStepFailed
			ev.Args["error"] = toolErr.Error()
		}
		if stepRec.Migrations > 0 {
			ev.Args["migrations"] = fmt.Sprintf("%d", stepRec.Migrations)
		}
		tr.Emit(ev)
	}
	r.complete(p, stepRec)

	if exit != 0 {
		if p.spec.OnFailCont {
			return nil // template handles $status (DESIGN.md §6)
		}
		if p.spec.HasResumed {
			return restartReq{
				resumedStepID: r.prefixResumed(p.spec.ResumedStep),
				cause:         fmt.Sprintf("step %s failed: %v", p.spec.Name, toolErr),
			}
		}
		return fmt.Errorf("step %s failed: %v", p.spec.Name, toolErr)
	}

	r.activateSuspended()
	return nil
}

// record completes rec — the attempt's timing, placement, exit status and
// log — with p's identity and data flow, and enters the committed objs
// into the Result list. The inputs are the versions bound at issue, so a
// step that rewrites a name it reads records the version it read.
func (r *run) record(p *pending, rec history.StepRecord, objs []*oct.Object) history.StepRecord {
	rec.StepID, rec.Name, rec.Tool, rec.Options = p.stepID, p.spec.Name, p.tool.Name, p.options
	for _, b := range p.bound {
		rec.Inputs = append(rec.Inputs, b.ref)
	}
	for _, obj := range objs {
		ref := oct.Ref{Name: obj.Name, Version: obj.Version}
		rec.Outputs = append(rec.Outputs, ref)
		r.ready[ref.Name] = ref
		r.producer[ref.Name] = p.internalID
		r.created = append(r.created, createdObj{ref: ref, internalID: p.internalID})
	}
	return rec
}

// complete enters a recorded step in the run's history and the template's
// view: the done list, the OnStep hook, the completion entry that control
// dependencies wait on, and $status.
func (r *run) complete(p *pending, rec history.StepRecord) {
	r.done = append(r.done, doneStep{rec: rec, internalID: p.internalID})
	if r.m.cfg.OnStep != nil {
		r.m.cfg.OnStep(rec)
	}
	key := p.stepID
	if key == "" {
		key = p.spec.Name
	}
	r.completed[key] = rec.ExitStatus == 0
	r.interp.SetGlobalVar("status", strconv.Itoa(rec.ExitStatus))
}

// scheduleRetry re-issues a transiently failed step under the retry
// policy, after exponential backoff in virtual ticks. It returns false
// when the policy is off or the step's attempt budget is spent. Retries
// are accounted separately from programmable aborts: r.restarts and the
// MaxRestarts budget are never touched here (docs/FAULTS.md).
func (r *run) scheduleRetry(p *pending, cause error) bool {
	pol := r.m.cfg.Retry
	if p.attempts >= pol.MaxAttempts {
		return false
	}
	backoff := pol.Backoff(p.attempts)
	r.m.cfg.Metrics.Inc("task.step.retry")
	if tr := r.m.cfg.Tracer; tr != nil {
		tr.Emit(obs.Event{
			VT: r.m.cfg.Cluster.Now(), Type: obs.EvStepRetry, Name: p.spec.Name,
			Task: r.id, PID: int(p.pid),
			Args: map[string]string{
				"attempt": fmt.Sprintf("%d", p.attempts),
				"backoff": fmt.Sprintf("%d", backoff),
				"cause":   cause.Error(),
			},
		})
	}
	if backoff <= 0 {
		r.dispatch(p)
		return true
	}
	r.retryPending++
	r.retryCancels[p] = r.m.cfg.Cluster.After(backoff, func(now int64) {
		r.retryPending--
		delete(r.retryCancels, p)
		r.dispatch(p)
	})
	return true
}

// activateSuspended dispatches suspended steps whose dependencies are now
// satisfied. A memo hit inside dispatch completes its step synchronously
// and calls back in here; because the sweep aliases r.suspended's backing
// array, the nested call must not start a second sweep — it only flags
// reactivate, and the outer sweep re-runs until no hit cascades further.
func (r *run) activateSuspended() {
	if r.activating {
		r.reactivate = true
		return
	}
	r.activating = true
	defer func() { r.activating = false }()
	for {
		r.reactivate = false
		kept := r.suspended[:0]
		for _, p := range r.suspended {
			for phys := range p.waitingData {
				if _, ok := r.ready[phys]; ok {
					delete(p.waitingData, phys)
				}
			}
			for dep := range p.waitingCtl {
				if r.completed[dep] {
					delete(p.waitingCtl, dep)
				}
			}
			if len(p.waitingData) == 0 && len(p.waitingCtl) == 0 {
				r.dispatch(p)
			} else {
				kept = append(kept, p)
			}
		}
		r.suspended = kept
		if !r.reactivate {
			return
		}
	}
}

// expandSubtask interprets another template's body inline with formal
// parameters bound to the caller's names (§4.2.2). All inner steps share
// the subtask command's internal ID; inner step IDs are prefixed.
func (r *run) expandSubtask(spec *tdl.SubtaskSpec) error {
	script, err := r.m.cfg.Templates(spec.Name)
	if err != nil {
		return fmt.Errorf("subtask %s: %v", spec.Name, err)
	}
	tpl, err := r.m.template(spec.Name, script)
	if err != nil {
		return fmt.Errorf("subtask %s: %v", spec.Name, err)
	}
	// Arity check against the subtask's task command (§4.2.2: a mismatch
	// aborts the invoking task).
	if len(spec.Inputs) != len(tpl.Inputs) || len(spec.Outputs) != len(tpl.Outputs) {
		return fmt.Errorf("subtask %s: argument mismatch: template wants %d inputs/%d outputs, got %d/%d",
			spec.Name, len(tpl.Inputs), len(tpl.Outputs), len(spec.Inputs), len(spec.Outputs))
	}
	sc := scope{bind: map[string]string{}}
	for i, formal := range tpl.Inputs {
		sc.bind[formal] = r.resolveName(spec.Inputs[i])
	}
	for i, formal := range tpl.Outputs {
		sc.bind[formal] = r.resolveName(spec.Outputs[i])
	}
	prefix := spec.ID
	if prefix == "" {
		prefix = fmt.Sprintf("s%d", r.cmdIdx)
	}
	parentPath := ""
	if len(r.scopes) > 0 {
		parentPath = r.scopes[len(r.scopes)-1].path
	}
	sc.path = parentPath + prefix + "."
	r.scopes = append(r.scopes, sc)
	defer func() { r.scopes = r.scopes[:len(r.scopes)-1] }()
	for i := range tpl.Scripts {
		if err := r.evalCommand(tpl, i); err != nil {
			return err
		}
	}
	return nil
}

// evalAttribute implements the attribute command: synchronous attribute
// retrieval/computation (§4.3.6). Pending producers are drained first.
func (r *run) evalAttribute(objName, attrName string) (string, error) {
	if r.m.cfg.AttrDB == nil {
		return "", fmt.Errorf("attribute: no attribute database configured")
	}
	phys := r.resolveName(objName)
	if _, ok := r.ready[phys]; !ok {
		// Wait for the producing step, as attribute computation is
		// synchronous (§4.3.6).
		for len(r.active) > 0 || r.retryPending > 0 {
			batch, ok := r.m.cfg.Cluster.AwaitBatch()
			if !ok {
				break
			}
			if err := r.onBatch(batch); err != nil {
				return "", err
			}
			if _, ok := r.ready[phys]; ok {
				break
			}
		}
	}
	ref, ok := r.ready[phys]
	if !ok {
		// Fall back to the store's latest visible version (task inputs
		// given by name, or external objects).
		parsed, err := oct.ParseRef(phys)
		if err != nil {
			return "", err
		}
		obj, err := r.m.cfg.Store.Peek(parsed)
		if err != nil {
			return "", fmt.Errorf("attribute: object %q unavailable: %v", objName, err)
		}
		ref = oct.Ref{Name: obj.Name, Version: obj.Version}
	}
	obj, err := r.m.cfg.Store.Get(ref)
	if err != nil {
		return "", err
	}
	return r.m.cfg.AttrDB.Get(ref, attrName, obj)
}

// reMigrate is the §4.3.3 poll: find this run's migratable children
// executing on the home node and push them to idle workstations, highest
// priority first. Each poll assigns at most one process per idle node
// (in-transit processes don't show in node load yet) and keeps one
// process at home, where it runs without transfer cost.
func (r *run) reMigrate(now int64) {
	rows := r.m.cfg.Cluster.ProcessTable()
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Priority != rows[j].Priority {
			return rows[i].Priority > rows[j].Priority
		}
		return rows[i].PID < rows[j].PID
	})
	var stranded []sprite.PCBInfo
	atHome := 0
	for _, row := range rows {
		if row.Parent != r.marker || row.State != sprite.StateRunning || row.Node != home {
			continue
		}
		atHome++
		if !row.Migratable {
			continue
		}
		if p, ok := r.active[row.PID]; ok && p.migratable {
			stranded = append(stranded, row)
		}
	}
	assigned := map[sprite.NodeID]bool{}
	for _, row := range stranded {
		if atHome <= 1 {
			return // leave the last process running at home
		}
		target, ok := r.findIdleExcluding(assigned)
		if !ok {
			return
		}
		if err := r.m.cfg.Cluster.Migrate(row.PID, target); err == nil {
			assigned[target] = true
			atHome--
		}
	}
}

// findIdleExcluding picks an idle non-home node with no load and no
// assignment from this poll round.
func (r *run) findIdleExcluding(assigned map[sprite.NodeID]bool) (sprite.NodeID, bool) {
	c := r.m.cfg.Cluster
	for i := 0; i < c.NodeCount(); i++ {
		id := sprite.NodeID(i)
		if id == home || assigned[id] {
			continue
		}
		n := c.NodeByID(id)
		if n.Idle() && n.Load() == 0 {
			return id, true
		}
	}
	return 0, false
}
