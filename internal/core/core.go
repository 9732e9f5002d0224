// Package core is the public facade of the Papyrus reproduction: it wires
// the substrates (Tcl/TDL interpreter, simulated Sprite cluster, OCT-like
// object store, simulated CAD suite) to the two Papyrus subsystems — the
// task manager (Ch. 4) and the activity manager (Ch. 5) — with the
// metadata-inference engine (Ch. 6) observing every design step and the
// storage reclaimer (§5.4) bounding single-assignment growth; its callers
// decide when Reclaimer.Sweep runs.
//
// A System is one design environment (Fig 1.1/Fig 3.12): create threads,
// invoke tasks in them, rework the history, share through SDS spaces, and
// query inferred metadata. Its root Stack — a virtual-time cluster with
// task and activity managers — is built by the same constructor as every
// Session's. For a team, RunSessions drives N concurrent Sessions, each a
// private Stack over the shared store with a disjoint thread-ID base, and
// OpenSession hands out the same isolation one session at a time; in the
// served architecture (cmd/papyrusd, docs/SERVER.md) each engine shard is
// one System and every wire session is one such Session.
package core

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"papyrus/internal/activity"
	"papyrus/internal/attr"
	"papyrus/internal/baseline"
	"papyrus/internal/cad"
	"papyrus/internal/fault"
	"papyrus/internal/history"
	"papyrus/internal/infer"
	"papyrus/internal/memo"
	"papyrus/internal/obs"
	"papyrus/internal/oct"
	"papyrus/internal/rebuild"
	"papyrus/internal/reclaim"
	"papyrus/internal/render"
	"papyrus/internal/sds"
	"papyrus/internal/sprite"
	"papyrus/internal/task"
	"papyrus/internal/templates"
	"papyrus/internal/wal"
)

// Config parameterizes a System.
type Config struct {
	// Nodes is the workstation count of the simulated network (>= 1;
	// default 4).
	Nodes int
	// MigrationDelay is the virtual cost of process migration (default 2).
	MigrationDelay int64
	// ReMigrateEvery enables the re-migration poll (§4.3.3); 0 disables.
	ReMigrateEvery int64
	// ExtraTemplates overlays additional TDL templates over the shipped
	// set, keyed by task name.
	ExtraTemplates map[string]string
	// ReclaimGrace is the invisibility age before physical reclamation.
	ReclaimGrace int64
	// DisableInference skips metadata inference (for A/B experiments).
	DisableInference bool
	// StoreStripes overrides the object store's lock-stripe count
	// (rounded up to a power of two); 0 selects the oct default. A
	// commit locks only the stripes it touches, so sessions that
	// RunSessions runs concurrently commit side by side when their
	// names hash apart. The striped-apply invariance matrix runs 1 vs 64
	// to prove the stripe count is unobservable in stats, traces, and
	// version maps.
	StoreStripes int
	// Metrics receives counters and histograms from every subsystem
	// (nil = no metrics; zero instrumentation cost).
	Metrics *obs.Registry
	// Trace receives typed events stamped with cluster virtual time
	// (nil = no tracing).
	Trace *obs.Tracer
	// Fault optionally arms a deterministic fault-injection plan — node
	// crashes, transient step failures, migration stalls — against the
	// cluster and task manager (docs/FAULTS.md). Nil injects nothing.
	Fault *fault.Plan
	// Retry is the task manager's per-step retry policy for transient
	// failures; the zero value disables retries. Independent of the
	// programmable-abort restart budget (task.Config.MaxRestarts, default
	// 3): a retry never consumes a restart.
	Retry task.RetryPolicy
	// Workers sizes the concurrency of the engine: the task manager's
	// per-batch tool-body pool and the number of sessions RunSessions
	// executes at once. <= 0 selects task.DefaultWorkers. Exports stay
	// byte-identical at any value (EXPERIMENTS.md E11).
	Workers int
	// StepLatency adds a wall-clock sleep to every executed tool body,
	// modeling real CAD tool invocation overhead (process spawn, file
	// I/O). Virtual time is unaffected; throughput measurements use it.
	StepLatency time.Duration
	// Durability arms write-ahead logging: committed versions, thread
	// lifecycle events, and cursor moves are logged before acknowledgment,
	// and Recover rebuilds the environment after a crash
	// (docs/DURABILITY.md). Nil runs without a log.
	Durability *DurabilityConfig
	// Memo arms history-based redo avoidance: a content-addressed
	// step-result cache consulted before every step issue, so re-running
	// recorded work (the §3.3.3 rework loop) materializes cached output
	// versions instead of re-invoking tools (docs/CACHING.md). The cache
	// is shared by every session of a RunSessions drive and is rebuilt
	// from history on Recover; nil disables memoization.
	Memo *memo.Cache
}

// Stack is one engine stack: a virtual-time cluster with its task and
// activity managers over the System's shared store. The root System and
// every Session each own one, and newStack builds them all.
type Stack struct {
	// Cluster is the stack's workstation network; its virtual clock is
	// independent of every other stack's.
	Cluster  *sprite.Cluster
	Tasks    *task.Manager
	Activity *activity.Manager
	// Fault is the stack's fault injector, armed against its cluster;
	// nil when Config.Fault was unset.
	Fault *fault.Injector
}

// Invoke instantiates a task template in a thread of this stack. Input
// names use the three user forms (§5.2); outputs are plain names.
func (st *Stack) Invoke(t *activity.Thread, taskName string, inputs, outputs map[string]string, opts ...activity.InvokeOption) (*history.Record, error) {
	return st.Activity.InvokeTask(t, taskName, inputs, outputs, opts...)
}

// System is a complete Papyrus design environment: the shared store,
// history-derived metadata and reclaimer, plus the root engine stack.
type System struct {
	Stack
	Suite     *cad.Suite
	Store     *oct.Store
	Attrs     *attr.DB
	Inference *infer.Engine
	Reclaimer *reclaim.Reclaimer
	// Metrics and Trace are the observability sinks shared by every
	// subsystem; nil when the Config left them unset.
	Metrics *obs.Registry
	Trace   *obs.Tracer
	// WAL is the shared write-ahead log; nil when Config.Durability was
	// unset. Close releases it.
	WAL *wal.Log
	// Memo is the armed step-result cache; nil when Config.Memo was unset.
	Memo *memo.Cache

	cfg Config
	// gen is the checkpoint generation of the last snapshot this System
	// saved or recovered from, or the highest one its log checkpointed.
	gen int64

	spacesMu sync.Mutex
	spaces   map[string]*sds.Space

	// infMu serializes inference observations from every stack's steps
	// with each other and with InferenceQuery.
	infMu sync.Mutex
}

// New builds and wires a System.
func New(cfg Config) (*System, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.MigrationDelay == 0 {
		cfg.MigrationDelay = 2
	}
	s := &System{
		Suite:   cad.NewSuite(),
		Store:   oct.NewStoreWithStripes(cfg.StoreStripes),
		Attrs:   attr.New(cad.Measure),
		Metrics: cfg.Metrics,
		Trace:   cfg.Trace,
		Memo:    cfg.Memo,
		cfg:     cfg,
		spaces:  make(map[string]*sds.Space),
	}
	if !cfg.DisableInference {
		s.Inference = infer.NewEngine(s.Suite, s.Store, s.Attrs)
	}
	var err error
	if s.Stack, err = s.newStack(cfg.Trace, cfg.Fault, 0); err != nil {
		return nil, err
	}
	s.Store.SetObservability(cfg.Metrics, cfg.Trace, s.Cluster.Now)
	s.Reclaimer = reclaim.New(s.Store, reclaim.Policy{Grace: cfg.ReclaimGrace, Memo: cfg.Memo})
	if err := s.openWAL(); err != nil {
		return nil, err
	}
	return s, nil
}

// newStack builds one engine stack over the shared System: a cluster
// shaped by the Config, a task manager whose instance IDs and an activity
// manager whose thread IDs start at base, both reporting to tracer, and,
// when plan is set, an injector drawing from it. Every stack's steps feed
// the inference engine under infMu, and its activity manager logs to the
// shared WAL.
func (sys *System) newStack(tracer *obs.Tracer, plan *fault.Plan, base int) (Stack, error) {
	cluster, err := sprite.NewCluster(sprite.Config{
		Nodes:          sys.cfg.Nodes,
		MigrationDelay: sys.cfg.MigrationDelay,
		Metrics:        sys.Metrics,
		Tracer:         tracer,
	})
	if err != nil {
		return Stack{}, err
	}
	taskCfg := task.Config{
		Suite:          sys.Suite,
		Store:          sys.Store,
		Cluster:        cluster,
		Templates:      sys.templateSource(),
		AttrDB:         sys.Attrs,
		ReMigrateEvery: sys.cfg.ReMigrateEvery,
		Retry:          sys.cfg.Retry,
		Workers:        sys.cfg.Workers,
		StepLatency:    sys.cfg.StepLatency,
		Metrics:        sys.Metrics,
		Tracer:         tracer,
		// Every stack shares one memo cache: it is concurrency-safe,
		// holds no observability sinks (hit events go to the stack's
		// tracer), and a result computed by one stack serves every other.
		Memo: sys.Memo,
		// Disjoint instance-ID ranges (the thread-base scheme): names of
		// intermediates carry the instance suffix, and stacks share the
		// store, so colliding suffixes would make shared-name version
		// order a race.
		InstanceBase: base,
	}
	var inj *fault.Injector
	if plan != nil {
		inj = fault.New(*plan)
		inj.SetObservability(sys.Metrics, tracer, cluster.Now)
		inj.Arm(cluster)
		taskCfg.FaultStep = inj.FailStep
	}
	if sys.Inference != nil {
		taskCfg.OnStep = func(rec history.StepRecord) {
			sys.infMu.Lock()
			defer sys.infMu.Unlock()
			sys.Inference.ObserveStep(rec)
		}
	}
	tasks, err := task.New(taskCfg)
	if err != nil {
		return Stack{}, err
	}
	act := activity.NewManager(sys.Store, tasks)
	act.SetThreadBase(base)
	act.SetObservability(sys.Metrics, tracer, cluster.Now)
	// The disjoint thread-ID bases keep every stack's records in disjoint
	// ranges of the shared log, so a recovered root manager replays every
	// session's threads without collision.
	act.AttachWAL(sys.WAL)
	return Stack{Cluster: cluster, Tasks: tasks, Activity: act, Fault: inj}, nil
}

// ImportObject checks an external object into the design database (the
// seed specifications a design session starts from). The import is
// durable when ImportObject returns.
func (s *System) ImportObject(name string, typ oct.Type, data oct.Value) (oct.Ref, error) {
	obj, err := s.Store.Put(name, typ, data, "import")
	if cerr := s.Store.WAL().Commit(); err == nil {
		err = cerr
	}
	if err != nil {
		return oct.Ref{}, err
	}
	return oct.Ref{Name: obj.Name, Version: obj.Version}, nil
}

// NewThread creates a design thread.
func (s *System) NewThread(name, owner string) *activity.Thread {
	return s.Activity.NewThread(name, owner)
}

// Space returns (creating on demand) a synchronization data space. Safe
// for concurrent use; concurrent sessions share the spaces they name.
func (s *System) Space(id string) *sds.Space {
	s.spacesMu.Lock()
	defer s.spacesMu.Unlock()
	sp, ok := s.spaces[id]
	if !ok {
		sp = sds.New(id, s.Store)
		sp.SetObservability(s.Metrics, s.Trace, s.Cluster.Now)
		s.spaces[id] = sp
	}
	return sp
}

// RenderThread renders a thread's control stream (the Fig 5.1 browser).
func (s *System) RenderThread(t *activity.Thread) string {
	return render.ControlStream(t.Stream(), t.Cursor())
}

// RenderScope renders the thread's current data scope (Fig 5.4).
func (s *System) RenderScope(t *activity.Thread) string {
	title := "(initial)"
	if c := t.Cursor(); c != nil {
		title = fmt.Sprintf("%s @ %d", c.TaskName, c.Time)
	}
	return render.DataScope(title, t.DataScope())
}

// Features reports Papyrus's Table I row, introspected from the wired
// subsystems rather than asserted.
func (s *System) Features() baseline.Features {
	return baseline.Features{
		ToolEncapsulation:       s.Suite != nil,                          // TDL-encapsulated tools
		ToolNavigation:          s.Tasks != nil,                          // task templates / navigation
		DesignExploration:       s.Activity != nil,                       // rework mechanism
		DataEvolution:           s.Inference != nil || s.Activity != nil, // history records + ADG
		ContextManagement:       s.Activity != nil,                       // threads as contexts
		CooperativeWork:         true,                                    // SDS + import (Space)
		DistributedArchitecture: s.Cluster != nil,                        // sprite cluster + migration
	}
}

// OutOfDate reports whether a derived object's transitive sources have
// newer versions than its recorded derivation used (§1.4's Make-style
// dependency knowledge, computed from the inferred ADG).
func (s *System) OutOfDate(target oct.Ref) (bool, error) {
	res, err := s.InferenceQuery("outofdate", target)
	return res.OutOfDate, err
}

// InferenceResult is one InferenceQuery answer; the field matching the
// op is set.
type InferenceResult struct {
	// Type is the inferred object type (op "type").
	Type oct.Type
	// Refs is the lineage chain or equivalence class (ops "lineage",
	// "equivalence").
	Refs []oct.Ref
	// Relationships lists the ADG edges touching the object (op
	// "relationships").
	Relationships []infer.Relationship
	// OutOfDate reports staleness against the recorded derivation (op
	// "outofdate").
	OutOfDate bool
}

// InferenceQuery is the Ch. 6 read-side query surface (op = type |
// lineage | equivalence | relationships | outofdate) used by the served
// query endpoint and agentic workload designers. It takes the mutex under
// which every stack's steps are observed (newStack), so a caller can query
// the ADG while the root or any session is still executing steps without
// racing the engine's internal maps.
func (s *System) InferenceQuery(op string, ref oct.Ref) (InferenceResult, error) {
	var res InferenceResult
	if s.Inference == nil {
		return res, fmt.Errorf("core: %s queries require the inference engine", op)
	}
	s.infMu.Lock()
	defer s.infMu.Unlock()
	switch op {
	case "type":
		t, ok := s.Inference.TypeOf(ref)
		if !ok {
			return res, fmt.Errorf("core: no inferred type for %s", ref)
		}
		res.Type = t
	case "lineage":
		res.Refs = s.Inference.Lineage(ref)
	case "equivalence":
		res.Refs = s.Inference.EquivalenceClass(ref)
	case "relationships":
		res.Relationships = s.Inference.Relationships(ref)
	case "outofdate":
		stale, err := rebuild.OutOfDate(s.Inference.Graph(), s.Store, ref)
		if err != nil {
			return res, err
		}
		res.OutOfDate = stale
	default:
		return res, fmt.Errorf("core: unknown query op %q (want type|lineage|equivalence|relationships|outofdate)", op)
	}
	return res, nil
}

// Rebuild runs target's recorded derivation as the task
// rebuild.Prefix+target in thread t, each source bound to the version
// OutOfDate compares against, and returns the new version of target.
func (s *System) Rebuild(t *activity.Thread, target oct.Ref) (oct.Ref, error) {
	name := rebuild.Prefix + target.String()
	sources, outputs, err := s.Tasks.TemplateIO(name)
	if err != nil {
		return oct.Ref{}, err
	}
	ins, outs := map[string]string{}, map[string]string{}
	for _, src := range sources {
		ins[src] = oct.Ref{Name: src, Version: s.Store.LatestVersion(src)}.String()
	}
	for _, out := range outputs {
		outs[out] = out
	}
	rec, err := s.Activity.InvokeTask(t, name, ins, outs)
	if err != nil {
		return oct.Ref{}, err
	}
	if rec != nil { // nil when the task name is filtered (§5.4)
		for _, out := range rec.Outputs {
			if out.Name == target.Name {
				return out, nil
			}
		}
	}
	return oct.Ref{}, fmt.Errorf("core: rebuild of %s recorded no new version of it", target)
}

// templateSource resolves task names for every task manager of s: a
// rebuild task from the ADG, under infMu, so it depends only on its name
// and the history; any other name from ExtraTemplates or the shipped set.
func (s *System) templateSource() func(string) (string, error) {
	shipped := templates.Source(s.cfg.ExtraTemplates)
	return func(name string) (string, error) {
		target, ok := strings.CutPrefix(name, rebuild.Prefix)
		if !ok {
			return shipped(name)
		}
		if s.Inference == nil {
			return "", fmt.Errorf("core: rebuild support requires the inference engine")
		}
		ref, err := oct.ParseRef(target)
		if err != nil {
			return "", err
		}
		s.infMu.Lock()
		defer s.infMu.Unlock()
		return rebuild.Template(s.Inference.Graph(), ref)
	}
}

// TableI regenerates the dissertation's Table I: the literature rows plus
// rows introspected from the running implementations (the two baselines
// and Papyrus itself).
func (s *System) TableI() []baseline.System {
	rows := baseline.LiteratureRows()
	pf := baseline.NewPowerFrame(s.Suite, s.Store)
	vov := baseline.NewVOV(s.Suite, s.Store)
	// Replace the transcribed rows for systems we actually implement with
	// the introspected capabilities, marked Implemented.
	for i := range rows {
		switch rows[i].Name {
		case "Powerframe":
			rows[i] = baseline.System{Name: "Powerframe", Implemented: true, F: pf.Features()}
		case "VOV":
			rows[i] = baseline.System{Name: "VOV", Implemented: true, F: vov.Features()}
		}
	}
	rows = append(rows, baseline.System{Name: "Papyrus", Implemented: true, F: s.Features()})
	return rows
}
