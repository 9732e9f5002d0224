package core

// Multi-session execution. The LWT model makes independent design threads
// interact only through single-assignment versions and SDS notification
// (Ch. 3), so design sessions are embarrassingly parallel by construction:
// RunSessions exploits that, running N sessions concurrently against the
// shared object store, attribute database, SDS spaces, and metrics
// registry, while each session keeps its own virtual-time world — a
// private sprite cluster, task manager, activity manager, and tracer.
//
// Determinism: a session's virtual timeline is driven only by its own
// cluster, so per-session stats contributions and trace events are
// independent of how sessions interleave on the host. The shared metrics
// registry accumulates order-independent sums, and per-session traces are
// merged into the system tracer by virtual time with the session index as
// tie-break. As long as sessions write disjoint object names (the LWT
// premise), the final store version map is also interleaving-independent.
// Store-level trace events (version put) are suppressed during a
// multi-session run — they would record host scheduling order — and
// restored afterwards.

import (
	"fmt"
	"sort"
	"sync"

	"papyrus/internal/obs"
	"papyrus/internal/task"
)

// SessionSpec describes one independent design session.
type SessionSpec struct {
	// Name labels the session in results and merged trace events.
	Name string
	// Run drives the session: invoke tasks, contribute to spaces. It runs
	// on its own goroutine; everything reachable from the Session is safe
	// to use there.
	Run func(s *Session) error
}

// Session is the per-thread slice of a System handed to SessionSpec.Run:
// a private engine stack over the shared store and spaces. Its fault
// injector's seed folds in the session index, so concurrent sessions draw
// independent (but individually reproducible) fault sequences.
type Session struct {
	Stack
	// Name and Index identify the session (Index is its position in the
	// RunSessions spec slice).
	Name  string
	Index int
	// System is the shared environment: Store, Suite, Attrs, Metrics and
	// Space(id) are safe to use concurrently from any session.
	System *System
	// Trace is the session's private tracer; nil when the system has
	// tracing off. RunSessions merges it into System.Trace at the end.
	Trace *obs.Tracer
}

// SessionResult reports one session's outcome.
type SessionResult struct {
	Name string
	// Err is the session's Run error, or a construction error.
	Err error
	// Makespan is the session's final virtual time. Aggregate step counts
	// live in the shared metrics registry (task.step.complete etc.).
	Makespan int64
}

// sessionThreadStride spaces the activity-thread ID ranges of concurrent
// sessions; a session creating more threads than this would collide with
// its neighbor (far beyond any realistic session).
const sessionThreadStride = 1 << 20

// RunSessions executes the given sessions concurrently, at most
// Config.Workers at a time (task.DefaultWorkers when unset). Each session
// gets a private stack built like the root's (a cluster of the same
// shape, task and activity managers with a disjoint ID range) and a
// private tracer; all sessions share the system's store, CAD suite,
// attribute database, SDS spaces, inference engine (serialized), and
// metrics registry. A configured fault plan arms against every session
// cluster too (seed folded with the session index), so multi-session
// workloads feel the same failure classes the root timeline does.
//
// It returns one result per spec, in spec order, and a non-nil error if
// any session failed.
func (sys *System) RunSessions(specs []SessionSpec) ([]SessionResult, error) {
	results := make([]SessionResult, len(specs))
	if len(specs) == 0 {
		return results, nil
	}
	workers := sys.cfg.Workers
	if workers <= 0 {
		workers = task.DefaultWorkers
	}
	if workers > len(specs) {
		workers = len(specs)
	}

	restoreTraces := sys.SuppressSharedTraces()
	defer restoreTraces()

	tracers := make([]*obs.Tracer, len(specs))
	sessions := make([]*Session, len(specs))
	for i, spec := range specs {
		s, err := sys.newSession(i, spec)
		if err != nil {
			results[i] = SessionResult{Name: spec.Name, Err: err}
			continue
		}
		sessions[i] = s
		tracers[i] = s.Trace
	}

	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range specs {
		if sessions[i] == nil {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			s := sessions[i]
			err := specs[i].Run(s)
			results[i] = SessionResult{
				Name:     s.Name,
				Err:      err,
				Makespan: s.Cluster.Now(),
			}
		}(i)
	}
	wg.Wait()

	sys.mergeTraces(specs, tracers)

	var firstErr error
	failed := 0
	for _, res := range results {
		if res.Err != nil {
			failed++
			if firstErr == nil {
				firstErr = res.Err
			}
		}
	}
	if firstErr != nil {
		return results, fmt.Errorf("core: %d of %d sessions failed: %w", failed, len(specs), firstErr)
	}
	return results, nil
}

// SuppressSharedTraces detaches the tracer from the shared store, SDS
// spaces, and WAL — events there would record host scheduling order when
// several sessions race — and returns the restore function. RunSessions
// does this around every drive; external session drivers (the workload
// round runner, the served front-end's tests) must do the same when they
// run OpenSession stacks concurrently with tracing on. Registry counters
// are order-independent sums and stay attached throughout.
func (sys *System) SuppressSharedTraces() (restore func()) {
	sys.Store.SetObservability(sys.Metrics, nil, sys.Cluster.Now)
	sys.spacesMu.Lock()
	for _, sp := range sys.spaces {
		sp.SetObservability(sys.Metrics, nil, sys.Cluster.Now)
	}
	sys.spacesMu.Unlock()
	if sys.WAL != nil {
		sys.WAL.SetTracer(nil)
	}
	return func() {
		sys.Store.SetObservability(sys.Metrics, sys.Trace, sys.Cluster.Now)
		sys.spacesMu.Lock()
		for _, sp := range sys.spaces {
			sp.SetObservability(sys.Metrics, sys.Trace, sys.Cluster.Now)
		}
		sys.spacesMu.Unlock()
		if sys.WAL != nil {
			sys.WAL.SetTracer(sys.Trace)
		}
	}
}

// OpenSession builds one long-lived session outside a RunSessions drive:
// the same private cluster/task/activity stack over the shared store, with
// the same disjoint thread-ID base scheme, but driven incrementally by the
// caller instead of a SessionSpec.Run callback. The served front-end
// (internal/server) opens one per wire session, so every tenant's view is
// a faithful projection of the one deterministic engine. Indexes must be
// unique among concurrently open sessions of one System; reusing a closed
// session's index is safe as long as its threads are no longer driven.
func (sys *System) OpenSession(index int, name string) (*Session, error) {
	return sys.newSession(index, SessionSpec{Name: name})
}

// newSession builds one session's private stack over the shared System.
func (sys *System) newSession(index int, spec SessionSpec) (*Session, error) {
	name := spec.Name
	if name == "" {
		name = fmt.Sprintf("session%d", index)
	}
	var tracer *obs.Tracer
	if sys.Trace != nil {
		tracer = obs.NewTracer()
	}
	plan := sys.cfg.Fault
	if plan != nil {
		seeded := *plan
		seeded.Seed = sessionFaultSeed(plan.Seed, index)
		plan = &seeded
	}
	st, err := sys.newStack(tracer, plan, (index+1)*sessionThreadStride)
	if err != nil {
		return nil, err
	}
	return &Session{Stack: st, Name: name, Index: index, System: sys, Trace: tracer}, nil
}

// sessionFaultSeed folds a session index into a fault-plan seed
// (splitmix64 finalizer), keeping per-session fault sequences decorrelated
// without any shared RNG state.
func sessionFaultSeed(seed int64, index int) int64 {
	z := uint64(seed) + uint64(index+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// mergeTraces folds per-session trace events into the system tracer,
// ordered by virtual time with (session index, per-session emission
// order) as tie-breaks — a deterministic interleaving regardless of how
// the sessions actually raced. Each event is tagged with its session name.
func (sys *System) mergeTraces(specs []SessionSpec, tracers []*obs.Tracer) {
	if sys.Trace == nil {
		return
	}
	type tagged struct {
		ev   obs.Event
		sess int
		idx  int
	}
	var all []tagged
	for i, tr := range tracers {
		if tr == nil {
			continue
		}
		for j, ev := range tr.Events() {
			all = append(all, tagged{ev: ev, sess: i, idx: j})
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		if all[a].ev.VT != all[b].ev.VT {
			return all[a].ev.VT < all[b].ev.VT
		}
		if all[a].sess != all[b].sess {
			return all[a].sess < all[b].sess
		}
		return all[a].idx < all[b].idx
	})
	for _, t := range all {
		ev := t.ev
		name := specs[t.sess].Name
		if name == "" {
			name = fmt.Sprintf("session%d", t.sess)
		}
		args := make(map[string]string, len(ev.Args)+1)
		for k, v := range ev.Args {
			args[k] = v
		}
		args["session"] = name
		ev.Args = args
		sys.Trace.Emit(ev)
	}
}
