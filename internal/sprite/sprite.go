// Package sprite simulates the Sprite network operating system that the
// Papyrus prototype ran on (dissertation §4.3.2–§4.3.3). The real Sprite
// provided kernel-level process migration, idle-workstation location, and
// eviction when a workstation's owner returned; Papyrus layered re-migration
// on top by polling the process control blocks (Proc_GetPCBInfo).
//
// This package reproduces those services as a deterministic discrete-event
// simulation over virtual time:
//
//   - a Cluster of workstations, each with a relative CPU speed and an
//     optional interactive owner whose presence makes the node non-idle;
//   - processes with a fixed amount of work, executed under processor
//     sharing (a node running k processes advances each at speed/k);
//   - migration with a configurable transfer delay, eviction of foreign
//     processes when an owner returns, and a process table that the task
//     manager polls to re-migrate stranded migratable processes. A
//     process leaves the table when it finishes; its Completion carries
//     what the task manager's history record needs of it;
//   - a global event queue: completions, owner arrivals/departures and
//     periodic callbacks all execute in virtual-time order, so experiment
//     results (Fig 4.2/4.3 speedup curves, the re-migration bench) are
//     exactly reproducible.
//
// Like Sprite's network-wide file system, data location is transparent:
// processes read and write the shared oct.Store regardless of node.
// Every concurrent session — including every papyrusd wire session —
// owns a private Cluster, so virtual time never leaks across designers.
package sprite

import (
	"container/heap"
	"fmt"
	"sort"

	"papyrus/internal/obs"
)

// PID identifies a simulated process.
type PID int

// NodeID identifies a workstation.
type NodeID int

// ProcState enumerates the lifecycle of a simulated process.
type ProcState int

// Process lifecycle states.
const (
	StateRunning   ProcState = iota // progressing on some node
	StateMigrating                  // in transit between nodes
	StateDone                       // completed its work
	StateKilled                     // terminated by Kill
)

func (s ProcState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateMigrating:
		return "migrating"
	case StateDone:
		return "done"
	case StateKilled:
		return "killed"
	}
	return fmt.Sprintf("ProcState(%d)", int(s))
}

// Node is one simulated workstation.
type Node struct {
	ID    NodeID
	Name  string
	Speed float64 // relative CPU speed; 1.0 is the baseline

	ownerActive bool
	hasOwner    bool
	down        bool // crashed and not yet recovered
	running     map[PID]*Process
	incoming    int   // processes in transit toward this node
	lastUpdate  int64 // virtual time of last progress accounting

	busyTime int64 // accumulated virtual time with >=1 process running
}

// Idle reports Sprite's idleness criterion: a node is idle when its owner
// has not touched mouse or keyboard (is inactive). Nodes without owners
// (compute servers) are always idle. A crashed node is never idle — the
// location service must not place work on it.
func (n *Node) Idle() bool { return !n.ownerActive && !n.down }

// Down reports whether the node is crashed (fault injection, §4.3.3's
// recovery scenarios). Down nodes run nothing and accept no migrations.
func (n *Node) Down() bool { return n.down }

// Load returns the number of processes executing on or in transit toward
// the node, so placement decisions account for migrations still in flight.
func (n *Node) Load() int { return len(n.running) + n.incoming }

// Process is one simulated process (a CAD tool invocation).
type Process struct {
	PID        PID
	Name       string
	Work       float64 // total work units (1 unit = 1 tick on a speed-1 node)
	Parent     PID
	Home       NodeID
	Migratable bool
	Priority   int
	Tag        any // opaque payload for the task manager

	node       NodeID // current node (meaningful when running)
	state      ProcState
	remaining  float64
	gen        int // invalidates stale completion events
	migrations int
	evictions  int
	startedAt  int64
	finishedAt int64
}

// State returns the process lifecycle state.
func (p *Process) State() ProcState { return p.state }

// NodeID returns the node the process currently occupies.
func (p *Process) Node() NodeID { return p.node }

// Migrations returns how many times the process moved between nodes.
func (p *Process) Migrations() int { return p.migrations }

// Evictions returns how many times the process was evicted by a returning
// owner.
func (p *Process) Evictions() int { return p.evictions }

// FinishedAt returns the virtual completion time (valid once done).
func (p *Process) FinishedAt() int64 { return p.finishedAt }

// Completion reports a finished process to the cluster's waiters. The
// process has already left the table, so Node and Migrations are its
// final values.
type Completion struct {
	PID    PID
	Name   string
	At     int64
	Killed bool
	// Crashed distinguishes a node-crash kill from a deliberate Kill, so
	// the task manager can retry the former without retrying the latter.
	Crashed bool
	Tag     any
	// Node is the node the process finished on (for a kill in transit,
	// the node it was moving toward); Migrations counts its moves.
	Node       NodeID
	Migrations int
}

// Config parameterizes a Cluster.
type Config struct {
	// Nodes is the number of workstations (>= 1).
	Nodes int
	// MigrationDelay is the virtual-time cost of moving a process
	// between nodes; the process makes no progress in transit.
	MigrationDelay int64
	// Speeds optionally gives per-node relative speeds; unset nodes get 1.0.
	Speeds []float64
	// Metrics and Tracer are optional observability sinks (nil = off);
	// see docs/OBSERVABILITY.md for the emitted counters and events.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	// Stall optionally returns extra in-transit ticks for a migration
	// (fault injection; see internal/fault and docs/FAULTS.md). Called
	// with the process name, its PID, and its migration ordinal; nil or
	// a non-positive return leaves the transfer at MigrationDelay.
	Stall func(name string, pid, nth int) int64
}

// Cluster is the simulated network of workstations. It is single-threaded:
// the owning task manager drives it by alternating Spawn/Kill calls with
// AwaitCompletion, exactly as the real task manager alternated fork/exec
// with waiting for SIGCHLD.
type Cluster struct {
	cfg     Config
	nodes   []*Node
	procs   map[PID]*Process // unfinished processes only
	nextPID PID
	now     int64
	events  eventQueue
	seq     int

	completions []Completion
	tickers     []*ticker
}

type ticker struct {
	interval int64
	fn       func(now int64)
	stopped  bool
	oneshot  bool // After timers fire once and stop
}

type eventKind int

const (
	evCompletion eventKind = iota
	evOwnerChange
	evMigrationArrive
	evTick
	evCrash
	evRecover
)

type event struct {
	at   int64
	seq  int // FIFO tie-break
	kind eventKind

	pid  PID
	gen  int
	node NodeID
	act  bool // owner becomes active?
	tkr  *ticker
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// NewCluster builds a cluster per the configuration.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("sprite: cluster needs at least one node, got %d", cfg.Nodes)
	}
	c := &Cluster{cfg: cfg, procs: make(map[PID]*Process)}
	cfg.Metrics.SetBuckets("sprite.node.utilization", []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for i := 0; i < cfg.Nodes; i++ {
		speed := 1.0
		if i < len(cfg.Speeds) && cfg.Speeds[i] > 0 {
			speed = cfg.Speeds[i]
		}
		c.nodes = append(c.nodes, &Node{
			ID:      NodeID(i),
			Name:    fmt.Sprintf("ws%d", i),
			Speed:   speed,
			running: make(map[PID]*Process),
		})
	}
	return c, nil
}

// Now returns the current virtual time.
func (c *Cluster) Now() int64 { return c.now }

// NodeCount returns the number of workstations.
func (c *Cluster) NodeCount() int { return len(c.nodes) }

// NodeByID returns a node.
func (c *Cluster) NodeByID(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(c.nodes) {
		return nil
	}
	return c.nodes[id]
}

func (c *Cluster) push(e *event) {
	c.seq++
	e.seq = c.seq
	heap.Push(&c.events, e)
}

// SetOwner declares that node has an interactive owner; owned nodes can
// become non-idle and evict foreign processes.
func (c *Cluster) SetOwner(id NodeID) {
	c.nodes[id].hasOwner = true
}

// ScheduleOwnerActivity schedules the node's owner to become active at
// `from` and inactive again at `until`, triggering eviction/idleness
// transitions at those virtual times.
func (c *Cluster) ScheduleOwnerActivity(id NodeID, from, until int64) {
	c.nodes[id].hasOwner = true
	c.push(&event{at: from, kind: evOwnerChange, node: id, act: true})
	c.push(&event{at: until, kind: evOwnerChange, node: id, act: false})
}

// Every registers fn to run at each multiple of interval in virtual time
// (the task manager's re-migration poll). The returned stop function
// cancels future invocations.
func (c *Cluster) Every(interval int64, fn func(now int64)) (stop func()) {
	if interval <= 0 {
		interval = 1
	}
	t := &ticker{interval: interval, fn: fn}
	c.tickers = append(c.tickers, t)
	c.push(&event{at: c.now + interval, kind: evTick, tkr: t})
	return func() { t.stopped = true }
}

// After registers fn to run once at now+delay in virtual time (the task
// manager's retry backoff). The returned cancel function stops it if it
// has not yet fired.
func (c *Cluster) After(delay int64, fn func(now int64)) (cancel func()) {
	if delay <= 0 {
		delay = 1
	}
	t := &ticker{interval: delay, fn: fn, oneshot: true}
	c.push(&event{at: c.now + delay, kind: evTick, tkr: t})
	return func() { t.stopped = true }
}

// SetStall installs a migration-stall hook (see Config.Stall). The fault
// injector arms it after construction; a nil fn removes it.
func (c *Cluster) SetStall(fn func(name string, pid, nth int) int64) {
	c.cfg.Stall = fn
}

// ScheduleCrash schedules a node crash at virtual time `at`: the node
// goes down and every resident process is killed with a Crashed
// completion (the task manager's retry policy re-issues those steps).
func (c *Cluster) ScheduleCrash(id NodeID, at int64) {
	c.push(&event{at: at, kind: evCrash, node: id})
}

// ScheduleRecover schedules a crashed node's recovery at virtual time
// `at`; a recovered node is idle again and accepts placements.
func (c *Cluster) ScheduleRecover(id NodeID, at int64) {
	c.push(&event{at: at, kind: evRecover, node: id})
}

// Crash takes the node down immediately (see ScheduleCrash).
func (c *Cluster) Crash(id NodeID) { c.crashNode(id) }

// Recover brings a crashed node back immediately.
func (c *Cluster) Recover(id NodeID) { c.recoverNode(id) }

// FindIdleHost implements Sprite's idle-node location service: it returns
// the idle node with the lowest load (excluding `exclude`), preferring
// faster nodes on ties. ok is false when no idle node exists — in that case
// the task manager runs the step on the home node (§4.3.3).
func (c *Cluster) FindIdleHost(exclude NodeID) (NodeID, bool) {
	best := -1
	for _, n := range c.nodes {
		if n.ID == exclude || !n.Idle() {
			continue
		}
		if best < 0 {
			best = int(n.ID)
			continue
		}
		b := c.nodes[best]
		if n.Load() < b.Load() || (n.Load() == b.Load() && n.Speed > b.Speed) {
			best = int(n.ID)
		}
	}
	if best < 0 {
		return 0, false
	}
	return NodeID(best), true
}

// Spec describes a process to spawn.
type Spec struct {
	Name       string
	Work       float64
	Parent     PID
	Home       NodeID
	Migratable bool
	Priority   int
	Tag        any
}

// Spawn creates a process. Migratable processes are placed on an idle node
// when one exists; otherwise (or when non-migratable) they run at home.
func (c *Cluster) Spawn(spec Spec) *Process {
	c.nextPID++
	p := &Process{
		PID:        c.nextPID,
		Name:       spec.Name,
		Work:       spec.Work,
		Parent:     spec.Parent,
		Home:       spec.Home,
		Migratable: spec.Migratable,
		Priority:   spec.Priority,
		Tag:        spec.Tag,
		remaining:  spec.Work,
		startedAt:  c.now,
		state:      StateRunning,
	}
	if p.Work <= 0 {
		p.remaining = 0
	}
	c.procs[p.PID] = p
	target := spec.Home
	if spec.Migratable {
		if id, ok := c.FindIdleHost(-1); ok {
			target = id
		}
	}
	c.cfg.Metrics.Inc("sprite.proc.spawn")
	if c.nodes[target].down {
		// Nowhere to run: the home node is down and no idle host exists.
		// The process dies on arrival, exactly as a fork onto a crashed
		// workstation would; the retry policy may re-issue it later.
		c.killCrashed(p, target)
		return p
	}
	if target != spec.Home {
		p.migrations++
		c.startMigration(p, target, "place")
	} else {
		c.placeOn(p, target)
	}
	return p
}

// finish moves a process to its final state, drops it from the table and
// queues its Completion. Pending events for it go stale: the event loop
// skips pids it no longer finds.
func (c *Cluster) finish(p *Process, state ProcState, crashed bool) {
	p.state = state
	p.finishedAt = c.now
	delete(c.procs, p.PID)
	c.completions = append(c.completions, Completion{
		PID: p.PID, Name: p.Name, At: c.now,
		Killed: state == StateKilled, Crashed: crashed, Tag: p.Tag,
		Node: p.node, Migrations: p.migrations,
	})
}

// killCrashed terminates a process lost to a node crash and reports a
// Crashed completion so waiters can distinguish it from a deliberate Kill.
func (c *Cluster) killCrashed(p *Process, node NodeID) {
	p.node = node
	c.cfg.Metrics.Inc("sprite.proc.crashkill")
	c.finish(p, StateKilled, true)
}

// Kill terminates an unfinished (running or migrating) process. A pid
// that has finished, however it finished, is no longer known and errors.
func (c *Cluster) Kill(pid PID) error {
	p, ok := c.procs[pid]
	if !ok {
		return fmt.Errorf("sprite: no process %d", pid)
	}
	if p.state == StateRunning {
		c.removeFrom(p, p.node)
	} else {
		c.nodes[p.node].incoming--
	}
	c.cfg.Metrics.Inc("sprite.proc.kill")
	c.finish(p, StateKilled, false)
	return nil
}

// Process returns the unfinished process with the given pid. A finished
// process has left the table; its Completion holds its final node and
// migration count.
func (c *Cluster) Process(pid PID) (*Process, bool) {
	p, ok := c.procs[pid]
	return p, ok
}

// PCBInfo is one row of the simulated process table, the analogue of
// Sprite's Proc_GetPCBInfo result that Papyrus polls for re-migration.
type PCBInfo struct {
	PID        PID
	Parent     PID
	Name       string
	Node       NodeID
	Home       NodeID
	Migratable bool
	State      ProcState
	Priority   int
}

// ProcessTable returns PCB rows for all live processes, sorted by PID.
func (c *Cluster) ProcessTable() []PCBInfo {
	var rows []PCBInfo
	for _, p := range c.procs {
		rows = append(rows, PCBInfo{
			PID: p.PID, Parent: p.Parent, Name: p.Name, Node: p.node,
			Home: p.Home, Migratable: p.Migratable, State: p.state,
			Priority: p.Priority,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].PID < rows[j].PID })
	return rows
}

// Migrate moves a running process to the target node (re-migration). It
// fails if the process is not running or the target equals its current node.
func (c *Cluster) Migrate(pid PID, target NodeID) error {
	p, ok := c.procs[pid]
	if !ok {
		return fmt.Errorf("sprite: no process %d", pid)
	}
	if p.state != StateRunning {
		return fmt.Errorf("sprite: process %d is %s, not running", pid, p.state)
	}
	if p.node == target {
		return fmt.Errorf("sprite: process %d already on node %d", pid, target)
	}
	if c.nodes[target].down {
		return fmt.Errorf("sprite: node %d is down", target)
	}
	c.removeFrom(p, p.node)
	p.migrations++
	c.cfg.Metrics.Inc("sprite.proc.remigrate")
	c.startMigration(p, target, "remigrate")
	return nil
}

// --- event processing -------------------------------------------------

// AwaitCompletion advances virtual time until some process completes (or
// has already completed unreported) and returns it. ok is false when the
// event queue drains with nothing running — a deadlock in the caller.
func (c *Cluster) AwaitCompletion() (Completion, bool) {
	for {
		if len(c.completions) > 0 {
			done := c.completions[0]
			c.completions = c.completions[1:]
			return done, true
		}
		if !c.step() {
			return Completion{}, false
		}
	}
}

// AwaitBatch advances virtual time until at least one process completes,
// then also absorbs every further completion scheduled for that same
// virtual instant, returning the whole batch in event order. The parallel
// task manager executes a batch's tool bodies concurrently and applies
// their results sequentially in this order, which is what keeps stats and
// trace exports byte-identical at any worker count: the batch boundary —
// hence the apply order — is a pure function of the event queue, never of
// goroutine scheduling. Non-completion events (ticks, owner changes,
// crashes) end a batch, so their handlers still observe the same
// intermediate states they would under one-at-a-time stepping. ok is
// false when the event queue drains with nothing running.
func (c *Cluster) AwaitBatch() ([]Completion, bool) {
	for len(c.completions) == 0 {
		if !c.step() {
			return nil, false
		}
	}
	for c.nextIsCompletionAt(c.now) {
		c.step()
	}
	batch := c.completions
	c.completions = nil
	return batch, true
}

// nextIsCompletionAt reports whether the next live event is a process
// completion at virtual time t, discarding stale heap entries on the way.
func (c *Cluster) nextIsCompletionAt(t int64) bool {
	for c.events.Len() > 0 {
		e := c.events[0]
		if e.kind != evCompletion {
			return false
		}
		p, ok := c.procs[e.pid]
		if !ok || p.gen != e.gen || p.state != StateRunning {
			heap.Pop(&c.events) // stale; discard
			continue
		}
		return e.at == t
	}
	return false
}

// Requeue pushes completions back to the front of the pending queue, in
// the given order. The task manager uses it when applying a batch stops
// early (task restart or abort): the unapplied tail is requeued so the
// restarted run observes those completions exactly as if they had never
// been collected.
func (c *Cluster) Requeue(cs []Completion) {
	if len(cs) == 0 {
		return
	}
	c.completions = append(append([]Completion{}, cs...), c.completions...)
}

// Drain processes all pending events (running every process to completion)
// and returns the completions in order.
func (c *Cluster) Drain() []Completion {
	for c.step() {
	}
	done := c.completions
	c.completions = nil
	return done
}

// step executes the next event; false when the queue is empty.
func (c *Cluster) step() bool {
	for c.events.Len() > 0 {
		e := heap.Pop(&c.events).(*event)
		switch e.kind {
		case evCompletion:
			p, ok := c.procs[e.pid]
			if !ok || p.gen != e.gen || p.state != StateRunning {
				continue // stale event
			}
			c.advanceTo(e.at)
			c.removeFrom(p, p.node)
			c.cfg.Metrics.Inc("sprite.proc.complete")
			c.cfg.Metrics.Observe("sprite.proc.ticks", c.now-p.startedAt)
			c.finish(p, StateDone, false)
			return true
		case evOwnerChange:
			c.advanceTo(e.at)
			c.ownerChange(e.node, e.act)
			return true
		case evMigrationArrive:
			p, ok := c.procs[e.pid]
			if !ok || p.gen != e.gen || p.state != StateMigrating {
				continue
			}
			c.advanceTo(e.at)
			c.nodes[e.node].incoming--
			// A process arriving at a node that crashed while it was in
			// transit is bounced home; if home is down too, it is lost to
			// the crash and reported for retry.
			if n := c.nodes[e.node]; n.down {
				if p.Home != e.node && !c.nodes[p.Home].down {
					p.migrations++
					c.startMigration(p, p.Home, "crash")
					return true
				}
				c.killCrashed(p, e.node)
				return true
			}
			// A foreign process arriving at a node whose owner became
			// active while it was in transit is bounced straight home
			// (Sprite never runs foreign work on a non-idle node).
			if n := c.nodes[e.node]; n.ownerActive && p.Home != e.node {
				p.evictions++
				c.observeEviction(p, e.node)
				c.startMigration(p, p.Home, "evict")
				return true
			}
			p.state = StateRunning
			c.placeOn(p, e.node)
			return true
		case evTick:
			if e.tkr.stopped {
				continue
			}
			c.advanceTo(e.at)
			if e.tkr.oneshot {
				e.tkr.stopped = true
			}
			e.tkr.fn(c.now)
			if !e.tkr.stopped {
				c.push(&event{at: c.now + e.tkr.interval, kind: evTick, tkr: e.tkr})
			}
			return true
		case evCrash:
			c.advanceTo(e.at)
			c.crashNode(e.node)
			return true
		case evRecover:
			c.advanceTo(e.at)
			c.recoverNode(e.node)
			return true
		}
	}
	return false
}

// advanceTo moves the clock, charging progress to every running process.
func (c *Cluster) advanceTo(t int64) {
	if t < c.now {
		t = c.now
	}
	for _, n := range c.nodes {
		c.accountNode(n, t)
	}
	c.now = t
}

// accountNode charges elapsed time to the node's processes under processor
// sharing.
func (c *Cluster) accountNode(n *Node, t int64) {
	dt := t - n.lastUpdate
	n.lastUpdate = t
	if dt <= 0 || len(n.running) == 0 {
		return
	}
	n.busyTime += dt
	rate := n.Speed / float64(len(n.running))
	for _, p := range n.running {
		p.remaining -= rate * float64(dt)
		if p.remaining < 0 {
			p.remaining = 0
		}
	}
}

// placeOn installs a process on a node and reschedules completions.
func (c *Cluster) placeOn(p *Process, id NodeID) {
	n := c.nodes[id]
	c.accountNode(n, c.now)
	p.node = id
	n.running[p.PID] = p
	c.rescheduleNode(n)
}

// removeFrom detaches a process from its node and reschedules the rest.
func (c *Cluster) removeFrom(p *Process, id NodeID) {
	n := c.nodes[id]
	c.accountNode(n, c.now)
	delete(n.running, p.PID)
	c.rescheduleNode(n)
}

// rescheduleNode recomputes completion events for every process on the node
// (their sharing factor changed). Events are pushed in PID order: the heap
// breaks same-instant ties by push sequence, so pushing in map-iteration
// order would make the order of a simultaneous completion batch — and with
// it the trace export — vary run to run.
func (c *Cluster) rescheduleNode(n *Node) {
	k := len(n.running)
	if k == 0 {
		return
	}
	rate := n.Speed / float64(k)
	procs := make([]*Process, 0, k)
	for _, p := range n.running {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].PID < procs[j].PID })
	for _, p := range procs {
		p.gen++
		finish := c.now + ceilDiv(p.remaining, rate)
		c.push(&event{at: finish, kind: evCompletion, pid: p.PID, gen: p.gen})
	}
}

func ceilDiv(work, rate float64) int64 {
	if work <= 0 {
		return 0
	}
	t := work / rate
	it := int64(t)
	if float64(it) < t {
		it++
	}
	return it
}

// observeEviction records an owner-return eviction in the observability
// sinks (§4.3.3's autonomy-first policy made visible).
func (c *Cluster) observeEviction(p *Process, from NodeID) {
	c.cfg.Metrics.Inc("sprite.proc.evict")
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.Emit(obs.Event{
			VT: c.now, Type: obs.EvProcEvict, Name: p.Name,
			PID: int(p.PID), Node: int(from),
		})
	}
}

// startMigration puts a process in transit toward the target node. reason
// labels the transfer for the trace: "place" (spawn-time idle-host
// placement), "remigrate" (the §4.3.3 poll), or "evict" (bounced home by
// a returning owner).
func (c *Cluster) startMigration(p *Process, target NodeID, reason string) {
	c.cfg.Metrics.Inc("sprite.proc.migrate")
	delay := c.cfg.MigrationDelay
	var stall int64
	if c.cfg.Stall != nil {
		if stall = c.cfg.Stall(p.Name, int(p.PID), p.migrations); stall > 0 {
			delay += stall
			c.cfg.Metrics.Inc("sprite.proc.stall")
		} else {
			stall = 0
		}
	}
	if c.cfg.Tracer != nil {
		args := map[string]string{"reason": reason}
		if stall > 0 {
			args["stall"] = fmt.Sprintf("%d", stall)
		}
		c.cfg.Tracer.Emit(obs.Event{
			VT: c.now, Type: obs.EvProcMigrate, Name: p.Name,
			PID: int(p.PID), Node: int(target),
			Args: args,
		})
	}
	if delay <= 0 {
		p.state = StateRunning
		c.placeOn(p, target)
		return
	}
	p.state = StateMigrating
	p.node = target
	p.gen++
	c.nodes[target].incoming++
	c.push(&event{at: c.now + delay, kind: evMigrationArrive, pid: p.PID, gen: p.gen, node: target})
}

// crashNode takes a workstation down: every resident process is killed
// with a Crashed completion (in PID order, for determinism) and the node
// stops accepting placements and migrations until recoverNode. Processes
// already in transit toward the node are handled on arrival.
func (c *Cluster) crashNode(id NodeID) {
	if int(id) < 0 || int(id) >= len(c.nodes) {
		return // a fault plan may name nodes this cluster doesn't have
	}
	n := c.nodes[id]
	if n.down {
		return
	}
	c.accountNode(n, c.now)
	n.down = true
	c.cfg.Metrics.Inc("sprite.node.crash")
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.Emit(obs.Event{VT: c.now, Type: obs.EvNodeCrash, Name: n.Name, Node: int(id)})
	}
	var victims []*Process
	for _, p := range n.running {
		victims = append(victims, p)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].PID < victims[j].PID })
	for _, p := range victims {
		delete(n.running, p.PID)
		c.killCrashed(p, id)
	}
}

// recoverNode brings a crashed workstation back into service. It rejoins
// the idle-host pool immediately (its owner state is unchanged).
func (c *Cluster) recoverNode(id NodeID) {
	if int(id) < 0 || int(id) >= len(c.nodes) {
		return
	}
	n := c.nodes[id]
	if !n.down {
		return
	}
	n.down = false
	n.lastUpdate = c.now
	c.cfg.Metrics.Inc("sprite.node.recover")
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.Emit(obs.Event{VT: c.now, Type: obs.EvNodeRecover, Name: n.Name, Node: int(id)})
	}
}

// ownerChange applies an owner arrival/departure; arrivals evict foreign
// processes back to their home nodes (Sprite's autonomy-first policy,
// §4.3.3).
func (c *Cluster) ownerChange(id NodeID, active bool) {
	n := c.nodes[id]
	n.ownerActive = active
	if !active {
		return
	}
	var foreign []*Process
	for _, p := range n.running {
		if p.Home != n.ID {
			foreign = append(foreign, p)
		}
	}
	sort.Slice(foreign, func(i, j int) bool { return foreign[i].PID < foreign[j].PID })
	for _, p := range foreign {
		c.removeFrom(p, n.ID)
		p.evictions++
		p.migrations++
		c.observeEviction(p, n.ID)
		c.startMigration(p, p.Home, "evict")
	}
}

// ObserveUtilization records each node's busy percentage of elapsed
// virtual time into the `sprite.node.utilization` histogram (one sample
// per node, 0-100). No-op without a metrics registry.
func (c *Cluster) ObserveUtilization() {
	if c.cfg.Metrics == nil {
		return
	}
	for _, u := range c.Utilization() {
		c.cfg.Metrics.Observe("sprite.node.utilization", int64(u*100))
	}
}

// Utilization returns each node's busy fraction of elapsed virtual time.
func (c *Cluster) Utilization() []float64 {
	out := make([]float64, len(c.nodes))
	if c.now == 0 {
		return out
	}
	for i, n := range c.nodes {
		c.accountNode(n, c.now)
		out[i] = float64(n.busyTime) / float64(c.now)
	}
	return out
}
