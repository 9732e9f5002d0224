// Package server is papyrusd's engine-facing half: it serves the Papyrus
// design process manager over the wire as a versioned JSON HTTP API
// (docs/SERVER.md). The dissertation's system shape is inherently served
// — a task manager mediating many concurrent designer sessions against
// one shared history (Ch. 4) — and this package restores that shape for
// the reproduction: tenants are sharded across engine instances
// (core.System), every wire session is a core.Session with a disjoint
// thread-ID base, and an admission-control layer (per-tenant token
// buckets, bounded accept queue with load shedding, per-tenant fair
// queuing) stands in front of the task-manager worker pools. SDS
// notification subscriptions are long-polls over each session's own
// notification flags.
//
// Every tenant's wire view is a projection of the deterministic engine:
// the server adds routing, admission, and encoding, never semantics —
// the in-process determinism contracts (EXPERIMENTS.md E11/E12) are
// unchanged by serving.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"papyrus/internal/activity"
	"papyrus/internal/cad/logic"
	"papyrus/internal/core"
	"papyrus/internal/fault"
	"papyrus/internal/history"
	"papyrus/internal/memo"
	"papyrus/internal/obs"
	"papyrus/internal/oct"
	"papyrus/internal/sds"
	"papyrus/internal/task"
)

// latencyBuckets are microsecond histogram bounds for wire latencies:
// 100µs .. ~100s, exponential.
var latencyBuckets = []int64{
	100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600, 51200,
	102400, 204800, 409600, 819200, 1638400, 3276800, 6553600,
	13107200, 26214400, 52428800, 104857600,
}

// Config parameterizes a Server.
type Config struct {
	// Shards is the number of engine instances tenants are hashed
	// across (default 1). Each shard is an independent core.System:
	// private object store, CAD suite, SDS spaces, inference engine.
	Shards int
	// Nodes sizes each shard's simulated cluster (core.Config.Nodes).
	Nodes int
	// Workers sizes each session's task-manager worker pool
	// (core.Config.Workers).
	Workers int
	// ExtraTemplates overlays TDL templates on every shard.
	ExtraTemplates map[string]string
	// Memo arms a per-shard step-result cache (docs/CACHING.md).
	Memo bool
	// DisableInference skips metadata inference on every shard (the
	// query endpoint then rejects ADG ops).
	DisableInference bool
	// Fault arms a seeded fault plan on every shard (core.Config.Fault):
	// each wire session's private cluster draws its own reproducible
	// fault sequence from the plan. The storm workload profile (E15)
	// drives this over the wire.
	Fault *fault.Plan
	// Retry is the per-step retry budget accompanying Fault
	// (core.Config.Retry).
	Retry task.RetryPolicy
	// Admission configures the admission-control layer in front of the
	// task-submission path.
	Admission AdmissionConfig
	// Metrics receives request counters and wire latency histograms
	// (nil = no metrics).
	Metrics *obs.Registry
	// SweepEvery arms the background reclaimer: at this wall-clock
	// interval every shard runs one budgeted reclamation slice
	// (docs/RECLAIM.md), physically deleting versions hidden longer
	// than ReclaimGrace and invalidating dependent memo entries.
	// 0 disables sweeping.
	SweepEvery time.Duration
	// ReclaimGrace is each shard's invisibility age (store-clock ticks)
	// before a hidden version is physically reclaimed
	// (core.Config.ReclaimGrace).
	ReclaimGrace int64
	// SweepBudget bounds index records scanned per sweep slice per
	// shard; <= 0 sweeps each shard's whole store every interval.
	SweepBudget int
}

// shard is one engine instance plus its session-index allocator.
type shard struct {
	sys *core.System

	mu   sync.Mutex
	next int // next core.Session index (thread-ID-base selector)
}

// session is one open wire session.
type session struct {
	info   SessionInfo
	sess   *core.Session
	thread *activity.Thread
	// mu serializes engine work submitted on behalf of this session: a
	// session is one designer, and its private virtual-time stack is
	// not safe for concurrent invocations.
	mu sync.Mutex

	// sdsMu guards the SDS state below apart from mu, so a poll never
	// waits behind the session's running task. spaces holds every space
	// the session's thread registered with, hubs its notification
	// flags; closed stops spaceFor registering again after close.
	sdsMu  sync.Mutex
	spaces map[string]*sds.Space
	hubs   map[hubKey]*hub
	closed bool
}

// Server serves the Papyrus wire API over any net/http listener.
type Server struct {
	cfg     Config
	metrics *obs.Registry
	admit   *admitter
	shards  []*shard
	mux     *http.ServeMux

	mu       sync.Mutex
	sessions map[string]*session
	nextID   int
	closed   bool

	// sweepStop/sweepDone bracket the background reclaimer goroutine's
	// lifetime when Config.SweepEvery armed it.
	sweepStop chan struct{}
	sweepDone chan struct{}
}

// New builds the shards and the router. Callers serve s (an
// http.Handler) however they like and Close it when done.
func New(cfg Config) (*Server, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	s := &Server{
		cfg:      cfg,
		metrics:  cfg.Metrics,
		sessions: make(map[string]*session),
	}
	for i := 0; i < cfg.Shards; i++ {
		sysCfg := core.Config{
			Nodes:            cfg.Nodes,
			Workers:          cfg.Workers,
			ExtraTemplates:   cfg.ExtraTemplates,
			DisableInference: cfg.DisableInference,
			Fault:            cfg.Fault,
			Retry:            cfg.Retry,
			Metrics:          cfg.Metrics,
			ReclaimGrace:     cfg.ReclaimGrace,
		}
		if cfg.Memo {
			sysCfg.Memo = memo.NewCache()
		}
		sys, err := core.New(sysCfg)
		if err != nil {
			return nil, fmt.Errorf("server: shard %d: %w", i, err)
		}
		s.shards = append(s.shards, &shard{sys: sys})
	}
	s.admit = newAdmitter(cfg.Admission, cfg.Metrics)
	s.metrics.SetBuckets("server.req.us", latencyBuckets)
	s.buildMux()
	if cfg.SweepEvery > 0 {
		s.sweepStop = make(chan struct{})
		s.sweepDone = make(chan struct{})
		go s.sweepLoop(cfg.SweepEvery)
	}
	return s, nil
}

// sweepLoop is the served system's background reclaimer: one budgeted
// reclamation slice per shard per interval, until Close. Counters land
// in the server.* namespace, which (unlike the engine registries)
// already carries wall-clock-dependent values.
func (s *Server) sweepLoop(every time.Duration) {
	defer close(s.sweepDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case <-t.C:
			s.SweepShards()
		}
	}
}

// SweepShards runs one reclamation slice on every shard, accounting the
// results under server.reclaim.*. Exposed so operators (and tests) can
// force a sweep without waiting out the interval.
func (s *Server) SweepShards() {
	for _, sh := range s.shards {
		st, err := sh.sys.Reclaimer.Sweep(s.cfg.SweepBudget)
		s.metrics.Inc("server.reclaim.sweeps")
		s.metrics.Add("server.reclaim.scanned", int64(st.Scanned))
		s.metrics.Add("server.reclaim.versions", int64(st.Versions))
		s.metrics.Add("server.reclaim.bytes", st.Bytes)
		s.metrics.Add("server.reclaim.memo", int64(st.MemoInvalidated))
		if err != nil {
			s.metrics.Inc("server.reclaim.errors")
		}
	}
}

// Close shuts the admission layer down and closes every shard.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if s.sweepStop != nil {
		close(s.sweepStop)
		<-s.sweepDone
	}
	s.admit.Close()
	var firstErr error
	for _, sh := range s.shards {
		if err := sh.sys.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ShardSystem exposes a shard's engine for fingerprinting in tests and
// the E13 load generator (read-only use).
func (s *Server) ShardSystem(i int) *core.System { return s.shards[i].sys }

// shardFor hashes a tenant onto a shard.
func (s *Server) shardFor(tenant string) int {
	h := fnv.New32a()
	h.Write([]byte(tenant))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// --- routing -----------------------------------------------------------

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/memo", s.handleMemo)
	mux.HandleFunc("POST /v1/sessions", s.handleOpenSession)
	mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionStatus)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleCloseSession)
	mux.HandleFunc("POST /v1/sessions/{id}/objects", s.handleImport)
	mux.HandleFunc("POST /v1/sessions/{id}/tasks", s.handleSubmitTask)
	mux.HandleFunc("POST /v1/sessions/{id}/rework", s.handleRework)
	mux.HandleFunc("POST /v1/sessions/{id}/replay", s.handleReplay)
	mux.HandleFunc("GET /v1/sessions/{id}/history", s.handleHistory)
	mux.HandleFunc("GET /v1/sessions/{id}/records/{rid}", s.handleRecord)
	mux.HandleFunc("GET /v1/sessions/{id}/query", s.handleQuery)
	mux.HandleFunc("POST /v1/spaces/{space}/contribute", s.handleContribute)
	mux.HandleFunc("POST /v1/spaces/{space}/retrieve", s.handleRetrieve)
	mux.HandleFunc("GET /v1/spaces/{space}/objects", s.handleSpaceObjects)
	mux.HandleFunc("GET /v1/spaces/{space}/poll", s.handlePoll)
	s.mux = mux
}

// ServeHTTP implements http.Handler with request accounting and wire
// latency measurement around the router.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.Inc("server.req.count")
	s.mux.ServeHTTP(w, r)
	s.metrics.Observe("server.req.us", time.Since(start).Microseconds())
}

// --- response plumbing -------------------------------------------------

// jsonBufPool recycles response-encoding buffers across requests; the
// encoder writes into the pooled buffer, not the wire, so a response is
// one Write and the scratch is reused (docs/PERFORMANCE.md).
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err == nil {
		_, _ = w.Write(buf.Bytes())
	}
	jsonBufPool.Put(buf)
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	e := Error{Code: code, Message: msg}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		ra := s.admit.cfg.RetryAfter
		e.RetryAfterMS = ra.Milliseconds()
		secs := int64(ra.Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	s.metrics.Inc("server.req.error")
	s.writeJSON(w, status, e)
}

// decode parses a JSON request body, mapping failures to 400.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "malformed request body: "+err.Error())
		return false
	}
	return true
}

// lookup resolves a wire session by path ID.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*session, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		s.writeError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("no session %q", id))
		return nil, false
	}
	return sess, true
}

func toRefJSON(r oct.Ref) RefJSON { return RefJSON{Name: r.Name, Version: r.Version} }

// --- handlers: health, stats, memo ------------------------------------

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	s.writeJSON(w, http.StatusOK, HealthResponse{
		OK: true, Version: APIVersion, Shards: len(s.shards), Sessions: n,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, StatsResponse{Stats: s.metrics.Snapshot()})
}

func (s *Server) handleMemo(w http.ResponseWriter, r *http.Request) {
	var resp MemoResponse
	for i, sh := range s.shards {
		if sh.sys.Memo != nil {
			resp.Shards = append(resp.Shards, MemoShardStats{Shard: i, Stats: sh.sys.Memo.Snapshot()})
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// --- handlers: session lifecycle ---------------------------------------

func (s *Server) handleOpenSession(w http.ResponseWriter, r *http.Request) {
	var req OpenSessionRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Tenant == "" {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "tenant is required")
		return
	}
	shardIdx := s.shardFor(req.Tenant)
	sh := s.shards[shardIdx]
	sh.mu.Lock()
	idx := sh.next
	sh.next++
	sh.mu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.writeError(w, http.StatusServiceUnavailable, CodeClosed, "server closing")
		return
	}
	s.nextID++
	id := fmt.Sprintf("s-%d", s.nextID)
	s.mu.Unlock()

	name := req.Name
	if name == "" {
		name = id
	}
	cs, err := sh.sys.OpenSession(idx, name)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	th := cs.Activity.NewThread(name, req.Tenant)
	sess := &session{
		info: SessionInfo{
			ID: id, Tenant: req.Tenant, Name: name,
			Shard: shardIdx, Thread: th.ID(),
		},
		sess:   cs,
		thread: th,
		spaces: make(map[string]*sds.Space),
		hubs:   make(map[hubKey]*hub),
	}
	s.mu.Lock()
	s.sessions[id] = sess
	s.mu.Unlock()
	s.metrics.Inc("server.session.open")
	s.writeJSON(w, http.StatusOK, sess.info)
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]SessionInfo, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess.info)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	s.writeJSON(w, http.StatusOK, SessionsResponse{Sessions: out})
}

func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	sess.mu.Lock()
	st := SessionStatus{
		SessionInfo: sess.info,
		VT:          sess.sess.Cluster.Now(),
		Records:     len(sess.thread.SortedRecords()),
	}
	sess.mu.Unlock()
	s.writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if !ok {
		s.writeError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("no session %q", id))
		return
	}
	sess.closeSDS()
	s.metrics.Inc("server.session.close")
	s.writeJSON(w, http.StatusOK, sess.info)
}

// --- handlers: objects and tasks ---------------------------------------

func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req ImportRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Name == "" {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "name is required")
		return
	}
	var (
		data oct.Value
		typ  oct.Type
	)
	switch req.Kind {
	case "shifter":
		typ, data = oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(defaultWidth(req.Width)))
	case "adder":
		typ, data = oct.TypeBehavioral, oct.Text(logic.AdderBehavior(defaultWidth(req.Width)))
	case "random":
		typ, data = oct.TypeBehavioral, oct.Text(logic.GenBehavior(logic.GenConfig{
			Seed: req.Seed, Inputs: 6, Outputs: 4, Depth: 4,
		}))
	case "text":
		typ, data = oct.TypeText, oct.Text(req.Data)
	default:
		s.writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("unknown import kind %q (want shifter|adder|random|text)", req.Kind))
		return
	}
	sys := s.shards[sess.info.Shard].sys
	ref, err := sys.ImportObject(req.Name, typ, data)
	if err != nil {
		s.writeError(w, http.StatusConflict, CodeConflict, err.Error())
		return
	}
	s.metrics.Inc("server.object.import")
	s.writeJSON(w, http.StatusOK, ImportResponse{Ref: toRefJSON(ref)})
}

func defaultWidth(w int) int {
	if w <= 0 {
		return 4
	}
	return w
}

func (s *Server) handleSubmitTask(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req TaskRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Task == "" {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "task is required")
		return
	}
	var (
		rec *history.Record
		err error
	)
	start := time.Now()
	admitErr := s.admit.Submit(sess.info.Tenant, func() {
		s.metrics.Observe("server.queue.wait.us", time.Since(start).Microseconds())
		var opts []activity.InvokeOption
		if len(req.Options) > 0 {
			opts = append(opts, activity.WithOptionOverrides(req.Options))
		}
		sess.mu.Lock()
		defer sess.mu.Unlock()
		rec, err = sess.sess.Invoke(sess.thread, req.Task, req.Inputs, req.Outputs, opts...)
	})
	switch admitErr {
	case nil:
	case ErrThrottled:
		s.writeError(w, http.StatusTooManyRequests, CodeThrottled, admitErr.Error())
		return
	case ErrOverloaded:
		s.writeError(w, http.StatusTooManyRequests, CodeOverloaded, admitErr.Error())
		return
	default:
		s.writeError(w, http.StatusServiceUnavailable, CodeClosed, admitErr.Error())
		return
	}
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, CodeBadRequest, err.Error())
		return
	}
	s.metrics.Inc("server.task.complete")
	s.writeJSON(w, http.StatusOK, TaskResponse{Record: rec})
}

// resolveRecord maps a wire record ID to the session thread's record
// under the session mutex. ID 0 is the initial design point (nil).
func (s *Server) resolveRecord(w http.ResponseWriter, sess *session, rid int) (*history.Record, bool) {
	if rid == 0 {
		return nil, true
	}
	sess.mu.Lock()
	rec, found := sess.thread.Stream().ByID(rid)
	sess.mu.Unlock()
	if !found {
		s.writeError(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("no record %d in session %s", rid, sess.info.ID))
		return nil, false
	}
	return rec, true
}

// handleRework moves the session thread's cursor — the §3.3.3 rework
// mechanism on the wire. Erase abandons and hides the work below the
// target (Fig 3.6); a plain move forks exploration.
func (s *Server) handleRework(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req ReworkRequest
	if !s.decode(w, r, &req) {
		return
	}
	rec, ok := s.resolveRecord(w, sess, req.Record)
	if !ok {
		return
	}
	resp := ReworkResponse{Cursor: req.Record}
	sess.mu.Lock()
	var err error
	if req.Erase {
		var gone []oct.Ref
		gone, err = sess.thread.MoveCursorErasing(rec)
		for _, ref := range gone {
			resp.Erased = append(resp.Erased, toRefJSON(ref))
		}
	} else {
		err = sess.thread.MoveCursor(rec)
	}
	sess.mu.Unlock()
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, CodeBadRequest, err.Error())
		return
	}
	s.metrics.Inc("server.rework.count")
	s.writeJSON(w, http.StatusOK, resp)
}

// handleReplay re-executes a recorded task at the current cursor (the
// E12 redo path, memo-friendly). Like task submission, the engine work
// passes admission control.
func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req ReplayRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Record == 0 {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "record is required")
		return
	}
	rec, ok := s.resolveRecord(w, sess, req.Record)
	if !ok {
		return
	}
	var (
		redo *history.Record
		err  error
	)
	start := time.Now()
	admitErr := s.admit.Submit(sess.info.Tenant, func() {
		s.metrics.Observe("server.queue.wait.us", time.Since(start).Microseconds())
		sess.mu.Lock()
		defer sess.mu.Unlock()
		redo, err = sess.sess.Activity.ReplayRecord(sess.thread, rec)
	})
	switch admitErr {
	case nil:
	case ErrThrottled:
		s.writeError(w, http.StatusTooManyRequests, CodeThrottled, admitErr.Error())
		return
	case ErrOverloaded:
		s.writeError(w, http.StatusTooManyRequests, CodeOverloaded, admitErr.Error())
		return
	default:
		s.writeError(w, http.StatusServiceUnavailable, CodeClosed, admitErr.Error())
		return
	}
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, CodeBadRequest, err.Error())
		return
	}
	s.metrics.Inc("server.replay.count")
	s.writeJSON(w, http.StatusOK, TaskResponse{Record: redo})
}

// --- handlers: history and queries -------------------------------------

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	sess.mu.Lock()
	recs := sess.thread.SortedRecords()
	sess.mu.Unlock()
	s.writeJSON(w, http.StatusOK, HistoryResponse{Records: recs})
}

func (s *Server) handleRecord(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	rid, err := strconv.Atoi(r.PathValue("rid"))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "record ID must be an integer")
		return
	}
	sess.mu.Lock()
	rec, found := sess.thread.Stream().ByID(rid)
	sess.mu.Unlock()
	if !found {
		s.writeError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("no record %d in session %s", rid, sess.info.ID))
		return
	}
	s.writeJSON(w, http.StatusOK, TaskResponse{Record: rec})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	op := r.URL.Query().Get("op")
	object := r.URL.Query().Get("object")
	if object == "" {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "object is required")
		return
	}
	sys := s.shards[sess.info.Shard].sys
	if sys.Inference == nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "this server runs with inference disabled")
		return
	}
	sess.mu.Lock()
	ref, err := sess.thread.ResolveInput(object)
	sess.mu.Unlock()
	if err != nil {
		s.writeError(w, http.StatusNotFound, CodeNotFound, err.Error())
		return
	}
	// InferenceQuery serializes against concurrent step observations
	// from other live sessions of the shard — the engine's maps are not
	// safe to read while another session's steps extend the ADG.
	res, qerr := sys.InferenceQuery(op, ref)
	if qerr != nil {
		switch op {
		case "type":
			s.writeError(w, http.StatusNotFound, CodeNotFound, qerr.Error())
		case "lineage", "equivalence", "relationships", "outofdate":
			s.writeError(w, http.StatusUnprocessableEntity, CodeBadRequest, qerr.Error())
		default:
			s.writeError(w, http.StatusBadRequest, CodeBadRequest, qerr.Error())
		}
		return
	}
	resp := QueryResponse{Op: op, Object: object}
	switch op {
	case "type":
		resp.Type = string(res.Type)
	case "lineage", "equivalence":
		for _, lr := range res.Refs {
			resp.Refs = append(resp.Refs, toRefJSON(lr))
		}
	case "relationships":
		for _, rel := range res.Relationships {
			resp.Relationships = append(resp.Relationships,
				fmt.Sprintf("%s %s -> %s", rel.Kind, rel.From, rel.To))
		}
	case "outofdate":
		stale := res.OutOfDate
		resp.OutOfDate = &stale
	}
	s.metrics.Inc("server.query.count")
	s.writeJSON(w, http.StatusOK, resp)
}
