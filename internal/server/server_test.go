package server_test

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"papyrus/internal/client"
	"papyrus/internal/obs"
	"papyrus/internal/server"
)

// synTemplate is a one-step synthesis task for round-trip tests.
const synTemplate = `task Syn {A} {O}
step S1 {A} {O} {misII -o O A}
`

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = 2
	}
	if cfg.ExtraTemplates == nil {
		cfg.ExtraTemplates = map[string]string{"Syn": synTemplate}
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, client.New(ts.URL)
}

func TestSessionLifecycleRoundTrip(t *testing.T) {
	_, cl := newTestServer(t, server.Config{})

	h, err := cl.Health()
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if !h.OK || h.Shards != 2 || h.Version != server.APIVersion {
		t.Fatalf("health = %+v", h)
	}

	info, err := cl.OpenSession("acme", "alice")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if info.Tenant != "acme" || info.Name != "alice" || info.Thread == 0 {
		t.Fatalf("session info = %+v", info)
	}

	if _, err := cl.Import(info.ID, server.ImportRequest{Name: "/acme/spec", Kind: "shifter", Width: 4}); err != nil {
		t.Fatalf("import: %v", err)
	}
	rec, err := cl.SubmitTask(info.ID, server.TaskRequest{
		Task:    "Syn",
		Inputs:  map[string]string{"A": "/acme/spec"},
		Outputs: map[string]string{"O": "/acme/gates"},
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if len(rec.Steps) != 1 {
		t.Fatalf("steps = %d, want 1", len(rec.Steps))
	}

	recs, err := cl.History(info.ID)
	if err != nil {
		t.Fatalf("history: %v", err)
	}
	if len(recs) != 1 || recs[0].ID != rec.ID {
		t.Fatalf("history = %+v", recs)
	}
	got, err := cl.Record(info.ID, rec.ID)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	if got.ID != rec.ID || len(got.Steps) != 1 {
		t.Fatalf("record = %+v", got)
	}

	st, err := cl.SessionStatus(info.ID)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.Records != 1 || st.VT <= 0 {
		t.Fatalf("status = %+v", st)
	}
	list, err := cl.Sessions()
	if err != nil || len(list.Sessions) != 1 {
		t.Fatalf("sessions = %+v, %v", list, err)
	}

	if err := cl.CloseSession(info.ID); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := cl.SessionStatus(info.ID); !isStatus(err, 404, server.CodeNotFound) {
		t.Fatalf("status after close = %v, want 404 not_found", err)
	}
}

func TestQueryEndpoint(t *testing.T) {
	_, cl := newTestServer(t, server.Config{})
	info, err := cl.OpenSession("acme", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Import(info.ID, server.ImportRequest{Name: "/acme/spec", Kind: "adder"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SubmitTask(info.ID, server.TaskRequest{
		Task:    "Syn",
		Inputs:  map[string]string{"A": "/acme/spec"},
		Outputs: map[string]string{"O": "/acme/gates"},
	}); err != nil {
		t.Fatal(err)
	}

	q, err := cl.Query(info.ID, "outofdate", "/acme/gates")
	if err != nil {
		t.Fatalf("outofdate: %v", err)
	}
	if q.OutOfDate == nil || *q.OutOfDate {
		t.Fatalf("fresh derivation reported out of date: %+v", q)
	}
	q, err = cl.Query(info.ID, "lineage", "/acme/gates")
	if err != nil {
		t.Fatalf("lineage: %v", err)
	}
	if len(q.Refs) == 0 {
		t.Fatalf("empty lineage: %+v", q)
	}
	if _, err := cl.Query(info.ID, "frobnicate", "/acme/gates"); !isStatus(err, 400, server.CodeBadRequest) {
		t.Fatalf("unknown op = %v, want 400", err)
	}
}

func TestTenantsShardDisjointly(t *testing.T) {
	srv, cl := newTestServer(t, server.Config{})
	// Find two tenants landing on different shards (deterministic FNV
	// hash, so probe a few names).
	var infos []server.SessionInfo
	for _, tenant := range []string{"t0", "t1", "t2", "t3"} {
		info, err := cl.OpenSession(tenant, "")
		if err != nil {
			t.Fatal(err)
		}
		infos = append(infos, info)
	}
	shards := map[int]bool{}
	for _, info := range infos {
		shards[info.Shard] = true
	}
	if len(shards) != 2 {
		t.Fatalf("4 tenants landed on %d shards, want both", len(shards))
	}
	// Same tenant always lands on the same shard.
	again, err := cl.OpenSession(infos[0].Tenant, "")
	if err != nil {
		t.Fatal(err)
	}
	if again.Shard != infos[0].Shard {
		t.Fatalf("tenant %s moved shards: %d then %d", infos[0].Tenant, infos[0].Shard, again.Shard)
	}
	// An import in one shard is invisible to the other.
	var a, b server.SessionInfo
	for _, info := range infos {
		if info.Shard != infos[0].Shard {
			b = info
			break
		}
	}
	a = infos[0]
	if _, err := cl.Import(a.ID, server.ImportRequest{Name: "/shared/x", Kind: "text", Data: "hello"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Import(b.ID, server.ImportRequest{Name: "/shared/x", Kind: "text", Data: "hello"}); err != nil {
		t.Fatalf("same name on the other shard should not conflict: %v", err)
	}
	_ = srv
}

func TestBadRequests(t *testing.T) {
	srv, cl := newTestServer(t, server.Config{})
	if _, err := cl.OpenSession("", ""); !isStatus(err, 400, server.CodeBadRequest) {
		t.Fatalf("empty tenant = %v, want 400", err)
	}
	info, err := cl.OpenSession("acme", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Import(info.ID, server.ImportRequest{Name: "/x", Kind: "hologram"}); !isStatus(err, 400, server.CodeBadRequest) {
		t.Fatalf("unknown kind = %v, want 400", err)
	}
	if _, err := cl.Import("s-999", server.ImportRequest{Name: "/x", Kind: "text"}); !isStatus(err, 404, server.CodeNotFound) {
		t.Fatalf("unknown session = %v, want 404", err)
	}
	if _, err := cl.SubmitTask(info.ID, server.TaskRequest{Task: "NoSuchTask"}); !isStatus(err, 422, server.CodeBadRequest) {
		t.Fatalf("unknown task = %v, want 422", err)
	}
	// A bad resume point or timeout is rejected before any wait; an
	// absent or zero one is not.
	poll := func(query string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("GET",
			"/v1/spaces/sp/poll?session="+info.ID+"&object=o&"+query, nil))
		return w
	}
	for _, query := range []string{"after=-1", "after=x", "after=1.5", "timeout_ms=-1", "timeout_ms=soon"} {
		w := poll(query)
		if w.Code != 400 || !strings.Contains(w.Body.String(), server.CodeBadRequest) {
			t.Errorf("poll ?%s = %d %s, want 400 bad_request", query, w.Code, w.Body)
		}
	}
	for _, query := range []string{"timeout_ms=1", "after=&timeout_ms=1", "after=0&timeout_ms=1"} {
		if w := poll(query); w.Code != 200 {
			t.Errorf("poll ?%s = %d %s, want 200", query, w.Code, w.Body)
		}
	}
}

func TestAdmissionThrottleOverWire(t *testing.T) {
	_, cl := newTestServer(t, server.Config{
		Admission: server.AdmissionConfig{RatePerSec: 0.001, Burst: 1, RetryAfter: 50 * time.Millisecond},
	})
	info, err := cl.OpenSession("acme", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Import(info.ID, server.ImportRequest{Name: "/acme/spec", Kind: "shifter"}); err != nil {
		t.Fatal(err)
	}
	submit := func() error {
		cl.RetryBudget = 0
		_, err := cl.SubmitTask(info.ID, server.TaskRequest{
			Task:    "Syn",
			Inputs:  map[string]string{"A": "/acme/spec"},
			Outputs: map[string]string{"O": "/acme/gates"},
		})
		return err
	}
	if err := submit(); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	err = submit()
	if !isStatus(err, 429, server.CodeThrottled) {
		t.Fatalf("second submit = %v, want 429 throttled", err)
	}
	apiErr := err.(*client.APIError)
	if !apiErr.Throttled() || apiErr.RetryAfter() != 50*time.Millisecond {
		t.Fatalf("retry hint = %v (throttled=%v), want 50ms", apiErr.RetryAfter(), apiErr.Throttled())
	}
}

func TestSDSCooperationAndSubscription(t *testing.T) {
	srv, cl := newTestServer(t, server.Config{Shards: 1})
	alice, err := cl.OpenSession("team", "alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := cl.OpenSession("team", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Import(alice.ID, server.ImportRequest{Name: "/alice/draft", Kind: "text", Data: "v1"}); err != nil {
		t.Fatal(err)
	}

	// Bob parks a poll before anything is contributed; the contribution
	// must wake it well before its timeout.
	type result struct {
		resp server.PollResponse
		err  error
	}
	parked := make(chan result, 1)
	go func() {
		resp, err := cl.Poll("floorplan", bob.ID, "netlist", 0, 30*time.Second)
		parked <- result{resp, err}
	}()
	space := srv.ShardSystem(0).Space("floorplan")
	for !space.Registered(bob.Thread) {
		select {
		case got := <-parked:
			t.Fatalf("poll returned before any contribution: %+v, %v", got.resp, got.err)
		case <-time.After(time.Millisecond):
		}
	}

	con, err := cl.Contribute("floorplan", server.ContributeRequest{
		Session: alice.ID, Object: "netlist", From: "/alice/draft",
	})
	if err != nil {
		t.Fatalf("contribute: %v", err)
	}
	if con.Seq != 1 {
		t.Fatalf("seq = %d, want 1", con.Seq)
	}

	select {
	case got := <-parked:
		if got.err != nil {
			t.Fatalf("parked poll: %v", got.err)
		}
		if len(got.resp.Events) != 1 || got.resp.Next != 1 {
			t.Fatalf("parked poll = %+v", got.resp)
		}
		if ev := got.resp.Events[0]; ev.Seq != 1 || ev.Object != "netlist" || ev.Space != "floorplan" {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked poll not woken within 5s")
	}

	// A fresh poll sees the same contribution as a diff.
	poll, err := cl.Poll("floorplan", bob.ID, "netlist", 0, 2*time.Second)
	if err != nil {
		t.Fatalf("poll: %v", err)
	}
	if len(poll.Events) != 1 || poll.Next != 1 {
		t.Fatalf("poll = %+v", poll)
	}
	// Polling after the newest sequence times out empty.
	poll, err = cl.Poll("floorplan", bob.ID, "netlist", 1, 100*time.Millisecond)
	if err != nil || len(poll.Events) != 0 || poll.Next != 1 {
		t.Fatalf("idle poll = %+v, %v", poll, err)
	}

	// Bob retrieves the contribution into his workspace.
	ret, err := cl.Retrieve("floorplan", server.RetrieveRequest{
		Session: bob.ID, Object: "netlist", Dest: "/bob/netlist",
	})
	if err != nil {
		t.Fatalf("retrieve: %v", err)
	}
	if ret.Ref.Name == "" {
		t.Fatalf("retrieve ref = %+v", ret)
	}
	objs, err := cl.SpaceObjects("floorplan", bob.ID)
	if err != nil || len(objs.Objects["netlist"]) != 1 {
		t.Fatalf("space objects = %+v, %v", objs, err)
	}
}

// TestCloseSessionDropsSDSFlags: closing a session drops its notification
// flags and space registrations, so a later contribution neither fires
// nor counts a notification for it.
func TestCloseSessionDropsSDSFlags(t *testing.T) {
	reg := obs.NewRegistry()
	srv, cl := newTestServer(t, server.Config{Shards: 1, Metrics: reg})
	alice, err := cl.OpenSession("team", "alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := cl.OpenSession("team", "bob")
	if err != nil {
		t.Fatal(err)
	}
	contribute := func(name string) {
		t.Helper()
		if _, err := cl.Import(alice.ID, server.ImportRequest{Name: name, Kind: "text", Data: name}); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Contribute("floorplan", server.ContributeRequest{
			Session: alice.ID, Object: "netlist", From: name,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Poll("floorplan", bob.ID, "netlist", 0, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	contribute("/alice/d1")
	if n := reg.Counter("sds.notify.fire"); n != 1 {
		t.Fatalf("sds.notify.fire = %d with bob watching, want 1", n)
	}
	if err := cl.CloseSession(bob.ID); err != nil {
		t.Fatal(err)
	}
	contribute("/alice/d2")
	if n := reg.Counter("sds.notify.fire"); n != 1 {
		t.Errorf("sds.notify.fire = %d after bob closed, want 1", n)
	}
	if srv.ShardSystem(0).Space("floorplan").Registered(bob.Thread) {
		t.Error("closed session's thread is still registered with the space")
	}
}

func TestStatsEndpointExposesWireMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	_, cl := newTestServer(t, server.Config{Metrics: reg})
	if _, err := cl.OpenSession("acme", ""); err != nil {
		t.Fatal(err)
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stats.Counters["server.session.open"] != 1 {
		t.Fatalf("server.session.open = %d, want 1", stats.Stats.Counters["server.session.open"])
	}
	if stats.Stats.Counters["server.req.count"] < 2 {
		t.Fatalf("server.req.count = %d, want >= 2", stats.Stats.Counters["server.req.count"])
	}
}

// isStatus matches an *client.APIError by status and code.
func isStatus(err error, status int, code string) bool {
	apiErr, ok := err.(*client.APIError)
	return ok && apiErr.Status == status && apiErr.Err.Code == code
}

// TestReworkAndReplayEndpoints covers the §3.3.3 surface over the wire:
// an erasing cursor move hides the abandoned branch's outputs, a plain
// move to record 0 returns to the initial point, and replay re-executes
// a recorded task as a fresh record — the verbs the E15 workload
// profiles drive through internal/client.
func TestReworkAndReplayEndpoints(t *testing.T) {
	_, cl := newTestServer(t, server.Config{})
	info, err := cl.OpenSession("acme", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Import(info.ID, server.ImportRequest{Name: "/acme/spec", Kind: "shifter", Width: 4}); err != nil {
		t.Fatal(err)
	}
	first, err := cl.SubmitTask(info.ID, server.TaskRequest{
		Task:    "Syn",
		Inputs:  map[string]string{"A": "/acme/spec"},
		Outputs: map[string]string{"O": "/acme/v1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SubmitTask(info.ID, server.TaskRequest{
		Task:    "Syn",
		Inputs:  map[string]string{"A": "/acme/v1"},
		Outputs: map[string]string{"O": "/acme/v2"},
	}); err != nil {
		t.Fatal(err)
	}

	// Erase back to the first record: the second task's output is hidden
	// and reported.
	rw, err := cl.Rework(info.ID, server.ReworkRequest{Record: first.ID, Erase: true})
	if err != nil {
		t.Fatalf("rework: %v", err)
	}
	if rw.Cursor != first.ID {
		t.Fatalf("cursor = %d, want %d", rw.Cursor, first.ID)
	}
	if len(rw.Erased) != 1 || rw.Erased[0].Name != "/acme/v2" {
		t.Fatalf("erased = %+v, want /acme/v2", rw.Erased)
	}

	// Replay the surviving record: a fresh record of the same task.
	redo, err := cl.Replay(info.ID, first.ID)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if redo.ID == first.ID || redo.TaskName != first.TaskName || len(redo.Steps) != 1 {
		t.Fatalf("redo = %+v", redo)
	}

	// Plain (non-erasing) move to the initial point.
	rw, err = cl.Rework(info.ID, server.ReworkRequest{Record: 0})
	if err != nil {
		t.Fatalf("rework to initial: %v", err)
	}
	if rw.Cursor != 0 || len(rw.Erased) != 0 {
		t.Fatalf("rework to initial = %+v", rw)
	}

	if _, err := cl.Rework(info.ID, server.ReworkRequest{Record: 99999}); !isStatus(err, 404, server.CodeNotFound) {
		t.Fatalf("rework to unknown record = %v, want 404", err)
	}
	if _, err := cl.Replay(info.ID, 0); !isStatus(err, 400, server.CodeBadRequest) {
		t.Fatalf("replay record 0 = %v, want 400", err)
	}
}

// TestServerSweepReclaims covers the served reclamation path: an erasing
// rework hides a version, a forced SweepShards physically deletes it and
// accounts the work under server.reclaim.*, and the background sweepLoop
// armed by SweepEvery keeps ticking until Close. Counters only (no
// fingerprints): server sweeps are wall-clock driven by design.
func TestServerSweepReclaims(t *testing.T) {
	reg := obs.NewRegistry()
	srv, cl := newTestServer(t, server.Config{
		Shards:     1,
		Metrics:    reg,
		SweepEvery: 2 * time.Millisecond,
	})

	info, err := cl.OpenSession("acme", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Import(info.ID, server.ImportRequest{Name: "/acme/spec", Kind: "shifter", Width: 4}); err != nil {
		t.Fatal(err)
	}
	first, err := cl.SubmitTask(info.ID, server.TaskRequest{
		Task:    "Syn",
		Inputs:  map[string]string{"A": "/acme/spec"},
		Outputs: map[string]string{"O": "/acme/v1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SubmitTask(info.ID, server.TaskRequest{
		Task:    "Syn",
		Inputs:  map[string]string{"A": "/acme/v1"},
		Outputs: map[string]string{"O": "/acme/v2"},
	}); err != nil {
		t.Fatal(err)
	}
	// Measure before the erasing rework: the background loop may sweep
	// the erased version before SweepShards does, and either sweep must
	// bring the live bytes below this mark.
	before := srv.ShardSystem(0).Store.TotalBytes()
	if _, err := cl.Rework(info.ID, server.ReworkRequest{Record: first.ID, Erase: true}); err != nil {
		t.Fatal(err)
	}

	srv.SweepShards()
	if got := srv.ShardSystem(0).Store.TotalBytes(); got >= before {
		t.Errorf("sweep left live bytes at %d (was %d before the erasing rework)", got, before)
	}
	if n := reg.Counter("server.reclaim.versions"); n < 1 {
		t.Errorf("server.reclaim.versions = %d, want >= 1", n)
	}
	if b := reg.Counter("server.reclaim.bytes"); b <= 0 {
		t.Errorf("server.reclaim.bytes = %d, want > 0", b)
	}

	// The background loop is armed: its ticks accumulate on top of the
	// forced sweep above. Wait for at least one, then Close (which must
	// join the loop) and check the counter stops moving.
	deadline := time.Now().Add(5 * time.Second)
	forced := int64(1)
	for reg.Counter("server.reclaim.sweeps") <= forced {
		if time.Now().After(deadline) {
			t.Fatalf("background sweep never ticked: sweeps = %d",
				reg.Counter("server.reclaim.sweeps"))
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	after := reg.Counter("server.reclaim.sweeps")
	time.Sleep(10 * time.Millisecond)
	if got := reg.Counter("server.reclaim.sweeps"); got != after {
		t.Errorf("sweeps advanced after Close: %d -> %d", after, got)
	}
}
