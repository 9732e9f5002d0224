package server

// stream.go is the cooperation surface of the wire API: SDS contribute/
// retrieve (the §3.3.4.2 MOVE) and the long-poll notification
// subscription. Each session that polls an object holds its own SDS
// notification flag on it, under its own design thread, so the wire
// fires and counts notifications exactly as in-process threads do.
//
// Delivery contract: a poll is a resumable diff over the object's
// contribution sequence, not a fire-and-forget push — a client that
// polls again after the last sequence number it saw observes every
// contribution exactly once, in order. SDS spaces are scoped to a shard;
// sessions cooperating through one space must live on the same shard
// (in practice: share a tenant).

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"papyrus/internal/oct"
	"papyrus/internal/sds"
)

// hub fans one session's notification flag on a space object out to
// that session's waiting polls: broadcast closes the current generation
// channel, waiters grab the channel, wait on it, then re-diff the version
// list.
type hub struct {
	mu sync.Mutex
	ch chan struct{}
}

func newHub() *hub { return &hub{ch: make(chan struct{})} }

func (h *hub) wait() <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ch
}

func (h *hub) broadcast() {
	h.mu.Lock()
	close(h.ch)
	h.ch = make(chan struct{})
	h.mu.Unlock()
}

// hubKey names one space object of a session's shard.
type hubKey struct{ space, object string }

// hubFor returns (creating on demand) the session's hub for a space
// object. Creating it installs the session thread's own SDS watch, so a
// contribution fires one notification per watching session, exactly as
// it does for in-process design threads. space must come from spaceFor.
func (sess *session) hubFor(space *sds.Space, object string) *hub {
	sess.sdsMu.Lock()
	defer sess.sdsMu.Unlock()
	key := hubKey{space.ID(), object}
	h, ok := sess.hubs[key]
	if !ok {
		h = newHub()
		sess.hubs[key] = h
		// Watch fails only after handleCloseSession unregistered the
		// thread; the hub then never fires and the poll times out.
		_ = space.Watch(sess.info.Thread, object, func(_, _ string, _ oct.Ref) {
			h.broadcast()
		})
	}
	return h
}

// spaceFor resolves the session's shard-scoped space and registers the
// session's design thread with it, unless the session has closed.
func (s *Server) spaceFor(sess *session, spaceID string) *sds.Space {
	sp := s.shards[sess.info.Shard].sys.Space(spaceID)
	sess.sdsMu.Lock()
	defer sess.sdsMu.Unlock()
	if !sess.closed {
		sp.Register(sess.info.Thread)
		sess.spaces[spaceID] = sp
	}
	return sp
}

// closeSDS drops every notification flag and space registration the
// session's thread holds, so a closed session is no longer notified
// (or counted in sds.notify.fire) when others contribute.
func (sess *session) closeSDS() {
	sess.sdsMu.Lock()
	defer sess.sdsMu.Unlock()
	sess.closed = true
	for key := range sess.hubs {
		sess.spaces[key.space].DropWatches(sess.info.Thread, key.object)
	}
	for _, sp := range sess.spaces {
		sp.Unregister(sess.info.Thread)
	}
}

// sessionParam resolves a wire session named in a query parameter or
// request body rather than the path.
func (s *Server) sessionParam(w http.ResponseWriter, id string) (*session, bool) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		s.writeError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("no session %q", id))
		return nil, false
	}
	return sess, true
}

// queryCount parses an optional non-negative integer query parameter;
// absent or empty reads as 0.
func queryCount(q url.Values, key string) (int, bool) {
	v := q.Get(key)
	if v == "" {
		return 0, true
	}
	n, err := strconv.Atoi(v)
	return n, err == nil && n >= 0
}

// eventsAfter diffs a space object's contribution list against a resume
// point, returning the missed events in order.
func eventsAfter(space *sds.Space, object string, after int) []NotifyEvent {
	vs := space.Versions(object)
	if after >= len(vs) {
		return nil
	}
	out := make([]NotifyEvent, 0, len(vs)-after)
	for i := after; i < len(vs); i++ {
		out = append(out, NotifyEvent{
			Space: space.ID(), Object: object, Ref: toRefJSON(vs[i]), Seq: i + 1,
		})
	}
	return out
}

// --- handlers ----------------------------------------------------------

func (s *Server) handleContribute(w http.ResponseWriter, r *http.Request) {
	var req ContributeRequest
	if !s.decode(w, r, &req) {
		return
	}
	sess, ok := s.sessionParam(w, req.Session)
	if !ok {
		return
	}
	if req.Object == "" || req.From == "" {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "object and from are required")
		return
	}
	space := s.spaceFor(sess, r.PathValue("space"))
	sess.mu.Lock()
	ref, err := sess.thread.ResolveInput(req.From)
	sess.mu.Unlock()
	if err != nil {
		s.writeError(w, http.StatusNotFound, CodeNotFound, err.Error())
		return
	}
	src, err := s.shards[sess.info.Shard].sys.Store.Get(ref)
	if err != nil {
		s.writeError(w, http.StatusNotFound, CodeNotFound, err.Error())
		return
	}
	out, err := space.Contribute(sess.info.Thread, req.Object, src)
	if err != nil {
		s.writeError(w, http.StatusConflict, CodeConflict, err.Error())
		return
	}
	seq := 0
	for i, v := range space.Versions(req.Object) {
		if v == out {
			seq = i + 1
		}
	}
	s.metrics.Inc("server.sds.contribute")
	s.writeJSON(w, http.StatusOK, ContributeResponse{Ref: toRefJSON(out), Seq: seq})
}

func (s *Server) handleRetrieve(w http.ResponseWriter, r *http.Request) {
	var req RetrieveRequest
	if !s.decode(w, r, &req) {
		return
	}
	sess, ok := s.sessionParam(w, req.Session)
	if !ok {
		return
	}
	if req.Object == "" || req.Dest == "" {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "object and dest are required")
		return
	}
	space := s.spaceFor(sess, r.PathValue("space"))
	out, err := space.Retrieve(sess.info.Thread, req.Object, req.Version, req.Dest, false, nil)
	if err != nil {
		s.writeError(w, http.StatusNotFound, CodeNotFound, err.Error())
		return
	}
	s.metrics.Inc("server.sds.retrieve")
	s.writeJSON(w, http.StatusOK, RetrieveResponse{Ref: toRefJSON(out)})
}

func (s *Server) handleSpaceObjects(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessionParam(w, r.URL.Query().Get("session"))
	if !ok {
		return
	}
	space := s.spaceFor(sess, r.PathValue("space"))
	resp := SpaceObjectsResponse{Objects: map[string][]RefJSON{}}
	for _, name := range space.Objects() {
		var refs []RefJSON
		for _, v := range space.Versions(name) {
			refs = append(refs, toRefJSON(v))
		}
		resp.Objects[name] = refs
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	sess, ok := s.sessionParam(w, q.Get("session"))
	if !ok {
		return
	}
	object := q.Get("object")
	if object == "" {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "object is required")
		return
	}
	after, okAfter := queryCount(q, "after")
	ms, okTimeout := queryCount(q, "timeout_ms")
	if !okAfter || !okTimeout {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "after and timeout_ms must be non-negative integers")
		return
	}
	timeout := 30 * time.Second
	if ms > 0 {
		timeout = time.Duration(ms) * time.Millisecond
	}
	space := s.spaceFor(sess, r.PathValue("space"))
	h := sess.hubFor(space, object)
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		sig := h.wait() // grab the generation before diffing: no lost wakeup
		events := eventsAfter(space, object, after)
		if len(events) > 0 {
			s.metrics.Inc("server.sds.poll.hit")
			s.writeJSON(w, http.StatusOK, PollResponse{Events: events, Next: events[len(events)-1].Seq})
			return
		}
		select {
		case <-sig:
		case <-deadline.C:
			s.metrics.Inc("server.sds.poll.timeout")
			s.writeJSON(w, http.StatusOK, PollResponse{Next: after})
			return
		case <-r.Context().Done():
			return
		}
	}
}
