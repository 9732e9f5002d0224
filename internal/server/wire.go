package server

// wire.go is the versioned JSON wire schema of the papyrusd API (v1).
// Every request/response body exchanged by internal/server and
// internal/client is declared here, so the two sides cannot drift and
// docs/SERVER.md has a single source of truth to describe.

import (
	"papyrus/internal/history"
	"papyrus/internal/memo"
	"papyrus/internal/obs"
)

// APIVersion is the wire version prefix every route carries.
const APIVersion = "v1"

// Error is the uniform error body of every non-2xx response.
type Error struct {
	// Code is a stable machine-readable identifier: bad_request,
	// not_found, conflict, throttled, overloaded, closed, internal.
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS accompanies throttled/overloaded responses: the
	// client-visible admission-control backoff hint, mirrored in the
	// Retry-After header (whole seconds, rounded up).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// Error codes.
const (
	CodeBadRequest = "bad_request"
	CodeNotFound   = "not_found"
	CodeConflict   = "conflict"
	CodeThrottled  = "throttled"
	CodeOverloaded = "overloaded"
	CodeClosed     = "closed"
	CodeInternal   = "internal"
)

// HealthResponse is GET /v1/healthz.
type HealthResponse struct {
	OK       bool   `json:"ok"`
	Version  string `json:"version"`
	Shards   int    `json:"shards"`
	Sessions int    `json:"sessions"`
}

// StatsResponse is GET /v1/stats: the server registry's frozen state.
type StatsResponse struct {
	Stats obs.Snapshot `json:"stats"`
}

// MemoShardStats is one shard's step-result-cache counters.
type MemoShardStats struct {
	Shard int        `json:"shard"`
	Stats memo.Stats `json:"stats"`
}

// MemoResponse is GET /v1/memo. Empty when the server runs without a
// memo cache.
type MemoResponse struct {
	Shards []MemoShardStats `json:"shards"`
}

// OpenSessionRequest is POST /v1/sessions.
type OpenSessionRequest struct {
	// Tenant selects the engine shard (hash of the tenant name) and the
	// admission-control token bucket. Required.
	Tenant string `json:"tenant"`
	// Name labels the session; defaults to the assigned session ID.
	Name string `json:"name,omitempty"`
}

// SessionInfo describes one open wire session.
type SessionInfo struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Name   string `json:"name"`
	Shard  int    `json:"shard"`
	// Thread is the session's design-thread ID inside its shard's
	// engine (disjoint across sessions by the thread-ID-base scheme).
	Thread int `json:"thread"`
}

// SessionStatus is GET /v1/sessions/{id}.
type SessionStatus struct {
	SessionInfo
	// VT is the session's private cluster virtual time.
	VT int64 `json:"vt"`
	// Records is the number of committed history records.
	Records int `json:"records"`
}

// SessionsResponse is GET /v1/sessions.
type SessionsResponse struct {
	Sessions []SessionInfo `json:"sessions"`
}

// ImportRequest is POST /v1/sessions/{id}/objects: check an external
// object into the shard's design database. Exactly one content form
// applies, selected by Kind.
type ImportRequest struct {
	// Name is the store name to import under. Tenants share one store
	// per shard; the LWT premise (disjoint writes) is the caller's
	// contract — prefix names with a tenant namespace.
	Name string `json:"name"`
	// Kind selects the payload: "shifter"/"adder" (generated behavioral
	// spec of Width bits), "random" (seeded behavioral spec), or "text"
	// (literal Data).
	Kind  string `json:"kind"`
	Width int    `json:"width,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
	Data  string `json:"data,omitempty"`
}

// RefJSON is an object version reference on the wire.
type RefJSON struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
}

// ImportResponse is the created version.
type ImportResponse struct {
	Ref RefJSON `json:"ref"`
}

// TaskRequest is POST /v1/sessions/{id}/tasks: one TDL task submission.
// It is the admission-controlled path: the request passes the tenant's
// token bucket and the fair queue before reaching the engine.
type TaskRequest struct {
	// Task names the TDL template.
	Task string `json:"task"`
	// Inputs binds formal input names to objects, in the three §5.2
	// user forms: "/absolute/path", "name@version", or a plain
	// data-scope name.
	Inputs map[string]string `json:"inputs"`
	// Outputs binds formal output names to the physical names to create.
	Outputs map[string]string `json:"outputs"`
	// Options optionally overrides a step's tool options, keyed by step
	// name (the GUI's "New Options:" box, §4.3.1).
	Options map[string][]string `json:"options,omitempty"`
}

// TaskResponse carries the committed history record, steps included.
type TaskResponse struct {
	Record *history.Record `json:"record"`
}

// ReworkRequest is POST /v1/sessions/{id}/rework: move the session
// thread's cursor to a past design point (the §3.3.3 rework mechanism).
type ReworkRequest struct {
	// Record is the history record ID to move to; 0 is the initial
	// design point.
	Record int `json:"record"`
	// Erase abandons the path below the target: its records are erased
	// from the control stream and their outputs hidden in the store
	// (Fig 3.6). False forks exploration, keeping the old branch.
	Erase bool `json:"erase,omitempty"`
}

// ReworkResponse reports the move.
type ReworkResponse struct {
	// Cursor echoes the record ID the cursor now rests on (0 = initial).
	Cursor int `json:"cursor"`
	// Erased lists the object versions hidden by an erasing move.
	Erased []RefJSON `json:"erased,omitempty"`
}

// ReplayRequest is POST /v1/sessions/{id}/replay: re-execute a recorded
// task at the current cursor (the E12 redo path; with a memo cache armed
// the redo's steps hit). The response is a TaskResponse with the new
// record.
type ReplayRequest struct {
	// Record is the history record ID to replay (required).
	Record int `json:"record"`
}

// HistoryResponse is GET /v1/sessions/{id}/history: the session
// thread's records sorted by completion time.
type HistoryResponse struct {
	Records []*history.Record `json:"records"`
}

// QueryResponse is GET /v1/sessions/{id}/query — the history/ADG query
// surface (op=type|lineage|equivalence|relationships|outofdate over an
// object). Exactly one result field is set, matching the op.
type QueryResponse struct {
	Op     string `json:"op"`
	Object string `json:"object"`
	// Type is the inferred object type (op=type).
	Type string `json:"type,omitempty"`
	// Refs is the lineage chain or equivalence class (op=lineage,
	// op=equivalence).
	Refs []RefJSON `json:"refs,omitempty"`
	// Relationships lists ADG edges touching the object
	// (op=relationships) as "kind from -> to" strings.
	Relationships []string `json:"relationships,omitempty"`
	// OutOfDate reports staleness against the recorded derivation
	// (op=outofdate).
	OutOfDate *bool `json:"out_of_date,omitempty"`
}

// ContributeRequest is POST /v1/spaces/{space}/contribute: MOVE an
// object version from the session's workspace into the space.
type ContributeRequest struct {
	// Session identifies the contributing wire session (its design
	// thread is registered with the space on first use).
	Session string `json:"session"`
	// Object is the logical name inside the space.
	Object string `json:"object"`
	// From is the source object, in the §5.2 input forms.
	From string `json:"from"`
}

// ContributeResponse reports the space-side version created.
type ContributeResponse struct {
	Ref RefJSON `json:"ref"`
	// Seq is the 1-based contribution sequence number of Object within
	// the space — the resume token for poll subscriptions.
	Seq int `json:"seq"`
}

// RetrieveRequest is POST /v1/spaces/{space}/retrieve: MOVE a version
// from the space into the session's workspace.
type RetrieveRequest struct {
	Session string `json:"session"`
	Object  string `json:"object"`
	// Version selects an explicit contribution (1-based); 0 means
	// newest.
	Version int `json:"version,omitempty"`
	// Dest is the workspace name to copy under.
	Dest string `json:"dest"`
}

// RetrieveResponse is the workspace-side copy.
type RetrieveResponse struct {
	Ref RefJSON `json:"ref"`
}

// SpaceObjectsResponse is GET /v1/spaces/{space}/objects.
type SpaceObjectsResponse struct {
	Objects map[string][]RefJSON `json:"objects"`
}

// NotifyEvent is one SDS change notification, delivered by the long-poll
// subscription surface.
type NotifyEvent struct {
	Space  string  `json:"space"`
	Object string  `json:"object"`
	Ref    RefJSON `json:"ref"`
	// Seq is the contribution sequence number (1-based, per object);
	// pass it back as after to resume without loss.
	Seq int `json:"seq"`
}

// PollResponse is GET /v1/spaces/{space}/poll: the contributions after
// the `after` sequence number, possibly empty on timeout.
type PollResponse struct {
	Events []NotifyEvent `json:"events"`
	// Next is the sequence number to poll after next time.
	Next int `json:"next"`
}
