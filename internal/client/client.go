// Package client is the Go client of the papyrusd wire API
// (internal/server, docs/SERVER.md): typed calls for session lifecycle,
// object import, admission-controlled TDL task submission, history and
// ADG queries, memo/stats introspection, and SDS cooperation, including
// the resumable long-poll notification subscription (Poll). The
// E13 load test (internal/oracle TestServeLoad) drives hundreds of
// designer sessions through it; it is also the embedding surface for
// agentic designer flows that react to notifications over the wire.
//
// Throttling: a 429 (admission-control throttle or load shed) carries a
// Retry-After hint; mutating calls go through Do, which retries up to
// RetryBudget times, honoring the hint. Every other error surfaces as
// *APIError (wire errors) or the transport error (server unreachable).
package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"papyrus/internal/history"
	"papyrus/internal/server"
)

// APIError is a non-2xx wire response.
type APIError struct {
	Status int
	Err    server.Error
}

func (e *APIError) Error() string {
	return fmt.Sprintf("papyrusd: %d %s: %s", e.Status, e.Err.Code, e.Err.Message)
}

// Throttled reports whether the error is an admission-control rejection
// (token-bucket throttle or load shed) worth retrying after backoff.
func (e *APIError) Throttled() bool { return e.Status == http.StatusTooManyRequests }

// RetryAfter returns the server's backoff hint, preferring the JSON
// retry_after_ms field over the coarse Retry-After header.
func (e *APIError) RetryAfter() time.Duration {
	if e.Err.RetryAfterMS > 0 {
		return time.Duration(e.Err.RetryAfterMS) * time.Millisecond
	}
	return time.Second
}

// Client talks to one papyrusd server.
type Client struct {
	// Base is the server URL prefix, e.g. "http://127.0.0.1:8787".
	Base string
	// HTTP is the transport (http.DefaultClient when nil).
	HTTP *http.Client
	// RetryBudget is how many times a throttled (429) mutating call is
	// retried, sleeping the server's Retry-After hint between attempts.
	// 0 disables retries.
	RetryBudget int
	// Backoff optionally overrides how long to sleep for one retry; nil
	// sleeps the server hint. Tests inject this to avoid real sleeps.
	Backoff func(hint time.Duration)
}

// New returns a client with a 5-retry budget.
func New(base string) *Client {
	return &Client{Base: base, RetryBudget: 5}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do performs one request; in/out may be nil.
func (c *Client) do(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.Base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{Status: resp.StatusCode}
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if err := json.Unmarshal(data, &apiErr.Err); err != nil {
			apiErr.Err = server.Error{Code: server.CodeInternal, Message: string(data)}
		}
		if apiErr.Err.RetryAfterMS == 0 {
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
				apiErr.Err.RetryAfterMS = int64(secs) * 1000
			}
		}
		return apiErr
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// Do performs a request with 429-retry: throttled responses are retried
// up to RetryBudget times, sleeping the server's Retry-After hint.
func (c *Client) Do(method, path string, in, out any) error {
	for attempt := 0; ; attempt++ {
		err := c.do(method, path, in, out)
		apiErr, isAPI := err.(*APIError)
		if err == nil || !isAPI || !apiErr.Throttled() || attempt >= c.RetryBudget {
			return err
		}
		if c.Backoff != nil {
			c.Backoff(apiErr.RetryAfter())
		} else {
			time.Sleep(apiErr.RetryAfter())
		}
	}
}

// Health checks liveness.
func (c *Client) Health() (server.HealthResponse, error) {
	var out server.HealthResponse
	err := c.do(http.MethodGet, "/v1/healthz", nil, &out)
	return out, err
}

// Stats fetches the server metrics snapshot.
func (c *Client) Stats() (server.StatsResponse, error) {
	var out server.StatsResponse
	err := c.do(http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// MemoStats fetches per-shard step-result-cache statistics.
func (c *Client) MemoStats() (server.MemoResponse, error) {
	var out server.MemoResponse
	err := c.do(http.MethodGet, "/v1/memo", nil, &out)
	return out, err
}

// OpenSession opens a designer session for a tenant.
func (c *Client) OpenSession(tenant, name string) (server.SessionInfo, error) {
	var out server.SessionInfo
	err := c.Do(http.MethodPost, "/v1/sessions",
		server.OpenSessionRequest{Tenant: tenant, Name: name}, &out)
	return out, err
}

// CloseSession releases a session.
func (c *Client) CloseSession(id string) error {
	return c.do(http.MethodDelete, "/v1/sessions/"+url.PathEscape(id), nil, nil)
}

// SessionStatus reports a session's virtual time and record count.
func (c *Client) SessionStatus(id string) (server.SessionStatus, error) {
	var out server.SessionStatus
	err := c.do(http.MethodGet, "/v1/sessions/"+url.PathEscape(id), nil, &out)
	return out, err
}

// Sessions lists open sessions.
func (c *Client) Sessions() (server.SessionsResponse, error) {
	var out server.SessionsResponse
	err := c.do(http.MethodGet, "/v1/sessions", nil, &out)
	return out, err
}

// Import checks an object into the session's shard store.
func (c *Client) Import(sessionID string, req server.ImportRequest) (server.ImportResponse, error) {
	var out server.ImportResponse
	err := c.Do(http.MethodPost, "/v1/sessions/"+url.PathEscape(sessionID)+"/objects", req, &out)
	return out, err
}

// SubmitTask submits one TDL task invocation through admission control
// and waits for the committed history record.
func (c *Client) SubmitTask(sessionID string, req server.TaskRequest) (*history.Record, error) {
	var out server.TaskResponse
	err := c.Do(http.MethodPost, "/v1/sessions/"+url.PathEscape(sessionID)+"/tasks", req, &out)
	return out.Record, err
}

// Rework moves the session thread's cursor to a past design point
// (record 0 = the initial point); Erase abandons and hides the work
// below it.
func (c *Client) Rework(sessionID string, req server.ReworkRequest) (server.ReworkResponse, error) {
	var out server.ReworkResponse
	err := c.Do(http.MethodPost, "/v1/sessions/"+url.PathEscape(sessionID)+"/rework", req, &out)
	return out, err
}

// Replay re-executes a recorded task at the current cursor through
// admission control and returns the new record.
func (c *Client) Replay(sessionID string, recordID int) (*history.Record, error) {
	var out server.TaskResponse
	err := c.Do(http.MethodPost, "/v1/sessions/"+url.PathEscape(sessionID)+"/replay",
		server.ReplayRequest{Record: recordID}, &out)
	return out.Record, err
}

// History lists the session thread's records, completion-ordered.
func (c *Client) History(sessionID string) ([]*history.Record, error) {
	var out server.HistoryResponse
	err := c.do(http.MethodGet, "/v1/sessions/"+url.PathEscape(sessionID)+"/history", nil, &out)
	return out.Records, err
}

// Record fetches one record, steps included (the step-status surface).
func (c *Client) Record(sessionID string, recordID int) (*history.Record, error) {
	var out server.TaskResponse
	err := c.do(http.MethodGet, fmt.Sprintf("/v1/sessions/%s/records/%d",
		url.PathEscape(sessionID), recordID), nil, &out)
	return out.Record, err
}

// Query runs a history/ADG query (op=type|lineage|equivalence|
// relationships|outofdate) against an object.
func (c *Client) Query(sessionID, op, object string) (server.QueryResponse, error) {
	var out server.QueryResponse
	err := c.do(http.MethodGet, "/v1/sessions/"+url.PathEscape(sessionID)+"/query?"+
		url.Values{"op": {op}, "object": {object}}.Encode(), nil, &out)
	return out, err
}

// Contribute MOVEs an object version into a space.
func (c *Client) Contribute(space string, req server.ContributeRequest) (server.ContributeResponse, error) {
	var out server.ContributeResponse
	err := c.Do(http.MethodPost, "/v1/spaces/"+url.PathEscape(space)+"/contribute", req, &out)
	return out, err
}

// Retrieve MOVEs a space version into the session's workspace.
func (c *Client) Retrieve(space string, req server.RetrieveRequest) (server.RetrieveResponse, error) {
	var out server.RetrieveResponse
	err := c.Do(http.MethodPost, "/v1/spaces/"+url.PathEscape(space)+"/retrieve", req, &out)
	return out, err
}

// SpaceObjects lists a space's objects and contributed versions.
func (c *Client) SpaceObjects(space, sessionID string) (server.SpaceObjectsResponse, error) {
	var out server.SpaceObjectsResponse
	err := c.do(http.MethodGet, "/v1/spaces/"+url.PathEscape(space)+"/objects?"+
		url.Values{"session": {sessionID}}.Encode(), nil, &out)
	return out, err
}

// Poll long-polls for contributions after a sequence number.
func (c *Client) Poll(space, sessionID, object string, after int, timeout time.Duration) (server.PollResponse, error) {
	var out server.PollResponse
	err := c.do(http.MethodGet, "/v1/spaces/"+url.PathEscape(space)+"/poll?"+
		url.Values{
			"session":    {sessionID},
			"object":     {object},
			"after":      {strconv.Itoa(after)},
			"timeout_ms": {strconv.FormatInt(timeout.Milliseconds(), 10)},
		}.Encode(), nil, &out)
	return out, err
}
