package client_test

// Error-path coverage for the wire client: unreachable servers, throttled
// (429) retry behavior with injected backoff, and malformed-request 4xx
// mapping.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"papyrus/internal/client"
	"papyrus/internal/server"
)

func TestServerUnavailable(t *testing.T) {
	// A listener that was closed refuses connections immediately.
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close()
	cl := client.New(ts.URL)
	if _, err := cl.Health(); err == nil {
		t.Fatal("health against a dead server succeeded")
	} else if _, isAPI := err.(*client.APIError); isAPI {
		t.Fatalf("transport failure surfaced as APIError: %v", err)
	}
}

func TestMalformedRequestMapsTo4xx(t *testing.T) {
	srv, err := server.New(server.Config{Shards: 1, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()

	// A body the server's strict decoder rejects (unknown field).
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json",
		jsonBody(`{"tenant": "acme", "bogus_field": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field status = %d, want 400", resp.StatusCode)
	}
	var wireErr server.Error
	if err := json.NewDecoder(resp.Body).Decode(&wireErr); err != nil {
		t.Fatalf("error body did not decode: %v", err)
	}
	if wireErr.Code != server.CodeBadRequest {
		t.Fatalf("code = %q, want %q", wireErr.Code, server.CodeBadRequest)
	}

	// Invalid JSON entirely.
	resp2, err := http.Post(ts.URL+"/v1/sessions", "application/json", jsonBody(`{not json`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid JSON status = %d, want 400", resp2.StatusCode)
	}
}

// TestThrottleRetry verifies Do's 429 loop: it retries with the server's
// hint until the budget is spent, and succeeds when the server relents.
func TestThrottleRetry(t *testing.T) {
	var mu sync.Mutex
	requests := 0
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		requests++
		n := requests
		mu.Unlock()
		if n <= 2 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(server.Error{ //nolint:errcheck
				Code: server.CodeThrottled, Message: "slow down", RetryAfterMS: 5,
			})
			return
		}
		json.NewEncoder(w).Encode(server.SessionInfo{ID: "s-1", Tenant: "acme"}) //nolint:errcheck
	})
	ts := httptest.NewServer(handler)
	defer ts.Close()

	cl := client.New(ts.URL)
	var hints []time.Duration
	cl.Backoff = func(hint time.Duration) { hints = append(hints, hint) }
	info, err := cl.OpenSession("acme", "")
	if err != nil {
		t.Fatalf("open after retries: %v", err)
	}
	if info.ID != "s-1" {
		t.Fatalf("info = %+v", info)
	}
	if len(hints) != 2 || hints[0] != 5*time.Millisecond {
		t.Fatalf("backoff hints = %v, want two 5ms hints", hints)
	}

	// With the budget disabled the first 429 surfaces directly.
	mu.Lock()
	requests = 0
	mu.Unlock()
	cl.RetryBudget = 0
	_, err = cl.OpenSession("acme", "")
	apiErr, ok := err.(*client.APIError)
	if !ok || !apiErr.Throttled() {
		t.Fatalf("budget-0 error = %v, want throttled APIError", err)
	}
}

// TestThrottleBudgetExhausted: a server that never relents exhausts the
// retry budget and surfaces the final 429.
func TestThrottleBudgetExhausted(t *testing.T) {
	var mu sync.Mutex
	requests := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		requests++
		mu.Unlock()
		w.Header().Set("Retry-After", "1") // header-only hint: no JSON body field
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(server.Error{Code: server.CodeOverloaded, Message: "full"}) //nolint:errcheck
	}))
	defer ts.Close()

	cl := client.New(ts.URL)
	cl.RetryBudget = 3
	cl.Backoff = func(time.Duration) {}
	_, err := cl.OpenSession("acme", "")
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want 429 APIError", err)
	}
	if apiErr.RetryAfter() != time.Second {
		t.Fatalf("header fallback hint = %v, want 1s", apiErr.RetryAfter())
	}
	mu.Lock()
	n := requests
	mu.Unlock()
	if n != 4 { // 1 initial + 3 retries
		t.Fatalf("requests = %d, want 4", n)
	}
}

func jsonBody(s string) io.Reader { return strings.NewReader(s) }
