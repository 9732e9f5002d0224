package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"papyrus/internal/server"
)

// fuzzRoutes are the request decoders FuzzWireRequest drives, indexed by
// the fuzzer's route byte. {id} is the one open session.
var fuzzRoutes = []struct{ method, path string }{
	{"POST", "/v1/sessions"},
	{"POST", "/v1/sessions/{id}/objects"},
	{"POST", "/v1/sessions/{id}/tasks"},
	{"POST", "/v1/sessions/{id}/rework"},
	{"POST", "/v1/sessions/{id}/replay"},
	{"POST", "/v1/spaces/sp/contribute"},
	{"POST", "/v1/spaces/sp/retrieve"},
	{"GET", "/v1/spaces/sp/poll"},
}

// FuzzWireRequest feeds arbitrary bodies and query strings to every
// request decoder through Server.ServeHTTP: a malformed request must be
// answered with a 2xx or 4xx status, never a panic or a 5xx.
func FuzzWireRequest(f *testing.F) {
	f.Add(uint8(0), `{"tenant":"acme","name":"bob"}`, "")
	f.Add(uint8(1), `{"name":"/f/spec","kind":"shifter","width":4}`, "")
	f.Add(uint8(2), `{"task":"Syn","inputs":{"A":"/f/spec"},"outputs":{"O":"/f/gates"}}`, "")
	f.Add(uint8(3), `{"record":1,"erase":true}`, "")
	f.Add(uint8(4), `{"record":-1}`, "")
	f.Add(uint8(5), `{"session":"s-1","object":"o","from":"/f/spec"}`, "")
	f.Add(uint8(6), `{"session":"s-1","object":"o","version":-3,"dest":"/f/o"}`, "")
	f.Add(uint8(7), "", "session=s-1&object=o&after=-1")
	f.Add(uint8(7), "", "session=s-1&object=o&after=0&timeout_ms=99999999999999999999")
	f.Add(uint8(7), "", "session=s-1&object=o&after=%zz;&&timeout_ms=")
	f.Add(uint8(2), `{"task":`, "")

	srv, err := server.New(server.Config{
		Shards: 1, Nodes: 1,
		ExtraTemplates: map[string]string{"Syn": synTemplate},
	})
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	do := func(method, path, body, query string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.URL.RawQuery = query
		// A poll that parks ends at the deadline instead of its timeout.
		ctx, cancel := context.WithTimeout(req.Context(), 5*time.Millisecond)
		defer cancel()
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req.WithContext(ctx))
		return w
	}
	var info server.SessionInfo
	if w := do("POST", "/v1/sessions", `{"tenant":"fuzz"}`, ""); w.Code != http.StatusOK {
		f.Fatalf("open session: %d %s", w.Code, w.Body)
	} else if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, route uint8, body, query string) {
		rt := fuzzRoutes[int(route)%len(fuzzRoutes)]
		w := do(rt.method, strings.Replace(rt.path, "{id}", info.ID, 1), body, query)
		if w.Code >= 500 {
			t.Fatalf("%s %s?%s with %q = %d %s", rt.method, rt.path, query, body, w.Code, w.Body)
		}
		// Close what the fuzzer opens, so sessions do not pile up.
		var opened server.SessionInfo
		if rt.path == "/v1/sessions" && w.Code == http.StatusOK &&
			json.Unmarshal(w.Body.Bytes(), &opened) == nil {
			do("DELETE", "/v1/sessions/"+opened.ID, "", "")
		}
	})
}
