package daemon_test

// HTTP tests of one fabric as coflowd serves it by default: a 1-shard
// cluster, whose control plane is the only HTTP layer in front of a
// Daemon. They pin how fabric outcomes (validation, terminal coflows,
// failed ports) surface on the wire.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/daemon"
	"coflow/internal/online"
	"coflow/internal/shard"
)

// apiError is the structured error body every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// newServer starts a single-fabric cluster with the given fabric
// config and HTTP body cap, serving its handler on a loopback server.
func newServer(t *testing.T, fc daemon.Config, maxBody int64) (*shard.Cluster, *httptest.Server) {
	t.Helper()
	c, err := shard.New(shard.Config{Shards: 1, Fabric: fc, MaxBody: maxBody, AggEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, srv
}

// doJSON sends body with method to url, decodes the reply into out
// when out is non-nil, and returns the status code.
func doJSON(t *testing.T, method, url, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

func registerOne(t *testing.T, c *shard.Cluster, src, dst int, size int64) int {
	t.Helper()
	id, _, _, err := c.Register(&coflowmodel.Registration{
		Flows: []coflowmodel.Flow{{Src: src, Dst: dst, Size: size}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestHTTPStatusCodes pins one handler test per hardened status code:
// structured 400 for malformed JSON vs validation failures, 405 (not
// 404) with an Allow header for wrong methods, 413 for oversized
// bodies — all with machine-readable kinds.
func TestHTTPStatusCodes(t *testing.T) {
	_, srv := newServer(t, daemon.Config{Ports: 2, Policy: online.SEBF}, 256)

	t.Run("400 malformed JSON", func(t *testing.T) {
		var e apiError
		code := doJSON(t, "POST", srv.URL+"/v1/coflows", `{"flows": [`, &e)
		if code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", code)
		}
		if e.Kind != "malformed_json" || e.Error == "" {
			t.Fatalf("body %+v, want kind malformed_json", e)
		}
	})

	t.Run("400 validation", func(t *testing.T) {
		var e apiError
		code := doJSON(t, "POST", srv.URL+"/v1/coflows",
			`{"flows": [{"src": 9, "dst": 0, "size": 1}]}`, &e)
		if code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", code)
		}
		if e.Kind != "validation" {
			t.Fatalf("body %+v, want kind validation", e)
		}
	})

	t.Run("413 oversized body", func(t *testing.T) {
		big := `{"flows": [` + strings.Repeat(`{"src":0,"dst":0,"size":1},`, 100) +
			`{"src":0,"dst":0,"size":1}]}`
		var e apiError
		code := doJSON(t, "POST", srv.URL+"/v1/coflows", big, &e)
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", code)
		}
		if e.Kind != "too_large" {
			t.Fatalf("body %+v, want kind too_large", e)
		}
	})

	t.Run("405 wrong method", func(t *testing.T) {
		for path, method := range map[string]string{
			"/v1/coflows":   "PUT",
			"/v1/coflows/1": "POST",
			"/v1/schedule":  "DELETE",
			"/v1/metrics":   "POST",
			"/healthz":      "DELETE",
		} {
			var e apiError
			req, err := http.NewRequest(method, srv.URL+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			allow := resp.Header.Get("Allow")
			decErr := json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, path, resp.StatusCode)
				continue
			}
			if decErr != nil || e.Kind != "method_not_allowed" {
				t.Errorf("%s %s: body %+v (%v), want structured method_not_allowed", method, path, e, decErr)
			}
			if allow == "" || !strings.Contains(allow, "GET") {
				t.Errorf("%s %s: Allow header %q", method, path, allow)
			}
		}
	})

	t.Run("404 unknown path still 404", func(t *testing.T) {
		if code := doJSON(t, "GET", srv.URL+"/v1/nope", "", nil); code != http.StatusNotFound {
			t.Fatalf("status %d, want 404", code)
		}
	})
}

// TestPrometheusMethodNotAllowed: wrong methods on /metrics get the
// structured 405 with an Allow header, like every other route.
func TestPrometheusMethodNotAllowed(t *testing.T) {
	_, srv := newServer(t, daemon.Config{Ports: 2, Policy: online.SEBF}, 0)
	resp, err := http.Post(srv.URL+"/metrics", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "GET" {
		t.Errorf("Allow = %q, want GET", allow)
	}
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Kind != "method_not_allowed" {
		t.Errorf("error body kind = %q (err %v), want method_not_allowed", e.Kind, err)
	}
}

// TestHTTPCancelTerminalCoflow: cancelling a coflow that already
// reached a terminal state (cancelled or completed) answers 409 with
// the dedicated kind "terminal_coflow", not the generic "conflict".
func TestHTTPCancelTerminalCoflow(t *testing.T) {
	c, srv := newServer(t, daemon.Config{Ports: 2, Policy: online.SEBF}, 0)
	cancelled := registerOne(t, c, 0, 1, 5)
	completed := registerOne(t, c, 1, 0, 1)

	idPath := func(id int) string { return srv.URL + "/v1/coflows/" + strconv.Itoa(id) }
	if code := doJSON(t, "DELETE", idPath(cancelled), "", nil); code != http.StatusOK {
		t.Fatalf("first DELETE = %d, want 200", code)
	}
	// Drain the one-unit coflow so it terminates by completion.
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	if st := c.Fabric(0).Snapshot().Coflows.Get(completed); st == nil || st.State != "completed" {
		t.Fatalf("coflow %d not completed after tick: %+v", completed, st)
	}

	var e apiError
	for _, id := range []int{cancelled, completed} {
		e.Kind = ""
		if code := doJSON(t, "DELETE", idPath(id), "", &e); code != http.StatusConflict || e.Kind != "terminal_coflow" {
			t.Fatalf("DELETE terminal %d = %d kind=%q, want 409 terminal_coflow", id, code, e.Kind)
		}
	}
	// Unknown IDs stay 404 not_found — terminal_coflow must not leak there.
	if code := doJSON(t, "DELETE", idPath(99999), "", &e); code != http.StatusNotFound || e.Kind != "not_found" {
		t.Fatalf("DELETE unknown = %d kind=%q, want 404 not_found", code, e.Kind)
	}
}

// TestHTTPBulkCancel exercises DELETE /v1/coflows with a mixed array:
// live, unknown, terminal, and non-positive IDs resolve independently
// into index-addressed results matching the bulk-register format.
func TestHTTPBulkCancel(t *testing.T) {
	c, srv := newServer(t, daemon.Config{Ports: 2, Policy: online.SEBF}, 0)
	live := registerOne(t, c, 0, 1, 5)
	terminal := registerOne(t, c, 1, 0, 3)
	if err := c.Cancel(terminal); err != nil {
		t.Fatal(err)
	}

	body := "[" + strconv.Itoa(live) + ", 99999, " + strconv.Itoa(terminal) + ", -7]"
	var resp daemon.BulkResponse
	if code := doJSON(t, "DELETE", srv.URL+"/v1/coflows", body, &resp); code != http.StatusOK {
		t.Fatalf("bulk DELETE = %d, want 200", code)
	}
	if resp.OK != 1 || resp.Failed != 3 || len(resp.Results) != 4 {
		t.Fatalf("bulk response = %+v, want 1 ok / 3 failed / 4 results", resp)
	}
	for i, r := range resp.Results {
		if r.Index != i {
			t.Fatalf("result %d carries index %d", i, r.Index)
		}
	}
	if r := resp.Results[0]; r.ID != live || r.Kind != "" || r.Error != "" {
		t.Fatalf("live item = %+v, want clean cancel", r)
	}
	if r := resp.Results[1]; r.Kind != "not_found" || r.Error == "" {
		t.Fatalf("unknown item = %+v, want not_found", r)
	}
	if r := resp.Results[2]; r.Kind != "terminal_coflow" || r.Error == "" {
		t.Fatalf("terminal item = %+v, want terminal_coflow", r)
	}
	if r := resp.Results[3]; r.ID != -7 || r.Kind != "validation" {
		t.Fatalf("non-positive item = %+v, want validation", r)
	}
	if st := c.Fabric(0).Snapshot().Coflows.Get(live); st == nil || st.State != "cancelled" {
		t.Fatalf("live coflow after bulk cancel: %+v", st)
	}
}

// TestHTTPBulkCancelBodyErrors: body-level breakage fails the whole
// request with the structured kinds shared with bulk registration.
func TestHTTPBulkCancelBodyErrors(t *testing.T) {
	_, srv := newServer(t, daemon.Config{Ports: 2, Policy: online.SEBF}, 0)
	var e apiError
	for body, want := range map[string]string{
		`{"ids": [1]}`: "malformed_json", // object, not array
		`[1, 2`:        "malformed_json",
		`[]`:           "validation",
	} {
		e.Kind = ""
		if code := doJSON(t, "DELETE", srv.URL+"/v1/coflows", body, &e); code != http.StatusBadRequest || e.Kind != want {
			t.Fatalf("body %q = %d kind=%q, want 400 %s", body, code, e.Kind, want)
		}
	}
}

// TestHTTPPortFailRecover drives the failure injection routes: fail
// parks the port (visible in metrics), recover clears it, and bad
// ports get structured validation errors.
func TestHTTPPortFailRecover(t *testing.T) {
	c, srv := newServer(t, daemon.Config{Ports: 4, Policy: online.SEBF}, 0)
	d := c.Fabric(0)

	var ack struct {
		Port   int  `json:"port"`
		Failed bool `json:"failed"`
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/ports/2/fail", "", &ack); code != http.StatusOK || ack.Port != 2 || !ack.Failed {
		t.Fatalf("fail port 2 = %d %+v", code, ack)
	}
	m := d.Snapshot().Metrics
	if m.PortsFailed != 1 || len(m.FailedPorts) != 1 || m.FailedPorts[0] != 2 {
		t.Fatalf("metrics after fail = %+v", m)
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/ports/2/recover", "", &ack); code != http.StatusOK || ack.Failed {
		t.Fatalf("recover port 2 = %d %+v", code, ack)
	}
	if m := d.Snapshot().Metrics; m.PortsFailed != 0 {
		t.Fatalf("metrics after recover = %+v", m)
	}

	var e apiError
	if code := doJSON(t, "POST", srv.URL+"/v1/ports/99/fail", "", &e); code != http.StatusBadRequest || e.Kind != "validation" {
		t.Fatalf("fail port 99 = %d kind=%q, want 400 validation", code, e.Kind)
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/ports/x/fail", "", &e); code != http.StatusBadRequest || e.Kind != "validation" {
		t.Fatalf("fail port x = %d kind=%q, want 400 validation", code, e.Kind)
	}
}
