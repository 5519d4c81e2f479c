package shard

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"coflow/internal/daemon"
	"coflow/internal/obs"
)

func newTestServer(t *testing.T, cfg Config) (*Cluster, *httptest.Server) {
	t.Helper()
	c := newTestCluster(t, cfg)
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, srv
}

func doJSON(t *testing.T, method, url, body string, out any) (int, string) {
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
	return resp.StatusCode, string(raw)
}

// TestHTTPSingleRegisterLifecycle: the single-object contract survives
// sharding — 201 with the owning fabric, readable and cancellable by
// ID from any frontend, structured 404/409 afterwards.
func TestHTTPSingleRegisterLifecycle(t *testing.T) {
	_, srv := newTestServer(t, Config{Shards: 4})
	var created struct {
		ID     int `json:"id"`
		Fabric int `json:"fabric"`
	}
	code, raw := doJSON(t, "POST", srv.URL+"/v1/coflows",
		`{"flows": [{"src": 0, "dst": 1, "size": 3}]}`, &created)
	if code != http.StatusCreated || created.ID == 0 {
		t.Fatalf("POST = %d %s", code, raw)
	}

	var got struct {
		Fabric int    `json:"fabric"`
		ID     int    `json:"id"`
		State  string `json:"state"`
	}
	idPath := srv.URL + "/v1/coflows/" + strconv.Itoa(created.ID)
	if code, raw := doJSON(t, "GET", idPath, "", &got); code != http.StatusOK ||
		got.ID != created.ID || got.Fabric != created.Fabric || got.State != "active" {
		t.Fatalf("GET = %d %s", code, raw)
	}

	if code, raw := doJSON(t, "DELETE", idPath, "", nil); code != http.StatusOK {
		t.Fatalf("DELETE = %d %s", code, raw)
	}
	var errBody struct {
		Kind string `json:"kind"`
	}
	if code, _ := doJSON(t, "DELETE", idPath, "", &errBody); code != http.StatusConflict || errBody.Kind != "terminal_coflow" {
		t.Fatalf("second DELETE = %d kind=%q, want 409 terminal_coflow", code, errBody.Kind)
	}
	if code, _ := doJSON(t, "GET", srv.URL+"/v1/coflows/99999", "", &errBody); code != http.StatusNotFound || errBody.Kind != "not_found" {
		t.Fatalf("GET unknown = %d kind=%q, want 404 not_found", code, errBody.Kind)
	}
}

// TestHTTPBulkRegister: an array body yields index-aligned per-item
// results where bad items (validation, unknown fabric) fail alone, and
// the bulk plane meters the request.
func TestHTTPBulkRegister(t *testing.T) {
	c, srv := newTestServer(t, Config{Shards: 4})
	body := `[
		{"flows": [{"src": 0, "dst": 0, "size": 1}]},
		{"flows": [{"src": 9, "dst": 0, "size": 1}]},
		{"flows": [{"src": 0, "dst": 1, "size": 2}], "fabric": 9},
		{"flows": [{"src": 1, "dst": 1, "size": 2}], "fabric": 2}
	]`
	var resp daemon.BulkResponse
	code, raw := doJSON(t, "POST", srv.URL+"/v1/coflows", body, &resp)
	if code != http.StatusOK {
		t.Fatalf("bulk POST = %d %s", code, raw)
	}
	if resp.OK != 2 || resp.Failed != 2 || len(resp.Results) != 4 {
		t.Fatalf("bulk response = %+v", resp)
	}
	if r := resp.Results[0]; r.ID == 0 || r.Kind != "" {
		t.Fatalf("item 0 = %+v, want accepted", r)
	}
	if r := resp.Results[1]; r.Kind != "validation" {
		t.Fatalf("item 1 kind = %q, want validation", r.Kind)
	}
	if r := resp.Results[2]; r.Kind != "unknown_fabric" {
		t.Fatalf("item 2 kind = %q, want unknown_fabric", r.Kind)
	}
	if r := resp.Results[3]; r.ID == 0 || r.Fabric != 2 {
		t.Fatalf("item 3 = %+v, want accepted on fabric 2", r)
	}

	m := c.Metrics()
	if m.BulkRequests != 1 || m.BulkItems != 4 {
		t.Fatalf("bulk counters = %d/%d, want 1/4", m.BulkRequests, m.BulkItems)
	}
	if m.Registered != 2 {
		t.Fatalf("registered = %d, want 2", m.Registered)
	}
}

// TestHTTPBulkMalformed: body-level breakage (not an object or array,
// or a broken array) fails the whole request with malformed_json.
func TestHTTPBulkMalformed(t *testing.T) {
	_, srv := newTestServer(t, Config{Shards: 2})
	var errBody struct {
		Kind string `json:"kind"`
	}
	for _, body := range []string{`"nope"`, `[{"flows": []}`, `{broken`} {
		if code, _ := doJSON(t, "POST", srv.URL+"/v1/coflows", body, &errBody); code != http.StatusBadRequest || errBody.Kind != "malformed_json" {
			t.Fatalf("body %q = %d kind=%q, want 400 malformed_json", body, code, errBody.Kind)
		}
	}
}

// TestHTTPUnknownFabric: a single-object registration pinned to a
// fabric the cluster lacks gets the structured unknown_fabric 400.
func TestHTTPUnknownFabric(t *testing.T) {
	_, srv := newTestServer(t, Config{Shards: 2})
	var errBody struct {
		Kind  string `json:"kind"`
		Error string `json:"error"`
	}
	code, _ := doJSON(t, "POST", srv.URL+"/v1/coflows",
		`{"flows": [{"src": 0, "dst": 0, "size": 1}], "fabric": 42}`, &errBody)
	if code != http.StatusBadRequest || errBody.Kind != "unknown_fabric" {
		t.Fatalf("pinned-to-42 = %d kind=%q, want 400 unknown_fabric", code, errBody.Kind)
	}
	if !strings.Contains(errBody.Error, "0..1") {
		t.Fatalf("error %q does not name the valid fabric range", errBody.Error)
	}
}

// TestHTTPListAndSchedule: cluster-wide list carries the owning
// fabric; /v1/schedule covers every fabric and ?fabric=K filters.
func TestHTTPListAndSchedule(t *testing.T) {
	c, srv := newTestServer(t, Config{Shards: 3})
	for i := 0; i < 9; i++ {
		if _, _, _, err := c.Register(oneFlow()); err != nil {
			t.Fatal(err)
		}
	}
	var list struct {
		Fabrics int                        `json:"fabrics"`
		Slots   []int64                    `json:"slots"`
		Coflows map[string]json.RawMessage `json:"coflows"`
	}
	if code, raw := doJSON(t, "GET", srv.URL+"/v1/coflows", "", &list); code != http.StatusOK ||
		list.Fabrics != 3 || len(list.Slots) != 3 || len(list.Coflows) != 9 {
		t.Fatalf("list = %d %s", code, raw)
	}

	var sched struct {
		Fabrics   int `json:"fabrics"`
		Schedules []struct {
			Fabric      int               `json:"fabric"`
			Assignments []json.RawMessage `json:"assignments"`
		} `json:"schedules"`
	}
	if code, raw := doJSON(t, "GET", srv.URL+"/v1/schedule", "", &sched); code != http.StatusOK || len(sched.Schedules) != 3 {
		t.Fatalf("schedule = %d %s", code, raw)
	}
	if sched.Schedules[0].Assignments == nil {
		t.Fatal("assignments rendered as null, want []")
	}
	if code, raw := doJSON(t, "GET", srv.URL+"/v1/schedule?fabric=1", "", &sched); code != http.StatusOK ||
		len(sched.Schedules) != 1 || sched.Schedules[0].Fabric != 1 {
		t.Fatalf("filtered schedule = %d %s", code, raw)
	}
	var errBody struct {
		Kind string `json:"kind"`
	}
	if code, _ := doJSON(t, "GET", srv.URL+"/v1/schedule?fabric=7", "", &errBody); code != http.StatusBadRequest || errBody.Kind != "unknown_fabric" {
		t.Fatalf("fabric=7 = %d kind=%q, want 400 unknown_fabric", code, errBody.Kind)
	}
}

// TestHTTPPrometheus: one exposition carries the cluster registry plus
// every fabric's registry under fabric="i", with a single HELP/TYPE
// block per metric name (validity requirement).
func TestHTTPPrometheus(t *testing.T) {
	c, srv := newTestServer(t, Config{Shards: 2})
	for i := 0; i < 4; i++ {
		if _, _, _, err := c.Register(oneFlow()); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Errorf("content-type %q, want %q", ct, obs.PrometheusContentType)
	}
	body := string(raw)
	for _, want := range []string{
		"coflow_cluster_fabrics 2",
		"coflow_cluster_routed_total 4",
		"coflow_cluster_coflows_registered 4", // rollup gauge, refreshed at scrape
		`coflowd_ticks_total{fabric="0"} 1`,
		`coflowd_ticks_total{fabric="1"} 1`,
		`coflowd_coflows_registered_total{fabric="0"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	for _, name := range []string{"coflowd_ticks_total", "coflowd_coflows_registered_total", "coflowd_tick_seconds"} {
		if got := strings.Count(body, "# TYPE "+name+" "); got != 1 {
			t.Errorf("TYPE block for %s appears %d times, want 1", name, got)
		}
	}
}

// TestHTTPMetricsAndHealth: /v1/metrics serves the rollup, /healthz
// reports per-fabric slots and flips to 503 after Close.
func TestHTTPMetricsAndHealth(t *testing.T) {
	c, srv := newTestServer(t, Config{Shards: 2})
	if _, _, _, err := c.Register(oneFlow()); err != nil {
		t.Fatal(err)
	}
	var m ClusterMetrics
	if code, raw := doJSON(t, "GET", srv.URL+"/v1/metrics", "", &m); code != http.StatusOK ||
		m.Fabrics != 2 || m.Registered != 1 || len(m.PerShard) != 2 {
		t.Fatalf("metrics = %d %s", code, raw)
	}
	var h struct {
		Status string  `json:"status"`
		Slots  []int64 `json:"slots"`
	}
	if code, _ := doJSON(t, "GET", srv.URL+"/healthz", "", &h); code != http.StatusOK || h.Status != "ok" || len(h.Slots) != 2 {
		t.Fatalf("healthz = %d %+v", code, h)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if code, _ := doJSON(t, "GET", srv.URL+"/healthz", "", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after close = %d, want 503", code)
	}
}

// TestHTTPMethodNotAllowed: a wrong method on any known path gets the
// structured 405 (not the mux's plain-text default) with the exact
// Allow header of that path.
func TestHTTPMethodNotAllowed(t *testing.T) {
	_, srv := newTestServer(t, Config{Shards: 2})
	for _, tc := range []struct{ method, path, allow string }{
		{"PUT", "/v1/coflows", "DELETE, GET, POST"},
		{"POST", "/v1/coflows/1", "DELETE, GET"},
		{"GET", "/v1/ports/1/fail", "POST"},
		{"DELETE", "/v1/ports/1/recover", "POST"},
		{"DELETE", "/v1/schedule", "GET"},
		{"POST", "/v1/metrics", "GET"},
		{"POST", "/metrics", "GET"},
		{"DELETE", "/healthz", "GET"},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Kind string }
		decErr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
			continue
		}
		if allow := resp.Header.Get("Allow"); allow != tc.allow {
			t.Errorf("%s %s: Allow = %q, want %q", tc.method, tc.path, allow, tc.allow)
		}
		if decErr != nil || e.Kind != "method_not_allowed" {
			t.Errorf("%s %s: body kind %q (%v), want structured method_not_allowed", tc.method, tc.path, e.Kind, decErr)
		}
	}
}

// TestHTTPBulkCancel: the cluster-wide DELETE /v1/coflows resolves a
// mixed array of IDs independently, reports the owning fabric for
// clean cancels, and meters the bulk plane — same index-addressed
// format as bulk registration.
func TestHTTPBulkCancel(t *testing.T) {
	c, srv := newTestServer(t, Config{Shards: 4})
	live, _, liveFabric, err := c.Register(oneFlow())
	if err != nil {
		t.Fatal(err)
	}
	terminal, _, _, err := c.Register(oneFlow())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(terminal); err != nil {
		t.Fatal(err)
	}

	body := "[" + strconv.Itoa(live) + ", 99999, " + strconv.Itoa(terminal) + ", 0]"
	var resp daemon.BulkResponse
	if code, raw := doJSON(t, "DELETE", srv.URL+"/v1/coflows", body, &resp); code != http.StatusOK {
		t.Fatalf("bulk DELETE = %d %s", code, raw)
	}
	if resp.OK != 1 || resp.Failed != 3 || len(resp.Results) != 4 {
		t.Fatalf("bulk response = %+v, want 1 ok / 3 failed / 4 results", resp)
	}
	if r := resp.Results[0]; r.Index != 0 || r.ID != live || r.Fabric != liveFabric || r.Kind != "" {
		t.Fatalf("live item = %+v, want clean cancel on fabric %d", r, liveFabric)
	}
	if r := resp.Results[1]; r.Kind != "not_found" {
		t.Fatalf("unknown item = %+v, want not_found", r)
	}
	if r := resp.Results[2]; r.Kind != "terminal_coflow" {
		t.Fatalf("terminal item = %+v, want terminal_coflow", r)
	}
	if r := resp.Results[3]; r.Kind != "validation" {
		t.Fatalf("non-positive item = %+v, want validation", r)
	}
	if _, cs, ok := c.Owner(live); !ok || cs.State != "cancelled" {
		t.Fatalf("live coflow after bulk cancel: %+v", cs)
	}

	m := c.Metrics()
	if m.BulkRequests != 1 || m.BulkItems != 4 {
		t.Fatalf("bulk counters = %d/%d, want 1/4", m.BulkRequests, m.BulkItems)
	}
}

// TestHTTPPortOps: the port failure routes hit every fabric by
// default, one with ?fabric=K, and classify bad fabrics and ports
// with the structured kinds.
func TestHTTPPortOps(t *testing.T) {
	c, srv := newTestServer(t, Config{Shards: 3})
	var ack struct {
		Port   int  `json:"port"`
		Fabric int  `json:"fabric"`
		Failed bool `json:"failed"`
	}
	if code, raw := doJSON(t, "POST", srv.URL+"/v1/ports/1/fail", "", &ack); code != http.StatusOK ||
		ack.Port != 1 || ack.Fabric != -1 || !ack.Failed {
		t.Fatalf("cluster-wide fail = %d %s", code, raw)
	}
	for i, d := range c.fabrics {
		if got := d.Snapshot().Metrics.PortsFailed; got != 1 {
			t.Fatalf("fabric %d ports_failed = %d, want 1", i, got)
		}
	}
	if code, raw := doJSON(t, "POST", srv.URL+"/v1/ports/1/recover?fabric=2", "", &ack); code != http.StatusOK ||
		ack.Fabric != 2 || ack.Failed {
		t.Fatalf("fabric-2 recover = %d %s", code, raw)
	}
	if got := c.fabrics[2].Snapshot().Metrics.PortsFailed; got != 0 {
		t.Fatalf("fabric 2 ports_failed = %d after recover, want 0", got)
	}
	if got := c.fabrics[0].Snapshot().Metrics.PortsFailed; got != 1 {
		t.Fatalf("fabric 0 ports_failed = %d, want still 1", got)
	}
	if code, raw := doJSON(t, "POST", srv.URL+"/v1/ports/1/recover", "", &ack); code != http.StatusOK ||
		ack.Port != 1 || ack.Fabric != -1 || ack.Failed {
		t.Fatalf("cluster-wide recover = %d %s", code, raw)
	}
	for i, d := range c.fabrics {
		if got := d.Snapshot().Metrics.PortsFailed; got != 0 {
			t.Fatalf("fabric %d ports_failed = %d after recover, want 0", i, got)
		}
	}

	var errBody struct {
		Kind string `json:"kind"`
	}
	if code, _ := doJSON(t, "POST", srv.URL+"/v1/ports/1/fail?fabric=9", "", &errBody); code != http.StatusBadRequest || errBody.Kind != "unknown_fabric" {
		t.Fatalf("fabric=9 = %d kind=%q, want 400 unknown_fabric", code, errBody.Kind)
	}
	if code, _ := doJSON(t, "POST", srv.URL+"/v1/ports/99/fail", "", &errBody); code != http.StatusBadRequest || errBody.Kind != "validation" {
		t.Fatalf("port 99 = %d kind=%q, want 400 validation", code, errBody.Kind)
	}
}
