package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"coflow/internal/coflowmodel"
	"coflow/internal/daemon"
	"coflow/internal/obs"
	"coflow/internal/online"
)

// Handler returns the cluster's HTTP control plane, the only one
// coflowd serves (a single-fabric deployment is a 1-shard cluster):
//
//	POST   /v1/coflows              register one coflow (object body) or
//	                                many (array body, per-item results)
//	GET    /v1/coflows              every coflow across all fabrics
//	DELETE /v1/coflows              bulk-cancel (JSON array of IDs,
//	                                per-item results + owning fabric)
//	GET    /v1/coflows/{id}         one coflow's status (+ owning fabric)
//	DELETE /v1/coflows/{id}         cancel, wherever the coflow lives
//	POST   /v1/ports/{port}/fail    take a port offline on every fabric
//	                                that has it (?fabric=K targets one)
//	POST   /v1/ports/{port}/recover bring a failed port back
//	GET    /v1/schedule             per-fabric matchings (?fabric=K filters)
//	GET    /v1/metrics              cross-shard rollup + per-shard detail
//	GET    /metrics                 Prometheus text: cluster registry plus
//	                                every fabric's registry under fabric="i"
//	GET    /healthz                 liveness + per-fabric slots
//
// All GETs read atomic snapshots and the amortized aggregate; no
// request ever waits on a fabric loop. Errors are structured JSON,
// {"error": "...", "kind": "..."}, where kind is a stable
// machine-readable class (malformed_json, validation, too_large,
// method_not_allowed, not_found, conflict, terminal_coflow,
// unknown_fabric, unavailable).
//
// Every route also registers a method-less fallback so a wrong method
// gets a structured 405 with an Allow header instead of the mux's
// plain-text default.
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/coflows", c.handleRegister)
	mux.HandleFunc("GET /v1/coflows", c.handleList)
	mux.HandleFunc("DELETE /v1/coflows", c.handleBulkCancel)
	mux.HandleFunc("GET /v1/coflows/{id}", c.handleGet)
	mux.HandleFunc("DELETE /v1/coflows/{id}", c.handleCancel)
	mux.HandleFunc("POST /v1/ports/{port}/fail", c.handlePortFail)
	mux.HandleFunc("POST /v1/ports/{port}/recover", c.handlePortRecover)
	mux.HandleFunc("GET /v1/schedule", c.handleSchedule)
	mux.HandleFunc("GET /v1/metrics", c.handleMetrics)
	mux.HandleFunc("GET /metrics", c.handlePrometheus)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("/v1/coflows", methodNotAllowed("DELETE, GET, POST"))
	mux.HandleFunc("/v1/coflows/{id}", methodNotAllowed("DELETE, GET"))
	mux.HandleFunc("/v1/ports/{port}/fail", methodNotAllowed("POST"))
	mux.HandleFunc("/v1/ports/{port}/recover", methodNotAllowed("POST"))
	mux.HandleFunc("/v1/schedule", methodNotAllowed("GET"))
	mux.HandleFunc("/v1/metrics", methodNotAllowed("GET"))
	mux.HandleFunc("/metrics", methodNotAllowed("GET"))
	mux.HandleFunc("/healthz", methodNotAllowed("GET"))
	return mux
}

// methodNotAllowed is the fallback for a known path hit with an
// unhandled method. The method-specific patterns are more specific,
// so they win whenever they match; everything else lands here.
func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			"method "+r.Method+" not allowed (allow: "+allow+")")
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Best effort: the status is already written and a failed encode
	// means the client is gone; nothing useful remains to report.
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the structured error body. kind is the stable
// machine-readable class; msg the human-readable detail.
func writeError(w http.ResponseWriter, code int, kind, msg string) {
	writeJSON(w, code, map[string]string{"error": msg, "kind": kind})
}

// classifyParseError maps a body-level ParseRegistrations failure to
// its HTTP status and structured kind.
func classifyParseError(err error) (code int, kind string) {
	code, kind = http.StatusBadRequest, "validation"
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		code, kind = http.StatusRequestEntityTooLarge, "too_large"
	case errors.Is(err, coflowmodel.ErrMalformed):
		kind = "malformed_json"
	}
	return code, kind
}

// itemErrorKind classifies one bulk item's failure for its per-item
// result entry.
func itemErrorKind(err error) string {
	switch {
	case errors.Is(err, coflowmodel.ErrMalformed):
		return "malformed_json"
	case errors.Is(err, daemon.ErrClosed):
		return "unavailable"
	case errors.Is(err, ErrUnknownFabric):
		return "unknown_fabric"
	default:
		return "validation"
	}
}

// cancelErrorStatus maps a cancellation error to its HTTP status and
// structured kind, from the typed sentinels rather than by sniffing
// snapshots (which races the loop): an unknown ID is a 404, a coflow
// that already completed or was cancelled is a 409 with the dedicated
// "terminal_coflow" kind — churn-heavy clients lose cancel-vs-complete
// races all the time and must be able to tell that expected outcome
// from a genuinely bogus ID.
func cancelErrorStatus(err error) (code int, kind string) {
	switch {
	case errors.Is(err, daemon.ErrClosed):
		return http.StatusServiceUnavailable, "unavailable"
	case errors.Is(err, daemon.ErrTerminalCoflow):
		return http.StatusConflict, "terminal_coflow"
	case errors.Is(err, daemon.ErrUnknownCoflow):
		return http.StatusNotFound, "not_found"
	default:
		return http.StatusConflict, "conflict"
	}
}

// handleRegister decodes the body (object or array) and hands each
// valid item to Register. Single-object bodies keep the 201
// {"id","release","fabric"} contract; array bodies get a 200 with
// index-aligned per-item results, where one bad item never fails its
// siblings, and are metered as bulk traffic.
func (c *Cluster) handleRegister(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, c.cfg.MaxBody)
	// Parse-time validation uses the widest fabric so a heterogeneous
	// deployment never rejects a port the target fabric does have; the
	// owning fabric re-validates against its own size on ingest.
	rs, err := coflowmodel.ParseRegistrations(body, c.maxPorts)
	if err != nil {
		code, kind := classifyParseError(err)
		writeError(w, code, kind, err.Error())
		return
	}
	if !rs.Bulk {
		if err := rs.Errs[0]; err != nil {
			code, kind := classifyParseError(err)
			writeError(w, code, kind, err.Error())
			return
		}
		id, release, fabric, err := c.Register(rs.Items[0])
		if err != nil {
			if errors.Is(err, daemon.ErrClosed) {
				writeError(w, http.StatusServiceUnavailable, "unavailable", err.Error())
				return
			}
			writeError(w, http.StatusBadRequest, itemErrorKind(err), err.Error())
			return
		}
		writeJSON(w, http.StatusCreated, map[string]any{"id": id, "release": release, "fabric": fabric})
		return
	}
	c.obs.bulkRequests.Inc()
	c.obs.bulkItems.Add(int64(len(rs.Items)))
	resp := daemon.BulkResponse{Results: make([]daemon.BulkItem, len(rs.Items))}
	for i, reg := range rs.Items {
		item := &resp.Results[i]
		item.Index = i
		err := rs.Errs[i]
		if err == nil {
			item.ID, item.Release, item.Fabric, err = c.Register(reg)
		}
		if err != nil {
			item.ID, item.Release, item.Fabric = 0, 0, 0
			item.Error, item.Kind = err.Error(), itemErrorKind(err)
			resp.Failed++
			continue
		}
		resp.OK++
	}
	writeJSON(w, http.StatusOK, &resp)
}

// coflowEntry decorates a coflow status with its owning fabric.
type coflowEntry struct {
	Fabric int `json:"fabric"`
	*daemon.CoflowStatus
}

func (c *Cluster) handleList(w http.ResponseWriter, r *http.Request) {
	slots := make([]int64, len(c.fabrics))
	coflows := make(map[int]coflowEntry)
	for i, d := range c.fabrics {
		snap := d.Snapshot()
		slots[i] = snap.Slot
		snap.Coflows.Range(func(id int, cs *daemon.CoflowStatus) bool {
			coflows[id] = coflowEntry{Fabric: i, CoflowStatus: cs}
			return true
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"fabrics": len(c.fabrics),
		"slots":   slots,
		"coflows": coflows,
	})
}

// pathID parses the {id} path segment.
func pathID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id <= 0 {
		writeError(w, http.StatusBadRequest, "validation", "coflow id must be a positive integer")
		return 0, false
	}
	return id, true
}

func (c *Cluster) handleGet(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	fabric, cs, ok := c.Owner(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "unknown coflow "+strconv.Itoa(id))
		return
	}
	writeJSON(w, http.StatusOK, coflowEntry{Fabric: fabric, CoflowStatus: cs})
}

func (c *Cluster) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	if err := c.Cancel(id); err != nil {
		// ErrUnknownCoflow wraps daemon.ErrUnknownCoflow, so a miss on
		// the cluster and a miss on the owning fabric both answer
		// not_found.
		code, kind := cancelErrorStatus(err)
		writeError(w, code, kind, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "cancelled": true})
}

// handleBulkCancel serves DELETE /v1/coflows: a JSON array of coflow
// IDs, answered with the same index-addressed per-item result format
// as bulk registration (BulkResponse) plus each owning fabric, where
// one bad ID never fails its siblings. Item kinds mirror the
// single-cancel statuses (not_found, terminal_coflow, unavailable;
// validation for a non-positive ID).
func (c *Cluster) handleBulkCancel(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, c.cfg.MaxBody)
	var ids []int
	if err := json.NewDecoder(body).Decode(&ids); err != nil {
		code, kind := http.StatusBadRequest, "malformed_json"
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code, kind = http.StatusRequestEntityTooLarge, "too_large"
		}
		writeError(w, code, kind, "bulk cancel wants a JSON array of coflow ids: "+err.Error())
		return
	}
	if len(ids) == 0 {
		writeError(w, http.StatusBadRequest, "validation", "bulk cancel array is empty")
		return
	}
	c.obs.bulkRequests.Inc()
	c.obs.bulkItems.Add(int64(len(ids)))
	resp := daemon.BulkResponse{Results: make([]daemon.BulkItem, len(ids))}
	for i, id := range ids {
		item := &resp.Results[i]
		item.Index, item.ID = i, id
		var err error
		if id <= 0 {
			err = fmt.Errorf("daemon: coflow id must be a positive integer, got %d", id)
			item.Kind = "validation"
		} else if item.Fabric, err = c.CancelFabric(id); err != nil {
			_, item.Kind = cancelErrorStatus(err)
		}
		if err != nil {
			item.Error = err.Error()
			resp.Failed++
			continue
		}
		resp.OK++
	}
	writeJSON(w, http.StatusOK, &resp)
}

// pathFabric parses the optional ?fabric=K query; -1 means every
// fabric.
func (c *Cluster) pathFabric(w http.ResponseWriter, r *http.Request) (int, bool) {
	q := r.URL.Query().Get("fabric")
	if q == "" {
		return -1, true
	}
	k, err := strconv.Atoi(q)
	if err != nil || k < 0 || k >= len(c.fabrics) {
		writeError(w, http.StatusBadRequest, "unknown_fabric",
			"fabric must be an integer in 0.."+strconv.Itoa(len(c.fabrics)-1))
		return 0, false
	}
	return k, true
}

// pathPort parses the {port} path segment.
func pathPort(w http.ResponseWriter, r *http.Request) (int, bool) {
	p, err := strconv.Atoi(r.PathValue("port"))
	if err != nil || p < 0 {
		writeError(w, http.StatusBadRequest, "validation", "port must be a non-negative integer")
		return 0, false
	}
	return p, true
}

func (c *Cluster) handlePortFail(w http.ResponseWriter, r *http.Request) {
	c.servePortOp(w, r, true)
}

func (c *Cluster) handlePortRecover(w http.ResponseWriter, r *http.Request) {
	c.servePortOp(w, r, false)
}

func (c *Cluster) servePortOp(w http.ResponseWriter, r *http.Request, fail bool) {
	port, ok := pathPort(w, r)
	if !ok {
		return
	}
	fabric, ok := c.pathFabric(w, r)
	if !ok {
		return
	}
	var err error
	if fail {
		err = c.FailPort(fabric, port)
	} else {
		err = c.RecoverPort(fabric, port)
	}
	if err != nil {
		switch {
		case errors.Is(err, daemon.ErrClosed):
			writeError(w, http.StatusServiceUnavailable, "unavailable", err.Error())
		case errors.Is(err, ErrUnknownFabric):
			writeError(w, http.StatusBadRequest, "unknown_fabric", err.Error())
		default:
			writeError(w, http.StatusBadRequest, "validation", err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"port": port, "fabric": fabric, "failed": fail})
}

// fabricSchedule is one fabric's slice of GET /v1/schedule.
type fabricSchedule struct {
	Fabric      int                 `json:"fabric"`
	Slot        int64               `json:"slot"`
	Policy      string              `json:"policy"`
	Assignments []online.Assignment `json:"assignments"`
}

func (c *Cluster) handleSchedule(w http.ResponseWriter, r *http.Request) {
	k, ok := c.pathFabric(w, r)
	if !ok {
		return
	}
	first, last := 0, len(c.fabrics)-1
	if k >= 0 {
		first, last = k, k
	}
	schedules := make([]fabricSchedule, 0, last-first+1)
	for i := first; i <= last; i++ {
		snap := c.fabrics[i].Snapshot()
		assignments := snap.Schedule
		if assignments == nil {
			assignments = []online.Assignment{} // render [] rather than null
		}
		schedules = append(schedules, fabricSchedule{
			Fabric:      i,
			Slot:        snap.Slot,
			Policy:      snap.Metrics.ActivePolicy,
			Assignments: assignments,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"fabrics":   len(c.fabrics),
		"schedules": schedules,
	})
}

func (c *Cluster) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Metrics())
}

// handlePrometheus renders one exposition: the cluster registry's own
// series (router counters, ingest latency, rollup gauges — refreshed
// through the amortized aggregate first), followed by every fabric's
// registry zipped under a fabric="i" label so per-shard series share
// a single HELP/TYPE block per metric name.
func (c *Cluster) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	c.Metrics() // refresh rollup gauges (amortized)
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	// Best effort: a short scrape means the scraper disconnected.
	if err := c.obs.reg.WritePrometheus(w); err != nil {
		return
	}
	regs := make([]*obs.Registry, len(c.fabrics))
	for i, d := range c.fabrics {
		regs[i] = d.MetricsRegistry()
	}
	// Same best-effort contract as above.
	_ = obs.WritePrometheusLabeled(w, "fabric", c.labels, regs)
}

func (c *Cluster) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if c.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, "unavailable", "shutting down")
		return
	}
	slots := make([]int64, len(c.fabrics))
	for i, d := range c.fabrics {
		slots[i] = d.Snapshot().Slot
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"fabrics": len(c.fabrics),
		"slots":   slots,
	})
}
