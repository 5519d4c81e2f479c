package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"coflow/internal/coflowmodel"
	"coflow/internal/daemon"
	"coflow/internal/online"
)

// TestE2E drives the full lifecycle of a single-fabric coflowd (a
// 1-shard cluster) over HTTP: register, schedule to completion across
// ticks, observe status, schedule and metrics, cancel, hit every error
// path, then shut down gracefully and verify the final state snapshot
// on disk.
func TestE2E(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "final.json")
	c := newTestCluster(t, Config{
		Shards:  1,
		MaxBody: 512,
		Fabric:  daemon.Config{Ports: 2, Policy: online.SEBF, SnapshotPath: snapPath},
	})
	srv := httptest.NewServer(c.Handler())

	// Health before any work.
	var health struct {
		Status string  `json:"status"`
		Slots  []int64 `json:"slots"`
	}
	if code, raw := doJSON(t, "GET", srv.URL+"/healthz", "", &health); code != 200 || health.Status != "ok" || len(health.Slots) != 1 {
		t.Fatalf("healthz = %d %s", code, raw)
	}

	// Register the paper's Figure 1 coflow (ρ = 3).
	var created struct {
		ID      int   `json:"id"`
		Release int64 `json:"release"`
		Fabric  int   `json:"fabric"`
	}
	regBody := `{"weight": 1, "flows": [
		{"src": 0, "dst": 0, "size": 1}, {"src": 0, "dst": 1, "size": 2},
		{"src": 1, "dst": 0, "size": 2}, {"src": 1, "dst": 1, "size": 1}]}`
	if code, raw := doJSON(t, "POST", srv.URL+"/v1/coflows", regBody, &created); code != 201 {
		t.Fatalf("register = %d %s", code, raw)
	}
	if created.ID != 1 || created.Release != 0 || created.Fabric != 0 {
		t.Fatalf("created = %+v", created)
	}

	// Error paths: invalid JSON, out-of-range port, oversized body,
	// unknown coflow, bad id. All structured JSON errors.
	var apiErr struct {
		Error string `json:"error"`
	}
	if code, _ := doJSON(t, "POST", srv.URL+"/v1/coflows", `{nope`, &apiErr); code != 400 || apiErr.Error == "" {
		t.Fatalf("invalid JSON = %d %+v", code, apiErr)
	}
	if code, _ := doJSON(t, "POST", srv.URL+"/v1/coflows",
		`{"flows": [{"src": 9, "dst": 0, "size": 1}]}`, &apiErr); code != 400 || apiErr.Error == "" {
		t.Fatalf("out-of-range = %d %+v", code, apiErr)
	}
	huge := `{"flows": [` + strings.Repeat(`{"src":0,"dst":0,"size":1},`, 100) + `{"src":0,"dst":0,"size":1}]}`
	if code, _ := doJSON(t, "POST", srv.URL+"/v1/coflows", huge, &apiErr); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d", code)
	}
	if code, _ := doJSON(t, "GET", srv.URL+"/v1/coflows/42", "", &apiErr); code != 404 {
		t.Fatalf("unknown coflow = %d", code)
	}
	if code, _ := doJSON(t, "GET", srv.URL+"/v1/coflows/zero", "", &apiErr); code != 400 {
		t.Fatalf("bad id = %d", code)
	}

	// Drive the scheduler across ticks until the coflow completes;
	// greedy needs between ρ=3 and 2ρ−1=5 slots.
	var status daemon.CoflowStatus
	for tick := 0; tick < 5; tick++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		if code, raw := doJSON(t, "GET", srv.URL+"/v1/coflows/1", "", &status); code != 200 {
			t.Fatalf("status = %d %s", code, raw)
		}
		if tick == 0 {
			// Mid-flight: the schedule endpoint shows a live matching.
			var sched struct {
				Schedules []struct {
					Slot        int64               `json:"slot"`
					Policy      string              `json:"policy"`
					Assignments []online.Assignment `json:"assignments"`
				} `json:"schedules"`
			}
			if code, raw := doJSON(t, "GET", srv.URL+"/v1/schedule", "", &sched); code != 200 || len(sched.Schedules) != 1 {
				t.Fatalf("schedule = %d %s", code, raw)
			}
			if s := sched.Schedules[0]; s.Slot != 1 || s.Policy != "SEBF" || len(s.Assignments) == 0 {
				t.Fatalf("schedule after first tick = %+v", s)
			}
		}
		if status.State == "completed" {
			break
		}
	}
	if status.State != "completed" || status.Completed < 3 || status.Completed > 5 {
		t.Fatalf("final status = %+v, want completion in [3, 5]", status)
	}

	// Metrics: non-zero slot latency, the completion accounted, and no
	// fallback scan for the unknown-ID lookup (one fabric, nothing
	// else to scan).
	var cm ClusterMetrics
	if code, raw := doJSON(t, "GET", srv.URL+"/v1/metrics", "", &cm); code != 200 || len(cm.PerShard) != 1 {
		t.Fatalf("metrics = %d %s", code, raw)
	}
	m := cm.PerShard[0].Metrics
	if m.Ticks == 0 || m.TickLatency.Count == 0 || m.TickLatency.Max <= 0 {
		t.Fatalf("slot latency not exported: %+v", m)
	}
	if m.Completed != 1 || m.TotalWeighted != float64(status.Completed) {
		t.Fatalf("completion metrics wrong: %+v", m)
	}
	if cm.FallbackScans != 0 {
		t.Fatalf("route_fallback_scans = %d on a 1-shard cluster, want 0", cm.FallbackScans)
	}

	// Cancel flow: register a second coflow, cancel it, verify both
	// the conflict on re-cancel and the listing.
	if code, _ := doJSON(t, "POST", srv.URL+"/v1/coflows",
		`{"flows": [{"src": 0, "dst": 0, "size": 50}]}`, &created); code != 201 {
		t.Fatalf("second register = %d", code)
	}
	cancelURL := fmt.Sprintf("%s/v1/coflows/%d", srv.URL, created.ID)
	if code, _ := doJSON(t, "DELETE", cancelURL, "", nil); code != 200 {
		t.Fatalf("cancel = %d", code)
	}
	if code, _ := doJSON(t, "DELETE", cancelURL, "", &apiErr); code != 409 {
		t.Fatalf("re-cancel = %d", code)
	}
	var list struct {
		Coflows map[int]*daemon.CoflowStatus `json:"coflows"`
	}
	if code, raw := doJSON(t, "GET", srv.URL+"/v1/coflows", "", &list); code != 200 {
		t.Fatalf("list = %d %s", code, raw)
	}
	if len(list.Coflows) != 2 || list.Coflows[created.ID].State != "cancelled" {
		t.Fatalf("list = %+v", list)
	}

	// Graceful shutdown: drain HTTP, stop the loop, write the final
	// snapshot, refuse further work.
	srv.Close()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("final snapshot not written: %v", err)
	}
	var snap daemon.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("final snapshot is not valid JSON: %v", err)
	}
	if cs := snap.Coflows.Get(1); cs == nil || cs.State != "completed" || cs.Completed != status.Completed {
		t.Fatalf("final snapshot coflow 1 = %+v", snap.Coflows.Get(1))
	}
	if snap.Metrics.Registered != 2 || snap.Metrics.Cancelled != 1 {
		t.Fatalf("final snapshot metrics = %+v", snap.Metrics)
	}
	if _, _, _, err := c.Register(&coflowmodel.Registration{}); !errors.Is(err, daemon.ErrClosed) {
		t.Fatalf("register after shutdown: %v, want ErrClosed", err)
	}
}

// TestE2ERealTicker exercises the wall-clock path: the internal
// ticker drives the virtual switch while the client polls over HTTP.
// Timing-dependent, so skipped under -short (tier-1 runs stay fast).
func TestE2ERealTicker(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock ticker test skipped in -short mode")
	}
	_, srv := newTestServer(t, Config{
		Shards: 1,
		Fabric: daemon.Config{Ports: 2, Policy: online.WSPT, Tick: 2 * time.Millisecond},
	})

	var created struct {
		ID int `json:"id"`
	}
	if code, raw := doJSON(t, "POST", srv.URL+"/v1/coflows",
		`{"flows": [{"src": 0, "dst": 1, "size": 5}, {"src": 1, "dst": 0, "size": 5}]}`,
		&created); code != 201 {
		t.Fatalf("register = %d %s", code, raw)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var status daemon.CoflowStatus
		url := fmt.Sprintf("%s/v1/coflows/%d", srv.URL, created.ID)
		if code, raw := doJSON(t, "GET", url, "", &status); code != 200 {
			t.Fatalf("status = %d %s", code, raw)
		}
		if status.State == "completed" {
			if status.Completed < status.Load {
				t.Fatalf("completed at %d, below ρ = %d", status.Completed, status.Load)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coflow did not complete under the real ticker: %+v", status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	var cm ClusterMetrics
	if code, raw := doJSON(t, "GET", srv.URL+"/v1/metrics", "", &cm); code != 200 || len(cm.PerShard) != 1 {
		t.Fatalf("metrics = %d %s", code, raw)
	}
	if m := cm.PerShard[0].Metrics; m.Ticks == 0 || m.TickLatency.Max <= 0 {
		t.Fatalf("ticker metrics empty: %+v", m)
	}
}
