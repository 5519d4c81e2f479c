package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"time"

	"coflow/internal/coflowmodel"
	"coflow/internal/scenario"
	"coflow/internal/stats"
)

// loadScript resolves -scenario: a built-in name first, else a path
// to a script file.
func loadScript(nameOrFile string) (*scenario.Script, error) {
	if s, err := scenario.Builtin(nameOrFile); err == nil {
		return s, nil
	} else if _, statErr := os.Stat(nameOrFile); statErr != nil {
		return nil, fmt.Errorf("%q is neither a built-in scenario %v nor a readable file: %w",
			nameOrFile, scenario.Builtins(), err)
	}
	blob, err := os.ReadFile(nameOrFile)
	if err != nil {
		return nil, err
	}
	return scenario.Parse(blob)
}

// scenarioReport is the outcome of an HTTP scenario replay.
type scenarioReport struct {
	Scenario   string `json:"scenario"`
	Events     int    `json:"events"`
	Registered int64  `json:"registered"`
	Cancelled  int64  `json:"cancelled"`
	// TerminalHits are cancels answered 409 terminal_coflow: the
	// cancel raced the coflow's completion, which is expected churn.
	TerminalHits int64 `json:"terminal_hits"`
	PortFails    int64 `json:"port_fails"`
	PortRecovers int64 `json:"port_recovers"`
	Errors4xx    int64 `json:"errors_4xx"`
	Errors5xx    int64 `json:"errors_5xx"`
	NetErrors    int64 `json:"net_errors"`
	// Unresolved counts coflows still active when the drain timeout
	// expired — demand the server lost or starved.
	Unresolved int `json:"unresolved"`
	// Slowdown summarizes the server-reported per-coflow slowdowns
	// (C_k / (r_k + ρ_k)) of completed coflows.
	Slowdown stats.Summary `json:"slowdown"`
	// WeightedResponse is Σ w_k·(C_k − r_k) over completed coflows:
	// the completion-weighted objective with each coflow's release
	// subtracted, so it is comparable across runs that start at
	// different server slots.
	WeightedResponse float64 `json:"weighted_response"`
}

// replayScenario drives the script against a live coflowd control
// plane, whatever its fabric count. Script slots are paced at one
// tick each; script keys map to server-assigned IDs so re-registered
// keys become fresh server coflows.
func replayScenario(client *http.Client, base string, script *scenario.Script, tick time.Duration) *scenarioReport {
	rep := &scenarioReport{Scenario: script.Name, Events: len(script.Events)}
	ids := map[int]int{} // script key -> live server id
	var tracked []int    // every server id ever created
	weights := map[int]float64{}
	start := time.Now()

	count := func(code int) bool {
		switch {
		case code < 300:
			return true
		case code == http.StatusConflict:
			rep.TerminalHits++
		case code < 500:
			rep.Errors4xx++
		default:
			rep.Errors5xx++
		}
		return false
	}
	post := func(path string, payload any) (int, []byte) {
		var body io.Reader
		if payload != nil {
			blob, err := json.Marshal(payload)
			if err != nil {
				rep.NetErrors++
				return 0, nil
			}
			body = bytes.NewReader(blob)
		}
		resp, err := client.Post(base+path, "application/json", body)
		if err != nil {
			rep.NetErrors++
			return 0, nil
		}
		raw, err := io.ReadAll(resp.Body)
		closeQuiet(resp.Body)
		if err != nil {
			rep.NetErrors++
			return 0, nil
		}
		return resp.StatusCode, raw
	}

	for _, ev := range script.Events {
		// Pace: event slots become wall-clock offsets of one tick each.
		time.Sleep(time.Until(start.Add(time.Duration(ev.Slot) * tick)))
		switch ev.Op {
		case scenario.OpRegister:
			weight := ev.Weight
			if weight == 0 {
				weight = 1
			}
			code, raw := post("/v1/coflows", &coflowmodel.Registration{Weight: weight, Flows: ev.Flows})
			if !count(code) {
				continue
			}
			var created struct {
				ID int `json:"id"`
			}
			if err := json.Unmarshal(raw, &created); err != nil || created.ID == 0 {
				rep.NetErrors++
				continue
			}
			rep.Registered++
			ids[ev.Key] = created.ID
			tracked = append(tracked, created.ID)
			weights[created.ID] = weight
		case scenario.OpCancel:
			id, ok := ids[ev.Key]
			if !ok {
				continue // its register failed; nothing to cancel
			}
			delete(ids, ev.Key)
			req, err := http.NewRequest(http.MethodDelete, base+"/v1/coflows/"+strconv.Itoa(id), nil)
			if err != nil {
				rep.NetErrors++
				continue
			}
			resp, err := client.Do(req)
			if err != nil {
				rep.NetErrors++
				continue
			}
			drainQuiet(resp.Body)
			if count(resp.StatusCode) {
				rep.Cancelled++
			}
		case scenario.OpFail:
			if code, _ := post("/v1/ports/"+strconv.Itoa(ev.Port)+"/fail", nil); count(code) {
				rep.PortFails++
			}
		case scenario.OpRecover:
			if code, _ := post("/v1/ports/"+strconv.Itoa(ev.Port)+"/recover", nil); count(code) {
				rep.PortRecovers++
			}
		}
	}

	// Drain: poll the coflow list until everything we created is
	// terminal, then fold the server-computed slowdowns.
	deadline := time.Now().Add(time.Duration(script.Horizon())*tick + 5*time.Second)
	var slowdowns []float64
	for {
		statuses := listCoflows(client, base, rep)
		slowdowns = slowdowns[:0]
		rep.Unresolved = 0
		rep.WeightedResponse = 0
		for _, id := range tracked {
			cs, ok := statuses[id]
			switch {
			case !ok:
				// The server no longer lists it and never reported a
				// terminal state to us: lost.
				rep.Unresolved++
			case cs.State == "active":
				rep.Unresolved++
			case cs.State == "completed":
				if cs.Slowdown > 0 {
					slowdowns = append(slowdowns, cs.Slowdown)
				}
				rep.WeightedResponse += weights[id] * float64(cs.Completed-cs.Release)
			}
		}
		if rep.Unresolved == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * tick)
	}
	rep.Slowdown = stats.Summarize(slowdowns)
	return rep
}

// listCoflows pulls GET /v1/coflows. Both planes answer a "coflows"
// map keyed by ID; the shard plane adds a fabric field this decoder
// ignores.
func listCoflows(client *http.Client, base string, rep *scenarioReport) map[int]coflowStatus {
	resp, err := client.Get(base + "/v1/coflows")
	if err != nil {
		rep.NetErrors++
		return nil
	}
	defer drainQuiet(resp.Body)
	var list struct {
		Coflows map[string]coflowStatus `json:"coflows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		rep.NetErrors++
		return nil
	}
	out := make(map[int]coflowStatus, len(list.Coflows))
	for key, cs := range list.Coflows {
		id, err := strconv.Atoi(key)
		if err != nil {
			continue
		}
		out[id] = cs
	}
	return out
}

type coflowStatus struct {
	State     string  `json:"state"`
	Release   int64   `json:"release"`
	Completed int64   `json:"completed"`
	Slowdown  float64 `json:"slowdown"`
}

func printScenarioReport(r *scenarioReport, asJSON bool) {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("scenario         %s (%d events)\n", r.Scenario, r.Events)
	fmt.Printf("registered       %d\n", r.Registered)
	fmt.Printf("cancelled        %d (+%d hit terminal coflows: expected churn)\n", r.Cancelled, r.TerminalHits)
	if r.PortFails+r.PortRecovers > 0 {
		fmt.Printf("port ops         %d fails / %d recovers\n", r.PortFails, r.PortRecovers)
	}
	fmt.Printf("errors           4xx=%d 5xx=%d net=%d\n", r.Errors4xx, r.Errors5xx, r.NetErrors)
	fmt.Printf("unresolved       %d\n", r.Unresolved)
	fmt.Printf("slowdown         p50=%.2f p99=%.2f max=%.2f (n=%d)\n",
		r.Slowdown.P50, r.Slowdown.P99, r.Slowdown.Max, r.Slowdown.Count)
	fmt.Printf("weighted resp    %.0f\n", r.WeightedResponse)
}
