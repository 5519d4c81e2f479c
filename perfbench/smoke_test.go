package main

import (
	"bytes"
	"strings"
	"testing"

	"coflow/internal/core"
	"coflow/internal/daemon"
)

// smoke runs one workload at tiny scale and returns whether every
// check passed, with the printed report.
func smoke(t *testing.T, name string, traced bool, corrupt func(check string, v any)) (bool, string) {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	seconds := 0.1
	if strings.HasPrefix(name, "serve") {
		seconds = 1
	}
	rc := &runConfig{seed: 3, seconds: seconds, traced: traced, scale: scaleTiny, corrupt: corrupt}
	var out bytes.Buffer
	correct, err := execute(w, rc, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	return correct, out.String()
}

func TestSmokeEveryWorkloadPasses(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			correct, out := smoke(t, w.name, traced, nil)
			if !correct {
				t.Errorf("%s traced=%v failed its checks:\n%s", w.name, traced, out)
			}
			last := out[strings.LastIndex(strings.TrimRight(out, "\n"), "\n")+1:]
			if !strings.HasPrefix(last, `{"correct":true`) {
				t.Errorf("%s: last line is not the result: %q", w.name, last)
			}
		}
	}
}

// corruption breaks the input of one named correctness check.
type corruption struct {
	check   string
	traced  bool
	corrupt func(v any)
	want    string // in the failed check's message
}

var offlineCorruptions = []corruption{
	{"total", false, func(v any) { v.(*core.Result).TotalWeighted++ }, "TotalWeighted"},
	{"release", false, func(v any) { v.(*core.Result).Completion[0] = -1 }, "< r+ρ"},
	{"compose", true, func(v any) { v.([][]int64)[0][0]++ }, "traced composition"},
}

// Checks only the H_LP workload runs.
var hlpCorruptions = []corruption{
	{"prop1", false, func(v any) {
		r := v.(*core.Result)
		r.Completion[r.Order[0]] += 1 << 40
	}, "Proposition 1"},
	{"lpbound", false, func(v any) { *v.(*float64) = 1e300 }, "LP lower bound"},
}

var serveCorruptions = []corruption{
	{"status", false, func(v any) { v.([]outcome)[0].status = 503 }, "status 503"},
	{"terminal", false, func(v any) {
		for _, cs := range v.(map[int]*daemon.CoflowStatus) {
			cs.State = "active"
			return
		}
	}, "after the drain"},
	{"ledger", false, func(v any) { v.(*daemon.Metrics).Registered++ }, "registered"},
	{"load", false, func(v any) {
		if cs := v.(*daemon.CoflowStatus); cs.State == "completed" {
			cs.Completed = cs.Release - 1
		}
	}, "completed at"},
}

// Every workload's every correctness check must trip when its input is
// corrupted, and the result must then say correct=false.
func TestSmokeChecksTripOnCorruptedResults(t *testing.T) {
	cases := map[string][]corruption{
		"offline-hlp":  append(append([]corruption(nil), offlineCorruptions...), hlpCorruptions...),
		"offline-grid": offlineCorruptions,
		"serve-light":  serveCorruptions,
		"serve-live":   serveCorruptions,
	}
	for _, w := range workloads {
		for _, c := range cases[w.name] {
			corrupt := func(check string, v any) {
				if check == c.check {
					c.corrupt(v)
				}
			}
			correct, out := smoke(t, w.name, c.traced, corrupt)
			if correct || !strings.Contains(out, "CHECK FAILED") || !strings.Contains(out, c.want) {
				t.Errorf("%s: corrupting %q did not trip the check (want %q):\n%s", w.name, c.check, c.want, out)
			}
			if !strings.Contains(out, `"correct":false`) {
				t.Errorf("%s/%s: result line does not say correct=false", w.name, c.check)
			}
		}
	}
}
