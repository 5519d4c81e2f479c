package main

import (
	"bytes"
	"fmt"
	"testing"

	"coflow"
	"coflow/internal/trace"
)

// TestLowerBoundLineMatchesLowerBound pins -lower's printed bound to
// coflow.LowerBound for an LP ordering (which reuses the bound its own
// solve produced) and for a non-LP ordering (which solves the LP).
func TestLowerBoundLineMatchesLowerBound(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.Ports = 8
	cfg.NumCoflows = 12
	cfg.MaxFlowSize = 40
	ins, err := coflow.GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := coflow.LowerBound(ins)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		order  coflow.Ordering
		wantLP bool
	}{
		{"HLP", coflow.OrderLP, true},
		{"HA", coflow.OrderArrival, false},
	} {
		res, err := coflow.Schedule(ins, coflow.Options{Ordering: tc.order, Grouping: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := res.LP != nil; got != tc.wantLP {
			t.Fatalf("%s: Result.LP set = %v, want %v", tc.name, got, tc.wantLP)
		}
		var buf bytes.Buffer
		if err := writeLowerBound(&buf, ins, res); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := fmt.Sprintf("LP lower bound:   %.0f (schedule/bound = %.3f)\n", lb, res.TotalWeighted/lb)
		if buf.String() != want {
			t.Fatalf("%s: printed %q, want %q", tc.name, buf.String(), want)
		}
	}
}
