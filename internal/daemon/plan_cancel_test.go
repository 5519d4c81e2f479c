package daemon

import (
	"testing"
	"time"

	"coflow/internal/coflowmodel"
	"coflow/internal/online"
)

// planDaemon starts an externally clocked daemon with the planner on.
func planDaemon(t *testing.T, ports int) *Daemon {
	t.Helper()
	d, err := New(Config{Ports: ports, Policy: online.SEBF, Tick: 0, Plan: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

// planState reads the published planner view, failing the test if the
// planner disabled itself (a planner error means broken conservation
// bookkeeping, which these tests exist to catch).
func planState(t *testing.T, d *Daemon) (load int64, terms int) {
	t.Helper()
	m := d.Snapshot().Metrics
	if m.PlanError != "" {
		t.Fatalf("planner disabled itself: %s", m.PlanError)
	}
	return m.PlanLoad, m.PlanTerms
}

// TestCancelRefreshesPlan is the regression test for the stale-plan
// cancellation bug: cancelling a coflow shed its demand from the
// planner's ACCOUNTING but left the cached plan untouched, so the
// published PlanLoad/PlanTerms kept reporting the cancelled demand
// until the next tick — forever, on an externally clocked daemon.
// Pre-fix, this test fails with PlanLoad=9 after the cancel.
func TestCancelRefreshesPlan(t *testing.T) {
	d := planDaemon(t, 4)
	const id = 1
	if _, err := d.Register(id, &coflowmodel.Registration{Flows: []coflowmodel.Flow{
		{Src: 0, Dst: 1, Size: 10},
		{Src: 1, Dst: 2, Size: 7},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Tick(); err != nil {
		t.Fatal(err)
	}
	if load, _ := planState(t, d); load != 9 {
		t.Fatalf("after tick: PlanLoad = %d, want 9 (10-1 served on the bottleneck)", load)
	}
	if err := d.Cancel(id); err != nil {
		t.Fatal(err)
	}
	load, terms := planState(t, d)
	if load != 0 || terms != 0 {
		t.Fatalf("after cancelling the only coflow: PlanLoad=%d PlanTerms=%d, want 0/0 (stale cached plan)", load, terms)
	}
}

// TestCancelPlanInterleavings drives every ordering of register, tick
// and cancel that the single-writer loop can see at command
// granularity, asserting after EVERY command that the published
// PlanLoad equals the ground-truth ρ of the live aggregate demand
// (maintained densely here from the daemon's own acks and schedules).
// This pins the shed-then-refresh ordering: a cancel arriving between
// a tick's Observe/Plan and the next tick must neither double-shed nor
// leave stranded demand in the cached plan.
func TestCancelPlanInterleavings(t *testing.T) {
	const ports = 3
	type op struct {
		kind string // "reg", "tick", "cancel"
		reg  []coflowmodel.Flow
		idx  int // op index whose registered ID to cancel
	}
	flowsA := []coflowmodel.Flow{{Src: 0, Dst: 1, Size: 6}, {Src: 0, Dst: 2, Size: 2}}
	flowsB := []coflowmodel.Flow{{Src: 1, Dst: 2, Size: 5}}
	flowsC := []coflowmodel.Flow{{Src: 2, Dst: 0, Size: 3}}
	scripts := [][]op{
		// cancel immediately after register, before any tick
		{{kind: "reg", reg: flowsA}, {kind: "cancel", idx: 0}},
		// cancel between two ticks
		{{kind: "reg", reg: flowsA}, {kind: "reg", reg: flowsB}, {kind: "tick"}, {kind: "cancel", idx: 0}, {kind: "tick"}},
		// cancel right after the tick that served the coflow
		{{kind: "reg", reg: flowsA}, {kind: "tick"}, {kind: "tick"}, {kind: "cancel", idx: 0}},
		// register + cancel of an older coflow with a tick in between
		{{kind: "reg", reg: flowsA}, {kind: "tick"}, {kind: "reg", reg: flowsB}, {kind: "cancel", idx: 0}, {kind: "tick"}, {kind: "reg", reg: flowsC}, {kind: "cancel", idx: 2}},
		// drain one coflow fully, then cancel another
		{{kind: "reg", reg: flowsC}, {kind: "reg", reg: flowsB}, {kind: "tick"}, {kind: "tick"}, {kind: "tick"}, {kind: "cancel", idx: 1}},
	}
	for si, script := range scripts {
		d := planDaemon(t, ports)
		// truth is the dense live aggregate demand; planned is the
		// demand as of the most recent plan refresh. Registrations fold
		// into the plan lazily (at the next tick or cancel — that is
		// the documented amortization), but a refresh must bring the
		// plan fully current, cancelled demand included.
		var truth, planned [ports][ports]int64
		rho := func() int64 {
			var best int64
			for p := 0; p < ports; p++ {
				var rs, cs int64
				for q := 0; q < ports; q++ {
					rs += planned[p][q]
					cs += planned[q][p]
				}
				if rs > best {
					best = rs
				}
				if cs > best {
					best = cs
				}
			}
			return best
		}
		ids := make([]int, len(script))
		for oi, o := range script {
			switch o.kind {
			case "reg":
				ids[oi] = oi + 1
				if _, err := d.Register(ids[oi], &coflowmodel.Registration{Flows: o.reg}); err != nil {
					t.Fatal(err)
				}
				for _, f := range o.reg {
					truth[f.Src][f.Dst] += f.Size
				}
			case "tick":
				if err := d.Tick(); err != nil {
					t.Fatal(err)
				}
				for _, a := range d.Snapshot().Schedule {
					truth[a.Src][a.Dst]--
				}
				planned = truth // Observe+Plan brings the plan current
			case "cancel":
				if err := d.Cancel(ids[o.idx]); err != nil {
					t.Fatal(err)
				}
				// Subtract the cancelled coflow's remaining demand. With
				// per-coflow disjoint pairs in these scripts, the pair
				// remainder IS the coflow remainder.
				for _, f := range script[o.idx].reg {
					truth[f.Src][f.Dst] = 0
				}
				planned = truth // shed must refresh the cached plan
			}
			if load, _ := planState(t, d); load != rho() {
				t.Fatalf("script %d after op %d (%s): PlanLoad = %d, want ρ = %d",
					si, oi, o.kind, load, rho())
			}
		}
	}
}

// TestCancelPlanBatchedWithTick exercises the same interleaving when
// the commands land in ONE loop batch (queued while the loop is busy),
// which is how a real churn burst arrives: the reply of the last
// command must already see a plan without the cancelled demand.
func TestCancelPlanBatchedWithTick(t *testing.T) {
	d := planDaemon(t, 3)
	const id = 1
	if _, err := d.Register(id, &coflowmodel.Registration{Flows: []coflowmodel.Flow{
		{Src: 0, Dst: 1, Size: 8},
	}}); err != nil {
		t.Fatal(err)
	}
	// Queue tick+cancel back-to-back without waiting: the loop may
	// coalesce them into one batch with a single publish.
	tickDone := make(chan error, 1)
	go func() { tickDone <- d.Tick() }()
	// The cancel is submitted from this goroutine as fast as possible;
	// whichever batch split the loop chooses, after BOTH acks the plan
	// must be empty.
	if err := d.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if err := <-tickDone; err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for {
		load, terms := planState(t, d)
		if load == 0 && terms == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("PlanLoad=%d PlanTerms=%d after cancel acked, want 0/0", load, terms)
		}
		time.Sleep(time.Millisecond)
	}
}
