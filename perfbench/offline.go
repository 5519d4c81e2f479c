package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"coflow/internal/coflowmodel"
	"coflow/internal/core"
	"coflow/internal/lp"
	"coflow/internal/lpmodel"
	"coflow/internal/switchsim"
	"coflow/internal/trace"
)

// offlineSpec describes one offline workload: a fixed number of
// distinct paper-scale traces derived from the seed, each run through
// every configuration in cases.
type offlineSpec struct {
	name string
	// traces is how many distinct traces a run generates. Every run
	// schedules each at least once, so objective_ratio is a pure
	// function of the seed; remaining time cycles through them again.
	traces int
	// lp solves the interval LP once per instance and executes every
	// case in its order (Algorithm 2); otherwise each case orders the
	// trace itself through core.Schedule.
	lp    bool
	cases []core.Options
	// workers is how many instances an untraced run schedules at once
	// (traced runs use one, so the process-wide allocation counts
	// belong to the call being timed). Two, one per vCPU of the 2-vCPU
	// machine the benchmark targets, doubles the traces a run covers;
	// see the specs for which workload needs that.
	workers int
}

// offline-hlp pins lp.MethodSparse: at m=150 the dense tableau takes
// 24–33 s per instance on two vCPUs, and the two methods can stop at
// different optimal vertices of the same LP, which changes the H_LP
// order and so Σ w·C. objective_ratio is comparable only under one
// pinned method (see NOTES.md).
//
// It runs two instances at a time: LP cost varies widely from trace to
// trace (2.9–8.3 s), and six traces one at a time left the median
// instance time 31% apart between seeds; ten, two at a time, 10–15%.
var hlpSpec = offlineSpec{
	name:    "offline-hlp",
	traces:  10,
	workers: 2,
	lp:      true,
	cases: []core.Options{
		{Ordering: core.OrderLP, Grouping: true},
		{Ordering: core.OrderLP, Grouping: true, Backfill: true},
	},
}

// offline-grid runs one instance at a time: its per-trace cost varies
// little (~6%), and its memory-bound BvN execution slowed by a varying
// amount beside a second instance (first-schedule spread between seeds
// 19% two at a time, 8% one at a time).
var gridSpec = offlineSpec{
	name:    "offline-grid",
	traces:  11,
	workers: 1,
	cases:   gridCases(),
}

// gridCases is the LP-free half of Table 1: H_A and H_ρ × cases (a)–(d).
func gridCases() []core.Options {
	var out []core.Options
	for _, o := range core.AllOptions() {
		if o.Ordering != core.OrderLP {
			out = append(out, o)
		}
	}
	return out
}

func runOfflineHLP(rc *runConfig, rep *report) error  { return runOffline(hlpSpec, rc, rep) }
func runOfflineGrid(rc *runConfig, rep *report) error { return runOffline(gridSpec, rc, rep) }

// traceConfig is the paper-scale synthetic Facebook-like trace
// (m=150, n=300, zero release dates), or a tiny one for smoke tests.
func traceConfig(s scale) trace.Config {
	cfg := trace.DefaultConfig()
	if s == scaleTiny {
		cfg.Ports = 8
		cfg.NumCoflows = 12
	}
	return cfg
}

// generateTraces builds the run's distinct instances with
// random-permutation weights, and returns the time each trace.Generate
// call took.
func generateTraces(rc *runConfig, k int) ([]*coflowmodel.Instance, []time.Duration, error) {
	out := make([]*coflowmodel.Instance, k)
	gen := make([]time.Duration, k)
	for i := range out {
		cfg := traceConfig(rc.scale)
		cfg.Seed = deriveSeed(rc.seed, uint64(i))
		t := time.Now()
		ins, err := trace.Generate(cfg)
		gen[i] = time.Since(t)
		if err != nil {
			return nil, nil, fmt.Errorf("generate trace %d: %w", i, err)
		}
		ins.SetRandomPermutationWeights(rand.New(rand.NewSource(deriveSeed(rc.seed, uint64(1000+i)))))
		out[i] = ins
	}
	return out, gen, nil
}

// sameInstances reports whether two generations produced identical
// inputs (the seed must fully determine them).
func sameInstances(a, b []*coflowmodel.Instance) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Ports != y.Ports || len(x.Coflows) != len(y.Coflows) {
			return false
		}
		for k := range x.Coflows {
			cx, cy := &x.Coflows[k], &y.Coflows[k]
			if cx.ID != cy.ID || cx.Weight != cy.Weight || cx.Release != cy.Release || len(cx.Flows) != len(cy.Flows) {
				return false
			}
			for f := range cx.Flows {
				if cx.Flows[f] != cy.Flows[f] {
					return false
				}
			}
		}
	}
	return true
}

// instanceRun is one instance's pass through every case: the untraced
// composite pipeline and, in traced runs, the stage-by-stage one.
type instanceRun struct {
	index       int // position in the run; the trace is traces[index%k]
	first, wall time.Duration
	results     []*core.Result // nil where the case errored
	errs        []error        // per case
	lpBound     float64

	staged    [][]int64 // traced runs only
	lt        layerTimes
	stagedErr error
}

// runComposite is the untraced pipeline through the packages' composite
// entry points: lpmodel.SolveIntervalLPWith + core.ExecuteOrdered for
// H_LP, core.Schedule for the grid cells.
func runComposite(spec offlineSpec, ins *coflowmodel.Instance) instanceRun {
	run := instanceRun{results: make([]*core.Result, len(spec.cases)), errs: make([]error, len(spec.cases))}
	start := time.Now()
	var order []int
	if spec.lp {
		sol, err := lpmodel.SolveIntervalLPWith(ins, lp.MethodSparse)
		if err != nil {
			for i := range run.errs {
				run.errs[i] = fmt.Errorf("interval LP: %w", err)
			}
			run.wall = time.Since(start)
			run.first = run.wall
			return run
		}
		order = sol.Order
		run.lpBound = sol.LowerBound
	}
	for i, opts := range spec.cases {
		if spec.lp {
			run.results[i], run.errs[i] = core.ExecuteOrdered(ins, order, opts)
		} else {
			run.results[i], run.errs[i] = core.Schedule(ins, opts)
		}
		if i == 0 {
			run.first = time.Since(start)
		}
	}
	run.wall = time.Since(start)
	return run
}

// runInstances runs instance i = 0, 1, ... on workers goroutines until
// every one of the k traces has run once and the deadline has passed,
// and returns the runs in index order.
func runInstances(k, workers int, deadline time.Time, run func(i int) instanceRun) []instanceRun {
	var mu sync.Mutex
	next := 0
	var out []instanceRun
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i >= k && !time.Now().Before(deadline) {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				r := run(i)
				r.index = i
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(out, func(a, b int) bool { return out[a].index < out[b].index })
	return out
}

// layerTimes accumulates the traced composition's per-layer cost for
// one instance.
type layerTimes struct {
	solve, order, group, execute, wall time.Duration
	solveAllocs, executeAllocs         float64
	iterations, rows, vars             int
	matchings, stages                  int
}

func (lt *layerTimes) covered() time.Duration {
	return lt.solve + lt.order + lt.group + lt.execute
}

// arrivalOrder is H_A as core.Schedule computes it: coflow indices by
// ID (core keeps its own copy unexported).
func arrivalOrder(ins *coflowmodel.Instance) []int {
	order := make([]int, len(ins.Coflows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return ins.Coflows[order[a]].ID < ins.Coflows[order[b]].ID
	})
	return order
}

// runStaged is the traced pipeline: the same work as runComposite,
// composed stage by stage from each layer's public functions with a
// timer around every call. It returns each case's completions.
func runStaged(spec offlineSpec, ins *coflowmodel.Instance, allocs *allocCounter) ([][]int64, layerTimes, error) {
	var lt layerTimes
	start := time.Now()
	var order []int
	if spec.lp {
		a := allocs.read()
		t := time.Now()
		sol, err := lpmodel.SolveIntervalLPWith(ins, lp.MethodSparse)
		lt.solve += time.Since(t)
		lt.solveAllocs += allocs.read() - a
		if err != nil {
			return nil, lt, fmt.Errorf("interval LP: %w", err)
		}
		order = sol.Order
		lt.iterations, lt.rows, lt.vars = sol.Iterations, sol.Rows, sol.Vars
	}
	completions := make([][]int64, len(spec.cases))
	for i, opts := range spec.cases {
		if !spec.lp {
			t := time.Now()
			if opts.Ordering == core.OrderLoadWeight {
				order = core.LoadWeightOrder(ins)
			} else {
				order = arrivalOrder(ins)
			}
			lt.order += time.Since(t)
		}

		t := time.Now()
		v := lpmodel.MaxTotalLoads(ins, order)
		stages := switchsim.SingleStage(len(order))
		if opts.Grouping {
			stages = core.GeometricStages(v)
		}
		lt.group += time.Since(t)

		a := allocs.read()
		t = time.Now()
		res, err := switchsim.Execute(&switchsim.Plan{
			Ins: ins, Order: order, Stages: stages, Backfill: opts.Backfill,
		})
		lt.execute += time.Since(t)
		lt.executeAllocs += allocs.read() - a
		if err != nil {
			return nil, lt, fmt.Errorf("%s: execute: %w", opts.Label(), err)
		}
		lt.matchings += res.Matchings
		lt.stages += len(stages)
		completions[i] = res.Completion
	}
	lt.wall = time.Since(start)
	return completions, lt, nil
}

// checkInstance runs the offline output checks on one untraced pass.
func checkInstance(spec offlineSpec, ins *coflowmodel.Instance, run instanceRun, rc *runConfig, rep *report) {
	m := ins.Ports
	for i, res := range run.results {
		if res == nil {
			continue
		}
		label := spec.name + " " + spec.cases[i].Label()
		bad := false
		rc.tamper("total", res)
		if want := switchsim.WeightedCompletion(ins, res.Completion); res.TotalWeighted != want {
			rep.problem("%s: TotalWeighted %g != Σ w·C %g", label, res.TotalWeighted, want)
			bad = true
		}
		rc.tamper("release", res)
		for k := range ins.Coflows {
			c := &ins.Coflows[k]
			if res.Completion[k] < c.Release+c.Load(m) {
				rep.problem("%s: coflow %d completes at %d < r+ρ = %d", label, c.ID, res.Completion[k], c.Release+c.Load(m))
				bad = true
				break
			}
		}
		if opts := spec.cases[i]; opts.Ordering == core.OrderLP && opts.Grouping && !opts.Backfill {
			rc.tamper("prop1", res)
			bound := core.Proposition1Bound(ins, res.Order, res.Stages, res.V)
			for pos, k := range res.Order {
				if res.Completion[k] > bound[pos] {
					rep.problem("%s: coflow %d completes at %d > Proposition 1 bound %d", label, ins.Coflows[k].ID, res.Completion[k], bound[pos])
					bad = true
					break
				}
			}
		}
		if spec.lp {
			lb := run.lpBound
			rc.tamper("lpbound", &lb)
			if lb > res.TotalWeighted*(1+1e-9) {
				rep.problem("%s: LP lower bound %g exceeds Σ w·C %g", label, lb, res.TotalWeighted)
				bad = true
			}
		}
		if bad {
			rep.failed++ // one failed schedule, however many checks it broke
		}
	}
}

// checkComposition verifies that the traced stage-by-stage run
// reproduced the untraced completions exactly.
func checkComposition(spec offlineSpec, run instanceRun, staged [][]int64, rc *runConfig, rep *report) {
	rc.tamper("compose", staged)
	for i, res := range run.results {
		if res == nil {
			continue
		}
		got := staged[i]
		same := len(got) == len(res.Completion)
		for k := 0; same && k < len(got); k++ {
			same = got[k] == res.Completion[k]
		}
		if !same {
			rep.fail("%s %s: traced composition's completions differ from the untraced run", spec.name, spec.cases[i].Label())
		}
	}
}

func runOffline(spec offlineSpec, rc *runConfig, rep *report) error {
	k := spec.traces
	if rc.scale == scaleTiny {
		k = 2
	}
	// Set-up: generate the run's traces, repeatedly; setup_s is the
	// median, and every repeat must yield the same inputs.
	var traces []*coflowmodel.Instance
	var gen samples
	setup, err := repeatSetup(func() (time.Duration, error) {
		t := time.Now()
		ins, per, err := generateTraces(rc, k)
		d := time.Since(t)
		if err != nil {
			return 0, err
		}
		for _, g := range per {
			gen = append(gen, g.Seconds())
		}
		if traces != nil && !sameInstances(traces, ins) {
			rep.fail("%s: seed %d generated different traces on a set-up repeat", spec.name, rc.seed)
		}
		traces = ins
		return d, nil
	})
	if err != nil {
		return err
	}
	rep.set("setup_s", setup)

	allocs := newAllocCounter()
	workers := spec.workers
	if rc.traced {
		workers = 1
	}
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	runs := runInstances(k, workers, deadline, func(i int) instanceRun {
		run := runComposite(spec, traces[i%k])
		if rc.traced {
			run.staged, run.lt, run.stagedErr = runStaged(spec, traces[i%k], allocs)
		}
		return run
	})

	var first, wall, stagedWall samples
	var lts []layerTimes
	logRatio, ratios := 0.0, 0
	for _, run := range runs {
		ins := traces[run.index%k]
		first = append(first, run.first.Seconds())
		wall = append(wall, run.wall.Seconds())
		rep.attempted += int64(len(spec.cases))
		for i, err := range run.errs {
			if err != nil {
				rep.fail("%s %s: %v", spec.name, spec.cases[i].Label(), err)
			}
		}
		checkInstance(spec, ins, run, rc, rep)
		if run.index < k {
			lb := lpmodel.TrivialLowerBound(ins)
			for _, res := range run.results {
				if res != nil {
					logRatio += math.Log(res.TotalWeighted / lb)
					ratios++
				}
			}
		}
		if !rc.traced {
			continue
		}
		if run.stagedErr != nil {
			rep.fail("%s traced: %v", spec.name, run.stagedErr)
			continue
		}
		checkComposition(spec, run, run.staged, rc, rep)
		stagedWall = append(stagedWall, run.lt.wall.Seconds())
		if run.index < k {
			lts = append(lts, run.lt)
		}
	}

	rep.set("instance_p50_s", wall.p50())
	rep.set("complete_p50_s", wall.p50())
	rep.set("complete_p90_s", quantile(wall.sorted(), 0.9))
	rep.set("ack_p50_s", first.p50())
	rep.set("ack_p90_s", quantile(first.sorted(), 0.9))
	rep.notef("ack/complete p90 are nearest-rank over %d instances (near the maximum at this count)", len(wall))
	if ratios > 0 {
		rep.set("objective_ratio", math.Exp(logRatio/float64(ratios)))
	}
	rep.notef("%d instances over %d distinct traces, %d configurations each", len(wall), k, len(spec.cases))

	if rc.traced {
		setLayerMetrics(rep, lts, gen)
		if len(stagedWall) > 0 {
			rep.set("tracing.overhead_share", stagedWall.p50()/wall.p50()-1)
		}
	}
	return nil
}

// setLayerMetrics reports the traced composition's per-layer numbers:
// times and allocation counts are medians per instance, exact counts
// are means over the distinct traces, coverage is total covered time
// over total traced wall time.
func setLayerMetrics(rep *report, lts []layerTimes, gen samples) {
	rep.set("trace.generate_s", gen.p50())
	if len(lts) == 0 {
		return
	}
	pick := func(f func(lt *layerTimes) float64) samples {
		s := make(samples, len(lts))
		for i := range lts {
			s[i] = f(&lts[i])
		}
		return s
	}
	mean := func(s samples) float64 {
		var t float64
		for _, v := range s {
			t += v
		}
		return t / float64(len(s))
	}
	rep.set("lpmodel.solve_s", pick(func(lt *layerTimes) float64 { return lt.solve.Seconds() }).p50())
	rep.set("lpmodel.solve_allocs", pick(func(lt *layerTimes) float64 { return lt.solveAllocs }).p50())
	rep.set("lp.iterations", mean(pick(func(lt *layerTimes) float64 { return float64(lt.iterations) })))
	rep.set("lp.rows", mean(pick(func(lt *layerTimes) float64 { return float64(lt.rows) })))
	rep.set("lp.vars", mean(pick(func(lt *layerTimes) float64 { return float64(lt.vars) })))
	rep.set("core.order_s", pick(func(lt *layerTimes) float64 { return lt.order.Seconds() }).p50())
	rep.set("core.group_s", pick(func(lt *layerTimes) float64 { return lt.group.Seconds() }).p50())
	rep.set("switchsim.execute_s", pick(func(lt *layerTimes) float64 { return lt.execute.Seconds() }).p50())
	rep.set("switchsim.execute_allocs", pick(func(lt *layerTimes) float64 { return lt.executeAllocs }).p50())
	rep.set("switchsim.matchings", mean(pick(func(lt *layerTimes) float64 { return float64(lt.matchings) })))
	rep.set("switchsim.stages", mean(pick(func(lt *layerTimes) float64 { return float64(lt.stages) })))
	var covered, wall time.Duration
	for _, lt := range lts {
		covered += lt.covered()
		wall += lt.wall
	}
	rep.set("pipeline.coverage", covered.Seconds()/wall.Seconds())
}
