package lpmodel

// The real-instance half of the sparse-vs-dense differential sweep
// (the random-LP half lives in internal/lp): generated coflow
// instances across fabric sizes, coflow counts, and release-date
// regimes, solved through both SolveIntervalLPWith methods. The LP
// objective (the paper's lower bound) must agree to tolerance; both
// paths must verify feasible. Orderings may legitimately differ under
// degenerate alternate optima, so the golden tests — not this sweep —
// pin them.

import (
	"math"
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/lp"
	"coflow/internal/obs"
	"coflow/internal/trace"
)

func sweepConfigs(short bool) []trace.Config {
	ms := []int{2, 4, 6, 10, 16}
	ns := []int{1, 2, 4, 8, 12, 20}
	releases := []float64{0, 2.5, 10}
	seeds := []int64{1, 2}
	if short {
		ms = []int{4, 10}
		ns = []int{2, 8}
		seeds = []int64{1}
	}
	var cfgs []trace.Config
	for _, m := range ms {
		for _, n := range ns {
			for _, rel := range releases {
				for _, seed := range seeds {
					cfg := trace.DefaultConfig()
					cfg.Ports = m
					cfg.NumCoflows = n
					cfg.Seed = seed
					cfg.MeanInterarrival = rel
					cfg.MaxFlowSize = 100
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	return cfgs
}

// TestIntervalLPSparseVsDenseSweep covers 180 real interval-LP
// instances (plus the time-indexed sweep below, completing the
// 1000-instance differential budget with internal/lp's random half).
//
// No sparse solve may fall back to the dense oracle: a silent fallback
// would hide an LU breakdown (and cost 10× at paper scale).
func TestIntervalLPSparseVsDenseSweep(t *testing.T) {
	o := lp.NewObs(obs.NewRegistry())
	lp.SetObs(o)
	defer lp.SetObs(lp.Obs{})
	cfgs := sweepConfigs(testing.Short())
	for _, cfg := range cfgs {
		ins := trace.MustGenerate(cfg)
		dense, err := SolveIntervalLPWith(ins, lp.MethodDense)
		if err != nil {
			t.Fatalf("m=%d n=%d rel=%g seed=%d: dense: %v",
				cfg.Ports, cfg.NumCoflows, cfg.MeanInterarrival, cfg.Seed, err)
		}
		sparse, err := SolveIntervalLPWith(ins, lp.MethodSparse)
		if err != nil {
			t.Fatalf("m=%d n=%d rel=%g seed=%d: sparse: %v",
				cfg.Ports, cfg.NumCoflows, cfg.MeanInterarrival, cfg.Seed, err)
		}
		diff := math.Abs(dense.LowerBound - sparse.LowerBound)
		if diff > 1e-6*(1+math.Abs(dense.LowerBound)) {
			t.Fatalf("m=%d n=%d rel=%g seed=%d: lower bound diverged: dense=%.12g sparse=%.12g",
				cfg.Ports, cfg.NumCoflows, cfg.MeanInterarrival, cfg.Seed,
				dense.LowerBound, sparse.LowerBound)
		}
		if len(sparse.Order) != len(dense.Order) {
			t.Fatalf("m=%d n=%d: order lengths differ", cfg.Ports, cfg.NumCoflows)
		}
	}
	if o.SparseSolves.Value() == 0 {
		t.Error("the installed registry counted no sparse solves")
	}
	if n := o.SparseFallbacks.Value(); n != 0 {
		t.Errorf("%d of %d sparse solves fell back to the dense solver", n, o.SparseSolves.Value())
	}
}

// TestTimeIndexedLPSparseVsDenseSweep does the same for (LP-EXP) on
// instances small enough for its pseudo-polynomial size.
func TestTimeIndexedLPSparseVsDenseSweep(t *testing.T) {
	count := 20
	if testing.Short() {
		count = 5
	}
	for i := 0; i < count; i++ {
		cfg := trace.DefaultConfig()
		cfg.Ports = 2 + i%4
		cfg.NumCoflows = 1 + i%5
		cfg.Seed = int64(100 + i)
		cfg.MaxFlowSize = 20
		if i%2 == 1 {
			cfg.MeanInterarrival = 3
		}
		ins := trace.MustGenerate(cfg)
		dense, err := SolveTimeIndexedLPWith(ins, lp.MethodDense)
		if err != nil {
			t.Fatalf("instance %d: dense: %v", i, err)
		}
		sparse, err := SolveTimeIndexedLPWith(ins, lp.MethodSparse)
		if err != nil {
			t.Fatalf("instance %d: sparse: %v", i, err)
		}
		diff := math.Abs(dense.LowerBound - sparse.LowerBound)
		if diff > 1e-6*(1+math.Abs(dense.LowerBound)) {
			t.Fatalf("instance %d: LP-EXP bound diverged: dense=%.12g sparse=%.12g",
				i, dense.LowerBound, sparse.LowerBound)
		}
	}
}

// TestDefaultMethodPlumbing proves SetDefaultMethod actually routes
// SolveIntervalLP, using the paper's worked single-coflow shape.
func TestDefaultMethodPlumbing(t *testing.T) {
	ins := &coflowmodel.Instance{
		Ports: 2,
		Coflows: []coflowmodel.Coflow{{
			ID: 1, Weight: 1,
			Flows: []coflowmodel.Flow{
				{Src: 0, Dst: 1, Size: 1}, {Src: 1, Dst: 0, Size: 2},
				{Src: 0, Dst: 0, Size: 2}, {Src: 1, Dst: 1, Size: 1},
			},
		}},
	}
	base, err := SolveIntervalLP(ins)
	if err != nil {
		t.Fatalf("dense default: %v", err)
	}
	SetDefaultMethod(lp.MethodSparse)
	defer SetDefaultMethod(lp.MethodDense)
	if got := DefaultMethod(); got != lp.MethodSparse {
		t.Fatalf("DefaultMethod = %v after SetDefaultMethod(sparse)", got)
	}
	viaDefault, err := SolveIntervalLP(ins)
	if err != nil {
		t.Fatalf("sparse default: %v", err)
	}
	if math.Abs(base.LowerBound-viaDefault.LowerBound) > 1e-9 {
		t.Fatalf("lower bound moved with method: %g vs %g", base.LowerBound, viaDefault.LowerBound)
	}
}
