package lp

// Status-path coverage for the revised simplex, both through the
// public SolveSparse pipeline and directly on solveRevised (bypassing
// presolve, so the simplex itself — not a reduction — produces the
// verdict), plus the MPS round-trip of presolved problems.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func solveSparseOrFail(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := SolveSparse(p)
	if err != nil {
		t.Fatalf("SolveSparse: %v", err)
	}
	return sol
}

func TestSparseSimple(t *testing.T) {
	// max x0 + x1 (as min of negation) s.t. x0 + x1 ≤ 4, x0 ≤ 3.
	p := NewProblem(2)
	p.SetObjective(0, -1)
	p.SetObjective(1, -1)
	p.AddConstraint([]Entry{{0, 1}, {1, 1}}, LE, 4)
	p.AddConstraint([]Entry{{0, 1}}, LE, 3)
	sol := solveSparseOrFail(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective-(-4)) > 1e-9 {
		t.Fatalf("got %v obj %g, want optimal obj -4", sol.Status, sol.Objective)
	}
}

func TestSparseInfeasible(t *testing.T) {
	// Multi-entry rows so presolve cannot shortcut the verdict on its
	// own in every case; pipeline and raw solver must both say so.
	p := NewProblem(2)
	p.AddConstraint([]Entry{{0, 1}, {1, 1}}, GE, 4)
	p.AddConstraint([]Entry{{0, 1}, {1, 1}}, LE, 1)
	sol := solveSparseOrFail(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("pipeline status = %v, want infeasible", sol.Status)
	}
	rsol, err := solveRevised(p)
	if err != nil {
		t.Fatalf("solveRevised: %v", err)
	}
	if rsol.Status != Infeasible {
		t.Fatalf("revised status = %v, want infeasible", rsol.Status)
	}
}

func TestSparseUnbounded(t *testing.T) {
	// min −x0 − x1 s.t. x0 − x1 ≤ 1: the ray (t, t) is unbounded.
	p := NewProblem(2)
	p.SetObjective(0, -1)
	p.SetObjective(1, -1)
	p.AddConstraint([]Entry{{0, 1}, {1, -1}}, LE, 1)
	sol := solveSparseOrFail(t, p)
	if sol.Status != Unbounded {
		t.Fatalf("pipeline status = %v, want unbounded", sol.Status)
	}
	rsol, err := solveRevised(p)
	if err != nil {
		t.Fatalf("solveRevised: %v", err)
	}
	if rsol.Status != Unbounded {
		t.Fatalf("revised status = %v, want unbounded", rsol.Status)
	}
}

func TestSparseBealeDegenerate(t *testing.T) {
	// Beale's cycling example; the Dantzig-then-Bland contract must
	// terminate at −0.05 like the dense solver.
	p := NewProblem(4)
	p.SetObjective(0, -0.75)
	p.SetObjective(1, 150)
	p.SetObjective(2, -0.02)
	p.SetObjective(3, 6)
	p.AddConstraint([]Entry{{0, 0.25}, {1, -60}, {2, -0.04}, {3, 9}}, LE, 0)
	p.AddConstraint([]Entry{{0, 0.5}, {1, -90}, {2, -0.02}, {3, 3}}, LE, 0)
	p.AddConstraint([]Entry{{2, 1}}, LE, 1)
	for _, run := range []struct {
		name  string
		solve func() (*Solution, error)
	}{
		{"pipeline", func() (*Solution, error) { return SolveSparse(p) }},
		{"revised", func() (*Solution, error) { return solveRevised(p) }},
	} {
		sol, err := run.solve()
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("%s: status = %v, want optimal", run.name, sol.Status)
		}
		if math.Abs(sol.Objective-(-0.05)) > 1e-6 {
			t.Fatalf("%s: objective = %g, want -0.05", run.name, sol.Objective)
		}
	}
}

func TestSparseDegenerateCyclingProne(t *testing.T) {
	// Kuhn's degenerate instance: multiple zero-ratio pivots at the
	// origin; plain Dantzig pricing can cycle without the Bland
	// fallback. Optimal value is -2 at (2, 0, 1).
	p := NewProblem(3)
	p.SetObjective(0, -2)
	p.SetObjective(1, -3)
	p.SetObjective(2, 1)
	p.AddConstraint([]Entry{{0, 1}, {1, 2}, {2, -2}}, LE, 0)
	p.AddConstraint([]Entry{{0, 1}, {1, 4}, {2, -1}}, LE, 1)
	p.AddConstraint([]Entry{{0, -1}, {1, -1}, {2, 1}}, LE, 0)
	dense := solveOrFail(t, p)
	sol := solveSparseOrFail(t, p)
	if sol.Status != dense.Status {
		t.Fatalf("status: sparse %v, dense %v", sol.Status, dense.Status)
	}
	if dense.Status == Optimal && math.Abs(sol.Objective-dense.Objective) > 1e-6 {
		t.Fatalf("objective: sparse %g, dense %g", sol.Objective, dense.Objective)
	}
}

func TestSparseNoConstraints(t *testing.T) {
	// Zero rows: optimal at the origin for c ≥ 0, unbounded otherwise.
	p := NewProblem(2)
	p.SetObjective(0, 1)
	sol := solveSparseOrFail(t, p)
	if sol.Status != Optimal || sol.Objective != 0 {
		t.Fatalf("got %v obj %g, want optimal 0", sol.Status, sol.Objective)
	}
	q := NewProblem(1)
	q.SetObjective(0, -1)
	sol = solveSparseOrFail(t, q)
	if sol.Status != Unbounded {
		t.Fatalf("got %v, want unbounded", sol.Status)
	}
}

func TestSolveWithDispatch(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective(0, -1)
	p.AddConstraint([]Entry{{0, 2}}, LE, 6)
	for _, m := range []Method{MethodDense, MethodSparse} {
		sol, err := SolveWith(p, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if sol.Status != Optimal || math.Abs(sol.Objective-(-3)) > 1e-9 {
			t.Fatalf("%v: got %v obj %g, want optimal -3", m, sol.Status, sol.Objective)
		}
	}
	if _, err := SolveWith(nil, MethodSparse); err == nil {
		t.Fatal("SolveWith(nil) succeeded")
	}
}

func TestParseMethod(t *testing.T) {
	for in, want := range map[string]Method{
		"dense": MethodDense, "tableau": MethodDense,
		"sparse": MethodSparse, "revised": MethodSparse,
	} {
		got, err := ParseMethod(in)
		if err != nil || got != want {
			t.Fatalf("ParseMethod(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseMethod("simplex2000"); err == nil {
		t.Fatal("ParseMethod accepted junk")
	}
	if MethodDense.String() != "dense" || MethodSparse.String() != "sparse" {
		t.Fatalf("String(): %v/%v", MethodDense, MethodSparse)
	}
}

// TestMPSRoundTripPresolved proves presolved problems survive the MPS
// writer/reader with the same optimum: the reduced problem is pure
// x ≥ 0 standard form (bounds re-emitted as rows), which is exactly
// the subset mps.go speaks.
func TestMPSRoundTripPresolved(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rounds := 0
	for n := 0; n < 1500 && rounds < 25; n++ {
		p := randomProblem(rng)
		ps, err := Presolve(p)
		if err != nil {
			t.Fatalf("instance %d: presolve: %v", n, err)
		}
		if ps.Decided() {
			continue
		}
		red := ps.Reduced()
		before, err := Solve(red)
		if err != nil {
			t.Fatalf("instance %d: solve reduced: %v", n, err)
		}
		if before.Status != Optimal {
			continue
		}
		rounds++
		var buf bytes.Buffer
		if err := WriteMPS(&buf, red, "presolved"); err != nil {
			t.Fatalf("instance %d: write MPS: %v", n, err)
		}
		back, err := ReadMPS(&buf)
		if err != nil {
			t.Fatalf("instance %d: read MPS: %v", n, err)
		}
		after, err := Solve(back)
		if err != nil {
			t.Fatalf("instance %d: solve re-read: %v", n, err)
		}
		if after.Status != Optimal {
			t.Fatalf("instance %d: re-read status = %v, want optimal", n, after.Status)
		}
		if diff := math.Abs(after.Objective - before.Objective); diff > 1e-6*(1+math.Abs(before.Objective)) {
			t.Fatalf("instance %d: MPS round trip moved the optimum: %.12g -> %.12g",
				n, before.Objective, after.Objective)
		}
	}
	if rounds < 8 {
		t.Fatalf("only %d round-trippable instances generated; generator drifted", rounds)
	}
}

// luHarness keeps a basis both as the sparse columns the factors
// consume and as a dense copy for reference products.
type luHarness struct {
	t     *testing.T
	rng   *rand.Rand
	m     int
	cols  []spCol
	dense [][]float64 // dense[i][j]
	blu   *basisLU
}

func newLUHarness(t *testing.T, rng *rand.Rand, cols []spCol) *luHarness {
	m := len(cols)
	h := &luHarness{t: t, rng: rng, m: m, cols: cols, dense: make([][]float64, m), blu: newBasisLU(m)}
	for i := range h.dense {
		h.dense[i] = make([]float64, m)
	}
	for j, c := range cols {
		for i, row := range c.ind {
			h.dense[row][j] += c.val[i]
		}
	}
	return h
}

func (h *luHarness) refactor() error {
	return h.blu.refactor(func(k int) spCol { return h.cols[k] })
}

// checkInverse verifies FTRAN and BTRAN invert the current basis on a
// random vector: z = B⁻¹·(B·x) and y = B⁻ᵀ·(Bᵀ·x) must return x.
func (h *luHarness) checkInverse(label string) {
	h.t.Helper()
	m := h.m
	want := make([]float64, m)
	for i := range want {
		want[i] = h.rng.NormFloat64()
	}
	rhs := make([]float64, m)  // B·want, row coordinates
	rhsT := make([]float64, m) // Bᵀ·want, position coordinates
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			rhs[i] += h.dense[i][j] * want[j]
			rhsT[j] += h.dense[i][j] * want[i]
		}
	}
	z := make([]float64, m)
	h.blu.ftran(rhs, z)
	y := make([]float64, m)
	h.blu.btran(rhsT, y)
	for i := 0; i < m; i++ {
		if math.Abs(z[i]-want[i]) > 1e-8 {
			h.t.Fatalf("%s: ftran[%d] = %g, want %g", label, i, z[i], want[i])
		}
		if math.Abs(y[i]-want[i]) > 1e-8 {
			h.t.Fatalf("%s: btran[%d] = %g, want %g", label, i, y[i], want[i])
		}
	}
}

// replace swaps position r's column for c through an eta update, as a
// simplex pivot does.
func (h *luHarness) replace(r int, c spCol) {
	h.t.Helper()
	rhs := make([]float64, h.m)
	for i, row := range c.ind {
		rhs[row] += c.val[i]
	}
	w := make([]float64, h.m)
	h.blu.ftran(rhs, w)
	if err := h.blu.push(r, w); err != nil {
		h.t.Fatalf("push: %v", err)
	}
	h.cols[r] = c
	for i := 0; i < h.m; i++ {
		h.dense[i][r] = 0
	}
	for i, row := range c.ind {
		h.dense[row][r] += c.val[i]
	}
}

// TestSparseLUFactorSolve pins the LU kernel itself on a dense-ish
// deterministic matrix: FTRAN and BTRAN must invert it to fine
// precision, including through a chain of eta updates.
func TestSparseLUFactorSolve(t *testing.T) {
	const m = 12
	rng := rand.New(rand.NewSource(5))
	cols := make([]spCol, m)
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			if rng.Float64() < 0.4 || i == j {
				v := rng.NormFloat64()
				if i == j {
					v += 3 // keep it comfortably nonsingular
				}
				cols[j].ind = append(cols[j].ind, i)
				cols[j].val = append(cols[j].val, v)
			}
		}
	}
	h := newLUHarness(t, rng, cols)
	if err := h.refactor(); err != nil {
		t.Fatalf("factor: %v", err)
	}
	h.checkInverse("after factor")
	// Replace three columns through eta updates and re-verify.
	for rep := 0; rep < 3; rep++ {
		r := rng.Intn(m)
		newCol := spCol{}
		for i := 0; i < m; i++ {
			if rng.Float64() < 0.5 || i == r {
				v := rng.NormFloat64()
				if i == r {
					v += 3
				}
				newCol.ind = append(newCol.ind, i)
				newCol.val = append(newCol.val, v)
			}
		}
		h.replace(r, newCol)
		h.checkInverse("after eta")
	}
}

// slackHeavyColumn returns a basis column anchored at row anchor: a
// ±1 unit column with probability unitShare (a slack or artificial),
// otherwise a structural column with a dominant anchor entry and a few
// random off-anchor entries.
func slackHeavyColumn(rng *rand.Rand, m, anchor int, unitShare float64) spCol {
	if rng.Float64() < unitShare {
		v := 1.0
		if rng.Intn(2) == 0 {
			v = -1
		}
		return spCol{ind: []int{anchor}, val: []float64{v}}
	}
	c := spCol{ind: []int{anchor}, val: []float64{3 + rng.Float64()}}
	seen := map[int]bool{anchor: true}
	for e := rng.Intn(4); e >= 0; e-- {
		i := rng.Intn(m)
		if seen[i] {
			continue
		}
		seen[i] = true
		c.ind = append(c.ind, i)
		c.val = append(c.val, rng.NormFloat64())
	}
	return c
}

// TestSparseLUSlackHeavy factors simplex-shaped bases — 60–90% unit
// columns, the rest sparse structurals, in shuffled positions — and
// checks FTRAN/BTRAN against the dense product through a full eta
// chain, up to and past the refactor the chain triggers.
func TestSparseLUSlackHeavy(t *testing.T) {
	for _, m := range []int{12, 200} {
		for trial := 0; trial < 3; trial++ {
			rng := rand.New(rand.NewSource(int64(100*m + trial)))
			unitShare := 0.6 + 0.3*rng.Float64()
			// Position j is anchored at row anchor[j]; replacements keep
			// the anchor, so every basis in the chain stays nonsingular.
			anchor := rng.Perm(m)
			cols := make([]spCol, m)
			for j := range cols {
				cols[j] = slackHeavyColumn(rng, m, anchor[j], unitShare)
			}
			h := newLUHarness(t, rng, cols)
			label := func(what string) string {
				return fmt.Sprintf("m=%d trial %d (unit share %.2f): %s", m, trial, unitShare, what)
			}
			if err := h.refactor(); err != nil {
				t.Fatalf("%s", label(err.Error()))
			}
			h.checkInverse(label("after factor"))
			for e := 1; e <= refactorEvery; e++ {
				r := rng.Intn(m)
				h.replace(r, slackHeavyColumn(rng, m, anchor[r], unitShare))
				if e%8 == 0 || e == refactorEvery {
					h.checkInverse(label(fmt.Sprintf("after %d etas", e)))
				}
			}
			if !h.blu.needsRefactor() {
				t.Fatalf("%s", label("full eta file does not ask for a refactor"))
			}
			if err := h.refactor(); err != nil {
				t.Fatalf("%s", label("refactor: "+err.Error()))
			}
			h.checkInverse(label("after refactor"))
		}
	}
}

// TestSparseLUSingular requires errSingular for structurally singular
// bases, and that the same factors then serve a nonsingular basis
// (the failed attempt must leave no scratch behind).
func TestSparseLUSingular(t *testing.T) {
	const m = 8
	rng := rand.New(rand.NewSource(11))
	base := func() []spCol {
		cols := make([]spCol, m)
		for j := range cols {
			cols[j] = slackHeavyColumn(rng, m, j, 0.5)
		}
		return cols
	}
	dup := base()
	dup[5] = dup[2]
	emptyRow := base()
	for j := range emptyRow {
		// Fold row 3 into row 4 in every column: nothing covers row 3.
		c := spCol{}
		for i, row := range emptyRow[j].ind {
			if row == 3 {
				row = 4
			}
			c.ind = append(c.ind, row)
			c.val = append(c.val, emptyRow[j].val[i])
		}
		emptyRow[j] = c
	}
	blu := newBasisLU(m)
	for name, cols := range map[string][]spCol{"duplicated column": dup, "empty row": emptyRow} {
		if err := blu.refactor(func(k int) spCol { return cols[k] }); err != errSingular {
			t.Fatalf("%s: refactor = %v, want errSingular", name, err)
		}
	}
	h := newLUHarness(t, rng, base())
	h.blu = blu
	if err := h.refactor(); err != nil {
		t.Fatalf("nonsingular basis after a singular one: %v", err)
	}
	h.checkInverse("after singular attempts")
}

// intervalShapedLP builds an LP with the structure of the interval-
// indexed coflow relaxation (lpmodel's Eqs. 13–15): coflows with
// random loads on 2·ports port constraints, geometric points τ_0 = 0,
// τ_l = 2^(l−1), variables x_l^(k) from the first interval that fits
// coflow k, one convexity row per coflow, and one cumulative load row
// per port and interval that can bind.
func intervalShapedLP(rng *rand.Rand, ports, coflows int) *Problem {
	load := make([][]int64, coflows)
	first := make([]int64, coflows) // the largest port load of coflow k
	var horizon int64
	for k := range load {
		load[k] = make([]int64, 2*ports)
		for f := rng.Intn(2 * ports); f >= 0; f-- {
			size := 1 + rng.Int63n(60)
			load[k][rng.Intn(ports)] += size
			load[k][ports+rng.Intn(ports)] += size
		}
		for _, v := range load[k] {
			first[k] = max(first[k], v)
		}
		horizon += first[k]
	}
	tau := []int64{0, 1}
	for tau[len(tau)-1] < horizon {
		tau = append(tau, 2*tau[len(tau)-1])
	}
	last := len(tau) - 1
	lMin := make([]int, coflows)
	varIdx := make([][]int, coflows)
	numVars := 0
	for k := range load {
		l := 1
		for tau[l] < first[k] {
			l++
		}
		lMin[k] = l
		varIdx[k] = make([]int, last+1)
		for ; l <= last; l++ {
			varIdx[k][l] = numVars
			numVars++
		}
	}
	p := NewProblem(numVars)
	for k := range load {
		w := float64(1 + rng.Intn(10))
		var conv []Entry
		for l := lMin[k]; l <= last; l++ {
			p.SetObjective(varIdx[k][l], w*float64(tau[l-1]))
			conv = append(conv, Entry{Var: varIdx[k][l], Coef: 1})
		}
		p.AddConstraint(conv, EQ, 1)
	}
	for port := 0; port < 2*ports; port++ {
		var total int64
		for k := range load {
			total += load[k][port]
		}
		for l := 1; l <= last && total > tau[l]; l++ {
			var entries []Entry
			for k := range load {
				for u := lMin[k]; u <= l && load[k][port] > 0; u++ {
					entries = append(entries, Entry{Var: varIdx[k][u], Coef: float64(load[k][port])})
				}
			}
			if len(entries) > 0 {
				p.AddConstraint(entries, LE, float64(tau[l]))
			}
		}
	}
	return p
}

// naturalOrderFill factors the basis with plain partial pivoting in
// basis-position order (dense right-looking elimination) and returns
// nnz(L)+nnz(U) off the diagonal: the fill the factorization had
// before columns were reordered and pivots chosen for sparsity, or -1
// for a singular basis.
func naturalOrderFill(cols []spCol) int {
	m := len(cols)
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, m)
	}
	for j, c := range cols {
		for i, row := range c.ind {
			a[row][j] += c.val[i]
		}
	}
	pivoted := make([]bool, m)
	nnz := 0
	var right []int
	for k := 0; k < m; k++ {
		piv, pivMag := -1, 0.0
		for i := 0; i < m; i++ {
			if !pivoted[i] && math.Abs(a[i][k]) > pivMag {
				piv, pivMag = i, math.Abs(a[i][k])
			}
		}
		if piv < 0 {
			return -1
		}
		pivoted[piv] = true
		right = right[:0]
		for c := k + 1; c < m; c++ {
			if a[piv][c] != 0 {
				right = append(right, c)
			}
		}
		nnz += len(right) // U row k
		for i := 0; i < m; i++ {
			if pivoted[i] || a[i][k] == 0 {
				continue
			}
			mult := a[i][k] / a[piv][k]
			nnz++ // L entry
			for _, c := range right {
				a[i][c] -= mult * a[piv][c]
			}
		}
	}
	return nnz
}

// TestSparseLUFillBelowNaturalOrder solves an m=50-port interval-
// shaped LP to its final basis and requires the factorization's
// nnz(L)+nnz(U) to stay below what natural-order partial pivoting
// gives on the same basis, so a fill regression fails here. The bound
// is three quarters of the natural fill (the reordered factors need
// about half): natural order itself lands within roundoff of the
// reference and must fail by a clear margin, not by luck.
func TestSparseLUFillBelowNaturalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	p := intervalShapedLP(rng, 50, 40)
	ps, err := Presolve(p)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Decided() {
		t.Fatalf("presolve decided the LP (%v); nothing left to factor", ps.Status())
	}
	r := newRevised(ps.Reduced())
	sol, err := r.solve()
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	basis := make([]spCol, r.m)
	structural := 0
	for k := range basis {
		basis[k] = r.basisCol(k)
		if len(basis[k].ind) > 1 {
			structural++
		}
	}
	f := newLU(r.m)
	if err := f.factor(func(k int) spCol { return basis[k] }); err != nil {
		t.Fatalf("factor final basis: %v", err)
	}
	fill := len(f.lInd) + len(f.uInd)
	natural := naturalOrderFill(basis)
	if natural < 0 {
		t.Fatal("natural-order reference found the final basis singular")
	}
	t.Logf("final basis: m=%d, %d multi-entry columns; nnz(L)+nnz(U) = %d, natural order %d",
		r.m, structural, fill, natural)
	if structural < r.m/10 {
		t.Fatalf("final basis has only %d multi-entry columns of %d; the LP is too easy to test fill", structural, r.m)
	}
	if 4*fill > 3*natural {
		t.Fatalf("nnz(L)+nnz(U) = %d exceeds 3/4 of natural-order factoring's %d", fill, natural)
	}
}
