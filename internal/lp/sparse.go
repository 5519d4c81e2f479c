package lp

// Revised simplex on a sparse (CSC) standard form. Where the dense
// tableau in lp.go updates an m×(n+1) matrix on every pivot, the
// revised method keeps only the original columns, the current basic
// solution, a factored basis (lu.go) and a vector of reduced costs;
// each iteration does one FTRAN (entering column), an O(m) basic-
// solution update, and one BTRAN of the leaving row's unit vector
// whose result ρ_r, multiplied into the row-wise copy of the
// constraint matrix, updates the reduced costs (pivot-row pricing:
// only the rows in supp(ρ_r) are read). On the interval-indexed
// coflow LPs — almost all unit entries — this is the difference
// between O(m·n) and O(nnz) per iteration.
//
// The solver mirrors the dense tableau's external contract so the two
// stay interchangeable under the differential harness:
//
//   - identical standard-form construction (rhs sign normalization,
//     slack/artificial layout, row equilibration);
//   - the same tolerance constants (epsPivot, epsReduced, epsFeas,
//     looseReduced) and iteration caps;
//   - Dantzig pricing switching to Bland's rule after blandAfter
//     iterations (the dense solver's anti-cycling contract; it prices
//     with devex before the switch, which only changes the pivot
//     path, never the verdict);
//   - the same ratio-test tie-break (smallest basis variable index)
//     and the same scan-all-columns fallback before declaring
//     Unbounded.

import "math"

// revised is the working state of one revised-simplex solve.
type revised struct {
	p *Problem
	m int // constraint rows

	nVar   int
	nSlack int
	nArt   int
	nTotal int

	// The standard-form constraint matrix, held twice in flat arenas
	// built once: column-wise (CSC: column j is colInd/colVal[colStart[j]:
	// colStart[j+1]], ascending rows) for FTRAN, factorization and fresh
	// pricing, and row-wise (rowInd/rowVal[rowStart[i]:rowStart[i+1]],
	// column indices) for pivot-row pricing. Slacks and artificials are
	// unit columns in both.
	colStart []int
	colInd   []int
	colVal   []float64
	rowStart []int
	rowInd   []int
	rowVal   []float64
	bVec     []float64 // normalized (non-negative, equilibrated) rhs

	basis    []int // basis[i]: variable basic at position i
	basisPos []int // basisPos[v]: position of v, -1 when nonbasic
	banned   []bool
	xB       []float64 // basic variable values, position coordinates

	blu *basisLU

	// Dense scratch vectors, reused across iterations.
	rowScratch []float64 // row coordinates (FTRAN input)
	posScratch []float64 // position coordinates (BTRAN input)
	y          []float64 // duals, or the pivot row ρ_r of B⁻¹, row coordinates
	w          []float64 // FTRAN of the entering column, position coordinates

	// Reduced costs of the phase's cost vector (0 for basic and banned
	// columns), updated from the pivot row each iteration and
	// recomputed from fresh duals when dFresh is false and a verdict
	// is near, or when dStale is set.
	d      []float64
	dFresh bool // d was recomputed from duals and not updated since
	dStale bool // a refactor ran since d was last recomputed

	alpha     []float64 // pivot row α_r = ρ_r·A, column coordinates
	alphaCols []int     // columns α_r touched this pivot

	worstReduced float64 // most negative reduced cost at the last recompute
}

func newRevised(p *Problem) *revised {
	m := len(p.rows)
	// Pass 1: normalized senses, slack/artificial counts (mirrors
	// newTableau exactly).
	numSlack, numArt := 0, 0
	senses := make([]Sense, m)
	for i, r := range p.rows {
		s := r.sense
		if r.rhs < 0 {
			switch s {
			case LE:
				s = GE
			case GE:
				s = LE
			}
		}
		senses[i] = s
		switch s {
		case LE:
			numSlack++
		case GE:
			numSlack++
			numArt++
		case EQ:
			numArt++
		}
	}
	r := &revised{
		p:      p,
		m:      m,
		nVar:   p.numVars,
		nSlack: numSlack,
		nArt:   numArt,
		nTotal: p.numVars + numSlack + numArt,
	}
	nnz := numSlack + numArt
	for _, row := range p.rows {
		nnz += len(row.entries)
	}
	r.rowStart = make([]int, m+1)
	r.rowInd = make([]int, 0, nnz)
	r.rowVal = make([]float64, 0, nnz)
	r.bVec = make([]float64, m)
	r.basis = make([]int, m)
	r.basisPos = make([]int, r.nTotal)
	for v := range r.basisPos {
		r.basisPos[v] = -1
	}
	r.banned = make([]bool, r.nTotal)
	r.xB = make([]float64, m)
	r.rowScratch = make([]float64, m)
	r.posScratch = make([]float64, m)
	r.y = make([]float64, m)
	r.w = make([]float64, m)
	r.d = make([]float64, r.nTotal)
	r.alpha = make([]float64, r.nTotal)

	// Pass 2: accumulate each row densely (duplicate entries add, as
	// in AddConstraint's contract), equilibrate, and emit the row-wise
	// file.
	acc := make([]float64, p.numVars)
	var touched []int
	slackIdx := p.numVars
	artIdx := p.numVars + numSlack
	for i, row := range p.rows {
		sign, rhs := 1.0, row.rhs
		if rhs < 0 {
			sign, rhs = -1.0, -rhs
		}
		touched = touched[:0]
		for _, e := range row.entries {
			if acc[e.Var] == 0 {
				touched = append(touched, e.Var)
			}
			acc[e.Var] += sign * e.Coef
		}
		// Row equilibration: structural coefficients and the rhs are
		// scaled by 1/max|structural|, identical to tableau.equilibrate
		// (slack and artificial columns keep their ±1).
		var scale float64
		for _, v := range touched {
			if mag := math.Abs(acc[v]); mag > scale {
				scale = mag
			}
		}
		inv := 1.0
		if scale > 0 && scale != 1 {
			inv = 1 / scale
		}
		for _, v := range touched {
			if c := acc[v]; c != 0 {
				r.rowInd = append(r.rowInd, v)
				r.rowVal = append(r.rowVal, c*inv)
			}
			acc[v] = 0
		}
		r.bVec[i] = rhs * inv
		switch senses[i] {
		case LE:
			r.appendUnit(slackIdx, 1)
			r.setBasic(i, slackIdx)
			slackIdx++
		case GE:
			r.appendUnit(slackIdx, -1)
			slackIdx++
			r.appendUnit(artIdx, 1)
			r.setBasic(i, artIdx)
			artIdx++
		case EQ:
			r.appendUnit(artIdx, 1)
			r.setBasic(i, artIdx)
			artIdx++
		}
		r.rowStart[i+1] = len(r.rowInd)
	}
	r.buildColumns()
	r.blu = newBasisLU(m)
	return r
}

// appendUnit adds the ±1 entry of slack or artificial column v to the
// row being emitted.
func (r *revised) appendUnit(v int, sign float64) {
	r.rowInd = append(r.rowInd, v)
	r.rowVal = append(r.rowVal, sign)
}

// buildColumns transposes the row-wise file into the CSC column file;
// scanning rows in order leaves every column's rows ascending.
func (r *revised) buildColumns() {
	r.colStart = make([]int, r.nTotal+1)
	for _, j := range r.rowInd {
		r.colStart[j+1]++
	}
	for j := 0; j < r.nTotal; j++ {
		r.colStart[j+1] += r.colStart[j]
	}
	r.colInd = make([]int, len(r.rowInd))
	r.colVal = make([]float64, len(r.rowInd))
	next := append([]int(nil), r.colStart[:r.nTotal]...)
	for i := 0; i < r.m; i++ {
		for p := r.rowStart[i]; p < r.rowStart[i+1]; p++ {
			j := r.rowInd[p]
			r.colInd[next[j]] = i
			r.colVal[next[j]] = r.rowVal[p]
			next[j]++
		}
	}
}

func (r *revised) setBasic(pos, v int) {
	r.basis[pos] = v
	r.basisPos[v] = pos
}

// basisCol returns the standard-form column of the variable basic at
// position k, for refactorization, as a view into the column file.
func (r *revised) basisCol(k int) spCol {
	j := r.basis[k]
	s, e := r.colStart[j], r.colStart[j+1]
	return spCol{ind: r.colInd[s:e], val: r.colVal[s:e]}
}

// refactor rebuilds the basis factorization and recomputes xB from
// scratch, clearing accumulated eta roundoff. The reduced costs are
// recomputed before the next pricing pass.
func (r *revised) refactor() error {
	span := pkgObs.FactorizeSeconds.Start()
	defer span.End()
	if err := r.blu.refactor(r.basisCol); err != nil {
		return err
	}
	copy(r.rowScratch, r.bVec)
	r.blu.ftran(r.rowScratch, r.xB)
	r.dStale = true
	return nil
}

// ftranCol computes w = B⁻¹·A_j.
func (r *revised) ftranCol(j int, w []float64) {
	for i := range r.rowScratch {
		r.rowScratch[i] = 0
	}
	for p := r.colStart[j]; p < r.colStart[j+1]; p++ {
		r.rowScratch[r.colInd[p]] += r.colVal[p]
	}
	r.blu.ftran(r.rowScratch, w)
}

// duals computes y = B⁻ᵀ·c_B into r.y.
func (r *revised) duals(cost []float64) {
	for i := 0; i < r.m; i++ {
		r.posScratch[i] = cost[r.basis[i]]
	}
	r.blu.btran(r.posScratch, r.y)
}

// reducedCost returns d_j = c_j − y·A_j for the current duals.
func (r *revised) reducedCost(cost []float64, j int) float64 {
	d := cost[j]
	for p := r.colStart[j]; p < r.colStart[j+1]; p++ {
		d -= r.colVal[p] * r.y[r.colInd[p]]
	}
	return d
}

// recomputeReduced refreshes the duals and recomputes every nonbasic
// reduced cost from them, leaving worstReduced holding the most
// negative one, for the unboundedness fallback.
func (r *revised) recomputeReduced(cost []float64) {
	span := pkgObs.PriceSeconds.Start()
	defer span.End()
	r.duals(cost)
	r.worstReduced = 0
	for j := 0; j < r.nTotal; j++ {
		if r.banned[j] || r.basisPos[j] >= 0 {
			r.d[j] = 0
			continue
		}
		d := r.reducedCost(cost, j)
		r.d[j] = d
		if d < r.worstReduced {
			r.worstReduced = d
		}
	}
	r.dFresh, r.dStale = true, false
}

// updateReduced applies the pivot (enter at position leave, FTRAN in
// w, enter's reduced cost dq) to the reduced costs through the pivot
// row: d_j −= (dq / α_rq)·α_rj with α_r = ρ_r·A, ρ_r = e_rᵀ·B⁻¹ taken
// before the basis change. The row-wise file means only the rows in
// supp(ρ_r), and the columns they hold, are visited.
func (r *revised) updateReduced(leave, enter int, w []float64, dq float64) {
	span := pkgObs.PriceSeconds.Start()
	defer span.End()
	for i := range r.posScratch {
		r.posScratch[i] = 0
	}
	r.posScratch[leave] = 1
	r.blu.btran(r.posScratch, r.y)
	cols := r.alphaCols[:0]
	for i, rho := range r.y {
		if rho == 0 {
			continue
		}
		for p := r.rowStart[i]; p < r.rowStart[i+1]; p++ {
			// A column listed twice (its sum cancelled to exactly 0
			// and grew again) is harmless: the first visit below
			// applies and clears it, the second applies 0.
			j := r.rowInd[p]
			if r.alpha[j] == 0 {
				cols = append(cols, j)
			}
			r.alpha[j] += rho * r.rowVal[p]
		}
	}
	theta := dq / w[leave]
	for _, j := range cols {
		if !r.banned[j] && r.basisPos[j] < 0 {
			r.d[j] -= theta * r.alpha[j]
		}
		r.alpha[j] = 0
	}
	r.alphaCols = cols
	r.d[enter] = 0
	// The leaving column's α is 1; a banned artificial leaving a
	// redundant row keeps d = 0 so it can never re-enter.
	if out := r.basis[leave]; !r.banned[out] {
		r.d[out] = -theta
	}
	r.dFresh = false
}

// price returns the entering column from the maintained reduced
// costs: the most negative (Dantzig) or the first negative one
// (Bland), or -1 when none is below −epsReduced. Basic and banned
// columns hold d = 0, so they never qualify.
func (r *revised) price(bland bool) int {
	best := -1
	bestD := -epsReduced
	for j, d := range r.d {
		if d < -epsReduced {
			if bland {
				return j
			}
			if d < bestD {
				best, bestD = j, d
			}
		}
	}
	return best
}

// enteringReduced is the reduced cost of the entering column j from
// its FTRAN w: c_j − c_B·w, exact for the current factors.
func (r *revised) enteringReduced(cost []float64, j int, w []float64) float64 {
	d := cost[j]
	for i, bv := range r.basis {
		d -= cost[bv] * w[i]
	}
	return d
}

// ratioTest returns the leaving position for FTRAN column w, or -1 if
// no entry admits one. Ties break on the smallest basis variable
// index, mirroring the dense tableau's lexicographic anti-cycling.
func (r *revised) ratioTest(w []float64) int {
	leave := -1
	var bestRatio float64
	for i := 0; i < r.m; i++ {
		wi := w[i]
		if wi <= epsPivot {
			continue
		}
		ratio := r.xB[i] / wi
		if leave < 0 || ratio < bestRatio-epsPivot ||
			(math.Abs(ratio-bestRatio) <= epsPivot && r.basis[i] < r.basis[leave]) {
			leave, bestRatio = i, ratio
		}
	}
	return leave
}

// anyEnteringWithLeave scans every improving column, most negative
// reduced cost first, for one admitting a ratio test (the dense
// solver's pre-Unbounded fallback). The winning column's FTRAN is left
// in r.w. Requires fresh reduced costs.
func (r *revised) anyEnteringWithLeave() (enter, leave int) {
	type cand struct {
		j int
		d float64
	}
	var cands []cand
	for j, d := range r.d {
		if d < -epsReduced {
			cands = append(cands, cand{j, d})
		}
	}
	for len(cands) > 0 {
		best := 0
		for i := range cands {
			if cands[i].d < cands[best].d {
				best = i
			}
		}
		j := cands[best].j
		r.ftranCol(j, r.w)
		if l := r.ratioTest(r.w); l >= 0 {
			return j, l
		}
		cands[best] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]
	}
	return -1, -1
}

// pivot applies the basis change (enter at position leave, FTRAN in
// w): updates xB, records the eta, and refactors when the eta file is
// full. The returned error signals numerical breakdown.
func (r *revised) pivot(leave, enter int, w []float64) error {
	span := pkgObs.UpdateSeconds.Start()
	defer span.End()
	theta := r.xB[leave] / w[leave]
	for i := range r.xB {
		if i != leave && w[i] != 0 {
			r.xB[i] -= w[i] * theta
		}
	}
	r.xB[leave] = theta
	if err := r.blu.push(leave, w); err != nil {
		return err
	}
	r.basisPos[r.basis[leave]] = -1
	r.setBasic(leave, enter)
	if r.blu.needsRefactor() {
		return r.refactor()
	}
	return nil
}

// run iterates pivots under cost to optimality; the Status follows the
// dense solver's contract exactly. A non-nil error means numerical
// breakdown (singular refactorization) and the caller should fall back
// to the dense solver.
//
// Reduced costs are recomputed from fresh duals at the start, after
// every refactor, before any verdict (Optimal or Unbounded), and when
// the entering column's FTRAN shows its updated value has drifted, so
// the verdicts see the same values a full pricing pass would; in
// between they are updated from the pivot row.
func (r *revised) run(cost []float64, blandAfter int) (Status, int, error) {
	maxIter := iterFactor * (r.m + r.nTotal)
	if maxIter < iterFloor {
		maxIter = iterFloor
	}
	r.recomputeReduced(cost)
	iters := 0
	for iters < maxIter {
		if r.dStale {
			r.recomputeReduced(cost)
		}
		enter := r.price(iters >= blandAfter)
		if enter < 0 {
			if !r.dFresh {
				r.recomputeReduced(cost)
				continue
			}
			return Optimal, iters, nil
		}
		r.ftranCol(enter, r.w)
		dq := r.enteringReduced(cost, enter, r.w)
		if dq >= -epsReduced && !r.dFresh {
			// The updated value drifted past the factors' own; price
			// again from fresh duals.
			r.recomputeReduced(cost)
			continue
		}
		leave := r.ratioTest(r.w)
		if leave < 0 {
			if !r.dFresh {
				r.recomputeReduced(cost)
			}
			enter, leave = r.anyEnteringWithLeave()
			if leave < 0 {
				if r.worstReduced >= -looseReduced {
					return Optimal, iters, nil
				}
				return Unbounded, iters, nil
			}
			dq = r.enteringReduced(cost, enter, r.w)
		}
		r.updateReduced(leave, enter, r.w, dq)
		if err := r.pivot(leave, enter, r.w); err != nil {
			return IterLimit, iters, err
		}
		iters++
	}
	return IterLimit, iters, nil
}

func (r *revised) phase1Cost() []float64 {
	c := make([]float64, r.nTotal)
	for v := r.nVar + r.nSlack; v < r.nTotal; v++ {
		c[v] = 1
	}
	return c
}

func (r *revised) phase2Cost() []float64 {
	c := make([]float64, r.nTotal)
	copy(c, r.p.obj)
	return c
}

// phase1Obj is the artificial-variable sum at the current basis.
func (r *revised) phase1Obj() float64 {
	sum := 0.0
	for i, bv := range r.basis {
		if bv >= r.nVar+r.nSlack {
			sum += r.xB[i]
		}
	}
	return sum
}

// banArtificials drives basic artificials out where a non-artificial
// pivot exists in their row (they sit at ~0 after a feasible phase 1,
// so the step is degenerate) and bans all artificial columns from
// re-entering — the same policy as tableau.banArtificials.
func (r *revised) banArtificials() error {
	for i := 0; i < r.m; i++ {
		if r.basis[i] < r.nVar+r.nSlack {
			continue
		}
		// ρ = B⁻ᵀ·e_i is row i of B⁻¹; α_j = ρ·A_j is the tableau entry
		// the dense solver would inspect.
		for k := range r.posScratch {
			r.posScratch[k] = 0
		}
		r.posScratch[i] = 1
		r.blu.btran(r.posScratch, r.y)
		for j := 0; j < r.nVar+r.nSlack; j++ {
			if r.basisPos[j] >= 0 {
				continue
			}
			alpha := 0.0
			for p := r.colStart[j]; p < r.colStart[j+1]; p++ {
				alpha += r.colVal[p] * r.y[r.colInd[p]]
			}
			if math.Abs(alpha) <= epsPivot {
				continue
			}
			r.ftranCol(j, r.w)
			if math.Abs(r.w[i]) <= epsPivot {
				continue // eta-file roundoff disagrees; try another column
			}
			if err := r.pivot(i, j, r.w); err != nil {
				return err
			}
			break
		}
		// A row with no eligible pivot is redundant; its artificial
		// stays basic at zero, harmless once the column is banned.
	}
	for v := r.nVar + r.nSlack; v < r.nTotal; v++ {
		r.banned[v] = true
	}
	return nil
}

// solveRevised runs two-phase revised simplex on p. A non-nil error
// reports numerical breakdown; the caller decides the fallback.
func solveRevised(p *Problem) (*Solution, error) {
	return newRevised(p).solve()
}

// solve runs both phases from the slack/artificial starting basis,
// leaving r at the final basis.
func (r *revised) solve() (*Solution, error) {
	p := r.p
	if err := r.refactor(); err != nil {
		return nil, err
	}
	sol := &Solution{X: make([]float64, p.numVars)}

	if r.nArt > 0 {
		p1Span := pkgObs.Phase1Seconds.Start()
		status, iters, err := r.run(r.phase1Cost(), blandAfter)
		p1Span.End()
		sol.Iterations += iters
		pkgObs.Pivots.Add(int64(iters))
		if err != nil {
			return nil, err
		}
		if status == IterLimit {
			sol.Status = IterLimit
			return sol, nil
		}
		if r.phase1Obj() > epsFeas {
			sol.Status = Infeasible
			return sol, nil
		}
		if err := r.banArtificials(); err != nil {
			return nil, err
		}
	}

	p2Span := pkgObs.Phase2Seconds.Start()
	status, iters, err := r.run(r.phase2Cost(), blandAfter)
	p2Span.End()
	sol.Iterations += iters
	pkgObs.Pivots.Add(int64(iters))
	if err != nil {
		return nil, err
	}
	sol.Status = status
	if status != Optimal {
		return sol, nil
	}
	for i, bv := range r.basis {
		if bv < p.numVars {
			sol.X[bv] = r.xB[i]
		}
	}
	sol.Objective = Objective(p, sol.X)
	return sol, nil
}
