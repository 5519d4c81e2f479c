package lp

// Sparse LU factorization of the simplex basis, plus product-form
// (eta) updates. This is the linear-algebra core of the revised
// simplex in sparse.go: the basis matrix B (m×m, columns of the
// standard-form constraint matrix) is factored as P·B·Q = L·U by
// left-looking Gaussian elimination, and basis changes between
// refactorizations are absorbed as eta matrices (B_new = B_old·E with
// E = I + (w − e_r)·e_rᵀ, w = B_old⁻¹·a_enter).
//
// Coordinate conventions, used consistently by ftran/btran:
//
//   - "row coordinates": indices into the original constraint rows
//     (the space right-hand sides and dual values live in);
//   - "position coordinates": indices into the basis column order
//     (the space basic-variable values live in);
//   - "step coordinates": elimination steps 0..m-1, the space L and U
//     are triangular in.
//
// Step k eliminates basis position colOf[k] (the column permutation Q)
// and pivots on original row rowOf[k] (the row permutation P);
// rowStep[rowOf[k]] = k inverts the latter. Steps and positions are
// decoupled so the elimination order can be chosen for sparsity:
// singleton columns (the unit slack and artificial columns that make
// up most of a simplex basis) are eliminated first, then the rest in
// ascending nonzero count. Each step uses threshold partial pivoting:
// among the free rows within luThreshold of the largest candidate
// magnitude, it takes the one with the fewest nonzeros left in the
// basis columns not yet eliminated, which keeps fill low.

import (
	"errors"
	"math"
	"slices"
)

// spCol is one sparse column: parallel index/value slices.
type spCol struct {
	ind []int
	val []float64
}

// errSingular reports a numerically singular basis; the caller
// refactorizes or falls back to the dense solver.
var errSingular = errors.New("lp: singular basis")

const (
	// luPivotTol is the minimum acceptable pivot magnitude during
	// factorization; below it the basis is treated as singular.
	luPivotTol = 1e-11
	// luThreshold is the threshold-pivoting factor τ: a candidate row
	// is eligible when its magnitude is at least τ times the largest
	// candidate's, and eligible rows compete on sparsity.
	luThreshold = 0.1
	// etaDropTol drops negligible eta entries to keep updates sparse.
	etaDropTol = 1e-13
	// refactorEvery bounds the eta file length; past it the basis is
	// refactored from scratch, which also resets accumulated roundoff.
	refactorEvery = 64
)

// luFactors is one P·B·Q = L·U factorization. All storage is owned by
// the factors and reused across refactorizations.
type luFactors struct {
	m       int
	colOf   []int // colOf[k]: basis position eliminated at step k
	rowOf   []int // rowOf[k]: original row pivoted at step k
	rowStep []int // rowStep[origRow]: step that pivoted it, -1 while free

	// L is unit lower triangular in step coordinates, stored by column
	// in one flat arena: column k is lInd/lVal[lStart[k]:lStart[k+1]],
	// multipliers indexed by ORIGINAL row (rows pivoted at later
	// steps).
	lStart []int
	lInd   []int
	lVal   []float64

	// U is upper triangular in step coordinates, stored the same way:
	// column k holds entries u_ik indexed by step i < k, plus
	// diag[k] = u_kk.
	uStart []int
	uInd   []int
	uVal   []float64
	diag   []float64

	// Row-wise copies of L and U, rebuilt after each factorization so
	// btran can run in scatter form and skip zero entries: step s's
	// row of L holds (k, l_{rowOf[s],k}) for k < s, its row of U holds
	// (k, u_sk) for k > s.
	ltStart []int
	ltInd   []int
	ltVal   []float64
	utStart []int
	utInd   []int
	utVal   []float64

	// Factorization scratch.
	rowCount []int     // nonzeros per row over the not-yet-eliminated basis columns
	buckets  []int     // counting-sort buckets for the column order
	work     []float64 // dense accumulator in row coordinates
	inTouch  []bool    // membership marker for touched
	touched  []int     // rows written by the current column
	heap     []int     // min-heap of earlier steps the current column reaches

	stepWork []float64 // btran scratch in step coordinates
}

// newLU allocates factor storage for an m×m basis.
func newLU(m int) *luFactors {
	return &luFactors{
		m:        m,
		colOf:    make([]int, m),
		rowOf:    make([]int, m),
		rowStep:  make([]int, m),
		lStart:   make([]int, m+1),
		uStart:   make([]int, m+1),
		ltStart:  make([]int, m+1),
		utStart:  make([]int, m+1),
		diag:     make([]float64, m),
		rowCount: make([]int, m),
		buckets:  make([]int, m+2),
		work:     make([]float64, m),
		inTouch:  make([]bool, m),
		stepWork: make([]float64, m),
	}
}

// order fills colOf with the elimination order: basis positions by
// ascending nonzero count, ties by position (a stable counting sort),
// so singleton columns come first. It also loads rowCount.
func (f *luFactors) order(cols func(k int) spCol) {
	m := f.m
	for r := 0; r < m; r++ {
		f.rowCount[r] = 0
	}
	bucket := f.buckets
	for i := range bucket {
		bucket[i] = 0
	}
	for k := 0; k < m; k++ {
		c := cols(k)
		for _, r := range c.ind {
			f.rowCount[r]++
		}
		bucket[min(len(c.ind), m)+1]++
	}
	for i := 1; i < len(bucket); i++ {
		bucket[i] += bucket[i-1]
	}
	for k := 0; k < m; k++ {
		n := min(len(cols(k).ind), m)
		f.colOf[bucket[n]] = k
		bucket[n]++
	}
}

// factor computes P·B·Q = L·U for the basis whose position-k column is
// cols(k). Returns errSingular when some step has no acceptable pivot.
func (f *luFactors) factor(cols func(k int) spCol) error {
	m := f.m
	for r := 0; r < m; r++ {
		f.rowStep[r] = -1
	}
	f.lInd, f.lVal = f.lInd[:0], f.lVal[:0]
	f.uInd, f.uVal = f.uInd[:0], f.uVal[:0]
	f.order(cols)
	for k := 0; k < m; k++ {
		f.lStart[k] = len(f.lInd)
		f.uStart[k] = len(f.uInd)
		if err := f.eliminate(k, cols(f.colOf[k])); err != nil {
			return err
		}
	}
	f.lStart[m] = len(f.lInd)
	f.uStart[m] = len(f.uInd)
	f.ltInd, f.ltVal = transpose(f.lStart, f.lInd, f.lVal, f.rowStep, f.ltStart, f.ltInd, f.ltVal)
	f.utInd, f.utVal = transpose(f.uStart, f.uInd, f.uVal, nil, f.utStart, f.utInd, f.utVal)
	return nil
}

// transpose writes the row-wise copy of the column-stored triangle
// (start, ind, val) into tStart and the reused tInd/tVal arenas. Row
// indices are mapped through rowStep when it is non-nil (L stores
// original rows), so both copies are indexed by step. Columns are
// visited in ascending order, so each row lists them ascending.
func transpose(start, ind []int, val []float64, rowStep, tStart, tInd []int, tVal []float64) ([]int, []float64) {
	m := len(start) - 1
	for s := range tStart {
		tStart[s] = 0
	}
	step := func(i int) int {
		if rowStep != nil {
			return rowStep[i]
		}
		return i
	}
	for _, i := range ind {
		tStart[step(i)+1]++
	}
	for s := 0; s < m; s++ {
		tStart[s+1] += tStart[s]
	}
	n := len(ind)
	tInd, tVal = slices.Grow(tInd[:0], n)[:n], slices.Grow(tVal[:0], n)[:n]
	for k := 0; k < m; k++ {
		for p := start[k]; p < start[k+1]; p++ {
			s := step(ind[p])
			q := tStart[s]
			tInd[q], tVal[q] = k, val[p]
			tStart[s]++
		}
	}
	// The fill pass advanced each tStart[s] to the end of row s; shift
	// back so tStart[s] is its start again.
	copy(tStart[1:], tStart[:m])
	tStart[0] = 0
	return tInd, tVal
}

// eliminate runs step k on column c: left-looking elimination against
// the earlier steps, then pivot selection and the new L column.
func (f *luFactors) eliminate(k int, c spCol) error {
	work, inTouch := f.work, f.inTouch
	touched, heap := f.touched[:0], f.heap[:0]
	// touch adds row r to touched once; an earlier step with a
	// nonempty L column whose pivot row is r enters the heap with it.
	touch := func(r int) {
		if inTouch[r] {
			return
		}
		inTouch[r] = true
		touched = append(touched, r)
		if s := f.rowStep[r]; s >= 0 && f.lStart[s] < f.lStart[s+1] {
			heap = heapPush(heap, s)
		}
	}
	for i, r := range c.ind {
		touch(r)
		work[r] += c.val[i]
		f.rowCount[r]--
	}
	// Apply the earlier steps this column reaches, in ascending step
	// order: exactly the nonzero terms of a scan over every step j < k.
	// L column j only holds rows free at step j, so every step it adds
	// to the heap is later than j and the pops stay ascending. Steps
	// with an empty L column (every singleton column) never enter the
	// heap: they change nothing but their own U entry.
	for len(heap) > 0 {
		var j int
		j, heap = heapPop(heap)
		t := work[f.rowOf[j]]
		if t == 0 {
			continue
		}
		for p := f.lStart[j]; p < f.lStart[j+1]; p++ {
			r := f.lInd[p]
			touch(r)
			work[r] -= f.lVal[p] * t
		}
	}
	// Later steps never write an earlier pivot row, so the value left
	// at each one is final: it is this column's U entry for that step.
	for _, r := range touched {
		if s := f.rowStep[r]; s >= 0 && work[r] != 0 {
			f.uInd = append(f.uInd, s)
			f.uVal = append(f.uVal, work[r])
		}
	}
	// Threshold partial pivoting over the still-free rows, preferring
	// the sparsest remaining row, then the larger magnitude.
	maxMag := 0.0
	for _, r := range touched {
		if f.rowStep[r] < 0 {
			maxMag = math.Max(maxMag, math.Abs(work[r]))
		}
	}
	pivRow, pivMag := -1, 0.0
	if maxMag > luPivotTol {
		eligible := luThreshold * maxMag
		for _, r := range touched {
			if f.rowStep[r] >= 0 {
				continue
			}
			mag := math.Abs(work[r])
			if mag < eligible || mag <= luPivotTol {
				continue
			}
			if pivRow < 0 || f.rowCount[r] < f.rowCount[pivRow] ||
				(f.rowCount[r] == f.rowCount[pivRow] && mag > pivMag) {
				pivRow, pivMag = r, mag
			}
		}
	}
	if pivRow >= 0 {
		piv := work[pivRow]
		f.rowOf[k] = pivRow
		f.rowStep[pivRow] = k
		f.diag[k] = piv
		inv := 1 / piv
		for _, r := range touched {
			if f.rowStep[r] >= 0 || work[r] == 0 {
				continue
			}
			f.lInd = append(f.lInd, r)
			f.lVal = append(f.lVal, work[r]*inv)
		}
	}
	for _, r := range touched {
		work[r] = 0
		inTouch[r] = false
	}
	f.touched, f.heap = touched, heap
	if pivRow < 0 {
		return errSingular
	}
	return nil
}

// heapPush adds s to the binary min-heap h.
func heapPush(h []int, s int) []int {
	h = append(h, s)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	return h
}

// heapPop removes and returns the minimum of the binary min-heap h.
func heapPop(h []int) (int, []int) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		small, l, r := i, 2*i+1, 2*i+2
		if l < last && h[l] < h[small] {
			small = l
		}
		if r < last && h[r] < h[small] {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top, h
}

// ftranLU solves B·z = b. b is dense in row coordinates and is
// consumed as scratch; z is dense in position coordinates.
func (f *luFactors) ftranLU(b, z []float64) {
	// L solve: y_k accumulates in place at b[rowOf[k]].
	for k := 0; k < f.m; k++ {
		t := b[f.rowOf[k]]
		if t == 0 {
			continue
		}
		for p := f.lStart[k]; p < f.lStart[k+1]; p++ {
			b[f.lInd[p]] -= f.lVal[p] * t
		}
	}
	// U solve, backward, column-oriented: once step k's value is
	// known, its contribution u_ik·t is pulled out of every earlier
	// y_i. Step k's value belongs to basis position colOf[k].
	for k := f.m - 1; k >= 0; k-- {
		t := b[f.rowOf[k]] / f.diag[k]
		z[f.colOf[k]] = t
		if t == 0 {
			continue
		}
		for p := f.uStart[k]; p < f.uStart[k+1]; p++ {
			b[f.rowOf[f.uInd[p]]] -= f.uVal[p] * t
		}
	}
}

// btranLU solves Bᵀ·y = c. c is dense in position coordinates and is
// only read; y is dense in row coordinates. Both triangular solves run
// in scatter form over the row-wise copies, so a sparse right-hand
// side (a unit vector, when pricing from the pivot row) skips the rows
// whose value stays zero.
func (f *luFactors) btranLU(c, y []float64) {
	w := f.stepWork
	for k := 0; k < f.m; k++ {
		w[k] = c[f.colOf[k]]
	}
	// Uᵀ·v = Qᵀ·c, forward: once v_s is final, its row of U is
	// pulled out of every later step.
	for s := 0; s < f.m; s++ {
		t := w[s] / f.diag[s]
		w[s] = t
		if t == 0 {
			continue
		}
		for p := f.utStart[s]; p < f.utStart[s+1]; p++ {
			w[f.utInd[p]] -= f.utVal[p] * t
		}
	}
	// Lᵀ·u = v, backward: step s's row of L only reaches earlier steps.
	for s := f.m - 1; s >= 0; s-- {
		t := w[s]
		if t == 0 {
			continue
		}
		for p := f.ltStart[s]; p < f.ltStart[s+1]; p++ {
			w[f.ltInd[p]] -= f.ltVal[p] * t
		}
	}
	// Undo the row permutation: y = Pᵀ·u.
	for k := 0; k < f.m; k++ {
		y[f.rowOf[k]] = w[k]
	}
}

// basisLU maintains B⁻¹ across pivots: an LU factorization plus an
// eta file, refactored when the file reaches refactorEvery.
//
// The eta file is one flat arena: eta e replaced basis position
// etaPos[e] with w = B_old⁻¹·a_enter, pivot etaPiv[e] = w[etaPos[e]],
// and the other entries of w in etaInd/etaVal[etaStart[e]:etaStart[e+1]].
type basisLU struct {
	m  int
	lu *luFactors

	etaPos   []int
	etaPiv   []float64
	etaStart []int
	etaInd   []int
	etaVal   []float64
}

func newBasisLU(m int) *basisLU {
	return &basisLU{m: m, lu: newLU(m), etaStart: []int{0}}
}

// refactor rebuilds the LU factors from the current basis columns and
// clears the eta file.
func (b *basisLU) refactor(cols func(k int) spCol) error {
	if err := b.lu.factor(cols); err != nil {
		return err
	}
	b.etaPos, b.etaPiv = b.etaPos[:0], b.etaPiv[:0]
	b.etaStart = b.etaStart[:1]
	b.etaInd, b.etaVal = b.etaInd[:0], b.etaVal[:0]
	return nil
}

// needsRefactor reports whether the eta file is full.
func (b *basisLU) needsRefactor() bool { return len(b.etaPos) >= refactorEvery }

// push records the pivot (position r, FTRAN column w) as an eta.
// Returns errSingular when the pivot element is numerically zero.
func (b *basisLU) push(r int, w []float64) error {
	if math.Abs(w[r]) <= luPivotTol {
		return errSingular
	}
	for i, v := range w {
		if i != r && math.Abs(v) > etaDropTol {
			b.etaInd = append(b.etaInd, i)
			b.etaVal = append(b.etaVal, v)
		}
	}
	b.etaPos = append(b.etaPos, r)
	b.etaPiv = append(b.etaPiv, w[r])
	b.etaStart = append(b.etaStart, len(b.etaInd))
	return nil
}

// ftran solves B·z = b with the current factors (LU then etas in
// creation order). b is dense in row coordinates and is consumed;
// z is dense in position coordinates.
func (b *basisLU) ftran(rhs, z []float64) {
	b.lu.ftranLU(rhs, z)
	for e, r := range b.etaPos {
		t := z[r] / b.etaPiv[e]
		if t != 0 {
			for p := b.etaStart[e]; p < b.etaStart[e+1]; p++ {
				z[b.etaInd[p]] -= b.etaVal[p] * t
			}
		}
		z[r] = t
	}
}

// btran solves Bᵀ·y = c with the current factors (etas in reverse
// order, then LUᵀ). c is dense in position coordinates and is
// consumed; y is dense in row coordinates.
func (b *basisLU) btran(c, y []float64) {
	for e := len(b.etaPos) - 1; e >= 0; e-- {
		dot := 0.0
		for p := b.etaStart[e]; p < b.etaStart[e+1]; p++ {
			dot += b.etaVal[p] * c[b.etaInd[p]]
		}
		r := b.etaPos[e]
		c[r] = (c[r] - dot) / b.etaPiv[e]
	}
	b.lu.btranLU(c, y)
}
