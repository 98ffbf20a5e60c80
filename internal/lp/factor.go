package lp

import (
	"fmt"
	"math"
)

// basisInverse is the explicit dense inverse of the basis matrix,
// flattened row-major into a single backing slice (row r is
// binv[r*m : (r+1)*m]) so pivot row operations run on contiguous
// memory. Every operation costs O(m²) whatever the sparsity: that is the
// price of a representation whose every step can be read off the
// textbook, which is what a reference solver is for. All dense vectors
// are indexed by basis row 0..m-1.
type basisInverse struct {
	m    int
	binv []float64
	// scratch holds the augmented [B|I] working matrix during
	// refactorization (stride 2m); tmp is the solve buffer. Both are
	// reused so a pivot does not allocate.
	scratch []float64
	tmp     []float64
}

// newBasisInverse returns the inverse of the starting basis
// B = diag(diag) produced by newSimplex (artificial columns ±1).
func newBasisInverse(diag []float64) *basisInverse {
	m := len(diag)
	d := &basisInverse{m: m, binv: make([]float64, m*m), tmp: make([]float64, m)}
	for i, v := range diag {
		d.binv[i*m+i] = v // the inverse of diag(±1) is itself
	}
	return d
}

// row returns row r of B⁻¹ (equivalently B⁻ᵀ·e_r).
func (d *basisInverse) row(r int) []float64 { return d.binv[r*d.m : (r+1)*d.m] }

// ftranCol sets out = B⁻¹·A_j for the sparse column c (FTRAN).
func (d *basisInverse) ftranCol(c *sparseCol, out []float64) {
	for i := range out {
		out[i] = 0
	}
	for k, r := range c.rows {
		v := c.vals[k]
		for i := 0; i < d.m; i++ {
			out[i] += d.binv[i*d.m+r] * v
		}
	}
}

// ftranIn solves B·x = v in place.
func (d *basisInverse) ftranIn(v []float64) {
	t := d.tmp
	for r := 0; r < d.m; r++ {
		acc := 0.0
		row := d.row(r)
		for i := 0; i < d.m; i++ {
			acc += row[i] * v[i]
		}
		t[r] = acc
	}
	copy(v, t)
}

// btranIn solves Bᵀ·y = v in place (BTRAN).
func (d *basisInverse) btranIn(v []float64) {
	t := d.tmp
	for i := range t {
		t[i] = 0
	}
	for r := 0; r < d.m; r++ {
		cb := v[r]
		if cb == 0 {
			continue
		}
		row := d.row(r)
		for i := 0; i < d.m; i++ {
			t[i] += cb * row[i]
		}
	}
	copy(v, t)
}

// update folds the basis change at row leave into the inverse, where
// w = B⁻¹·A_enter as produced by ftranCol: row leave is scaled by the
// pivot element and eliminated from every other row (product form).
func (d *basisInverse) update(leave int, w []float64) {
	rowL := d.row(leave)
	inv := 1 / w[leave]
	for i := range rowL {
		rowL[i] *= inv
	}
	for r := 0; r < d.m; r++ {
		if r == leave {
			continue
		}
		f := w[r]
		if f == 0 {
			continue
		}
		rowR := d.row(r)
		for i := range rowR {
			rowR[i] -= f * rowL[i]
		}
	}
}

// refactor rebuilds the inverse from the basis columns cols[basicVar[r]]
// by Gauss-Jordan with partial pivoting, clearing accumulated
// floating-point drift.
func (d *basisInverse) refactor(cols []sparseCol, basicVar []int) error {
	m := d.m
	// Assemble the basis matrix augmented with the identity, row-major
	// with stride 2m in the reusable scratch buffer.
	if d.scratch == nil {
		d.scratch = make([]float64, m*2*m)
	}
	a := d.scratch
	for i := range a {
		a[i] = 0
	}
	row := func(r int) []float64 { return a[r*2*m : (r+1)*2*m] }
	for i := 0; i < m; i++ {
		row(i)[m+i] = 1
	}
	for r, j := range basicVar {
		c := &cols[j]
		for k, ri := range c.rows {
			row(ri)[r] = c.vals[k]
		}
	}
	for col := 0; col < m; col++ {
		// Partial pivot.
		p, best := -1, 1e-12
		for r := col; r < m; r++ {
			if v := math.Abs(row(r)[col]); v > best {
				p, best = r, v
			}
		}
		if p < 0 {
			return fmt.Errorf("lp: internal: singular basis during refactorization (col %d)", col)
		}
		if p != col {
			rc, rp := row(col), row(p)
			for k := 0; k < 2*m; k++ {
				rc[k], rp[k] = rp[k], rc[k]
			}
		}
		rc := row(col)
		inv := 1 / rc[col]
		for k := col; k < 2*m; k++ {
			rc[k] *= inv
		}
		for r := 0; r < m; r++ {
			if r == col {
				continue
			}
			rr := row(r)
			f := rr[col]
			if f == 0 {
				continue
			}
			for k := col; k < 2*m; k++ {
				rr[k] -= f * rc[k]
			}
		}
	}
	for i := 0; i < m; i++ {
		copy(d.row(i), row(i)[m:])
	}
	return nil
}
