//! Small dense linear algebra for the regression stage.
//!
//! The Levenberg–Marquardt solver only ever needs tiny systems (3×3 for the
//! paper's three-coefficient family), but the routines are written for
//! general `n` so the crate can fit richer families; they use LU with
//! partial pivoting, which is robust to the poorly-scaled normal equations
//! the enumeration produces (features span ~10 orders of magnitude).

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix must be non-empty");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from rows of equal length.
    ///
    /// # Panics
    /// Panics if rows are ragged or empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "no rows");
        let cols = rows[0].len();
        assert!(cols > 0, "no columns");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reshape to `rows × cols` and zero every entry, reusing the existing
    /// allocation when it is large enough. The workspace-based solvers use
    /// this instead of [`Matrix::zeros`] so their steady state allocates
    /// nothing.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix must be non-empty");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Overwrite this matrix with a copy of `other`, reusing the
    /// allocation when possible.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// `Aᵀ·A` (the Gram matrix), computed directly.
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        self.gram_into(&mut g);
        g
    }

    /// [`gram`](Self::gram) into a caller-owned output matrix (reshaped as
    /// needed, no allocation in steady state). Bit-identical to `gram`.
    pub fn gram_into(&self, out: &mut Matrix) {
        out.reset(self.cols, self.cols);
        for i in 0..self.cols {
            for j in i..self.cols {
                let mut acc = 0.0;
                for k in 0..self.rows {
                    acc += self[(k, i)] * self[(k, j)];
                }
                out[(i, j)] = acc;
                out[(j, i)] = acc;
            }
        }
    }

    /// `Aᵀ·v` for a vector `v` of length `rows`.
    pub fn transpose_mul_vec(&self, v: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.transpose_mul_vec_into(v, &mut out);
        out
    }

    /// [`transpose_mul_vec`](Self::transpose_mul_vec) into a caller-owned
    /// buffer (cleared and refilled; no allocation once warm).
    pub fn transpose_mul_vec_into(&self, v: &[f64], out: &mut Vec<f64>) {
        assert_eq!(v.len(), self.rows, "dimension mismatch");
        out.clear();
        out.resize(self.cols, 0.0);
        for k in 0..self.rows {
            let vk = v[k];
            for (j, o) in out.iter_mut().enumerate() {
                *o += self[(k, j)] * vk;
            }
        }
    }

    /// `A·v` for a vector `v` of length `cols`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        (0..self.rows)
            .map(|i| (0..self.cols).map(|j| self[(i, j)] * v[j]).sum())
            .collect()
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

/// Error from a linear solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// Matrix is singular (or numerically so) at the given pivot.
    Singular {
        /// Pivot column where elimination failed.
        pivot: usize,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Singular { pivot } => write!(f, "singular matrix at pivot {pivot}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Solve `A·x = b` for square `A` via LU with partial pivoting.
///
/// # Panics
/// Panics if `A` is not square or `b` has the wrong length.
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, SolveError> {
    let mut lu = a.clone();
    let mut x: Vec<f64> = b.to_vec();
    solve_in_place(&mut lu, &mut x)?;
    Ok(x)
}

/// Destructive form of [`solve`]: factorizes `lu` in place and overwrites
/// `x` (on entry the right-hand side) with the solution. The LM workspace
/// uses this with reusable buffers so the normal-equation solves of the
/// fit loop allocate nothing. Arithmetic is identical to [`solve`].
///
/// On error, `lu` and `x` are left partially eliminated — callers must
/// treat both as scratch.
///
/// # Panics
/// Panics if `lu` is not square or `x` has the wrong length.
pub fn solve_in_place(lu: &mut Matrix, x: &mut [f64]) -> Result<(), SolveError> {
    assert_eq!(lu.rows, lu.cols, "solve needs a square matrix");
    assert_eq!(x.len(), lu.rows, "rhs length mismatch");
    let n = lu.rows;

    for col in 0..n {
        // Partial pivot.
        let mut pivot_row = col;
        let mut pivot_val = lu[(col, col)].abs();
        for r in col + 1..n {
            let v = lu[(r, col)].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < 1e-300 || !pivot_val.is_finite() {
            return Err(SolveError::Singular { pivot: col });
        }
        if pivot_row != col {
            for j in 0..n {
                let tmp = lu[(col, j)];
                lu[(col, j)] = lu[(pivot_row, j)];
                lu[(pivot_row, j)] = tmp;
            }
            x.swap(col, pivot_row);
        }
        // Eliminate below.
        for r in col + 1..n {
            let factor = lu[(r, col)] / lu[(col, col)];
            lu[(r, col)] = 0.0;
            for j in col + 1..n {
                let v = lu[(col, j)];
                lu[(r, j)] -= factor * v;
            }
            x[r] -= factor * x[col];
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let mut acc = x[col];
        for j in col + 1..n {
            acc -= lu[(col, j)] * x[j];
        }
        x[col] = acc / lu[(col, col)];
    }
    Ok(())
}

/// `JᵀJ` and `Jᵀr` of a **column-major** Jacobian: `columns` holds one
/// contiguous column of `r.len()` entries per parameter. Bit-identical to
/// [`Matrix::gram`] and [`Matrix::transpose_mul_vec`] on the row-major
/// matrix of the same entries: every output entry has one accumulator
/// that starts at `0.0` and adds its products in ascending row index,
/// exactly as those do. With three columns — the regression family's
/// case — the six upper-triangle sums and the three gradient sums share
/// one sweep over the rows, so each column is read once, at unit stride,
/// and nine independent additions are in flight instead of one.
///
/// # Panics
/// Panics if `r` is empty or `columns` is not a whole number of columns.
pub fn normal_equations(columns: &[f64], r: &[f64], gram: &mut Matrix, gradient: &mut Vec<f64>) {
    let n = r.len();
    assert!(n > 0 && !columns.is_empty(), "no rows or no columns");
    let p = columns.len() / n;
    assert_eq!(columns.len(), p * n, "dimension mismatch");
    gram.reset(p, p);
    gradient.clear();
    if p == 3 {
        let (c0, rest) = columns.split_at(n);
        let (c1, c2) = rest.split_at(n);
        let (mut g00, mut g01, mut g02, mut g11, mut g12, mut g22) = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        let (mut b0, mut b1, mut b2) = (0.0, 0.0, 0.0);
        for (((&x0, &x1), &x2), &rk) in c0.iter().zip(c1).zip(c2).zip(r) {
            g00 += x0 * x0;
            g01 += x0 * x1;
            g02 += x0 * x2;
            g11 += x1 * x1;
            g12 += x1 * x2;
            g22 += x2 * x2;
            b0 += x0 * rk;
            b1 += x1 * rk;
            b2 += x2 * rk;
        }
        for (i, j, g) in [
            (0, 0, g00),
            (0, 1, g01),
            (0, 2, g02),
            (1, 1, g11),
            (1, 2, g12),
            (2, 2, g22),
        ] {
            gram[(i, j)] = g;
            gram[(j, i)] = g;
        }
        gradient.extend([b0, b1, b2]);
        return;
    }
    let column = |j: usize| &columns[j * n..(j + 1) * n];
    for i in 0..p {
        for j in i..p {
            let mut acc = 0.0;
            for (x, y) in column(i).iter().zip(column(j)) {
                acc += x * y;
            }
            gram[(i, j)] = acc;
            gram[(j, i)] = acc;
        }
        let mut acc = 0.0;
        for (x, rk) in column(i).iter().zip(r) {
            acc += x * rk;
        }
        gradient.push(acc);
    }
}

/// Dot product.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_3x3_known_system() {
        // A·x = b with x = (1, -2, 3).
        let a = Matrix::from_rows(&[
            vec![2.0, 1.0, -1.0],
            vec![-3.0, -1.0, 2.0],
            vec![-2.0, 1.0, 2.0],
        ]);
        let x = vec![1.0, -2.0, 3.0];
        let b = a.mul_vec(&x);
        let got = solve(&a, &b).unwrap();
        for (g, e) in got.iter().zip(&x) {
            assert!((g - e).abs() < 1e-10, "{got:?}");
        }
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let got = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((got[0] - 3.0).abs() < 1e-12);
        assert!((got[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_detects_singularity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(matches!(
            solve(&a, &[1.0, 2.0]),
            Err(SolveError::Singular { .. })
        ));
    }

    #[test]
    fn solve_badly_scaled_system() {
        // Columns differ by 10 orders of magnitude — the regression regime.
        let a = Matrix::from_rows(&[
            vec![1e10, 1.0, 1e-5],
            vec![2e10, 3.0, 2e-5],
            vec![3e10, 5.0, 7e-5],
        ]);
        let x = vec![1e-8, 0.5, 1e4];
        let b = a.mul_vec(&x);
        let got = solve(&a, &b).unwrap();
        for (g, e) in got.iter().zip(&x) {
            assert!(((g - e) / e).abs() < 1e-6, "{got:?}");
        }
    }

    #[test]
    fn gram_matches_manual() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let g = a.gram();
        assert_eq!(g[(0, 0)], 35.0);
        assert_eq!(g[(0, 1)], 44.0);
        assert_eq!(g[(1, 0)], 44.0);
        assert_eq!(g[(1, 1)], 56.0);
    }

    #[test]
    fn transpose_mul_vec_matches_manual() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let out = a.transpose_mul_vec(&[10.0, 100.0]);
        assert_eq!(out, vec![310.0, 420.0]);
    }

    #[test]
    fn identity_solves_to_rhs() {
        let i = Matrix::identity(4);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(solve(&i, &b).unwrap(), b);
    }

    #[test]
    fn dot_products() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    #[should_panic]
    fn ragged_rows_rejected() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn solve_in_place_matches_solve() {
        let a = Matrix::from_rows(&[
            vec![2.0, 1.0, -1.0],
            vec![-3.0, -1.0, 2.0],
            vec![-2.0, 1.0, 2.0],
        ]);
        let b = [8.0, -11.0, -3.0];
        let via_solve = solve(&a, &b).unwrap();
        let mut lu = Matrix::zeros(1, 1);
        lu.copy_from(&a);
        let mut x = b.to_vec();
        solve_in_place(&mut lu, &mut x).unwrap();
        assert_eq!(x, via_solve, "the two entry points must be bit-identical");
    }

    #[test]
    fn scratch_buffers_are_reusable() {
        // One set of buffers driven through systems of different sizes must
        // reproduce the allocating paths exactly.
        let mut gram = Matrix::zeros(1, 1);
        let mut atv = Vec::new();
        for n in [2usize, 4, 3] {
            let rows: Vec<Vec<f64>> = (0..n + 2)
                .map(|i| {
                    (0..n)
                        .map(|j| ((i * 7 + j * 3) % 11) as f64 - 5.0)
                        .collect()
                })
                .collect();
            let a = Matrix::from_rows(&rows);
            let v: Vec<f64> = (0..n + 2).map(|i| i as f64 * 0.5 - 1.0).collect();
            a.gram_into(&mut gram);
            assert_eq!(gram, a.gram());
            a.transpose_mul_vec_into(&v, &mut atv);
            assert_eq!(atv, a.transpose_mul_vec(&v));
        }
    }

    #[test]
    fn normal_equations_match_the_row_major_sums_bit_for_bit() {
        // Lengths that are no multiple of any vector width; entries spread
        // over twenty orders of magnitude so a re-associated sum shows.
        let mut rng = dynsched_simkit::Rng::new(0x6AA3);
        let mut gram = Matrix::zeros(1, 1);
        let mut gradient = Vec::new();
        for p in 1..=4 {
            for n in [1usize, 2, 3, 5, 17, 513] {
                let mut entry =
                    || rng.range_f64(-1.0, 1.0) * 10f64.powf(rng.range_f64(-10.0, 10.0));
                let rows: Vec<Vec<f64>> =
                    (0..n).map(|_| (0..p).map(|_| entry()).collect()).collect();
                let r: Vec<f64> = (0..n).map(|_| entry()).collect();
                let columns: Vec<f64> = (0..p)
                    .flat_map(|j| rows.iter().map(move |row| row[j]))
                    .collect();
                let row_major = Matrix::from_rows(&rows);
                normal_equations(&columns, &r, &mut gram, &mut gradient);
                assert_eq!(gram, row_major.gram(), "JᵀJ, {n} × {p}");
                assert_eq!(gradient, row_major.transpose_mul_vec(&r), "Jᵀr, {n} × {p}");
            }
        }
    }

    #[test]
    fn reset_reshapes_and_zeroes() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        m.reset(3, 2);
        assert_eq!((m.rows(), m.cols()), (3, 2));
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(m[(i, j)], 0.0);
            }
        }
    }
}
