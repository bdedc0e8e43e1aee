//! Dense linear algebra tuned for the covariance kernels: a row-major
//! `Matrix`, blocked/parallel Cholesky, and an O(n³) symmetric
//! eigensolver (Householder tridiagonalization + implicit-shift QL).
//!
//! The stochastic slip generator needs to factor covariance matrices built
//! from von Kármán correlations. Rather than pulling in a BLAS binding, we
//! implement the factorisations FakeQuakes actually relies on:
//!
//! * **Cholesky** (with diagonal jitter fallback) for sampling correlated
//!   Gaussian fields — column-ordered so the sub-diagonal panel of each
//!   column fans out across threads, with every element accumulating in
//!   the same fixed k-order as the sequential reference, so results are
//!   byte-identical regardless of thread count;
//! * **Householder + QL eigendecomposition** for Karhunen–Loève modes —
//!   `tred2`/`tql2`-style reduction giving true O(n³) behaviour, plus a
//!   truncated top-k path (eigenvalues-only QL + tridiagonal inverse
//!   iteration + Householder back-transform) so KL never pays for modes
//!   it discards;
//! * the original classical-Jacobi solver and naive Cholesky are kept as
//!   [`Matrix::jacobi_eigen_reference`] / [`Matrix::cholesky_reference`]
//!   so tests can pin agreement and `bench_snapshot` can record the
//!   before/after speedup in the same run.
//!
//! Matrices here are at most a few thousand square (one row/column per
//! subfault); see DESIGN.md §8 for the complexity table.

use crate::error::{FqError, FqResult};
use crate::par;
use crate::simd;

/// k-panel height of the blocked GEMM: a `MATMUL_KC x cols` panel of
/// the right-hand matrix is reused across every row of a parallel row
/// chunk before the next panel is touched. Must stay a multiple of
/// [`simd::LANES`] so panel boundaries never split a k-quad (which
/// would change the canonical accumulation order).
const MATMUL_KC: usize = 128;

/// Order-B microkernel: accumulate `arow[k0..k1] * other[k0..k1, :]`
/// into `orow`. Four rows of `other` are streamed per ascending k-quad
/// and folded per output element as `(p0+p1)+(p2+p3)`; a trailing
/// `k1 == kt` remainder (k not a multiple of 4) is added term by term.
fn matmul_panel(arow: &[f64], other: &Matrix, orow: &mut [f64], k0: usize, k1: usize, kt: usize) {
    let kq_end = if k1 == kt { k0 + (k1 - k0) / 4 * 4 } else { k1 };
    let mut k = k0;
    while k < kq_end {
        let a = simd::F64x4::from_slice(&arow[k..k + 4]);
        let b0 = other.row(k);
        let b1 = other.row(k + 1);
        let b2 = other.row(k + 2);
        let b3 = other.row(k + 3);
        for (j, o) in orow.iter_mut().enumerate() {
            *o += (a.0[0] * b0[j] + a.0[1] * b1[j]) + (a.0[2] * b2[j] + a.0[3] * b3[j]);
        }
        k += 4;
    }
    for (kk, &aik) in arow.iter().enumerate().take(k1).skip(kq_end) {
        for (o, &bkj) in orow.iter_mut().zip(other.row(kk)) {
            *o += aik * bkj;
        }
    }
}

/// A dense, row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a zero-filled matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Build from a row-major vector; `data.len()` must equal `rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> FqResult<Self> {
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(FqError::Linalg(format!(
                "shape mismatch: {}x{} needs {} elements, got {}",
                rows,
                cols,
                rows as u128 * cols as u128,
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow one row as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix-vector product `self * v`.
    ///
    /// Rows fan out across threads; each output element is an
    /// independent order-A laned dot product ([`crate::simd::dot`]), so
    /// the result is bitwise identical to [`Matrix::matvec_reference`]
    /// at any thread count.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        par::map_indexed(self.rows, 64, |i| simd::dot(self.row(i), v))
    }

    /// Sequential scalar twin of [`Matrix::matvec`]: the order-A oracle.
    pub fn matvec_reference(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        (0..self.rows)
            .map(|i| simd::dot_reference(self.row(i), v))
            .collect()
    }

    /// Matrix-matrix product `self * other`: row-parallel, cache-blocked
    /// over k so a `MATMUL_KC`-row panel of `other` is reused across a
    /// whole row chunk, with a 4-lane (order-B) microkernel inside each
    /// panel. Per output element the accumulation is one quad sum
    /// `(p0+p1)+(p2+p3)` per ascending k-quad then the k remainder
    /// terms individually — independent of blocking and thread count,
    /// so the result is byte-identical to
    /// [`Matrix::matmul_reference`].
    pub fn matmul(&self, other: &Matrix) -> FqResult<Matrix> {
        if self.cols != other.rows {
            return Err(FqError::Linalg(format!(
                "matmul shape mismatch: {}x{} * {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let (m, p) = (self.rows, other.cols);
        let mut out = Matrix::zeros(m, p);
        if m == 0 || p == 0 {
            return Ok(out);
        }
        let kt = self.cols;
        let row_chunk = par::chunk_for(m, 8);
        par::for_each_chunk(&mut out.data, row_chunk * p, |start, rows_chunk| {
            let first_row = start / p;
            // k-panels ascending; panel boundaries are multiples of
            // LANES so the quad decomposition of each element's k-range
            // is the same with or without blocking.
            let mut k0 = 0;
            while k0 < kt {
                let k1 = (k0 + MATMUL_KC).min(kt);
                for (r, orow) in rows_chunk.chunks_mut(p).enumerate() {
                    let arow = self.row(first_row + r);
                    matmul_panel(arow, other, orow, k0, k1, kt);
                }
                k0 = k1;
            }
        });
        Ok(out)
    }

    /// Scalar ijk reference for [`Matrix::matmul`]: one element at a
    /// time, walking `other` column-wise (deliberately unblocked and
    /// cache-hostile — this is the pre-optimisation shape and the
    /// `bench_snapshot` baseline), with the same order-B quad
    /// accumulation. The bitwise oracle for the blocked kernel.
    pub fn matmul_reference(&self, other: &Matrix) -> FqResult<Matrix> {
        if self.cols != other.rows {
            return Err(FqError::Linalg(format!(
                "matmul shape mismatch: {}x{} * {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let (m, p, kt) = (self.rows, other.cols, self.cols);
        let kq = kt / 4 * 4;
        let mut out = Matrix::zeros(m, p);
        for i in 0..m {
            let arow = self.row(i);
            for j in 0..p {
                let mut o = 0.0;
                let mut k = 0;
                while k < kq {
                    o += (arow[k] * other.data[k * p + j]
                        + arow[k + 1] * other.data[(k + 1) * p + j])
                        + (arow[k + 2] * other.data[(k + 2) * p + j]
                            + arow[k + 3] * other.data[(k + 3) * p + j]);
                    k += 4;
                }
                for (kk, &aik) in arow.iter().enumerate().take(kt).skip(kq) {
                    o += aik * other.data[kk * p + j];
                }
                out.data[i * p + j] = o;
            }
        }
        Ok(out)
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Maximum absolute off-diagonal element (square matrices only);
    /// used as the classical-Jacobi convergence criterion.
    fn max_offdiag(&self) -> (usize, usize, f64) {
        let mut best = (0usize, 1usize, 0.0f64);
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let v = self[(i, j)].abs();
                if v > best.2 {
                    best = (i, j, v);
                }
            }
        }
        best
    }

    /// Cholesky factorisation `A = L * L^T`, returning lower-triangular `L`.
    ///
    /// If the matrix is only marginally positive definite (common for dense
    /// correlation matrices with near-duplicate rows), retries with
    /// progressively larger diagonal jitter before giving up. The
    /// factorisation is column-ordered with the sub-diagonal panel of
    /// each column computed in parallel; every element uses the same
    /// fixed accumulation order as [`Matrix::cholesky_reference`], so
    /// the two agree bit-for-bit.
    pub fn cholesky(&self) -> FqResult<Matrix> {
        if self.rows != self.cols {
            return Err(FqError::Linalg("cholesky requires a square matrix".into()));
        }
        let n = self.rows;
        let mut jitter = 0.0;
        for attempt in 0..6 {
            match self.try_cholesky(jitter) {
                Ok(l) => return Ok(l),
                Err(_) if attempt < 5 => {
                    jitter = if jitter == 0.0 { 1e-10 } else { jitter * 100.0 };
                }
                Err(e) => return Err(e),
            }
        }
        Err(FqError::Linalg(format!(
            "matrix of size {n} not positive definite even with jitter"
        )))
    }

    fn try_cholesky(&self, jitter: f64) -> FqResult<Matrix> {
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            // Pivot: a + jitter minus the order-A laned dot of the
            // pivot row prefix with itself — the same single
            // subtraction the reference performs.
            let pivot_prefix = &l.data[j * n..j * n + j];
            let sum = self.data[j * n + j] + jitter - simd::dot(pivot_prefix, pivot_prefix);
            if sum <= 0.0 {
                return Err(FqError::Linalg(format!(
                    "non-positive pivot {sum:e} at row {j}"
                )));
            }
            let diag = sum.sqrt();
            l.data[j * n + j] = diag;
            // Sub-diagonal panel of column j: rows j+1.. are independent
            // order-A dot products against the pivot row prefix, so they
            // fan out across threads with chunk-aligned (row-aligned)
            // splits.
            let (done, below) = l.data.split_at_mut((j + 1) * n);
            let pivot = &done[j * n..j * n + j];
            if below.is_empty() {
                continue;
            }
            let rows_below = n - j - 1;
            let chunk = par::chunk_for(rows_below, 32) * n;
            par::for_each_chunk(below, chunk, |start, rows_chunk| {
                let first_row = j + 1 + start / n;
                for (r, row) in rows_chunk.chunks_mut(n).enumerate() {
                    let i = first_row + r;
                    let s = self.data[i * n + j] - simd::dot(&row[..j], pivot);
                    row[j] = s / diag;
                }
            });
        }
        Ok(l)
    }

    /// Row-ordered scalar Cholesky, kept as the determinism oracle and
    /// `bench_snapshot` baseline. Each element uses the same order-A
    /// prefix dot ([`simd::dot_reference`]) as the blocked kernel, so
    /// the two agree bit-for-bit; the jitter-retry schedule matches
    /// [`Matrix::cholesky`].
    pub fn cholesky_reference(&self) -> FqResult<Matrix> {
        if self.rows != self.cols {
            return Err(FqError::Linalg("cholesky requires a square matrix".into()));
        }
        let n = self.rows;
        let mut jitter = 0.0;
        for attempt in 0..6 {
            match self.try_cholesky_reference(jitter) {
                Ok(l) => return Ok(l),
                Err(_) if attempt < 5 => {
                    jitter = if jitter == 0.0 { 1e-10 } else { jitter * 100.0 };
                }
                Err(e) => return Err(e),
            }
        }
        Err(FqError::Linalg(format!(
            "matrix of size {n} not positive definite even with jitter"
        )))
    }

    fn try_cholesky_reference(&self, jitter: f64) -> FqResult<Matrix> {
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let lij = simd::dot_reference(&l.data[i * n..i * n + j], &l.data[j * n..j * n + j]);
                let sum = if i == j {
                    self[(i, j)] + jitter - lij
                } else {
                    self[(i, j)] - lij
                };
                if i == j {
                    if sum <= 0.0 {
                        return Err(FqError::Linalg(format!(
                            "non-positive pivot {sum:e} at row {i}"
                        )));
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// Solve `A x = b` for symmetric positive-definite `A` via Cholesky
    /// (forward/back substitution). Used by the EEW regression's normal
    /// equations.
    pub fn solve_spd(&self, b: &[f64]) -> FqResult<Vec<f64>> {
        if self.rows != self.cols {
            return Err(FqError::Linalg("solve_spd requires a square matrix".into()));
        }
        if b.len() != self.rows {
            return Err(FqError::Linalg(format!(
                "rhs length {} != matrix size {}",
                b.len(),
                self.rows
            )));
        }
        let l = self.cholesky()?;
        let n = self.rows;
        // Forward: L y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= l[(i, k)] * y[k];
            }
            y[i] = s / l[(i, i)];
        }
        // Back: L^T x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in (i + 1)..n {
                s -= l[(k, i)] * x[k];
            }
            x[i] = s / l[(i, i)];
        }
        Ok(x)
    }

    /// Eigendecomposition of a symmetric matrix via Householder
    /// tridiagonalization followed by implicit-shift QL — true O(n³),
    /// replacing the classical Jacobi solver (kept as
    /// [`Matrix::jacobi_eigen_reference`]) whose per-rotation
    /// max-off-diagonal scan made it O(n⁴)-ish in practice.
    ///
    /// Returns `(eigenvalues, eigenvectors)` sorted by descending
    /// eigenvalue; eigenvector `k` is column `k` of the returned matrix,
    /// sign-canonicalised so its largest-magnitude component is
    /// positive. `max_sweeps` bounds QL iterations per eigenvalue
    /// (values ≥ 30 are typical; smaller values are clamped up to 30).
    pub fn symmetric_eigen(&self, max_sweeps: usize) -> FqResult<(Vec<f64>, Matrix)> {
        if self.rows != self.cols {
            return Err(FqError::Linalg("eigen requires a square matrix".into()));
        }
        let n = self.rows;
        if n == 0 {
            return Ok((Vec::new(), Matrix::zeros(0, 0)));
        }
        let red = self.tridiagonalize(true);
        let mut d = red.d;
        let mut e = red.e;
        let mut qt = red.basis;
        ql_implicit(&mut d, &mut e, Some(&mut qt), max_sweeps.max(30))?;
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&x, &y| d[y].total_cmp(&d[x]).then(x.cmp(&y)));
        let eigenvalues: Vec<f64> = order.iter().map(|&i| d[i]).collect();
        let mut eigenvectors = Matrix::zeros(n, n);
        let mut col = vec![0.0; n];
        for (k, &src) in order.iter().enumerate() {
            col.copy_from_slice(qt.row(src));
            canonicalize_sign(&mut col);
            for i in 0..n {
                eigenvectors[(i, k)] = col[i];
            }
        }
        Ok((eigenvalues, eigenvectors))
    }

    /// Truncated eigendecomposition: **all** `n` eigenvalues (descending)
    /// but only the top `k` eigenvectors, as the columns of an `n × k`
    /// matrix.
    ///
    /// Cost is O(n³) for the reduction plus O(n²) per eigenvalue sweep
    /// and O(k·n²) for the vectors — QL never accumulates the full
    /// rotation product, so `FieldMethod::KarhunenLoeve { modes }` does
    /// not pay for the `n − k` modes it discards. Vectors come from
    /// tridiagonal inverse iteration with Gram–Schmidt inside
    /// near-degenerate clusters, then Householder back-transform; each
    /// is sign-canonicalised exactly like [`Matrix::symmetric_eigen`],
    /// so the two paths agree (up to roundoff) on well-separated modes.
    pub fn symmetric_eigen_topk(
        &self,
        k: usize,
        max_sweeps: usize,
    ) -> FqResult<(Vec<f64>, Matrix)> {
        if self.rows != self.cols {
            return Err(FqError::Linalg("eigen requires a square matrix".into()));
        }
        let n = self.rows;
        let k = k.min(n);
        if n == 0 {
            return Ok((Vec::new(), Matrix::zeros(0, 0)));
        }
        let red = self.tridiagonalize(false);
        let mut d = red.d.clone();
        let mut e = red.e.clone();
        ql_implicit(&mut d, &mut e, None, max_sweeps.max(30))?;
        d.sort_by(|a, b| b.total_cmp(a));
        let vals = d;

        // Inverse iteration on the tridiagonal (d0, e0) for the top k.
        let d0 = &red.d;
        let e0 = &red.e;
        let mut anorm = 0.0f64;
        for i in 0..n {
            let lo = if i > 0 { e0[i].abs() } else { 0.0 };
            let hi = if i + 1 < n { e0[i + 1].abs() } else { 0.0 };
            anorm = anorm.max(d0[i].abs() + lo + hi);
        }
        let anorm = anorm.max(f64::MIN_POSITIVE);
        let eps3 = f64::EPSILON * anorm;
        let cluster_tol = anorm * 1e-10 + eps3;

        let mut tri_vecs: Vec<Vec<f64>> = Vec::with_capacity(k);
        let mut cluster_start = 0usize;
        let mut prev_shift = f64::INFINITY;
        for j in 0..k {
            if j > 0 && vals[j - 1] - vals[j] > cluster_tol {
                cluster_start = j;
            }
            // Perturb shifts inside a cluster so the factorisations differ.
            let mut shift = vals[j];
            if j > 0 && prev_shift - shift < eps3 {
                shift = prev_shift - eps3;
            }
            prev_shift = shift;
            let lu = TriLu::factor(d0, e0, shift, eps3);
            // j-varied start vector: a uniform start can be exactly
            // orthogonal to later basis vectors of a degenerate cluster.
            let mut x: Vec<f64> = (0..n)
                .map(|i| 1.0 + ((i * 7 + j * 13) % 5) as f64 * 0.25)
                .collect();
            // Fixed iteration count (each round is O(n)): the solve
            // amplifies in-cluster components by ~1/eps per round, so a
            // few rounds swamp any cancellation garbage the Gram–Schmidt
            // step reintroduces.
            for attempt in 0..4usize {
                lu.solve(&mut x);
                for prev in &tri_vecs[cluster_start..j] {
                    let dot = simd::dot(&x, prev);
                    for (xi, pi) in x.iter_mut().zip(prev) {
                        *xi -= dot * pi;
                    }
                }
                let norm = simd::dot(&x, &x).sqrt();
                if norm.is_finite() && norm > eps3 {
                    for xi in &mut x {
                        *xi /= norm;
                    }
                } else {
                    // Deterministic restart: vary the start vector.
                    for (i, xi) in x.iter_mut().enumerate() {
                        *xi = if (i + j + attempt) % 3 == 0 {
                            1.0
                        } else {
                            -0.5
                        };
                    }
                }
            }
            tri_vecs.push(x);
        }

        // Back-transform through the Householder reflectors and pack.
        let mut out = Matrix::zeros(n, k);
        let refl = &red.basis;
        let hs = &red.hs;
        for (j, tv) in tri_vecs.iter().enumerate() {
            let mut x = tv.clone();
            for i in 2..n {
                if hs[i] == 0.0 {
                    continue;
                }
                let u = &refl.row(i)[..i];
                let mut t = 0.0;
                for (uv, xv) in u.iter().zip(&x[..i]) {
                    t += uv * xv;
                }
                t /= hs[i];
                for (uv, xv) in u.iter().zip(&mut x[..i]) {
                    *xv -= t * uv;
                }
            }
            canonicalize_sign(&mut x);
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        Ok((vals, out))
    }

    /// Householder reduction to tridiagonal form (a `tred2` port).
    ///
    /// With `accumulate`, `basis` row `k` holds column `k` of the
    /// orthogonal `Q` with `A = Q T Qᵀ` (transposed storage so QL can
    /// rotate contiguous rows). Without it, `basis` row `i` keeps the
    /// raw scaled Householder vector `u_i` (support `0..i`) and `hs[i]`
    /// the corresponding `h = |u|²/2` (0 where the step was skipped).
    #[allow(clippy::needless_range_loop)]
    fn tridiagonalize(&self, accumulate: bool) -> Tridiag {
        let n = self.rows;
        let mut a = self.clone();
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        let mut hs = vec![0.0; n];
        if n == 0 {
            return Tridiag { d, e, basis: a, hs };
        }
        for i in (1..n).rev() {
            let l = i - 1;
            let mut h = 0.0;
            if l > 0 {
                let mut scale = 0.0;
                for k in 0..=l {
                    scale += a[(i, k)].abs();
                }
                if scale == 0.0 {
                    e[i] = a[(i, l)];
                } else {
                    for k in 0..=l {
                        let v = a[(i, k)] / scale;
                        a[(i, k)] = v;
                        h += v * v;
                    }
                    let f = a[(i, l)];
                    let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                    e[i] = scale * g;
                    h -= f * g;
                    a[(i, l)] = f - g;
                    let mut fsum = 0.0;
                    for j in 0..=l {
                        if accumulate {
                            a[(j, i)] = a[(i, j)] / h;
                        }
                        let mut g2 = 0.0;
                        for k in 0..=j {
                            g2 += a[(j, k)] * a[(i, k)];
                        }
                        for k in (j + 1)..=l {
                            g2 += a[(k, j)] * a[(i, k)];
                        }
                        e[j] = g2 / h;
                        fsum += e[j] * a[(i, j)];
                    }
                    let hh = fsum / (h + h);
                    for j in 0..=l {
                        let f2 = a[(i, j)];
                        let g2 = e[j] - hh * f2;
                        e[j] = g2;
                        for k in 0..=j {
                            a[(j, k)] -= f2 * e[k] + g2 * a[(i, k)];
                        }
                    }
                }
            } else {
                e[i] = a[(i, l)];
            }
            d[i] = h;
            hs[i] = h;
        }
        e[0] = 0.0;
        hs[0] = 0.0;
        if accumulate {
            d[0] = 0.0;
            for i in 0..n {
                if d[i] != 0.0 {
                    for j in 0..i {
                        let mut g = 0.0;
                        for k in 0..i {
                            g += a[(i, k)] * a[(k, j)];
                        }
                        for k in 0..i {
                            a[(k, j)] -= g * a[(k, i)];
                        }
                    }
                }
                d[i] = a[(i, i)];
                a[(i, i)] = 1.0;
                for j in 0..i {
                    a[(j, i)] = 0.0;
                    a[(i, j)] = 0.0;
                }
            }
            Tridiag {
                d,
                e,
                basis: a.transpose(),
                hs,
            }
        } else {
            for i in 0..n {
                d[i] = a[(i, i)];
            }
            Tridiag { d, e, basis: a, hs }
        }
    }

    /// The original classical-Jacobi eigensolver (pre-optimisation),
    /// kept verbatim as the regression oracle and `bench_snapshot`
    /// baseline. Same contract as the old `symmetric_eigen`:
    /// `(eigenvalues, eigenvectors)` descending, vector `k` in column
    /// `k`, signs arbitrary.
    pub fn jacobi_eigen_reference(&self, max_sweeps: usize) -> FqResult<(Vec<f64>, Matrix)> {
        if self.rows != self.cols {
            return Err(FqError::Linalg("eigen requires a square matrix".into()));
        }
        let n = self.rows;
        if n == 0 {
            return Ok((Vec::new(), Matrix::zeros(0, 0)));
        }
        let mut a = self.clone();
        let mut v = Matrix::identity(n);
        let scale: f64 = self
            .data
            .iter()
            .fold(0.0f64, |m, x| m.max(x.abs()))
            .max(f64::MIN_POSITIVE);
        let tol = 1e-12 * scale;
        for _sweep in 0..max_sweeps * n * n {
            let (p, q, off) = a.max_offdiag();
            if off <= tol {
                break;
            }
            // Classic Jacobi rotation annihilating a[p][q].
            let app = a[(p, p)];
            let aqq = a[(q, q)];
            let apq = a[(p, q)];
            let theta = (aqq - app) / (2.0 * apq);
            let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
            let c = 1.0 / (t * t + 1.0).sqrt();
            let s = t * c;
            for k in 0..n {
                let akp = a[(k, p)];
                let akq = a[(k, q)];
                a[(k, p)] = c * akp - s * akq;
                a[(k, q)] = s * akp + c * akq;
            }
            for k in 0..n {
                let apk = a[(p, k)];
                let aqk = a[(q, k)];
                a[(p, k)] = c * apk - s * aqk;
                a[(q, k)] = s * apk + c * aqk;
            }
            for k in 0..n {
                let vkp = v[(k, p)];
                let vkq = v[(k, q)];
                v[(k, p)] = c * vkp - s * vkq;
                v[(k, q)] = s * vkp + c * vkq;
            }
        }
        let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (a[(i, i)], i)).collect();
        pairs.sort_by(|x, y| y.0.total_cmp(&x.0));
        let eigenvalues: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let eigenvectors = Matrix::from_fn(n, n, |i, k| v[(i, pairs[k].1)]);
        Ok((eigenvalues, eigenvectors))
    }
}

/// Output of [`Matrix::tridiagonalize`].
struct Tridiag {
    /// Diagonal of the tridiagonal `T`.
    d: Vec<f64>,
    /// Subdiagonal of `T`: `e[i]` couples `i-1` and `i`; `e[0] = 0`.
    e: Vec<f64>,
    /// `Qᵀ` (accumulate) or raw Householder vectors by row (not).
    basis: Matrix,
    /// Householder `h` values (`|u|²/2`), 0 where the step was skipped.
    hs: Vec<f64>,
}

/// Flip `x` so its largest-magnitude component (first on ties) is
/// positive — the canonical eigenvector sign both solver paths share.
fn canonicalize_sign(x: &mut [f64]) {
    let mut idx = 0usize;
    let mut best = -1.0f64;
    for (i, v) in x.iter().enumerate() {
        if v.abs() > best {
            best = v.abs();
            idx = i;
        }
    }
    if !x.is_empty() && x[idx] < 0.0 {
        for v in x.iter_mut() {
            *v = -*v;
        }
    }
}

/// Implicit-shift QL on a tridiagonal `(d, e)` (a `tql2`/`tql1` port).
///
/// On entry `e[i]` couples rows `i-1` and `i` (`e[0]` ignored); on exit
/// `d` holds the eigenvalues, unsorted. When `zt` is given, its rows
/// are rotated along — pass `Qᵀ` from the reduction and row `k` ends up
/// as the eigenvector of `d[k]` (transposed storage makes each rotation
/// touch two contiguous rows instead of two strided columns).
/// `max_iter` bounds iterations per eigenvalue.
fn ql_implicit(
    d: &mut [f64],
    e: &mut [f64],
    mut zt: Option<&mut Matrix>,
    max_iter: usize,
) -> FqResult<()> {
    let n = d.len();
    if n == 0 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    for l in 0..n {
        let mut iter = 0usize;
        loop {
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            if iter >= max_iter {
                return Err(FqError::Linalg(format!(
                    "QL failed to converge for eigenvalue {l} after {max_iter} iterations"
                )));
            }
            iter += 1;
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let mut s = 1.0f64;
            let mut c = 1.0f64;
            let mut p = 0.0f64;
            let mut underflow = false;
            for iu in (l..m).rev() {
                let f = s * e[iu];
                let b = c * e[iu];
                r = f.hypot(g);
                e[iu + 1] = r;
                if r == 0.0 {
                    d[iu + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[iu + 1] - p;
                r = (d[iu] - g) * s + 2.0 * c * b;
                p = s * r;
                d[iu + 1] = g + p;
                g = c * r - b;
                if let Some(z) = zt.as_deref_mut() {
                    let w = z.cols;
                    let (lo, hi) = z.data.split_at_mut((iu + 1) * w);
                    let row_i = &mut lo[iu * w..];
                    let row_j = &mut hi[..w];
                    for (zi, zj) in row_i.iter_mut().zip(row_j.iter_mut()) {
                        let f2 = *zj;
                        *zj = s * *zi + c * f2;
                        *zi = c * *zi - s * f2;
                    }
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// LU factorisation (with partial pivoting) of a shifted tridiagonal
/// `T − λI`, recording the row operations so repeated inverse-iteration
/// solves can forward-apply them to fresh right-hand sides.
struct TriLu {
    /// Pivot diagonal (zero pivots replaced by `±eps`).
    u: Vec<f64>,
    /// First superdiagonal of the eliminated system.
    v: Vec<f64>,
    /// Second superdiagonal (nonzero only after a row interchange).
    w: Vec<f64>,
    /// Elimination multipliers, per step.
    mult: Vec<f64>,
    /// Whether step `i` interchanged rows `i` and `i+1`.
    swapped: Vec<bool>,
}

impl TriLu {
    /// Eliminate `T − shift·I` where `d`/`e` follow the
    /// [`Matrix::tridiagonalize`] convention (`e[i]` couples `i-1`, `i`).
    fn factor(d: &[f64], e: &[f64], shift: f64, eps: f64) -> Self {
        let n = d.len();
        let mut u = vec![0.0; n];
        let mut v = vec![0.0; n];
        let mut w = vec![0.0; n];
        let mut mult = vec![0.0; n];
        let mut swapped = vec![false; n];
        let mut cd = d[0] - shift;
        let mut cs = if n > 1 { e[1] } else { 0.0 };
        for i in 0..n.saturating_sub(1) {
            let sub = e[i + 1];
            let nd = d[i + 1] - shift;
            let ns = if i + 2 < n { e[i + 2] } else { 0.0 };
            if sub.abs() > cd.abs() {
                swapped[i] = true;
                u[i] = sub;
                v[i] = nd;
                w[i] = ns;
                let m = cd / sub;
                mult[i] = m;
                cd = cs - m * nd;
                cs = -m * ns;
            } else {
                let ui = if cd.abs() < eps {
                    if cd < 0.0 {
                        -eps
                    } else {
                        eps
                    }
                } else {
                    cd
                };
                u[i] = ui;
                v[i] = cs;
                let m = sub / ui;
                mult[i] = m;
                cd = nd - m * cs;
                cs = ns;
            }
        }
        u[n - 1] = if cd.abs() < eps {
            if cd < 0.0 {
                -eps
            } else {
                eps
            }
        } else {
            cd
        };
        Self {
            u,
            v,
            w,
            mult,
            swapped,
        }
    }

    /// Solve `(T − shift·I) x = b` in place: forward-apply the recorded
    /// row operations, then back-substitute through the two
    /// superdiagonals.
    fn solve(&self, b: &mut [f64]) {
        let n = b.len();
        for i in 0..n.saturating_sub(1) {
            if self.swapped[i] {
                b.swap(i, i + 1);
            }
            b[i + 1] -= self.mult[i] * b[i];
        }
        b[n - 1] /= self.u[n - 1];
        if n >= 2 {
            b[n - 2] = (b[n - 2] - self.v[n - 2] * b[n - 1]) / self.u[n - 2];
        }
        for i in (0..n.saturating_sub(2)).rev() {
            b[i] = (b[i] - self.v[i] * b[i + 1] - self.w[i] * b[i + 2]) / self.u[i];
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn from_vec_checks_shape() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_vec_rejects_overflowing_shape() {
        // 2^62 x 4 wraps to 0 elements in usize arithmetic.
        let err = Matrix::from_vec(1 << 62, 4, vec![]).unwrap_err();
        assert!(matches!(err, FqError::Linalg(_)), "{err}");
        assert!(err.to_string().contains("18446744073709551616"), "{err}");
    }

    #[test]
    fn identity_matvec_is_noop() {
        let m = Matrix::identity(4);
        let v = vec![1.0, -2.0, 3.5, 0.25];
        assert_eq!(m.matvec(&v), v);
    }

    #[test]
    fn matvec_known_values() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let out = m.matvec(&[1.0, 1.0, 1.0]);
        assert_eq!(out, vec![6.0, 15.0]);
    }

    #[test]
    fn matmul_matches_naive_triple_loop() {
        // k = 5 exercises one quad plus a remainder lane.
        let a = Matrix::from_fn(7, 5, |i, j| ((i * 3 + j) % 7) as f64 * 0.5 - 1.0);
        let b = Matrix::from_fn(5, 9, |i, j| ((i + 2 * j) % 5) as f64 * 0.25);
        let c = a.matmul(&b).unwrap();
        // Bitwise vs the order-B scalar oracle...
        let r = a.matmul_reference(&b).unwrap();
        assert_eq!(c, r);
        // ...and approximately vs the plain ascending-k triple loop
        // (different association, same value up to rounding).
        for i in 0..7 {
            for j in 0..9 {
                let mut s = 0.0;
                for k in 0..5 {
                    s += a[(i, k)] * b[(k, j)];
                }
                assert!(approx(c[(i, j)], s, 1e-12), "({i},{j})");
            }
        }
        assert!(a.matmul(&Matrix::zeros(4, 4)).is_err());
        assert_eq!(a.matmul(&Matrix::zeros(5, 0)).unwrap().cols(), 0);
    }

    #[test]
    fn matmul_blocked_matches_reference_across_panel_boundary() {
        // k > MATMUL_KC forces multiple k-panels; k % 4 != 0 leaves a
        // remainder lane in the final panel.
        for (m, k, p) in [(3, 130, 5), (2, 256, 3), (5, 131, 7)] {
            let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 7) % 13) as f64 * 0.21 - 1.1);
            let b = Matrix::from_fn(k, p, |i, j| ((i * 5 + j * 11) % 17) as f64 * 0.13 - 0.9);
            assert_eq!(
                a.matmul(&b).unwrap(),
                a.matmul_reference(&b).unwrap(),
                "m={m} k={k} p={p}"
            );
        }
    }

    #[test]
    fn matvec_matches_reference_bitwise_with_remainder() {
        for cols in [1usize, 4, 5, 61, 243] {
            let m = Matrix::from_fn(6, cols, |i, j| ((i * 13 + j * 3) % 11) as f64 * 0.4 - 1.7);
            let v: Vec<f64> = (0..cols).map(|j| (j as f64) * 0.29 - 2.0).collect();
            let fast = m.matvec(&v);
            let oracle = m.matvec_reference(&v);
            for (x, y) in fast.iter().zip(&oracle) {
                assert_eq!(x.to_bits(), y.to_bits(), "cols={cols}");
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 7 + j) as f64);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn cholesky_of_identity_is_identity() {
        let l = Matrix::identity(5).cholesky().unwrap();
        assert_eq!(l, Matrix::identity(5));
    }

    #[test]
    fn cholesky_reconstructs() {
        // SPD matrix A = B^T B + I
        let b = Matrix::from_fn(4, 4, |i, j| ((i + 2 * j) % 5) as f64 * 0.3);
        let bt = b.transpose();
        let mut a = Matrix::zeros(4, 4);
        for i in 0..4 {
            for j in 0..4 {
                let mut s = if i == j { 1.0 } else { 0.0 };
                for k in 0..4 {
                    s += bt[(i, k)] * b[(k, j)];
                }
                a[(i, j)] = s;
            }
        }
        let l = a.cholesky().unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let mut s = 0.0;
                for k in 0..4 {
                    s += l[(i, k)] * l[(j, k)];
                }
                assert!(
                    approx(s, a[(i, j)], 1e-9),
                    "({i},{j}): {s} vs {}",
                    a[(i, j)]
                );
            }
        }
        // Upper triangle of L must be zero.
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_eq!(l[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn cholesky_bitwise_matches_reference() {
        // The optimised column-ordered factorisation must agree with the
        // original row-ordered scalar loop bit-for-bit (same op order).
        for n in [1usize, 2, 5, 24, 61] {
            let a = Matrix::from_fn(n, n, |i, j| {
                let base = 1.0 / (1.0 + (i as f64 - j as f64).abs());
                if i == j {
                    base + n as f64 * 0.05
                } else {
                    base
                }
            });
            let fast = a.cholesky().unwrap();
            let slow = a.cholesky_reference().unwrap();
            assert_eq!(fast.as_slice(), slow.as_slice(), "n={n}");
        }
    }

    #[test]
    fn cholesky_rejects_nonsquare() {
        assert!(Matrix::zeros(2, 3).cholesky().is_err());
        assert!(Matrix::zeros(2, 3).cholesky_reference().is_err());
    }

    #[test]
    fn cholesky_negative_definite_fails() {
        let mut m = Matrix::identity(3);
        m[(0, 0)] = -5.0;
        assert!(m.cholesky().is_err());
        assert!(m.cholesky_reference().is_err());
    }

    #[test]
    fn solve_spd_recovers_known_solution() {
        // A = [[4,1],[1,3]], x = [1, 2], b = A x = [6, 7].
        let a = Matrix::from_vec(2, 2, vec![4.0, 1.0, 1.0, 3.0]).unwrap();
        let x = a.solve_spd(&[6.0, 7.0]).unwrap();
        assert!(approx(x[0], 1.0, 1e-10));
        assert!(approx(x[1], 2.0, 1e-10));
    }

    #[test]
    fn solve_spd_residual_is_small_for_random_spd() {
        let n = 6;
        let b = Matrix::from_fn(n, n, |i, j| ((i * 3 + j * 7) % 11) as f64 * 0.1);
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = if i == j { n as f64 } else { 0.0 };
                for k in 0..n {
                    s += b[(i, k)] * b[(j, k)];
                }
                a[(i, j)] = s;
            }
        }
        let rhs: Vec<f64> = (0..n).map(|i| i as f64 - 2.5).collect();
        let x = a.solve_spd(&rhs).unwrap();
        let ax = a.matvec(&x);
        for (got, want) in ax.iter().zip(&rhs) {
            assert!(approx(*got, *want, 1e-8), "{got} vs {want}");
        }
    }

    #[test]
    fn solve_spd_rejects_bad_shapes() {
        assert!(Matrix::zeros(2, 3).solve_spd(&[1.0, 2.0]).is_err());
        assert!(Matrix::identity(3).solve_spd(&[1.0]).is_err());
    }

    #[test]
    fn eigen_diagonal_matrix() {
        let mut m = Matrix::zeros(3, 3);
        m[(0, 0)] = 3.0;
        m[(1, 1)] = 1.0;
        m[(2, 2)] = 2.0;
        let (vals, _) = m.symmetric_eigen(30).unwrap();
        assert!(approx(vals[0], 3.0, 1e-10));
        assert!(approx(vals[1], 2.0, 1e-10));
        assert!(approx(vals[2], 1.0, 1e-10));
    }

    #[test]
    fn eigen_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let m = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let (vals, vecs) = m.symmetric_eigen(30).unwrap();
        assert!(approx(vals[0], 3.0, 1e-10));
        assert!(approx(vals[1], 1.0, 1e-10));
        // Eigenvector for λ=3 is (1,1)/√2 up to sign.
        let (x, y) = (vecs[(0, 0)], vecs[(1, 0)]);
        assert!(approx(x.abs(), y.abs(), 1e-8));
        assert!(approx(x.hypot(y), 1.0, 1e-8));
    }

    #[test]
    fn eigen_reconstruction() {
        // Symmetric matrix; check A ≈ V diag(λ) V^T.
        let n = 6;
        let m = Matrix::from_fn(n, n, |i, j| 1.0 / (1.0 + (i as f64 - j as f64).abs()));
        let (vals, vecs) = m.symmetric_eigen(50).unwrap();
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += vecs[(i, k)] * vals[k] * vecs[(j, k)];
                }
                assert!(approx(s, m[(i, j)], 1e-8), "({i},{j})");
            }
        }
    }

    #[test]
    fn eigen_empty_matrix() {
        let (vals, vecs) = Matrix::zeros(0, 0).symmetric_eigen(10).unwrap();
        assert!(vals.is_empty());
        assert_eq!(vecs.rows(), 0);
        let (vals, vecs) = Matrix::zeros(0, 0).symmetric_eigen_topk(3, 10).unwrap();
        assert!(vals.is_empty());
        assert_eq!(vecs.rows(), 0);
    }

    #[test]
    fn eigenvalue_sum_equals_trace() {
        let n = 8;
        let m = Matrix::from_fn(n, n, |i, j| (-((i as f64 - j as f64).powi(2)) / 4.0).exp());
        let (vals, _) = m.symmetric_eigen(50).unwrap();
        let trace: f64 = (0..n).map(|i| m[(i, i)]).sum();
        let sum: f64 = vals.iter().sum();
        assert!(approx(sum, trace, 1e-8), "sum={sum} trace={trace}");
    }

    #[test]
    fn eigen_8x8_matches_analytic_values() {
        // Second-difference matrix tridiag(-1, 2, -1): the classic case
        // with closed-form eigenpairs λ_k = 2 − 2cos(kπ/(n+1)) and
        // eigenvector components sin(i·kπ/(n+1)). Pins the new solver
        // against analytic values, not just against reconstruction.
        let n = 8usize;
        let h = std::f64::consts::PI / (n as f64 + 1.0);
        let m = Matrix::from_fn(n, n, |i, j| {
            let d = i as f64 - j as f64;
            if d == 0.0 {
                2.0
            } else if d.abs() == 1.0 {
                -1.0
            } else {
                0.0
            }
        });
        let (vals, vecs) = m.symmetric_eigen(50).unwrap();
        // Analytic eigenvalues, descending: k = n, n-1, …, 1.
        for (rank, lam) in vals.iter().enumerate() {
            let k = (n - rank) as f64;
            let analytic = 2.0 - 2.0 * (k * h).cos();
            assert!(
                approx(*lam, analytic, 1e-12),
                "rank {rank}: {lam} vs {analytic}"
            );
            // Matching analytic eigenvector, normalised.
            let mut v: Vec<f64> = (1..=n).map(|i| (i as f64 * k * h).sin()).collect();
            let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            for x in &mut v {
                *x /= norm;
            }
            let dot: f64 = (0..n).map(|i| vecs[(i, rank)] * v[i]).sum();
            assert!(approx(dot.abs(), 1.0, 1e-10), "rank {rank}: |dot|={dot}");
        }
    }

    #[test]
    fn eigen_matches_jacobi_reference_eigenvalues() {
        let n = 12;
        let m = Matrix::from_fn(n, n, |i, j| {
            (-((i as f64 - j as f64).powi(2)) / 9.0).exp() + if i == j { 0.5 } else { 0.0 }
        });
        let (new_vals, _) = m.symmetric_eigen(50).unwrap();
        let (ref_vals, _) = m.jacobi_eigen_reference(50).unwrap();
        for (a, b) in new_vals.iter().zip(&ref_vals) {
            assert!(approx(*a, *b, 1e-9), "{a} vs {b}");
        }
    }

    #[test]
    fn topk_matches_full_eigen() {
        // Von-Kármán-like correlation matrix from a slightly irregular
        // 1-D layout (no exact degeneracies): top-k vectors from inverse
        // iteration must match the full QL path, which shares the same
        // sign canonicalisation.
        let n = 20usize;
        let pos: Vec<f64> = (0..n)
            .map(|i| i as f64 + 0.13 * ((i * i) % 7) as f64)
            .collect();
        let m = Matrix::from_fn(n, n, |i, j| {
            let r = (pos[i] - pos[j]).abs() / 5.0;
            (-r).exp()
        });
        let (full_vals, full_vecs) = m.symmetric_eigen(50).unwrap();
        let k = 6;
        let (top_vals, top_vecs) = m.symmetric_eigen_topk(k, 50).unwrap();
        assert_eq!(top_vals.len(), n);
        assert_eq!(top_vecs.cols(), k);
        for j in 0..n {
            assert!(approx(top_vals[j], full_vals[j], 1e-10), "λ[{j}]");
        }
        for c in 0..k {
            for i in 0..n {
                assert!(
                    approx(top_vecs[(i, c)], full_vecs[(i, c)], 1e-7),
                    "vec {c} comp {i}: {} vs {}",
                    top_vecs[(i, c)],
                    full_vecs[(i, c)]
                );
            }
        }
    }

    #[test]
    fn topk_handles_degenerate_eigenvalues() {
        // diag(2, 2, 1): a degenerate pair; inverse iteration must still
        // return an orthonormal basis for the λ=2 eigenspace.
        let mut m = Matrix::zeros(3, 3);
        m[(0, 0)] = 2.0;
        m[(1, 1)] = 2.0;
        m[(2, 2)] = 1.0;
        let (vals, vecs) = m.symmetric_eigen_topk(2, 30).unwrap();
        assert!(approx(vals[0], 2.0, 1e-12));
        assert!(approx(vals[1], 2.0, 1e-12));
        let dot: f64 = (0..3).map(|i| vecs[(i, 0)] * vecs[(i, 1)]).sum();
        assert!(approx(dot, 0.0, 1e-8), "not orthogonal: {dot}");
        for c in 0..2 {
            let norm: f64 = (0..3)
                .map(|i| vecs[(i, c)] * vecs[(i, c)])
                .sum::<f64>()
                .sqrt();
            assert!(approx(norm, 1.0, 1e-8));
            // Both must lie in the span of e0, e1 (zero third component).
            assert!(approx(vecs[(2, c)], 0.0, 1e-8));
        }
    }

    #[test]
    fn topk_residual_is_small() {
        // ‖A v − λ v‖ must be tiny for every returned eigenpair.
        let n = 15usize;
        let m = Matrix::from_fn(n, n, |i, j| {
            let r = (i as f64 - j as f64).abs() / 3.0;
            (1.0 + r) * (-r).exp()
        });
        let (vals, vecs) = m.symmetric_eigen_topk(5, 50).unwrap();
        for c in 0..5 {
            let v: Vec<f64> = (0..n).map(|i| vecs[(i, c)]).collect();
            let av = m.matvec(&v);
            for i in 0..n {
                assert!(
                    approx(av[i], vals[c] * v[i], 1e-8),
                    "pair {c} comp {i}: {} vs {}",
                    av[i],
                    vals[c] * v[i]
                );
            }
        }
    }
}
