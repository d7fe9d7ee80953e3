//! General sparse matrix in CSR form with `f32` values, and its
//! sparse–dense products (SPMM).
//!
//! # Register panels
//!
//! [`CsrMatrix::spmm_rows_into`] is the one SPMM kernel; [`CsrMatrix::spmm`]
//! and [`CsrMatrix::spmm_into`] call it for all rows. It fills each output
//! row in column panels held in registers, 32, 16, 8, 4, 2 and 1 columns
//! wide (each width a separate monomorphised copy): 32-wide panels while
//! they fit, then one each of the narrower widths for the ragged tail. A
//! panel adds `v · X(c, j)` over the row's stored entries in ascending
//! column order, starting from `+0.0`, and is stored once after its last
//! term. Each output element is therefore the same sequence of plain `f32`
//! multiplies and adds as a scalar loop that zeroes the row and then adds
//! every entry's scaled source row in order (Rust never fuses them into a
//! multiply-add). The panel width decides only which elements are summed
//! together, so the bits do not depend on it; no term is skipped, so NaN
//! and ∞ propagate as in that loop.
//!
//! # AVX2
//!
//! On x86-64 the same panel loop is compiled a second time with AVX2
//! enabled and picked per call with [`Isa::detect`], as the dense kernels
//! do: both copies run the same operations in the same order, and the unit
//! tests compare them bit for bit. The kernel mostly waits on the source
//! rows (each stored entry reads a whole feature row), but the AVX2 copy
//! issues half the instructions, which pays when another thread shares
//! the core (on a 2-core Xeon VM it cut `serving` reload latency by a
//! fifth end to end; `BENCH_19.json`).
//!
//! # Row ranges
//!
//! Any range of output rows can be computed on its own into a buffer of
//! just those rows. The banded inference forward of the graph convolutions
//! uses this to aggregate [`fairwos_tensor::BAND_ROWS`] rows at a time and
//! never builds a whole-graph aggregate. Every call fills its rows on the
//! calling thread: moving SPMM and the dense products onto threads read
//! the `serving` workload's latency 16 % higher, and a row range decides
//! only which rows are computed, so a later split cannot change a bit.

use fairwos_tensor::checked::{contract_finite, contract_finite_slice};
use fairwos_tensor::{Isa, Matrix};
use std::ops::Range;

/// The widest register panel, in output columns.
const MAX_PANEL: usize = 32;

/// A sparse `rows × cols` matrix in CSR form.
///
/// Used for normalized adjacencies: the GCN propagation `Â·X` and its
/// backward pass `Âᵀ·dH` are both [`CsrMatrix::spmm`] calls (for the
/// symmetric `Â` the transpose is free; [`CsrMatrix::transpose`] exists for
/// the general case).
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds from COO triplets. Entries must not repeat (adjacency
    /// construction guarantees this); order is arbitrary.
    ///
    /// # Panics
    /// If any triplet indexes outside `rows × cols`.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        let mut deg = vec![0usize; rows];
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "entry ({r},{c}) out of {rows}x{cols}");
            deg[r] += 1;
        }
        let mut row_ptr = vec![0usize; rows + 1];
        for r in 0..rows {
            row_ptr[r + 1] = row_ptr[r] + deg[r];
        }
        let nnz = row_ptr[rows];
        let mut col_idx = vec![0usize; nnz];
        let mut values = vec![0.0f32; nnz];
        let mut cursor = row_ptr.clone();
        for &(r, c, v) in triplets {
            col_idx[cursor[r]] = c;
            values[cursor[r]] = v;
            cursor[r] += 1;
        }
        // Sort each row by column for deterministic iteration. Rows that
        // arrive ascending, as every adjacency builder emits them, stay as
        // they are.
        for r in 0..rows {
            let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
            if col_idx[lo..hi].windows(2).all(|w| w[0] < w[1]) {
                continue;
            }
            let mut pairs: Vec<(usize, f32)> = col_idx[lo..hi]
                .iter()
                .copied()
                .zip(values[lo..hi].iter().copied())
                .collect();
            pairs.sort_unstable_by_key(|&(c, _)| c);
            for (i, (c, v)) in (lo..).zip(pairs) {
                col_idx[i] = c;
                values[i] = v;
            }
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The `n × n` identity as CSR.
    pub fn identity(n: usize) -> Self {
        let triplets: Vec<(usize, usize, f32)> = (0..n).map(|i| (i, i, 1.0)).collect();
        Self::from_triplets(n, n, &triplets)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The stored entries of row `r` as parallel `(columns, values)` slices.
    #[inline]
    pub fn row(&self, r: usize) -> (&[usize], &[f32]) {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Reads entry `(r, c)`, 0.0 when absent.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&c) {
            Ok(i) => vals[i],
            Err(_) => 0.0,
        }
    }

    /// Sparse–dense product `self · dense`.
    ///
    /// The GCN forward propagation. Parallelises over output rows.
    ///
    /// # Panics
    /// If `self.cols() != dense.rows()`. With `--features checked` in a
    /// debug build, also if an operand or the output contains NaN/Inf.
    pub fn spmm(&self, dense: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, dense.cols());
        self.spmm_into(dense, &mut out);
        out
    }

    /// Sparse–dense product `self · dense`, written into `out` (any
    /// previous contents of `out` are overwritten). In-place twin of
    /// [`CsrMatrix::spmm`] for allocation-free hot loops: the
    /// [`CsrMatrix::spmm_rows_into`] of all rows.
    ///
    /// # Panics
    /// If `self.cols() != dense.rows()` or `out` is not
    /// `self.rows() × dense.cols()`. With `--features checked` in a debug
    /// build, also if an operand or the output contains NaN/Inf.
    pub fn spmm_into(&self, dense: &Matrix, out: &mut Matrix) {
        self.spmm_rows_into(0..self.rows, dense, out);
    }

    /// Rows `rows` of `self · dense`, written into `out`, which holds just
    /// those rows (any previous contents are overwritten). Each output row
    /// is filled in register panels (see the module docs), so every element
    /// equals the one [`CsrMatrix::spmm`] computes, bit for bit.
    ///
    /// # Panics
    /// If `rows` is not within `0..self.rows()`, `self.cols() !=
    /// dense.rows()`, or `out` is not `rows.len() × dense.cols()`. With
    /// `--features checked` in a debug build, also if the rows' stored
    /// values, `dense` or the output contain NaN/Inf.
    pub fn spmm_rows_into(&self, rows: Range<usize>, dense: &Matrix, out: &mut Matrix) {
        assert!(
            rows.start <= rows.end && rows.end <= self.rows,
            "spmm: rows {rows:?} out of a {}-row sparse matrix",
            self.rows
        );
        assert_eq!(
            self.cols,
            dense.rows(),
            "spmm: sparse {}x{} · dense {}x{}",
            self.rows,
            self.cols,
            dense.rows(),
            dense.cols()
        );
        assert_eq!(
            out.shape(),
            (rows.len(), dense.cols()),
            "spmm: output buffer is {}x{}, expected {}x{}",
            out.rows(),
            out.cols(),
            rows.len(),
            dense.cols()
        );
        let (lo, hi) = (self.row_ptr[rows.start], self.row_ptr[rows.end]);
        contract_finite_slice("spmm", "sparse values", &self.values[lo..hi]);
        contract_finite("spmm", "dense", dense);
        fairwos_obs::counter_add("graph/spmm/fma", ((hi - lo) * dense.cols()) as u64);
        self.spmm_rows_on(Isa::detect(), rows.start, dense, out);
        contract_finite("spmm", "output", out);
    }

    /// The panel loop of [`CsrMatrix::spmm_rows_into`] on `isa`, shapes
    /// checked: fills the output rows from `r0` that `out` holds.
    fn spmm_rows_on(&self, isa: Isa, r0: usize, dense: &Matrix, out: &mut Matrix) {
        let d = dense.cols();
        if d == 0 {
            return;
        }
        let (x, out) = (dense.as_slice(), out.as_mut_slice());
        match isa {
            Isa::Portable => self.fill_rows(r0, x, d, out),
            // SAFETY: `Isa::Avx2` and `Isa::Avx512` are only produced on a
            // CPU that reports AVX2. An AVX-512 copy of the panels showed
            // no end-to-end gain (`BENCH_29.json`).
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 | Isa::Avx512 => unsafe { self.fill_rows_avx2(r0, x, d, out) },
        }
    }

    /// Output rows `r0..` of `self · X` that `out` holds, `d` columns each
    /// (`x` holds `X` row-major).
    #[inline(always)]
    fn fill_rows(&self, r0: usize, x: &[f32], d: usize, out: &mut [f32]) {
        for (i, out_row) in out.chunks_exact_mut(d).enumerate() {
            self.fill_row(r0 + i, x, out_row);
        }
    }

    /// [`CsrMatrix::fill_rows`] compiled with AVX2 enabled.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn fill_rows_avx2(&self, r0: usize, x: &[f32], d: usize, out: &mut [f32]) {
        self.fill_rows(r0, x, d, out);
    }

    /// Output row `r` of `self · X`, where `x` holds `X` row-major with
    /// `out.len()` columns: [`MAX_PANEL`]-wide panels while they fit, then
    /// one each of 16, 8, 4, 2 and 1 columns for the tail.
    #[inline(always)]
    fn fill_row(&self, r: usize, x: &[f32], out: &mut [f32]) {
        let (cols, vals) = self.row(r);
        let d = out.len();
        let mut j = 0;
        while j + MAX_PANEL <= d {
            panel::<MAX_PANEL>(cols, vals, x, j, out);
            j += MAX_PANEL;
        }
        if j + 16 <= d {
            panel::<16>(cols, vals, x, j, out);
            j += 16;
        }
        if j + 8 <= d {
            panel::<8>(cols, vals, x, j, out);
            j += 8;
        }
        if j + 4 <= d {
            panel::<4>(cols, vals, x, j, out);
            j += 4;
        }
        if j + 2 <= d {
            panel::<2>(cols, vals, x, j, out);
            j += 2;
        }
        if j < d {
            panel::<1>(cols, vals, x, j, out);
        }
    }

    /// The transpose as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let mut triplets = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                triplets.push((c, r, v));
            }
        }
        CsrMatrix::from_triplets(self.cols, self.rows, &triplets)
    }

    /// True if the matrix equals its transpose within `tol` (the normalized
    /// adjacency of an undirected graph must be).
    pub fn is_symmetric(&self, tol: f32) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                if (self.get(c, r) - v).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Densifies (test/debug helper; quadratic memory).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                m.set(r, c, v);
            }
        }
        m
    }

    /// Per-row sums of stored values.
    pub fn row_sums(&self) -> Vec<f32> {
        (0..self.rows).map(|r| self.row(r).1.iter().sum()).collect()
    }
}

/// Columns `j0..j0 + W` of one output row: `Σ v · X(c, j)` over the row's
/// entries `(cols, vals)` in stored order, summed in registers from `+0.0`
/// and stored once. `x` holds `X` row-major with `out.len()` columns.
#[inline(always)]
fn panel<const W: usize>(cols: &[usize], vals: &[f32], x: &[f32], j0: usize, out: &mut [f32]) {
    let d = out.len();
    let mut acc = [0.0f32; W];
    for (&c, &v) in cols.iter().zip(vals) {
        let mut src = [0.0f32; W];
        src.copy_from_slice(&x[c * d + j0..c * d + j0 + W]);
        for (a, &s) in acc.iter_mut().zip(&src) {
            *a += v * s;
        }
    }
    out[j0..j0 + W].copy_from_slice(&acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairwos_tensor::approx_eq;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (1, 0, 3.0), (2, 2, 1.0), (0, 2, 4.0)])
    }

    #[test]
    fn spmm_into_overwrites_dirty_buffer() {
        let s = sample();
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let mut out = Matrix::full(3, 2, f32::MAX);
        s.spmm_into(&x, &mut out);
        assert_eq!(out, s.spmm(&x));
    }

    #[test]
    fn construction_and_access() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(0, 2), 4.0);
        assert_eq!(m.get(0, 0), 0.0);
        let (cols, vals) = m.row(0);
        assert_eq!(cols, &[1, 2]); // sorted by column
        assert_eq!(vals, &[2.0, 4.0]);
    }

    #[test]
    fn identity_spmm_is_noop() {
        let i = CsrMatrix::identity(4);
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0], &[7.0, 8.0]]);
        assert_eq!(i.spmm(&x), x);
    }

    #[test]
    fn spmm_matches_dense() {
        let s = sample();
        let x = Matrix::from_rows(&[&[1.0, 0.5], &[2.0, 1.5], &[3.0, 2.5]]);
        let sparse_result = s.spmm(&x);
        let dense_result = s.to_dense().matmul(&x);
        for (a, b) in sparse_result.as_slice().iter().zip(dense_result.as_slice()) {
            assert!(approx_eq(*a, *b, 1e-5));
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let s = sample();
        assert_eq!(s.transpose().transpose(), s);
        assert_eq!(s.transpose().get(1, 0), 2.0);
    }

    #[test]
    fn symmetry_detection() {
        let sym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        assert!(sym.is_symmetric(1e-6));
        let asym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0)]);
        assert!(!asym.is_symmetric(1e-6));
        let rect = CsrMatrix::from_triplets(2, 3, &[]);
        assert!(!rect.is_symmetric(1e-6));
    }

    #[test]
    fn row_sums() {
        let s = sample();
        assert_eq!(s.row_sums(), vec![6.0, 3.0, 1.0]);
    }

    /// The scalar loop the panels replace: zero the output, then add each
    /// stored entry's scaled source row in order.
    fn ref_spmm(s: &CsrMatrix, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(s.rows(), x.cols());
        for r in 0..s.rows() {
            let (cols, vals) = s.row(r);
            let out_row = out.row_mut(r);
            for (&c, &v) in cols.iter().zip(vals) {
                for (o, &src) in out_row.iter_mut().zip(x.row(c)) {
                    *o += v * src;
                }
            }
        }
        out
    }

    /// The splitmix64 sequence: the case loop's generator.
    struct Cases(u64);

    impl Cases {
        fn next(&mut self) -> u64 {
            let z = fairwos_chaos::splitmix64(self.0);
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z
        }

        #[expect(
            clippy::cast_possible_truncation,
            reason = "the remainder is below n, a usize"
        )]
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// About a quarter exact `+0.0`, some `-0.0`, the rest uniform in
        /// ±1 scaled by 2^-8..2^8 so reordered sums round differently; with
        /// `special`, also NaN and ±∞.
        fn value(&mut self, special: bool) -> f32 {
            match self.below(if special { 20 } else { 16 }) {
                0..=3 => 0.0,
                4 => -0.0,
                16 => f32::NAN,
                17 => f32::INFINITY,
                18 => f32::NEG_INFINITY,
                19 => -0.0,
                _ => {
                    let u = (self.next() >> 40) as f32 / (1u64 << 24) as f32;
                    let scale = (self.below(17) as f32 - 8.0).exp2();
                    (2.0 * u - 1.0) * scale
                }
            }
        }

        fn dense(&mut self, rows: usize, cols: usize, special: bool) -> Matrix {
            let data = (0..rows * cols).map(|_| self.value(special)).collect();
            Matrix::from_vec(rows, cols, data)
        }

        /// `rows × cols` with up to `max_deg` distinct entries per row;
        /// about one row in five is empty.
        fn sparse(&mut self, rows: usize, cols: usize, max_deg: usize, special: bool) -> CsrMatrix {
            let mut triplets = Vec::new();
            for r in 0..rows {
                if self.below(5) == 0 {
                    continue;
                }
                let mut taken = vec![false; cols];
                for _ in 0..1 + self.below(max_deg) {
                    let c = self.below(cols);
                    if !taken[c] {
                        taken[c] = true;
                        triplets.push((r, c, self.value(special)));
                    }
                }
            }
            CsrMatrix::from_triplets(rows, cols, &triplets)
        }
    }

    /// Equal bit for bit; two NaNs count as equal (LLVM does not pin NaN
    /// payloads through commutative adds).
    fn assert_bits(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (idx, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{what}: element {idx} is {x:e} ({:#010x}), reference {y:e} ({:#010x})",
                x.to_bits(),
                y.to_bits()
            );
        }
    }

    /// Every instruction set this CPU runs the panels on ([`Isa::supported`]),
    /// with a message for each one it lacks.
    fn isas() -> Vec<Isa> {
        let isas = Isa::supported();
        for isa in Isa::ALL.iter().filter(|isa| !isas.contains(isa)) {
            eprintln!("skipped on {isa:?}: this CPU does not support it");
        }
        isas
    }

    /// `spmm`, `spmm_into` over a dirty buffer, the panel loop on every
    /// instruction set, and `spmm_rows_into` over a few row ranges, all
    /// against the scalar loop. The armed `checked` contract rejects a
    /// `special` case's NaN and ±∞ by design (`tests/checked_spmm.rs` pins
    /// that panic), so there such a case runs the panel loop only, its row
    /// ranges included.
    fn check_case(s: &CsrMatrix, x: &Matrix, special: bool, rng: &mut Cases, what: &str) {
        let want = ref_spmm(s, x);
        let public = !special || !cfg!(all(feature = "checked", debug_assertions));
        if public {
            assert_bits(&s.spmm(x), &want, &format!("{what} spmm"));
            let mut out = Matrix::full(s.rows(), x.cols(), f32::NAN);
            s.spmm_into(x, &mut out);
            assert_bits(&out, &want, &format!("{what} spmm_into"));
        }
        for isa in isas() {
            let mut out = Matrix::full(s.rows(), x.cols(), f32::NAN);
            s.spmm_rows_on(isa, 0, x, &mut out);
            assert_bits(&out, &want, &format!("{what} on {isa:?}"));
        }
        for _ in 0..3 {
            let lo = rng.below(s.rows() + 1);
            let hi = lo + rng.below(s.rows() - lo + 1);
            let mut band = Matrix::full(hi - lo, x.cols(), f32::NAN);
            if public {
                s.spmm_rows_into(lo..hi, x, &mut band);
            } else {
                s.spmm_rows_on(Isa::detect(), lo, x, &mut band);
            }
            let rows: Vec<usize> = (lo..hi).collect();
            assert_bits(
                &band,
                &want.select_rows(&rows),
                &format!("{what} rows {lo}..{hi}"),
            );
        }
    }

    #[test]
    fn panels_match_scalar_loop_bit_for_bit() {
        const SEED: u64 = 0x5A4D_4D00;
        let mut rng = Cases(SEED);
        for d in 0..=70 {
            for case in 0..3 {
                let special = case == 2;
                let (m, k) = (1 + rng.below(40), 1 + rng.below(40));
                let s = rng.sparse(m, k, 12, special);
                let x = rng.dense(k, d, special);
                check_case(
                    &s,
                    &x,
                    special,
                    &mut rng,
                    &format!("seed {SEED:#x} width {d} case {case} ({m}x{k})"),
                );
            }
        }
        // Large products, wide rows and the serving width.
        for (case, &(m, k, deg, d)) in [
            (300, 200, 8, 70),
            (90, 90, 40, 33),
            (70, 500, 30, 277),
            (5, 5, 5, 0),
        ]
        .iter()
        .enumerate()
        {
            let special = case % 2 == 1;
            let s = rng.sparse(m, k, deg, special);
            let x = rng.dense(k, d, special);
            check_case(
                &s,
                &x,
                special,
                &mut rng,
                &format!("seed {SEED:#x} large case {case} ({m}x{k}, width {d})"),
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of a 3-row")]
    fn a_row_range_past_the_end_panics() {
        let s = sample();
        let mut out = Matrix::zeros(2, 2);
        s.spmm_rows_into(2..4, &Matrix::ones(3, 2), &mut out);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn from_triplets_rejects_out_of_range() {
        let _ = CsrMatrix::from_triplets(2, 2, &[(0, 5, 1.0)]);
    }
}
