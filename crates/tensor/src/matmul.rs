//! Matrix multiplication kernels.
//!
//! Three GEMM variants are provided because backpropagation needs products
//! against transposes and materialising the transpose of a large activation
//! matrix every step would double memory traffic:
//!
//! * `matmul`      — `C = A · B`
//! * `matmul_tn`   — `C = Aᵀ · B` (weight gradients: `dW = Xᵀ · dY`)
//! * `matmul_nt`   — `C = A · Bᵀ` (input gradients: `dX = dY · Wᵀ`)
//!
//! Each writes into a caller's buffer (`matmul_into`, `matmul_tn_into`,
//! `matmul_nt_into`). Only `matmul` also has an allocating form: the plain
//! math of PCA, the inference heads, GAT's `Z = X·W` and the tests.
//!
//! # Register tiles
//!
//! Each kernel computes its output in `R × W` tiles held in registers
//! (`[[f32; W]; R]`): `R` is [`MR`] = 4 rows with a 1-row tail, and each
//! tile width `W` is a separate monomorphised copy, so narrow outputs (a 1-
//! or 2-column head) and ragged column tails stay in registers too. A tile
//! is written to memory once, after its last term.
//!
//! * `matmul` and `matmul_tn` share one tile, [`tile`], 16, 8, 4, 2 or 1
//!   columns wide. It adds `A(r, p) · B(p, c)` for `p` ascending, starting
//!   from `+0.0` and skipping the term when `A(r, p) == 0`. `matmul` makes
//!   one pass over all of `k`. `matmul_tn` sums each chunk of samples into
//!   a partial from `+0.0` and folds the partials in ascending chunk order,
//!   `out = ((0 + p₀) + p₁) + …`. The chunk is [`TN_CHUNK`] samples when the
//!   work reaches [`TN_FOLD_WORK`] and all samples otherwise. Each `A`
//!   layout has its own walk over `p`, free of index arithmetic and bounds
//!   checks: `matmul` slices its `R` rows of `A` to the chunk once,
//!   `matmul_tn` reads `A(·, p)` as `R` contiguous values of row `p`, and
//!   both step through `B`'s rows with `chunks_exact`.
//! * `matmul_nt` uses [`tile_nt`], 8, 4, 2 or 1 columns wide. Each output
//!   element is [`dot`] of two rows: four interleaved partial sums over
//!   groups of four, reduced as `((s₀ + s₁) + s₂) + s₃`, then the tail added
//!   in order. It skips no zeros, so NaN and ∞ propagate exactly as in
//!   [`dot`].
//!
//! # Why the bits are unchanged
//!
//! Every output element is the same sequence of `f32` operations as the
//! scalar reference loop (an i-k-j saxpy for `matmul`, per-chunk partials
//! for `matmul_tn`, [`dot`] for `matmul_nt`), and each one is a plain
//! multiply then add: Rust never contracts `a * b + c` into a fused
//! multiply-add, and no `mul_add` is written. The tile shape only decides
//! which elements are computed together, never the order of the terms
//! within one element. Skipping a zero term equals adding nothing, so when
//! `B` is finite the skip is done without a branch (see [`tile`]); with ∞
//! or NaN in `B` it branches, so `0 · ∞` never turns a sum into NaN.
//!
//! The same holds across calls. `matmul` of any band of `A`'s rows gives
//! exactly those rows of the whole product: it sums all of `k` in one pass
//! whatever the row count, and how rows are grouped into tiles or separate
//! calls never changes an element's terms or their order. The banded
//! inference forward of the graph convolutions ([`crate::fill_row_bands`])
//! relies on this.
//!
//! # One thread
//!
//! Every kernel fills its whole output on the calling thread, `MR` rows at
//! a time. Moving `matmul` and `spmm` onto real threads above a million
//! multiply-adds read the `serving` workload's latency 16 % higher (the
//! threads contend with its query client), and the fit's products are far
//! below that. `TN_CHUNK` and `TN_FOLD_WORK` are a fold rule, fixed
//! constants that never depend on a worker count, so a later split of the
//! output rows cannot change a bit.
//!
//! # AVX2 and AVX-512
//!
//! On x86-64 the same generic bodies are compiled twice more, inside
//! `#[target_feature(enable = "avx2")]` and `#[target_feature(enable =
//! "avx512f")]` wrappers, and [`Isa::detect`] picks the widest the CPU has
//! once per call. That is a platform selection, not a knob: all three
//! instantiations run the same operations in the same order (no
//! intrinsics, no fused multiply-add), and the unit tests compare each one
//! the CPU runs ([`Isa::supported`]) with the scalar references bit for
//! bit. AVX-512 holds a 16-column tile row in one register, which pays only
//! because the tile loop issues almost nothing but its loads and
//! floating-point operations.
//!
//! # Distance rows
//!
//! [`SqDistLanes`] gives the [`sq_dist`] of one query row to a fixed set of
//! rows transposed once into lane-padded columns, each lane running
//! `sq_dist`'s own loop (the counterfactual search's one row per query). It
//! has no wrappers of its own: [`SqDistLanes::sq_dists_into`] is always
//! inlined, so the counterfactual search's per-`Isa` task wrappers compile
//! it with their vectors.

use crate::checked::contract_finite;
use crate::{Isa, Matrix};
use std::ops::Range;

/// The `matmul_tn` fold rule: a product of at least this many
/// multiply-adds sums [`TN_CHUNK`]-sample partials and folds them in
/// ascending order; a smaller one sums all samples at once. Every trained
/// model's bits depend on this rule.
const TN_FOLD_WORK: usize = 64 * 1024;

/// Samples per `matmul_tn` partial sum above [`TN_FOLD_WORK`].
const TN_CHUNK: usize = 64;

/// Output rows one register tile holds (the row tail uses 1-row tiles).
const MR: usize = 4;

/// A product the band loops can cut into `R × W` register tiles.
trait Tiles {
    /// The widest tile, in columns.
    const MAX_W: usize;

    /// Output columns.
    fn n(&self) -> usize;

    /// Writes the `R × W` output tile at `(i0, j0)` into `out`, which holds
    /// the `R` output rows starting at row `i0`.
    fn put<const R: usize, const W: usize>(&self, i0: usize, j0: usize, out: &mut [f32]);
}

/// `C = A·B` as [`tile`] reads it, with `B` row-major `k × n`. `matmul`
/// reads `A` by rows (`TN = false`): `A(r, p)` is `a[r * k + p]`.
/// `matmul_tn` reads `selfᵀ` (`TN = true`): `A(·, p)` is row `p` of `a`, so
/// `A(r, p)` is `a[p * m + r]`.
struct Gemm<'a, const TN: bool> {
    a: &'a [f32],
    /// Row length of `a`: `k` for `matmul`, the output row count `m` for
    /// `matmul_tn`.
    a_cols: usize,
    b: &'a [f32],
    n: usize,
    /// Length of the summed dimension.
    k: usize,
    /// Terms per partial sum; the partials are folded in ascending order.
    chunk: usize,
    /// Whether a zero `A(r, p)` must be skipped with a branch: only when `B`
    /// holds ∞ or NaN (see [`tile`]).
    skip_zeros: bool,
}

/// `true` when no element of `v` is ∞ or NaN: an OR of one exponent
/// compare per element, which baseline x86-64 vectorises without branches.
fn all_finite(v: &[f32]) -> bool {
    const EXP: u32 = 0x7f80_0000;
    !v.iter()
        .fold(false, |any, x| any | (x.to_bits() & EXP == EXP))
}

/// Adds the terms `A(r, p) · B(p, c)` of one `p` to an `R × W` tile: `av`
/// holds `A(·, p)` and `bv` holds `B(p, ·)`. With `SKIP`, a row whose
/// `A(r, p)` is zero adds nothing.
#[inline(always)]
fn add_terms<const R: usize, const W: usize, const SKIP: bool>(
    acc: &mut [[f32; W]; R],
    av: &[f32; R],
    bv: &[f32; W],
) {
    for (acc_r, &a) in acc.iter_mut().zip(av) {
        if SKIP && a == 0.0 {
            continue;
        }
        for (o, &b) in acc_r.iter_mut().zip(bv) {
            *o += a * b;
        }
    }
}

/// The `R × W` tile of `A·B` at `(i0, j0)`, summed over `ps` from `+0.0`
/// in ascending `p`, skipping terms whose `A(r, p)` is zero.
///
/// With a finite `B` the skip needs no branch: a zero `A(r, p)` makes the
/// term an exact `±0.0`, and adding `±0.0` leaves every accumulator
/// unchanged, because a sum started from `+0.0` is never `-0.0`. Only a
/// `B` holding ∞ or NaN (`SKIP`) branches, so `0 · ∞` never enters a sum.
///
/// Each `A` layout has its own walk, so the loop over `p` does no index
/// arithmetic and no bounds checks: it steps through `B`'s rows with
/// `chunks_exact`, and through `A`'s `R` rows sliced to `ps` once
/// (`matmul`) or through `A`'s rows, `R` contiguous values each
/// (`matmul_tn`).
#[inline(always)]
fn tile<const R: usize, const W: usize, const SKIP: bool, const TN: bool>(
    g: &Gemm<TN>,
    i0: usize,
    j0: usize,
    ps: Range<usize>,
) -> [[f32; W]; R] {
    let n = g.n;
    assert!(j0 + W <= n, "tile columns {j0}+{W} past {n}");
    let b_rows = g.b[ps.start * n..ps.end * n].chunks_exact(n);
    let mut acc = [[0.0f32; W]; R];
    let mut av = [0.0f32; R];
    let mut bv = [0.0f32; W];
    if TN {
        let m = g.a_cols;
        assert!(i0 + R <= m, "tile rows {i0}+{R} past {m}");
        let a_rows = g.a[ps.start * m..ps.end * m].chunks_exact(m);
        for (a_row, b_row) in a_rows.zip(b_rows) {
            av.copy_from_slice(&a_row[i0..i0 + R]);
            bv.copy_from_slice(&b_row[j0..j0 + W]);
            add_terms::<R, W, SKIP>(&mut acc, &av, &bv);
        }
    } else {
        let k = g.a_cols;
        let len = ps.len();
        let a_rows: [&[f32]; R] = std::array::from_fn(|r| &g.a[(i0 + r) * k + ps.start..][..len]);
        for (p, b_row) in (0..len).zip(b_rows) {
            for (v, row) in av.iter_mut().zip(&a_rows) {
                *v = row[p];
            }
            bv.copy_from_slice(&b_row[j0..j0 + W]);
            add_terms::<R, W, SKIP>(&mut acc, &av, &bv);
        }
    }
    acc
}

impl<const TN: bool> Tiles for Gemm<'_, TN> {
    const MAX_W: usize = 16;

    fn n(&self) -> usize {
        self.n
    }

    /// The chunk partials of [`tile`], folded from `+0.0` in ascending
    /// chunk order.
    #[inline(always)]
    fn put<const R: usize, const W: usize>(&self, i0: usize, j0: usize, out: &mut [f32]) {
        let mut sum = [[0.0f32; W]; R];
        let mut p = 0;
        while p < self.k {
            let end = (p + self.chunk).min(self.k);
            let part = if self.skip_zeros {
                tile::<R, W, true, TN>(self, i0, j0, p..end)
            } else {
                tile::<R, W, false, TN>(self, i0, j0, p..end)
            };
            for (s_r, p_r) in sum.iter_mut().zip(&part) {
                for (s, &v) in s_r.iter_mut().zip(p_r) {
                    *s += v;
                }
            }
            p = end;
        }
        store(&sum, self.n, j0, out);
    }
}

/// `C = A·Bᵀ` for [`tile_nt`]: `a` is `· × k` and `b` is `n × k`, both
/// row-major.
struct GemmNt<'a> {
    a: &'a [f32],
    b: &'a [f32],
    k: usize,
    n: usize,
}

/// The `R × W` tile of `A·Bᵀ` at `(i0, j0)`: each element summed exactly
/// as [`dot`] sums its two rows. Below four columns of `k` the four partial
/// sums are all `+0.0` and so is their reduction, so only the tail runs.
#[inline(always)]
fn tile_nt<const R: usize, const W: usize>(g: &GemmNt, i0: usize, j0: usize) -> [[f32; W]; R] {
    let k = g.k;
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &g.a[(i0 + r) * k..(i0 + r + 1) * k]);
    let b_rows: [&[f32]; W] = std::array::from_fn(|c| &g.b[(j0 + c) * k..(j0 + c + 1) * k]);
    let quads = k / 4;
    let mut s = [[0.0f32; W]; R];
    if quads > 0 {
        let mut acc = [[[0.0f32; 4]; W]; R];
        for q in 0..quads {
            let o = 4 * q;
            let mut av = [[0.0f32; 4]; R];
            for (v, row) in av.iter_mut().zip(&a_rows) {
                v.copy_from_slice(&row[o..o + 4]);
            }
            let mut bv = [[0.0f32; 4]; W];
            for (v, row) in bv.iter_mut().zip(&b_rows) {
                v.copy_from_slice(&row[o..o + 4]);
            }
            for (acc_r, a4) in acc.iter_mut().zip(&av) {
                for (acc_rc, b4) in acc_r.iter_mut().zip(&bv) {
                    for l in 0..4 {
                        acc_rc[l] += a4[l] * b4[l];
                    }
                }
            }
        }
        for (s_r, acc_r) in s.iter_mut().zip(&acc) {
            for (v, lanes) in s_r.iter_mut().zip(acc_r) {
                *v = lanes[0] + lanes[1] + lanes[2] + lanes[3];
            }
        }
    }
    for p in 4 * quads..k {
        for (s_r, row) in s.iter_mut().zip(&a_rows) {
            let x = row[p];
            for (v, b_row) in s_r.iter_mut().zip(&b_rows) {
                *v += x * b_row[p];
            }
        }
    }
    s
}

impl Tiles for GemmNt<'_> {
    // Four partial sums per element: a 16-wide tile would not fit the
    // registers.
    const MAX_W: usize = 8;

    fn n(&self) -> usize {
        self.n
    }

    #[inline(always)]
    fn put<const R: usize, const W: usize>(&self, i0: usize, j0: usize, out: &mut [f32]) {
        store(&tile_nt::<R, W>(self, i0, j0), self.n, j0, out);
    }
}

/// Writes a finished tile at column `j0` of `out` (rows of `n` columns).
#[inline(always)]
fn store<const R: usize, const W: usize>(
    tile: &[[f32; W]; R],
    n: usize,
    j0: usize,
    out: &mut [f32],
) {
    for (r, t_r) in tile.iter().enumerate() {
        out[r * n + j0..r * n + j0 + W].copy_from_slice(t_r);
    }
}

/// Fills `R` output rows starting at `i0` (`out` holds exactly those rows)
/// with the widest tiles, then one each of 8, 4, 2 and 1 columns for the
/// ragged tail.
#[inline(always)]
fn row_tiles<T: Tiles, const R: usize>(t: &T, i0: usize, out: &mut [f32]) {
    let n = t.n();
    let mut j = 0;
    if T::MAX_W == 16 {
        while j + 16 <= n {
            t.put::<R, 16>(i0, j, out);
            j += 16;
        }
    }
    while j + 8 <= n {
        t.put::<R, 8>(i0, j, out);
        j += 8;
    }
    if j + 4 <= n {
        t.put::<R, 4>(i0, j, out);
        j += 4;
    }
    if j + 2 <= n {
        t.put::<R, 2>(i0, j, out);
        j += 2;
    }
    if j < n {
        t.put::<R, 1>(i0, j, out);
    }
}

/// Fills every output row of `out`, `MR` rows at a time.
#[inline(always)]
fn band<T: Tiles>(t: &T, out: &mut [f32]) {
    let n = t.n();
    let rows = out.len() / n;
    let mut r = 0;
    while r + MR <= rows {
        row_tiles::<T, MR>(t, r, &mut out[r * n..(r + MR) * n]);
        r += MR;
    }
    while r < rows {
        row_tiles::<T, 1>(t, r, &mut out[r * n..(r + 1) * n]);
        r += 1;
    }
}

/// [`band`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn band_avx2<T: Tiles>(t: &T, out: &mut [f32]) {
    band(t, out);
}

/// [`band`] compiled with AVX-512F enabled.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn band_avx512<T: Tiles>(t: &T, out: &mut [f32]) {
    band(t, out);
}

/// Writes the product `t` into `out` with [`band`] compiled for `isa`.
/// `out` needs no clearing: every element is written.
fn run<T: Tiles>(isa: Isa, t: &T, out: &mut [f32]) {
    if t.n() == 0 {
        return;
    }
    match isa {
        Isa::Portable => band(t, out),
        // SAFETY: `Isa::Avx2` is only produced on a CPU that reports AVX2
        // (`Isa::detect`, `Isa::supported`).
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { band_avx2(t, out) },
        // SAFETY: `Isa::Avx512` is only produced on a CPU that reports
        // AVX-512F.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { band_avx512(t, out) },
    }
}

impl Matrix {
    /// `self · other`, allocating the output.
    ///
    /// # Panics
    /// If `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), other.cols());
        self.matmul_into(other, &mut out);
        out
    }

    /// `self · other`, written into `out` (any previous contents of `out`
    /// are overwritten). In-place twin of [`Matrix::matmul`] for
    /// allocation-free hot loops.
    ///
    /// # Panics
    /// If `self.cols() != other.rows()` or `out` is not
    /// `self.rows() × other.cols()`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols(),
            other.rows(),
            "matmul: {}x{} · {}x{} shape mismatch",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        assert_eq!(
            out.shape(),
            (self.rows(), other.cols()),
            "matmul: output buffer is {}x{}, expected {}x{}",
            out.rows(),
            out.cols(),
            self.rows(),
            other.cols()
        );
        contract_finite("matmul", "lhs", self);
        contract_finite("matmul", "rhs", other);
        let (m, k) = self.shape();
        let n = other.cols();
        fairwos_obs::counter_add("tensor/matmul/flops", 2 * (m * k * n) as u64);
        self.matmul_into_on(Isa::detect(), other, out);
        contract_finite("matmul", "output", out);
    }

    /// The tile loop of [`Matrix::matmul_into`] on `isa`, shapes checked.
    fn matmul_into_on(&self, isa: Isa, other: &Matrix, out: &mut Matrix) {
        let k = self.cols();
        let g = Gemm::<false> {
            a: self.as_slice(),
            a_cols: k,
            b: other.as_slice(),
            n: other.cols(),
            k,
            chunk: k.max(1),
            skip_zeros: !all_finite(other.as_slice()),
        };
        run(isa, &g, out.as_mut_slice());
    }

    /// `selfᵀ · other` without materialising the transpose, written into
    /// `out` (any previous contents of `out` are overwritten).
    ///
    /// The typical use is the weight gradient `dW = Xᵀ · dY` where `X` is
    /// `N × in` and `dY` is `N × out`; the result is small (`in × out`).
    ///
    /// # Panics
    /// If `self.rows() != other.rows()` or `out` is not
    /// `self.cols() × other.cols()`.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows(),
            other.rows(),
            "matmul_tn: {}x{} ᵀ· {}x{} shape mismatch",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        assert_eq!(
            out.shape(),
            (self.cols(), other.cols()),
            "matmul_tn: output buffer is {}x{}, expected {}x{}",
            out.rows(),
            out.cols(),
            self.cols(),
            other.cols()
        );
        contract_finite("matmul_tn", "lhs", self);
        contract_finite("matmul_tn", "rhs", other);
        let (n_samples, m) = self.shape();
        let n = other.cols();
        fairwos_obs::counter_add("tensor/matmul_tn/flops", 2 * (n_samples * m * n) as u64);
        self.matmul_tn_into_on(Isa::detect(), other, out);
        contract_finite("matmul_tn", "output", out);
    }

    /// The tile loop of [`Matrix::matmul_tn_into`] on `isa`, shapes checked.
    fn matmul_tn_into_on(&self, isa: Isa, other: &Matrix, out: &mut Matrix) {
        let (n_samples, m) = self.shape();
        let n = other.cols();
        let g = Gemm::<true> {
            a: self.as_slice(),
            a_cols: m,
            b: other.as_slice(),
            n,
            k: n_samples,
            chunk: if n_samples * m * n >= TN_FOLD_WORK {
                TN_CHUNK
            } else {
                n_samples.max(1)
            },
            skip_zeros: !all_finite(other.as_slice()),
        };
        run(isa, &g, out.as_mut_slice());
    }

    /// `self · otherᵀ` without materialising the transpose, written into
    /// `out` (every element of `out` is overwritten).
    ///
    /// The typical use is the input gradient `dX = dY · Wᵀ` where `dY` is
    /// `N × out` and `W` is `in × out`. Each output element is a dot product
    /// of two contiguous rows.
    ///
    /// # Panics
    /// If `self.cols() != other.cols()` or `out` is not
    /// `self.rows() × other.rows()`.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols(),
            other.cols(),
            "matmul_nt: {}x{} · {}x{}ᵀ shape mismatch",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        assert_eq!(
            out.shape(),
            (self.rows(), other.rows()),
            "matmul_nt: output buffer is {}x{}, expected {}x{}",
            out.rows(),
            out.cols(),
            self.rows(),
            other.rows()
        );
        contract_finite("matmul_nt", "lhs", self);
        contract_finite("matmul_nt", "rhs", other);
        let m = self.rows();
        let n = other.rows();
        let k = self.cols();
        fairwos_obs::counter_add("tensor/matmul_nt/flops", 2 * (m * k * n) as u64);
        self.matmul_nt_into_on(Isa::detect(), other, out);
        contract_finite("matmul_nt", "output", out);
    }

    /// The tile loop of [`Matrix::matmul_nt_into`] on `isa`, shapes checked.
    fn matmul_nt_into_on(&self, isa: Isa, other: &Matrix, out: &mut Matrix) {
        let g = GemmNt {
            a: self.as_slice(),
            b: other.as_slice(),
            k: self.cols(),
            n: other.rows(),
        };
        run(isa, &g, out.as_mut_slice());
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    // 4-way unrolled accumulation: keeps dependency chains short so LLVM can
    // vectorise, and reduces float-order sensitivity vs. a single accumulator.
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let o = i * 4;
        acc[0] += a[o] * b[o];
        acc[1] += a[o + 1] * b[o + 1];
        acc[2] += a[o + 2] * b[o + 2];
        acc[3] += a[o + 3] * b[o + 3];
    }
    let mut s = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        s += a[i] * b[i];
    }
    s
}

/// Squared Euclidean distance between two equal-length slices.
///
/// Hot path of the counterfactual top-K search and k-means.
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        let d = x - y;
        s += d * d;
    }
    s
}

/// Candidates one lane group holds: [`SqDistLanes`] pads its columns to a
/// multiple of this.
const LANES: usize = 8;

/// Lane groups one pass of [`SqDistLanes`] keeps in registers (the tail
/// uses single groups).
const LANE_GROUPS: usize = 4;

/// A fixed set of candidate rows, transposed once into `h` lane-padded
/// columns, against which many query rows are measured: element `c` of
/// column `d` is `m(nodes[c], d)`.
///
/// [`SqDistLanes::sq_dists_into`] gives every candidate's
/// [`sq_dist`] to one query. Each lane runs `sq_dist`'s loop for its own
/// candidate: `(q_d − u_d)²` added for `d` ascending to a sum started at
/// `+0.0`, a plain subtract, multiply and add, so every distance equals
/// `sq_dist(q, u)` bit for bit. The lanes only decide which candidates are
/// measured together. A NaN result is NaN in both, but its sign and
/// payload are pinned by neither: LLVM may swap the operands of an add, and
/// with two NaN operands that picks which NaN survives.
pub struct SqDistLanes {
    /// Real candidates.
    len: usize,
    /// Column length: `len` rounded up to [`LANES`], padded with zeros.
    stride: usize,
    /// `h` columns of `stride` elements each.
    cols: Vec<f32>,
}

impl SqDistLanes {
    /// Transposes the rows `nodes` of `m`.
    ///
    /// # Panics
    /// If a node is not a row of `m`.
    pub fn new(m: &Matrix, nodes: &[usize]) -> Self {
        let stride = nodes.len().div_ceil(LANES) * LANES;
        // One transposed copy of a candidate bucket per search.
        let mut cols = vec![0.0f32; m.cols() * stride];
        for (c, &v) in nodes.iter().enumerate() {
            for (d, &x) in m.row(v).iter().enumerate() {
                cols[d * stride + c] = x;
            }
        }
        Self {
            len: nodes.len(),
            stride,
            cols,
        }
    }

    /// Writes `sq_dist(q, u)` of candidate `u = nodes[c]` into `out[c]` for
    /// every candidate.
    ///
    /// Always inlined, so a caller compiled for AVX2 or AVX-512 (the
    /// counterfactual search's tasks) runs the lanes with its own vectors.
    ///
    /// # Panics
    /// If `q` is not as wide as the rows or `out` does not hold one element
    /// per candidate.
    #[inline(always)]
    pub fn sq_dists_into(&self, q: &[f32], out: &mut [f32]) {
        assert_eq!(
            q.len() * self.stride,
            self.cols.len(),
            "sq_dists: query width"
        );
        assert_eq!(out.len(), self.len, "sq_dists: output length");
        // `LANE_GROUPS · LANES` lanes at a time, then one lane group at a
        // time.
        let mut c0 = 0;
        while c0 + LANE_GROUPS * LANES <= self.stride {
            self.group::<{ LANE_GROUPS * LANES }>(q, c0, out);
            c0 += LANE_GROUPS * LANES;
        }
        while c0 < self.stride {
            self.group::<LANES>(q, c0, out);
            c0 += LANES;
        }
    }

    /// The `W` lanes from candidate `c0` on; padding lanes are dropped.
    #[inline(always)]
    fn group<const W: usize>(&self, q: &[f32], c0: usize, out: &mut [f32]) {
        let mut acc = [0.0f32; W];
        for (d, &x) in q.iter().enumerate() {
            let col = &self.cols[d * self.stride + c0..][..W];
            for (s, &y) in acc.iter_mut().zip(col) {
                let t = x - y;
                *s += t * t;
            }
        }
        let n = W.min(self.len - c0);
        out[c0..c0 + n].copy_from_slice(&acc[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for p in 0..a.cols() {
                    s += a.get(i, p) * b.get(p, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    /// `aᵀ · b` into a fresh buffer.
    fn tn(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        a.matmul_tn_into(b, &mut out);
        out
    }

    /// `a · bᵀ` into a fresh buffer.
    fn nt(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        a.matmul_nt_into(b, &mut out);
        out
    }

    fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = crate::seeded_rng(seed);
        let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn assert_close(a: &Matrix, b: &Matrix) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(crate::approx_eq(*x, *y, 1e-4), "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity() {
        let a = rand_matrix(7, 5, 1);
        assert_close(&a.matmul(&Matrix::eye(5)), &a);
    }

    #[test]
    fn matmul_matches_naive() {
        let a = rand_matrix(13, 9, 2);
        let b = rand_matrix(9, 11, 3);
        assert_close(&a.matmul(&b), &naive_matmul(&a, &b));
    }

    #[test]
    fn matmul_large_matches_naive() {
        let a = rand_matrix(80, 70, 4);
        let b = rand_matrix(70, 60, 5);
        assert_close(&a.matmul(&b), &naive_matmul(&a, &b));
    }

    #[test]
    fn matmul_tn_matches_transpose() {
        let a = rand_matrix(17, 6, 6);
        let b = rand_matrix(17, 4, 7);
        assert_close(&tn(&a, &b), &a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_tn_chunked_fold_matches_transpose() {
        let a = rand_matrix(400, 24, 8);
        let b = rand_matrix(400, 16, 9);
        assert_close(&tn(&a, &b), &a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_nt_matches_transpose() {
        let a = rand_matrix(12, 7, 10);
        let b = rand_matrix(9, 7, 11);
        assert_close(&nt(&a, &b), &a.matmul(&b.transpose()));
    }

    #[test]
    fn into_variants_overwrite_dirty_buffers() {
        let a = rand_matrix(13, 9, 20);
        let b = rand_matrix(9, 11, 21);
        let mut out = Matrix::full(13, 11, f32::MAX);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));

        let c = rand_matrix(13, 7, 22);
        let mut out_tn = Matrix::full(9, 7, -3.5);
        a.matmul_tn_into(&c, &mut out_tn);
        assert_eq!(out_tn, tn(&a, &c));

        let d = rand_matrix(5, 9, 23);
        let mut out_nt = Matrix::full(13, 5, 42.0);
        a.matmul_nt_into(&d, &mut out_nt);
        assert_eq!(out_nt, nt(&a, &d));
    }

    #[test]
    fn into_variants_large_products_match_allocating() {
        let a = rand_matrix(80, 70, 24);
        let b = rand_matrix(70, 60, 25);
        let mut out = Matrix::full(80, 60, 1.0);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));

        let x = rand_matrix(400, 24, 26);
        let y = rand_matrix(400, 16, 27);
        let mut out_tn = Matrix::full(24, 16, 1.0);
        x.matmul_tn_into(&y, &mut out_tn);
        assert_eq!(out_tn, tn(&x, &y));
    }

    #[test]
    #[should_panic(expected = "output buffer")]
    fn matmul_into_wrong_output_shape_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let mut out = Matrix::zeros(2, 5);
        a.matmul_into(&b, &mut out);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn dot_and_sq_dist() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(dot(&a, &b), 35.0);
        assert_eq!(sq_dist(&a, &b), 16.0 + 4.0 + 0.0 + 4.0 + 16.0);
        assert_eq!(sq_dist(&a, &a), 0.0);
    }

    // ---- Bit-identity against the scalar reference loops ----------------

    /// The scalar `matmul`: an i-k-j saxpy over each output row, skipping
    /// zero `A` entries.
    fn ref_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        fn saxpy(acc: &mut [f32], scale: f32, row: &[f32]) {
            for (a, &b) in acc.iter_mut().zip(row) {
                *a += scale * b;
            }
        }
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for (p, &x) in a.row(i).iter().enumerate() {
                if x != 0.0 {
                    saxpy(out.row_mut(i), x, b.row(p));
                }
            }
        }
        out
    }

    /// The scalar `matmul_tn`: per-chunk partials from `+0.0` (`TN_CHUNK`
    /// samples at or above `TN_FOLD_WORK`, all samples below), folded into
    /// a zeroed output in ascending chunk order.
    fn ref_matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
        let (n_samples, m) = a.shape();
        let n = b.cols();
        let chunk = if n_samples * m * n >= TN_FOLD_WORK {
            TN_CHUNK
        } else {
            n_samples.max(1)
        };
        let mut out = Matrix::zeros(m, n);
        for start in (0..n_samples).step_by(chunk) {
            let mut acc = vec![0.0f32; m * n];
            for s in start..(start + chunk).min(n_samples) {
                for (i, &x) in a.row(s).iter().enumerate() {
                    if x != 0.0 {
                        for (o, &y) in acc[i * n..(i + 1) * n].iter_mut().zip(b.row(s)) {
                            *o += x * y;
                        }
                    }
                }
            }
            for (o, v) in out.as_mut_slice().iter_mut().zip(acc) {
                *o += v;
            }
        }
        out
    }

    /// The scalar `matmul_nt`: [`dot`] of every row pair.
    fn ref_matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                out.set(i, j, dot(a.row(i), b.row(j)));
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

        /// ReLU-style data: about a quarter exact `+0.0`, some `-0.0`, the
        /// rest uniform in ±1 scaled by 2^-8..2^8 so reordered sums round
        /// differently.
        fn value(&mut self) -> f32 {
            match self.below(16) {
                0..=3 => 0.0,
                4 => -0.0,
                _ => {
                    let u = (self.next() >> 40) as f32 / (1u64 << 24) as f32;
                    let scale = (self.below(17) as f32 - 8.0).exp2();
                    (2.0 * u - 1.0) * scale
                }
            }
        }

        fn matrix(&mut self, rows: usize, cols: usize) -> Matrix {
            let data = (0..rows * cols).map(|_| self.value()).collect();
            Matrix::from_vec(rows, cols, data)
        }
    }

    /// Every instruction set this CPU runs the tile bodies on ([`Isa::supported`]),
    /// with a message for each one it lacks.
    fn isas() -> Vec<Isa> {
        let isas = Isa::supported();
        for isa in Isa::ALL.iter().filter(|isa| !isas.contains(isa)) {
            eprintln!("skipped on {isa:?}: this CPU does not support it");
        }
        isas
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

    /// Runs all three kernels on `m × k` / `k × n` style operands, on every
    /// instruction set and through the public entry points, against the
    /// scalar references.
    fn check_case(rng: &mut Cases, m: usize, k: usize, n: usize, what: &str) {
        let a = rng.matrix(m, k);
        let b = rng.matrix(k, n);
        let want = ref_matmul(&a, &b);
        assert_bits(&a.matmul(&b), &want, &format!("{what} matmul"));
        for isa in isas() {
            let mut out = Matrix::full(m, n, f32::NAN);
            a.matmul_into_on(isa, &b, &mut out);
            assert_bits(&out, &want, &format!("{what} matmul on {isa:?}"));
        }

        // selfᵀ·other with `k` samples: output `m × n`.
        let x = rng.matrix(k, m);
        let want = ref_matmul_tn(&x, &b);
        assert_bits(&tn(&x, &b), &want, &format!("{what} matmul_tn"));
        for isa in isas() {
            let mut out = Matrix::full(m, n, f32::NAN);
            x.matmul_tn_into_on(isa, &b, &mut out);
            assert_bits(&out, &want, &format!("{what} matmul_tn on {isa:?}"));
        }

        // self·otherᵀ: output `m × n`, summed over `k`.
        let w = rng.matrix(n, k);
        let want = ref_matmul_nt(&a, &w);
        assert_bits(&nt(&a, &w), &want, &format!("{what} matmul_nt"));
        for isa in isas() {
            let mut out = Matrix::full(m, n, f32::NAN);
            a.matmul_nt_into_on(isa, &w, &mut out);
            assert_bits(&out, &want, &format!("{what} matmul_nt on {isa:?}"));
        }
    }

    #[test]
    fn tiles_match_scalar_references_bit_for_bit() {
        const SEED: u64 = 0x6A7E_11ED;
        const WIDTHS: [usize; 10] = [1, 2, 3, 7, 8, 9, 15, 16, 17, 33];
        let mut rng = Cases(SEED);
        for case in 0..160 {
            let m = 1 + rng.below(70);
            let k = 1 + rng.below(70);
            let n = if case % 2 == 0 {
                WIDTHS[(case / 2) % WIDTHS.len()]
            } else {
                1 + rng.below(70)
            };
            check_case(
                &mut rng,
                m,
                k,
                n,
                &format!("seed {SEED:#x} case {case} ({m}x{k}x{n})"),
            );
        }
        // Both sides of TN_FOLD_WORK, and `matmul_tn` with three or more
        // TN_CHUNK partials (with two, a reversed fold would still agree).
        for (case, &(m, k, n)) in [
            (64, 32, 31),
            (64, 32, 32),
            (70, 70, 16),
            (17, 200, 33),
            (24, 300, 16),
            (9, 150, 70),
        ]
        .iter()
        .enumerate()
        {
            check_case(
                &mut rng,
                m,
                k,
                n,
                &format!("seed {SEED:#x} large case {case} ({m}x{k}x{n})"),
            );
        }
    }

    #[test]
    fn tiles_propagate_non_finite_values_like_the_references() {
        let mut rng = Cases(0x0BAD_F1E7);
        for case in 0..40 {
            let (m, k, n) = (1 + rng.below(20), 1 + rng.below(20), 1 + rng.below(20));
            let a = rng.matrix(m, k);
            let mut b = rng.matrix(k, n);
            for v in b.as_mut_slice() {
                match rng.below(24) {
                    0 => *v = f32::INFINITY,
                    1 => *v = f32::NEG_INFINITY,
                    2 => *v = f32::NAN,
                    _ => {}
                }
            }
            let what = format!("case {case} ({m}x{k}x{n})");
            let bt = b.transpose();
            let x = a.transpose();
            for isa in isas() {
                let mut out = Matrix::zeros(m, n);
                a.matmul_into_on(isa, &b, &mut out);
                assert_bits(
                    &out,
                    &ref_matmul(&a, &b),
                    &format!("{what} matmul on {isa:?}"),
                );
                x.matmul_tn_into_on(isa, &b, &mut out);
                assert_bits(
                    &out,
                    &ref_matmul_tn(&x, &b),
                    &format!("{what} matmul_tn on {isa:?}"),
                );
                a.matmul_nt_into_on(isa, &bt, &mut out);
                assert_bits(
                    &out,
                    &ref_matmul_nt(&a, &bt),
                    &format!("{what} matmul_nt on {isa:?}"),
                );
            }
        }
    }

    /// `SqDistLanes` against `sq_dist`: widths 0 to 33, 0 to 70 candidates (across the 8- and 32-lane groups),
    /// repeated rows, and NaN, ±∞ and −0.0 coordinates. Every distance
    /// must have the same bits; two NaNs count as equal, since neither
    /// loop pins which NaN an add keeps (`∞ − ∞` and a NaN input differ in
    /// sign).
    #[test]
    fn lanes_match_sq_dist_bit_for_bit() {
        const WIDTHS: [usize; 9] = [0, 1, 2, 3, 7, 8, 16, 17, 33];
        let mut rng = Cases(0x5D15_7A11);
        for case in 0..180 {
            let h = WIDTHS[case % WIDTHS.len()];
            let rows = 1 + rng.below(40);
            let special = |rng: &mut Cases, v: f32| match (case % 3, rng.below(12)) {
                (0, 0) => f32::NAN,
                (0, 1) => f32::INFINITY,
                (0, 2) => f32::NEG_INFINITY,
                _ => v,
            };
            let mut m = rng.matrix(rows, h);
            for v in m.as_mut_slice() {
                *v = special(&mut rng, *v);
            }
            let q: Vec<f32> = (0..h)
                .map(|_| {
                    let v = rng.value();
                    special(&mut rng, v)
                })
                .collect();
            let nodes: Vec<usize> = (0..rng.below(71)).map(|_| rng.below(rows)).collect();
            let lanes = SqDistLanes::new(&m, &nodes);
            let want: Vec<f32> = nodes.iter().map(|&u| sq_dist(&q, m.row(u))).collect();
            let want = Matrix::from_vec(1, nodes.len(), want);
            let mut out = Matrix::full(1, nodes.len(), -1.0);
            lanes.sq_dists_into(&q, out.as_mut_slice());
            let what = format!("case {case} ({} candidates, h {h})", nodes.len());
            assert_bits(&out, &want, &what);
        }
    }

    #[test]
    fn zero_sized_products_are_empty_or_zero() {
        for (m, k, n) in [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0)] {
            let a = Matrix::full(m, k, 1.5);
            let b = Matrix::full(k, n, 2.0);
            assert_eq!(a.matmul(&b), Matrix::zeros(m, n), "matmul {m}x{k}x{n}");
            let x = Matrix::full(k, m, 1.5);
            assert_eq!(tn(&x, &b), Matrix::zeros(m, n), "matmul_tn {m}x{k}x{n}");
            let w = Matrix::full(n, k, 2.0);
            assert_eq!(nt(&a, &w), Matrix::zeros(m, n), "matmul_nt {m}x{k}x{n}");
            let mut dirty = Matrix::full(m, n, 7.0);
            a.matmul_into(&b, &mut dirty);
            assert_eq!(dirty, Matrix::zeros(m, n), "matmul_into {m}x{k}x{n}");
            let mut dirty = Matrix::full(m, n, 7.0);
            x.matmul_tn_into(&b, &mut dirty);
            assert_eq!(dirty, Matrix::zeros(m, n), "matmul_tn_into {m}x{k}x{n}");
            let mut dirty = Matrix::full(m, n, 7.0);
            a.matmul_nt_into(&w, &mut dirty);
            assert_eq!(dirty, Matrix::zeros(m, n), "matmul_nt_into {m}x{k}x{n}");
        }
    }
}
