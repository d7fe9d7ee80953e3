//! Reductions, norms, and row-wise softmax utilities.

use crate::checked::{contract_finite, contract_finite_slice};
use crate::Matrix;

impl Matrix {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of all elements. Returns 0 for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Per-row sums (length = rows).
    pub fn row_sums(&self) -> Vec<f32> {
        self.rows_iter().map(|r| r.iter().sum()).collect()
    }

    /// Per-column sums (length = cols).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols()];
        for row in self.rows_iter() {
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        out
    }

    /// Per-column means (length = cols).
    pub fn col_means(&self) -> Vec<f32> {
        let n = self.rows().max(1) as f32;
        self.col_sums().into_iter().map(|s| s / n).collect()
    }

    /// Per-column standard deviations (population, length = cols).
    pub fn col_stds(&self) -> Vec<f32> {
        let means = self.col_means();
        let mut acc = vec![0.0f32; self.cols()];
        for row in self.rows_iter() {
            for ((a, &v), &m) in acc.iter_mut().zip(row).zip(&means) {
                let d = v - m;
                *a += d * d;
            }
        }
        let n = self.rows().max(1) as f32;
        acc.into_iter().map(|s| (s / n).sqrt()).collect()
    }

    /// Median of column `c` (mean of the two middle values for an even row
    /// count, 0 for an empty matrix). Used to binarize pseudo-sensitive
    /// attribute dimensions for the counterfactual "different value" test.
    ///
    /// The middle values are those of the column sorted by
    /// [`f32::total_cmp`], found by selection rather than a sort: under a
    /// total order the `n/2`-th element is unique up to its bits, and the
    /// one before it is the largest of the lower half.
    ///
    /// # Panics
    /// If `c` is out of range.
    pub fn col_median(&self, c: usize) -> f32 {
        let mut v = self.col(c);
        let n = v.len();
        if n == 0 {
            return 0.0;
        }
        let (lower, &mut mid, _) = v.select_nth_unstable_by(n / 2, f32::total_cmp);
        if n % 2 == 1 {
            return mid;
        }
        let below = lower.iter().copied().max_by(f32::total_cmp).unwrap_or(mid);
        0.5 * (below + mid)
    }

    /// Per-column medians (length = cols), one [`Matrix::col_median`] each.
    pub fn col_medians(&self) -> Vec<f32> {
        (0..self.cols()).map(|c| self.col_median(c)).collect()
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn frobenius_norm(&self) -> f32 {
        self.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Per-row Euclidean norms (length = rows).
    pub fn row_norms(&self) -> Vec<f32> {
        self.rows_iter()
            .map(|r| r.iter().map(|v| v * v).sum::<f32>().sqrt())
            .collect()
    }

    /// Index of the maximum element of each row; ties resolve to the first.
    pub fn argmax_rows(&self) -> Vec<usize> {
        self.rows_iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Maximum element; `-inf` for an empty matrix.
    pub fn max(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element; `+inf` for an empty matrix.
    pub fn min(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min)
    }

    /// Numerically stable row-wise softmax (max-subtraction form).
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        out.softmax_rows_assign();
        out
    }

    /// In-place row-wise softmax.
    pub fn softmax_rows_assign(&mut self) {
        let cols = self.cols();
        for row in self.as_mut_slice().chunks_exact_mut(cols) {
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - m).exp();
                sum += *v;
            }
            let inv = 1.0 / sum;
            for v in row {
                *v *= inv;
            }
        }
        contract_finite("softmax_rows", "output", self);
    }

    /// Standardizes each column to zero mean and unit variance in place.
    /// Columns with (near-)zero variance are left centered but unscaled.
    pub fn standardize_cols_assign(&mut self) {
        let means = self.col_means();
        let stds = self.col_stds();
        let cols = self.cols();
        for row in self.as_mut_slice().chunks_exact_mut(cols) {
            for ((v, &m), &s) in row.iter_mut().zip(&means).zip(&stds) {
                *v -= m;
                if s > 1e-8 {
                    *v /= s;
                }
            }
        }
    }
}

/// Replaces `row` by its numerically stable log-softmax, so a loss can take
/// it of the rows it reads only.
pub fn log_softmax_assign(row: &mut [f32]) {
    let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let lse = m + row.iter().map(|v| (v - m).exp()).sum::<f32>().ln();
    for v in row.iter_mut() {
        *v -= lse;
    }
    contract_finite_slice("log_softmax", "output", row);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn sums_and_means() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.sum(), 10.0);
        assert_eq!(m.mean(), 2.5);
        assert_eq!(m.row_sums(), vec![3.0, 7.0]);
        assert_eq!(m.col_sums(), vec![4.0, 6.0]);
        assert_eq!(m.col_means(), vec![2.0, 3.0]);
    }

    #[test]
    fn col_stds_known() {
        let m = Matrix::from_rows(&[&[1.0], &[3.0]]);
        // population std of {1,3} is 1
        assert!(approx_eq(m.col_stds()[0], 1.0, 1e-6));
    }

    #[test]
    fn col_medians_odd_even() {
        let odd = Matrix::from_rows(&[&[3.0], &[1.0], &[2.0]]);
        assert_eq!(odd.col_medians(), vec![2.0]);
        let even = Matrix::from_rows(&[&[4.0], &[1.0], &[2.0], &[3.0]]);
        assert_eq!(even.col_medians(), vec![2.5]);
        let two = Matrix::from_rows(&[&[3.0, 7.0], &[1.0, 7.0]]);
        assert_eq!(two.col_median(0), 2.0);
        assert_eq!(two.col_median(1), 7.0);
        assert_eq!(
            two.col_medians(),
            vec![two.col_median(0), two.col_median(1)]
        );
        // ±0.0, NaN and repeated values take their `total_cmp` sorted place.
        let bits = |rows: &[f32]| {
            let col: Vec<&[f32]> = rows.iter().map(std::slice::from_ref).collect();
            Matrix::from_rows(&col).col_median(0).to_bits()
        };
        assert_eq!(bits(&[0.0, -0.0]), 0.0f32.to_bits());
        assert_eq!(bits(&[-0.0, 0.0, -0.0]), (-0.0f32).to_bits());
        assert_eq!(bits(&[f32::NAN, 1.0, 2.0]), 2.0f32.to_bits());
        assert_eq!(bits(&[-f32::NAN, 1.0, 2.0]), 1.0f32.to_bits());
        assert_eq!(bits(&[5.0, 5.0, 1.0, 5.0]), 5.0f32.to_bits());
        assert_eq!(bits(&[3.0, 1.0, 3.0, 1.0]), 2.0f32.to_bits());
    }

    /// The median of the column sorted by `total_cmp`.
    fn sorted_median(col: &[f32]) -> f32 {
        let mut v = col.to_vec();
        v.sort_by(f32::total_cmp);
        let n = v.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => v[n / 2],
            _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
        }
    }

    #[test]
    fn col_medians_match_the_sorted_median_bit_for_bit() {
        const VALUES: [f32; 9] = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            2.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        let mut state = 0x003E_D1A2u64;
        for rows in 0..40 {
            for cols in [1, 3] {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "the remainder is below VALUES.len(), a usize"
                )]
                let data: Vec<f32> = (0..rows * cols)
                    .map(|_| {
                        state = fairwos_chaos::splitmix64(state);
                        VALUES[(state % VALUES.len() as u64) as usize]
                    })
                    .collect();
                let m = Matrix::from_vec(rows, cols, data);
                for (c, got) in m.col_medians().into_iter().enumerate() {
                    let want = sorted_median(&m.col(c));
                    assert!(
                        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                        "{rows}x{cols} column {c}: {got:?} against {want:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]);
        assert_eq!(m.frobenius_norm(), 5.0);
        assert_eq!(m.row_norms(), vec![5.0, 0.0]);
    }

    #[test]
    fn argmax_and_extrema() {
        let m = Matrix::from_rows(&[&[0.1, 0.9], &[0.8, 0.2]]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
        assert_eq!(m.max(), 0.9);
        assert!(approx_eq(m.min(), 0.1, 1e-6));
    }

    #[test]
    fn softmax_rows_sums_to_one_and_is_stable() {
        let m = Matrix::from_rows(&[&[1000.0, 1000.0], &[-1000.0, 0.0]]);
        let s = m.softmax_rows();
        assert!(!s.has_non_finite());
        for sum in s.row_sums() {
            assert!(approx_eq(sum, 1.0, 1e-5));
        }
        assert!(approx_eq(s.get(0, 0), 0.5, 1e-5));
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let m = Matrix::from_rows(&[&[0.5, -1.0, 2.0]]);
        let mut ls = m.row(0).to_vec();
        log_softmax_assign(&mut ls);
        let s = m.softmax_rows();
        for (a, b) in ls.iter().zip(s.as_slice()) {
            assert!(approx_eq(*a, b.ln(), 1e-5));
        }
    }

    #[test]
    fn standardize_cols() {
        let mut m = Matrix::from_rows(&[&[1.0, 5.0], &[3.0, 5.0]]);
        m.standardize_cols_assign();
        // col 0: mean 2, std 1 -> {-1, 1}; col 1: zero variance -> centered
        assert!(approx_eq(m.get(0, 0), -1.0, 1e-5));
        assert!(approx_eq(m.get(1, 0), 1.0, 1e-5));
        assert!(approx_eq(m.get(0, 1), 0.0, 1e-5));
    }
}
