//! Lloyd's k-means with k-means++ seeding.

use fairwos_tensor::{sq_dist, FairRng, Matrix};

/// Output of [`kmeans`].
#[derive(Clone, Debug)]
pub struct KMeansResult {
    /// Cluster centroids, `k × d`.
    pub centroids: Matrix,
    /// Cluster assignment per row of the input.
    pub assignments: Vec<usize>,
    /// Final within-cluster sum of squared distances.
    pub inertia: f64,
    /// Iterations executed before convergence (or the cap).
    pub iterations: usize,
}

/// Runs k-means on the rows of `data`.
///
/// Seeding is k-means++ (spreads initial centroids by squared distance),
/// iteration is standard Lloyd's, stopping when assignments stabilise or
/// after `max_iter` rounds. Empty clusters are re-seeded to the point
/// farthest from its centroid.
///
/// # Panics
/// If `k` is 0 or exceeds the number of rows.
pub fn kmeans(data: &Matrix, k: usize, max_iter: usize, rng: &mut FairRng) -> KMeansResult {
    let n = data.rows();
    let d = data.cols();
    assert!(k >= 1 && k <= n, "k = {k} outside [1, {n}]");

    // k-means++ seeding.
    let mut centroids = Matrix::zeros(k, d);
    let first = rng.gen_range(0..n);
    centroids.set_row(0, data.row(first));
    let mut min_d2: Vec<f32> = (0..n)
        .map(|i| sq_dist(data.row(i), centroids.row(0)))
        .collect();
    for c in 1..k {
        let total: f64 = min_d2.iter().map(|&v| v as f64).sum();
        let idx = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &v) in min_d2.iter().enumerate() {
                target -= v as f64;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.set_row(c, data.row(idx));
        for (i, md) in min_d2.iter_mut().enumerate() {
            *md = md.min(sq_dist(data.row(i), centroids.row(c)));
        }
    }

    let mut assignments = vec![0usize; n];
    let mut iterations = 0;
    for it in 0..max_iter {
        iterations = it + 1;
        // Assignment step.
        let mut changed = false;
        for (i, assignment) in assignments.iter_mut().enumerate() {
            let row = data.row(i);
            let mut best = 0;
            let mut best_d = f32::INFINITY;
            for c in 0..k {
                let dist = sq_dist(row, centroids.row(c));
                if dist < best_d {
                    best_d = dist;
                    best = c;
                }
            }
            if *assignment != best {
                *assignment = best;
                changed = true;
            }
        }
        if !changed && it > 0 {
            break;
        }
        // Update step.
        let mut sums = Matrix::zeros(k, d);
        let mut counts = vec![0usize; k];
        for i in 0..n {
            counts[assignments[i]] += 1;
            let dst = sums.row_mut(assignments[i]);
            for (a, &b) in dst.iter_mut().zip(data.row(i)) {
                *a += b;
            }
        }
        for (c, &count) in counts.iter().enumerate() {
            if count == 0 {
                // Re-seed an empty cluster to the globally worst-fit point.
                #[expect(
                    clippy::expect_used,
                    reason = "0..n is non-empty, so max_by always yields a point"
                )]
                let far = (0..n)
                    .max_by(|&a, &b| {
                        sq_dist(data.row(a), centroids.row(assignments[a]))
                            .total_cmp(&sq_dist(data.row(b), centroids.row(assignments[b])))
                    })
                    .expect("n >= 1");
                centroids.set_row(c, data.row(far));
            } else {
                let inv = 1.0 / count as f32;
                let src: Vec<f32> = sums.row(c).iter().map(|&v| v * inv).collect();
                centroids.set_row(c, &src);
            }
        }
    }

    let inertia = (0..n)
        .map(|i| sq_dist(data.row(i), centroids.row(assignments[i])) as f64)
        .sum();
    KMeansResult {
        centroids,
        assignments,
        inertia,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairwos_tensor::seeded_rng;

    /// Two tight blobs at (0,0) and (10,10).
    fn two_blobs(rng: &mut FairRng) -> Matrix {
        let mut m = Matrix::zeros(40, 2);
        for i in 0..40 {
            let center = if i < 20 { 0.0 } else { 10.0 };
            m.set(i, 0, center + rng.gen_range(-0.5..0.5));
            m.set(i, 1, center + rng.gen_range(-0.5..0.5));
        }
        m
    }

    #[test]
    fn separates_two_blobs() {
        let mut rng = seeded_rng(0);
        let data = two_blobs(&mut rng);
        let r = kmeans(&data, 2, 50, &mut rng);
        // All first-20 in one cluster, all last-20 in the other.
        let c0 = r.assignments[0];
        assert!(r.assignments[..20].iter().all(|&a| a == c0));
        assert!(r.assignments[20..].iter().all(|&a| a != c0));
        assert!(r.inertia < 40.0, "inertia {}", r.inertia);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let mut rng = seeded_rng(1);
        let data = Matrix::rand_uniform(5, 3, -1.0, 1.0, &mut rng);
        let r = kmeans(&data, 5, 20, &mut rng);
        assert!(r.inertia < 1e-9);
    }

    #[test]
    fn k_one_centroid_is_mean() {
        let mut rng = seeded_rng(2);
        let data = Matrix::from_rows(&[&[0.0, 0.0], &[2.0, 4.0]]);
        let r = kmeans(&data, 1, 20, &mut rng);
        assert_eq!(r.centroids.row(0), &[1.0, 2.0]);
        assert_eq!(r.assignments, vec![0, 0]);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = two_blobs(&mut seeded_rng(3));
        let a = kmeans(&data, 3, 50, &mut seeded_rng(4));
        let b = kmeans(&data, 3, 50, &mut seeded_rng(4));
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_k_zero() {
        let data = Matrix::ones(3, 2);
        let _ = kmeans(&data, 0, 10, &mut seeded_rng(5));
    }
}
