//! Random matrix initialization, and checkpointable state of the workspace's
//! one generator.
//!
//! Every stochastic component in the workspace threads an explicit seeded
//! [`FairRng`] (the ChaCha12 generator of `fairwos-chaos`, re-exported here
//! with [`seeded_rng`]) so experiments are reproducible run-to-run; nothing
//! reads entropy from the environment.

use crate::Matrix;
pub use fairwos_chaos::{seeded_rng, FairRng};

/// Serializable snapshot of a [`FairRng`]'s full internal state: restoring
/// it with [`restore_rng`] continues the stream bit-exactly from where
/// [`export_rng_state`] captured it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RngState {
    /// The 256-bit ChaCha key (the expanded seed).
    pub seed: [u8; 32],
    /// The ChaCha stream id.
    pub stream: u64,
    /// High 64 bits of the 128-bit word position within the stream.
    pub word_pos_hi: u64,
    /// Low 64 bits of the 128-bit word position within the stream.
    pub word_pos_lo: u64,
}

fairwos_obs::json_struct!(ToJson, FromJson for RngState { seed, stream, word_pos_hi, word_pos_lo });

/// Captures the full internal state of `rng` (seed, stream, word position).
pub fn export_rng_state(rng: &FairRng) -> RngState {
    let (seed, stream, word_pos) = rng.position();
    RngState {
        seed,
        stream,
        word_pos_hi: (word_pos >> 64) as u64,
        #[expect(
            clippy::cast_possible_truncation,
            reason = "keeps the low 64 bits; word_pos_hi holds the rest"
        )]
        word_pos_lo: word_pos as u64,
    }
}

/// Rebuilds a [`FairRng`] that continues the stream captured by
/// [`export_rng_state`].
pub fn restore_rng(state: &RngState) -> FairRng {
    let word_pos = (u128::from(state.word_pos_hi) << 64) | u128::from(state.word_pos_lo);
    FairRng::at(state.seed, state.stream, word_pos)
}

/// Glorot (Xavier) uniform initialization: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`.
///
/// The standard choice for tanh/linear layers and the one used by PyG's GCN.
pub fn glorot_uniform(fan_in: usize, fan_out: usize, rng: &mut FairRng) -> Matrix {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Matrix::drawn(fan_in, fan_out, || rng.gen_range(-a..=a))
}

/// He (Kaiming) normal initialization: `N(0, 2 / fan_in)`.
///
/// The standard choice for ReLU MLPs (the GIN update function).
pub fn he_normal(fan_in: usize, fan_out: usize, rng: &mut FairRng) -> Matrix {
    let std = (2.0 / fan_in as f32).sqrt();
    Matrix::drawn(fan_in, fan_out, || rng.normal(0.0, std))
}

impl Matrix {
    /// A `rows × cols` matrix of `draw()` values in row-major order,
    /// allocated through the counted [`Matrix::zeros`] funnel.
    fn drawn(rows: usize, cols: usize, mut draw: impl FnMut() -> f32) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for v in m.as_mut_slice() {
            *v = draw();
        }
        m
    }

    /// A matrix with entries drawn i.i.d. from `U(lo, hi)`.
    ///
    /// # Panics
    /// If `lo >= hi`.
    pub fn rand_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut FairRng) -> Self {
        assert!(lo < hi, "rand_uniform: empty range [{lo}, {hi})");
        Matrix::drawn(rows, cols, || rng.gen_range(lo..hi))
    }

    /// A matrix with entries drawn i.i.d. from `N(mean, std²)`.
    ///
    /// # Panics
    /// If `std` is negative or not finite.
    pub fn rand_normal(rows: usize, cols: usize, mean: f32, std: f32, rng: &mut FairRng) -> Self {
        Matrix::drawn(rows, cols, || rng.normal(mean, std))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let a = Matrix::rand_uniform(4, 4, 0.0, 1.0, &mut seeded_rng(42));
        let b = Matrix::rand_uniform(4, 4, 0.0, 1.0, &mut seeded_rng(42));
        assert_eq!(a, b);
        let c = Matrix::rand_uniform(4, 4, 0.0, 1.0, &mut seeded_rng(43));
        assert_ne!(a, c);
    }

    #[test]
    fn glorot_bounds() {
        let mut rng = seeded_rng(1);
        let w = glorot_uniform(64, 32, &mut rng);
        let a = (6.0f32 / 96.0).sqrt();
        assert!(w.as_slice().iter().all(|&v| v >= -a && v <= a));
        assert_eq!(w.shape(), (64, 32));
    }

    #[test]
    fn he_normal_moments() {
        let mut rng = seeded_rng(2);
        let w = he_normal(128, 256, &mut rng);
        let mean = w.mean();
        let expected_std = (2.0f32 / 128.0).sqrt();
        let std =
            (w.as_slice().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / w.len() as f32).sqrt();
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!(
            (std - expected_std).abs() < 0.01,
            "std {std} vs {expected_std}"
        );
    }

    #[test]
    fn rand_normal_moments() {
        let mut rng = seeded_rng(3);
        let m = Matrix::rand_normal(100, 100, 5.0, 0.5, &mut rng);
        assert!((m.mean() - 5.0).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn rand_uniform_bad_range_panics() {
        let _ = Matrix::rand_uniform(1, 1, 1.0, 1.0, &mut seeded_rng(0));
    }

    #[test]
    fn rng_state_roundtrip_continues_the_stream() {
        // Capture at the stream start, around the first 16-word block
        // boundary, and mid-block further on.
        for words in [0, 15, 16, 17, 37] {
            let mut rng = seeded_rng(17);
            for _ in 0..words {
                rng.next_u32();
            }
            let state = export_rng_state(&rng);
            assert_eq!(state.word_pos_lo, words);
            let mut twin = restore_rng(&state);
            let a: Vec<u64> = (0..64).map(|_| rng.gen()).collect();
            let b: Vec<u64> = (0..64).map(|_| twin.gen()).collect();
            assert_eq!(a, b, "restored RNG diverged after {words} words");
        }
    }

    #[test]
    fn rng_state_json_roundtrip_is_exact() {
        let mut rng = seeded_rng(5);
        let _: u64 = rng.gen();
        let state = export_rng_state(&rng);
        let json = fairwos_obs::json::to_string(&state);
        let back: RngState = fairwos_obs::json::from_str(&json).expect("state deserializes");
        assert_eq!(back, state);
        let mut a = restore_rng(&state);
        let mut b = restore_rng(&back);
        let x: u64 = a.gen();
        let y: u64 = b.gen();
        assert_eq!(x, y);
    }
}
