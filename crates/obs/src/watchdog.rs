//! The divergence watchdog: a per-epoch health policy that turns silent
//! numerical blow-ups (NaN loss, exploding gradients, λ leaving the
//! simplex) into a typed verdict the trainer can surface as an error.
//!
//! The watchdog is always compiled — divergence detection is a correctness
//! feature, not an observability nicety, so it must work without the
//! `enabled` feature. It holds no global state: the trainer owns one
//! [`Watchdog`] per training stage (loss scales differ across stages, so a
//! shared trailing window would compare apples to oranges).

use std::collections::VecDeque;
use std::fmt;

/// Thresholds of the divergence watchdog. The defaults are deliberately
/// loose: the watchdog exists to catch *blow-ups*, not to police normal
/// loss noise, so every trigger sits orders of magnitude beyond healthy
/// training dynamics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WatchdogPolicy {
    /// A loss above `spike_factor ×` the trailing-window minimum (clamped
    /// below by `loss_floor`) counts as a spike. Must be > 1.
    pub spike_factor: f64,
    /// How many recent finite losses the trailing window holds. Must be
    /// ≥ 1.
    pub window: usize,
    /// A gradient norm above this (or non-finite) counts as an explosion.
    /// Must be positive.
    pub grad_limit: f64,
    /// Slack for the λ feasibility check: each λᵢ must lie in
    /// `[-tol, 1 + tol]` and Σλ must be within `tol` of 1. Must be
    /// positive.
    pub lambda_tol: f64,
    /// Lower clamp on the spike baseline, so a near-zero early loss does
    /// not turn ordinary fluctuation into a spike. Must be positive.
    pub loss_floor: f64,
}

impl Default for WatchdogPolicy {
    fn default() -> Self {
        Self {
            spike_factor: 50.0,
            window: 10,
            grad_limit: 1e6,
            lambda_tol: 1e-3,
            loss_floor: 1e-3,
        }
    }
}

// A missing field takes its default, so configs serialized before a
// threshold existed still load.
crate::json_struct!(ToJson, FromJson for WatchdogPolicy {
    spike_factor, window, grad_limit, lambda_tol, loss_floor, ..Self::default()
});

/// Why the watchdog declared a run divergent.
#[derive(Clone, Debug, PartialEq)]
pub enum Divergence {
    /// The epoch's total loss was NaN or infinite.
    NonFiniteLoss {
        /// The offending loss value.
        loss: f64,
    },
    /// The loss jumped beyond `factor ×` the trailing-window baseline.
    LossSpike {
        /// The offending loss value.
        loss: f64,
        /// The trailing-window minimum it was compared against.
        baseline: f64,
        /// The configured spike factor.
        factor: f64,
    },
    /// The gradient norm exceeded the limit (or was non-finite).
    GradientExplosion {
        /// The offending gradient norm.
        grad_norm: f64,
        /// The configured limit.
        limit: f64,
    },
    /// λ left its feasible range (the probability simplex, within
    /// tolerance).
    LambdaOutOfRange {
        /// What exactly was infeasible about λ.
        detail: String,
    },
}

impl Divergence {
    /// Short machine-readable code, used as the journal [`Alert`] code and
    /// as the trace event name.
    ///
    /// [`Alert`]: crate::Event::Alert
    pub fn code(&self) -> &'static str {
        match self {
            Divergence::NonFiniteLoss { .. } => "watchdog/non_finite_loss",
            Divergence::LossSpike { .. } => "watchdog/loss_spike",
            Divergence::GradientExplosion { .. } => "watchdog/gradient_explosion",
            Divergence::LambdaOutOfRange { .. } => "watchdog/lambda_out_of_range",
        }
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::NonFiniteLoss { loss } => {
                write!(f, "training loss became non-finite ({loss})")
            }
            Divergence::LossSpike {
                loss,
                baseline,
                factor,
            } => write!(
                f,
                "loss {loss} exceeded {factor}× the trailing-window baseline {baseline}"
            ),
            Divergence::GradientExplosion { grad_norm, limit } => {
                write!(f, "gradient norm {grad_norm} exceeded the limit {limit}")
            }
            Divergence::LambdaOutOfRange { detail } => {
                write!(f, "λ left its feasible range: {detail}")
            }
        }
    }
}

/// True when `lambda` is a valid probability-simplex point within `tol`:
/// every entry finite and in `[-tol, 1 + tol]`, and Σλ within `tol` of 1.
pub fn lambda_in_simplex(lambda: &[f32], tol: f64) -> bool {
    lambda_violation(lambda, tol).is_none()
}

/// The first feasibility violation in `lambda`, if any (see
/// [`lambda_in_simplex`] for the predicate).
fn lambda_violation(lambda: &[f32], tol: f64) -> Option<String> {
    if lambda.is_empty() {
        return Some("λ is empty".to_owned());
    }
    let mut sum = 0.0f64;
    for (i, &l) in lambda.iter().enumerate() {
        let l = f64::from(l);
        if !l.is_finite() {
            return Some(format!("λ[{i}] = {l} is not finite"));
        }
        if l < -tol || l > 1.0 + tol {
            return Some(format!(
                "λ[{i}] = {l} lies outside [0, 1] by more than {tol}"
            ));
        }
        sum += l;
    }
    if (sum - 1.0).abs() > tol {
        return Some(format!("Σλ = {sum} deviates from 1 by more than {tol}"));
    }
    None
}

/// Stateful per-stage divergence checker: call [`Watchdog::check`] once per
/// epoch with that epoch's total loss, gradient norm, and (during fine-
/// tuning) the current λ.
#[derive(Clone, Debug)]
pub struct Watchdog {
    policy: WatchdogPolicy,
    trailing: VecDeque<f64>,
}

impl Watchdog {
    /// A fresh watchdog (empty trailing window) under `policy`.
    pub fn new(policy: WatchdogPolicy) -> Self {
        Self {
            policy,
            trailing: VecDeque::new(),
        }
    }

    /// The policy this watchdog enforces.
    pub fn policy(&self) -> &WatchdogPolicy {
        &self.policy
    }

    /// The trailing window of healthy losses, oldest first — exported so a
    /// training checkpoint can persist the spike baseline and a resumed run
    /// reproduces the uninterrupted run's verdicts exactly.
    pub fn export_window(&self) -> Vec<f64> {
        self.trailing.iter().copied().collect()
    }

    /// Replaces the trailing window with `window` (oldest first), keeping
    /// only the most recent `policy.window` entries — the same bound
    /// [`Watchdog::check`] enforces.
    pub fn restore_window(&mut self, window: &[f64]) {
        self.trailing.clear();
        let keep = self.policy.window.max(1);
        let skip = window.len().saturating_sub(keep);
        self.trailing.extend(window.iter().skip(skip).copied());
    }

    /// Checks one epoch. Returns the first violated trigger, or `None` when
    /// healthy — in which case `loss` joins the trailing window (bounded at
    /// `policy.window` entries, oldest evicted first). A divergent epoch's
    /// loss never enters the window, so the baseline stays meaningful.
    ///
    /// The spike check needs at least one prior healthy epoch — the first
    /// epoch of a stage can never be a spike.
    pub fn check(
        &mut self,
        loss: f64,
        grad_norm: f64,
        lambda: Option<&[f32]>,
    ) -> Option<Divergence> {
        if !loss.is_finite() {
            return Some(Divergence::NonFiniteLoss { loss });
        }
        if !grad_norm.is_finite() || grad_norm > self.policy.grad_limit {
            return Some(Divergence::GradientExplosion {
                grad_norm,
                limit: self.policy.grad_limit,
            });
        }
        if let Some(l) = lambda {
            if let Some(detail) = lambda_violation(l, self.policy.lambda_tol) {
                return Some(Divergence::LambdaOutOfRange { detail });
            }
        }
        if let Some(baseline) = self
            .trailing
            .iter()
            .copied()
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.min(v)))
            })
        {
            let baseline = baseline.max(self.policy.loss_floor);
            if loss > self.policy.spike_factor * baseline {
                return Some(Divergence::LossSpike {
                    loss,
                    baseline,
                    factor: self.policy.spike_factor,
                });
            }
        }
        self.trailing.push_back(loss);
        while self.trailing.len() > self.policy.window.max(1) {
            self.trailing.pop_front();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dog() -> Watchdog {
        Watchdog::new(WatchdogPolicy::default())
    }

    #[test]
    fn healthy_decreasing_losses_never_trigger() {
        let mut w = dog();
        for e in 0..100 {
            let loss = 0.7 * (0.97f64).powi(e);
            assert_eq!(w.check(loss, 1.0, Some(&[0.5, 0.5])), None, "epoch {e}");
        }
    }

    #[test]
    fn nan_and_infinite_losses_trigger_non_finite() {
        let mut w = dog();
        assert!(matches!(
            w.check(f64::NAN, 1.0, None),
            Some(Divergence::NonFiniteLoss { .. })
        ));
        assert!(matches!(
            w.check(f64::INFINITY, 1.0, None),
            Some(Divergence::NonFiniteLoss { .. })
        ));
    }

    #[test]
    fn spike_beyond_factor_over_window_min_triggers() {
        let mut w = dog();
        assert_eq!(w.check(0.7, 1.0, None), None);
        assert_eq!(w.check(0.6, 1.0, None), None);
        // 0.6 × 50 = 30: a loss of 35 is a spike; 25 is not.
        assert_eq!(w.check(25.0, 1.0, None), None);
        let d = w.check(35_000.0, 1.0, None);
        match d {
            Some(Divergence::LossSpike {
                loss,
                baseline,
                factor,
            }) => {
                assert_eq!(loss, 35_000.0);
                assert_eq!(baseline, 0.6);
                assert_eq!(factor, 50.0);
            }
            other => panic!("expected LossSpike, got {other:?}"),
        }
    }

    #[test]
    fn first_epoch_is_never_a_spike() {
        let mut w = dog();
        assert_eq!(w.check(1e9, 1.0, None), None, "no baseline yet");
    }

    #[test]
    fn divergent_loss_does_not_poison_the_baseline() {
        let mut w = dog();
        assert_eq!(w.check(0.5, 1.0, None), None);
        assert!(w.check(1e6, 1.0, None).is_some());
        // The spike was rejected, so the baseline is still 0.5: a second
        // spike of the same size must still trigger.
        assert!(w.check(1e6, 1.0, None).is_some());
    }

    #[test]
    fn window_eviction_forgets_old_low_losses() {
        let mut w = Watchdog::new(WatchdogPolicy {
            window: 2,
            ..WatchdogPolicy::default()
        });
        assert_eq!(w.check(0.01, 1.0, None), None);
        // Two larger healthy losses evict 0.01 from the window.
        assert_eq!(w.check(0.2, 1.0, None), None);
        assert_eq!(w.check(0.3, 1.0, None), None);
        // Against the evicted 0.01 baseline, 9.0 > 50 × 0.01 would have
        // been a spike; against the live window min of 0.2 it is healthy.
        assert_eq!(w.check(9.0, 1.0, None), None);
    }

    #[test]
    fn tiny_baselines_are_clamped_by_the_loss_floor() {
        let mut w = dog();
        assert_eq!(w.check(1e-9, 1.0, None), None);
        // Baseline clamps to loss_floor = 1e-3, so 0.04 < 50 × 1e-3 = 0.05
        // stays healthy even though it is 4×10⁷ times the previous loss.
        assert_eq!(w.check(0.04, 1.0, None), None);
        assert!(w.check(0.06, 1.0, None).is_some());
    }

    #[test]
    fn gradient_explosion_triggers_on_limit_and_non_finite() {
        let mut w = dog();
        assert_eq!(w.check(0.5, 1e5, None), None);
        assert!(matches!(
            w.check(0.5, 1e7, None),
            Some(Divergence::GradientExplosion { .. })
        ));
        assert!(matches!(
            w.check(0.5, f64::NAN, None),
            Some(Divergence::GradientExplosion { .. })
        ));
    }

    #[test]
    fn lambda_out_of_range_triggers() {
        let mut w = dog();
        assert_eq!(w.check(0.5, 1.0, Some(&[0.25, 0.75])), None);
        // Sum > 1.
        assert!(matches!(
            w.check(0.5, 1.0, Some(&[0.6, 0.6])),
            Some(Divergence::LambdaOutOfRange { .. })
        ));
        // Negative entry.
        assert!(matches!(
            w.check(0.5, 1.0, Some(&[-0.2, 1.2])),
            Some(Divergence::LambdaOutOfRange { .. })
        ));
        // Non-finite entry.
        assert!(matches!(
            w.check(0.5, 1.0, Some(&[f32::NAN, 1.0])),
            Some(Divergence::LambdaOutOfRange { .. })
        ));
        // Empty λ.
        assert!(matches!(
            w.check(0.5, 1.0, Some(&[])),
            Some(Divergence::LambdaOutOfRange { .. })
        ));
    }

    #[test]
    fn lambda_in_simplex_accepts_float_noise() {
        assert!(lambda_in_simplex(&[0.5000001, 0.4999999], 1e-3));
        assert!(lambda_in_simplex(&[1.0], 1e-3));
        assert!(!lambda_in_simplex(&[0.5, 0.6], 1e-3));
    }

    #[test]
    fn window_roundtrip_reproduces_verdicts() {
        let mut w = dog();
        assert_eq!(w.check(0.7, 1.0, None), None);
        assert_eq!(w.check(0.4, 1.0, None), None);
        let mut twin = dog();
        twin.restore_window(&w.export_window());
        // Same verdict on the next epoch, spike or healthy.
        assert_eq!(w.check(25.0, 1.0, None), twin.check(25.0, 1.0, None));
        assert_eq!(w.check(1e5, 1.0, None), twin.check(1e5, 1.0, None));
    }

    #[test]
    fn restore_window_clamps_to_policy_length() {
        let mut w = Watchdog::new(WatchdogPolicy {
            window: 2,
            ..WatchdogPolicy::default()
        });
        w.restore_window(&[0.01, 0.2, 0.3]);
        // The oldest entry (0.01) must have been dropped: 9.0 would spike
        // against a 0.01 baseline but is healthy against min(0.2, 0.3).
        assert_eq!(w.check(9.0, 1.0, None), None);
        // `check` keeps the window bounded at `policy.window` entries too.
        assert_eq!(w.export_window(), vec![0.3, 9.0]);
    }

    #[test]
    fn codes_and_display_are_informative() {
        let d = Divergence::LossSpike {
            loss: 100.0,
            baseline: 0.5,
            factor: 50.0,
        };
        assert_eq!(d.code(), "watchdog/loss_spike");
        let msg = d.to_string();
        assert!(msg.contains("100") && msg.contains("0.5"), "{msg}");
        assert_eq!(
            Divergence::NonFiniteLoss { loss: f64::NAN }.code(),
            "watchdog/non_finite_loss"
        );
        assert_eq!(
            Divergence::GradientExplosion {
                grad_norm: 1e9,
                limit: 1e6
            }
            .code(),
            "watchdog/gradient_explosion"
        );
        assert_eq!(
            Divergence::LambdaOutOfRange {
                detail: String::new()
            }
            .code(),
            "watchdog/lambda_out_of_range"
        );
    }
}
