//! Divergence-watchdog contract tests at the facade level: every trigger
//! surfaces as a value (`Option<Divergence>` from the policy checker, or a
//! typed `Err(TrainError)` from training) — no `should_panic` anywhere,
//! because divergence is a reportable outcome, not a crash.

use fairwos::obs::{lambda_in_simplex, Divergence, Watchdog, WatchdogPolicy};
use fairwos::prelude::*;

#[test]
fn non_finite_loss_is_a_typed_verdict() {
    let mut w = Watchdog::new(WatchdogPolicy::default());
    match w.check(f64::NAN, 1.0, None) {
        Some(Divergence::NonFiniteLoss { loss }) => assert!(loss.is_nan()),
        other => panic!("expected NonFiniteLoss, got {other:?}"),
    }
    assert!(matches!(
        w.check(f64::NEG_INFINITY, 1.0, None),
        Some(Divergence::NonFiniteLoss { .. })
    ));
}

#[test]
fn loss_spike_compares_against_the_trailing_window_minimum() {
    let mut w = Watchdog::new(WatchdogPolicy::default());
    assert_eq!(w.check(0.7, 1.0, None), None, "first epoch can never spike");
    assert_eq!(w.check(0.5, 1.0, None), None);
    match w.check(1e4, 1.0, None) {
        Some(Divergence::LossSpike {
            loss,
            baseline,
            factor,
        }) => {
            assert_eq!(loss, 1e4);
            assert_eq!(baseline, 0.5);
            assert_eq!(factor, WatchdogPolicy::default().spike_factor);
        }
        other => panic!("expected LossSpike, got {other:?}"),
    }
}

#[test]
fn gradient_explosion_reports_norm_and_limit() {
    let policy = WatchdogPolicy {
        grad_limit: 100.0,
        ..WatchdogPolicy::default()
    };
    let mut w = Watchdog::new(policy);
    assert_eq!(w.check(0.5, 99.0, None), None);
    match w.check(0.5, 101.0, None) {
        Some(Divergence::GradientExplosion { grad_norm, limit }) => {
            assert_eq!(grad_norm, 101.0);
            assert_eq!(limit, 100.0);
        }
        other => panic!("expected GradientExplosion, got {other:?}"),
    }
}

#[test]
fn infeasible_lambda_is_rejected_with_a_detail() {
    let mut w = Watchdog::new(WatchdogPolicy::default());
    assert_eq!(w.check(0.5, 1.0, Some(&[0.25, 0.75])), None);
    match w.check(0.5, 1.0, Some(&[0.6, 0.6])) {
        Some(Divergence::LambdaOutOfRange { detail }) => {
            assert!(
                detail.contains("Σλ"),
                "detail should name the sum: {detail}"
            );
        }
        other => panic!("expected LambdaOutOfRange, got {other:?}"),
    }
    // The predicate the trainer re-exports as `lambda_feasible` agrees.
    assert!(lambda_in_simplex(&[0.25, 0.75], 1e-3));
    assert!(!lambda_in_simplex(&[0.6, 0.6], 1e-3));
    assert!(!lambda_in_simplex(&[], 1e-3));
}

#[test]
fn every_divergence_code_is_namespaced_under_watchdog() {
    for d in [
        Divergence::NonFiniteLoss { loss: f64::NAN },
        Divergence::LossSpike {
            loss: 1.0,
            baseline: 0.1,
            factor: 5.0,
        },
        Divergence::GradientExplosion {
            grad_norm: 1e9,
            limit: 1e6,
        },
        Divergence::LambdaOutOfRange {
            detail: "Σλ = 2".to_owned(),
        },
    ] {
        assert!(d.code().starts_with("watchdog/"), "{}", d.code());
        assert!(!d.to_string().is_empty());
    }
}

#[test]
fn explosive_learning_rate_surfaces_as_err_not_panic() {
    // Adam moves each parameter roughly lr per step, so lr = 1e4 drives the
    // logits (and BCE loss) into watchdog territory within a few epochs.
    let ds = FairGraphDataset::generate(&DatasetSpec::nba().scaled(0.3), 5);
    let input = TrainInput {
        graph: &ds.graph,
        features: &ds.features,
        labels: &ds.labels,
        train: &ds.split.train,
        val: &ds.split.val,
    };
    let cfg = FairwosConfig {
        use_encoder: false,
        learning_rate: 1e4,
        ..FairwosConfig::fast(Backbone::Gcn)
    };
    let err: TrainError = FairwosTrainer::new(cfg)
        .fit(&input, 7)
        .expect_err("explosive learning rate must trip the watchdog");
    let d: &TrainingDiverged = err
        .divergence()
        .expect("a watchdog trip, not another error");
    assert_eq!(d.stage, 2);
    assert!(
        d.epoch < 1 + WatchdogConfig::default().window,
        "watchdog took {} epochs to notice",
        d.epoch
    );
    // The reason is one of the typed triggers and the error is a real
    // std::error::Error with full context in its message.
    assert!(d.reason.code().starts_with("watchdog/"));
    let msg = (&err as &dyn std::error::Error).to_string();
    assert!(msg.contains("stage 2"), "{msg}");
}

#[test]
fn watchdog_config_round_trips_and_matches_obs_defaults() {
    // The JSON-facing config is the obs-side policy, so thresholds
    // configured in JSON land unchanged in the watchdog.
    let policy: WatchdogPolicy = FairwosConfig::fast(Backbone::Gcn).watchdog;
    assert_eq!(policy, WatchdogPolicy::default());
    // Older serialized configs (no watchdog block) still deserialize.
    let legacy: FairwosConfig = fairwos_obs::json::from_str(&fairwos_obs::json::to_string(
        &FairwosConfig::fast(Backbone::Gcn),
    ))
    .expect("deserialize");
    assert_eq!(legacy.watchdog, WatchdogConfig::default());
}
