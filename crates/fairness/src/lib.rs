//! Utility and fairness metrics for binary node classification.
//!
//! Implements the evaluation protocol of the Fairwos paper (§V-A2):
//! accuracy for utility, and statistical parity / equal opportunity gaps for
//! fairness (Eq. 43–44), all computed on the test split where the sensitive
//! attribute is revealed. Also provides mean±std aggregation over repeated
//! runs (every number in Table II is a 10-run mean ± std).

#![warn(clippy::unwrap_used, clippy::expect_used)]

mod aggregate;
mod calibration;
mod metrics;

pub use aggregate::{MeanStd, RunAggregator};
pub use calibration::{expected_calibration_error, group_reports, GroupReport, ReliabilityBin};
pub use metrics::{
    accuracy, auc_roc, counterfactual_consistency, delta_eo, delta_sp, f1_score, group_confusion,
    EvalReport, GroupConfusion,
};

#[cfg(test)]
mod tests {
    // Crate-level integration of the two halves: aggregate a few eval
    // reports the way the Table II harness does.
    use super::*;

    #[test]
    fn aggregating_eval_reports() {
        let mut acc = RunAggregator::new();
        for (a, sp) in [(0.8, 0.1), (0.9, 0.2), (0.85, 0.15)] {
            acc.push("acc", a);
            acc.push("delta_sp", sp);
        }
        let m = acc.mean_std("acc").unwrap();
        assert!((m.mean - 0.85).abs() < 1e-9);
        assert!(acc.mean_std("delta_sp").unwrap().std > 0.0);
        assert!(acc.mean_std("missing").is_none());
    }
}
