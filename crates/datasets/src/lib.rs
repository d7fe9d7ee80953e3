//! Synthetic equivalents of the six fair-graph benchmarks used by the
//! Fairwos paper: Bail, Credit, Pokec-z, Pokec-n, NBA, and Occupation.
//!
//! # Why synthetic
//!
//! The original datasets cannot be redistributed (court records, credit
//! bureau data, scraped social networks). What the paper's *mechanism* needs
//! from a dataset is not the specific people in it but four structural
//! properties, all of which these generators control explicitly:
//!
//! 1. a **hidden binary sensitive attribute** `s` per node (never placed in
//!    the feature matrix — the paper's "without sensitive attributes"
//!    setting);
//! 2. **non-sensitive features correlated with `s`** (the "postal code"
//!    channel of the paper's running example) through which bias leaks;
//! 3. **sensitive homophily in the edges** (`s`-stratified SBM), through
//!    which message passing amplifies bias;
//! 4. a **label correlated with `s`** (different base rates), so a utility-
//!    optimal classifier is measurably unfair.
//!
//! Each preset in [`DatasetSpec`] matches the published statistics of its
//! namesake (Table I of the paper): node count, attribute dimensionality,
//! degree, sensitive-attribute semantics, and task. A `scale` parameter
//! shrinks node counts (preserving degree and dimensionality) so the full
//! Table II grid runs on CPU in minutes.
//!
//! ```
//! use fairwos_datasets::{DatasetSpec, FairGraphDataset};
//!
//! let spec = DatasetSpec::nba().scaled(1.0); // NBA is small enough to run full-size
//! let data = FairGraphDataset::generate(&spec, 42);
//! assert_eq!(data.num_nodes(), 403);
//! assert_eq!(data.features.cols(), 39);
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]

mod causal;
mod dataset;
pub mod loader;
mod spec;
mod split;
mod stats;

pub use causal::BiasModel;
pub use dataset::FairGraphDataset;
pub use loader::{load_from_text, ColumnRoles};
pub use spec::DatasetSpec;
pub use split::Split;
pub use stats::DatasetStats;

/// All six benchmark presets at the given node-count scale, in the order the
/// paper lists them (Table I).
///
/// Two floors keep the scaled-down grid well-posed: NBA always runs at its
/// true 403 nodes, and Occupation never drops below 600 nodes — with 768
/// attributes, fewer nodes than features makes every method degenerate,
/// which would measure rank deficiency rather than fairness.
pub fn all_benchmarks(scale: f64) -> Vec<DatasetSpec> {
    vec![
        DatasetSpec::bail().scaled(scale),
        DatasetSpec::credit().scaled(scale),
        DatasetSpec::pokec_z().scaled(scale),
        DatasetSpec::pokec_n().scaled(scale),
        DatasetSpec::nba(),
        DatasetSpec::occupation().scaled(scale.max(600.0 / 6951.0)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_returns_six_in_paper_order() {
        let specs = all_benchmarks(0.1);
        let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["bail", "credit", "pokec-z", "pokec-n", "nba", "occupation"]
        );
    }

    #[test]
    fn nba_is_never_scaled_down() {
        let specs = all_benchmarks(0.01);
        let nba = &specs[4];
        assert_eq!(nba.nodes, 403);
    }
}
