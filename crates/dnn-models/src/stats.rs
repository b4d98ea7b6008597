//! Zoo-wide statistics and inventory rendering.
//!
//! The fingerprinting evaluation reasons about the zoo in aggregate: how
//! spread out the per-family workloads are (spread is what makes models
//! separable), and what the victim suite looks like as a table. These
//! helpers back the bench output and give downstream users a quick
//! inventory API.

use std::collections::BTreeMap;

use crate::{Family, ModelArch};

/// Aggregate workload statistics for one architecture family.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyStats {
    /// The family.
    pub family: Family,
    /// Number of models.
    pub models: usize,
    /// Smallest per-inference MAC count in the family.
    pub min_gmacs: f64,
    /// Largest per-inference MAC count in the family.
    pub max_gmacs: f64,
    /// Mean model size in MB (int8 weights).
    pub mean_size_mb: f64,
}

/// Computes per-family aggregates over a model list.
///
/// # Examples
///
/// ```
/// use dnn_models::{stats::family_stats, zoo};
///
/// let stats = family_stats(zoo());
/// assert_eq!(stats.len(), 7);
/// let vgg = stats.iter().find(|s| s.family == dnn_models::Family::Vgg).unwrap();
/// assert_eq!(vgg.models, 4);
/// assert!(vgg.max_gmacs > vgg.min_gmacs);
/// ```
pub fn family_stats(models: &[ModelArch]) -> Vec<FamilyStats> {
    let mut buckets: BTreeMap<Family, Vec<&ModelArch>> = BTreeMap::new();
    for m in models {
        buckets.entry(m.family).or_default().push(m);
    }
    buckets
        .into_iter()
        .map(|(family, members)| {
            let gmacs: Vec<f64> = members
                .iter()
                .map(|m| m.total_macs() as f64 / 1e9)
                .collect();
            FamilyStats {
                family,
                models: members.len(),
                min_gmacs: gmacs.iter().copied().fold(f64::INFINITY, f64::min),
                max_gmacs: gmacs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                mean_size_mb: members.iter().map(|m| m.model_size_mb()).sum::<f64>()
                    / members.len() as f64,
            }
        })
        .collect()
}

/// Renders the zoo as a Markdown table (name, family, input, GMACs, MB).
///
/// # Examples
///
/// ```
/// use dnn_models::{stats::zoo_markdown, zoo};
///
/// let table = zoo_markdown(zoo());
/// assert!(table.starts_with("| model |"));
/// assert_eq!(table.lines().count(), 2 + 39);
/// ```
pub fn zoo_markdown(models: &[ModelArch]) -> String {
    let mut out = String::from("| model | family | input | GMACs | size (MB) |\n");
    out.push_str("|---|---|---|---|---|\n");
    for m in models {
        out.push_str(&format!(
            "| {} | {} | {} | {:.2} | {:.1} |\n",
            m.name,
            m.family,
            m.input,
            m.total_macs() as f64 / 1e9,
            m.model_size_mb(),
        ));
    }
    out
}

/// The spread of the zoo's mean workloads: max/min total MACs across all
/// models. A large ratio is why even a 1-feature classifier (mean current)
/// gets most models right.
///
/// Returns `None` for an empty list.
pub fn workload_spread(models: &[ModelArch]) -> Option<f64> {
    let gmacs: Vec<f64> = models.iter().map(|m| m.total_macs() as f64).collect();
    let min = gmacs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = gmacs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (min > 0.0 && min.is_finite()).then(|| max / min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn family_counts_match_zoo() {
        let stats = family_stats(zoo());
        let total: usize = stats.iter().map(|s| s.models).sum();
        assert_eq!(total, 39);
        for s in &stats {
            assert!(s.min_gmacs > 0.0);
            assert!(s.max_gmacs >= s.min_gmacs);
            assert!(s.mean_size_mb > 0.0);
        }
    }

    #[test]
    fn markdown_table_rows() {
        let table = zoo_markdown(zoo());
        assert!(table.contains("| resnet-50 | ResNet | 224 |"));
        assert!(table.contains("| vgg-19 |"));
    }

    #[test]
    fn workload_spread_is_wide() {
        let spread = workload_spread(zoo()).unwrap();
        // MobileNet-0.25 to VGG-19 span >100x of compute.
        assert!(spread > 50.0, "spread {spread}");
        assert_eq!(workload_spread(&[]), None);
    }

    #[test]
    fn empty_input_yields_empty_outputs() {
        assert!(family_stats(&[]).is_empty());
        assert_eq!(zoo_markdown(&[]).lines().count(), 2);
    }
}
