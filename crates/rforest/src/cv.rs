use sim_rt::pool::Pool;
use sim_rt::rng::{SimRng, SliceShuffle};
use sim_rt::ser::{Record, ToRecord};

use crate::{Dataset, ForestConfig, RandomForest};

/// Aggregate result of a cross-validation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CvReport {
    /// Mean top-1 accuracy across folds.
    pub top1: f64,
    /// Mean top-5 accuracy across folds.
    pub top5: f64,
    /// Number of folds evaluated.
    pub folds: usize,
}

impl ToRecord for CvReport {
    fn to_record(&self) -> Record {
        let mut r = Record::new();
        r.push("top1", self.top1)
            .push("top5", self.top5)
            .push("folds", self.folds);
        r
    }
}

/// Splits sample indices into `k` stratified folds: each fold receives a
/// proportional share of every class, so a fold never misses a class
/// entirely (important with 39 classes and modest trace counts).
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the dataset size.
///
/// # Examples
///
/// ```
/// use rforest::{stratified_k_fold, Dataset};
///
/// let d = Dataset::new(
///     vec![vec![0.0]; 10],
///     vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1],
/// )?;
/// let folds = stratified_k_fold(&d, 5, 42);
/// assert_eq!(folds.len(), 5);
/// for fold in &folds {
///     assert_eq!(fold.len(), 2); // one sample of each class
/// }
/// # Ok::<(), rforest::DatasetError>(())
/// ```
pub fn stratified_k_fold(data: &Dataset, k: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(k > 0, "fold count must be non-zero");
    assert!(k <= data.len(), "more folds than samples");
    let mut rng = SimRng::seed_from_u64(seed);
    // Bucket indices per class, shuffle within class, deal round-robin.
    let mut per_class: Vec<Vec<usize>> = vec![Vec::new(); data.n_classes()];
    for i in 0..data.len() {
        per_class[data.label_of(i)].push(i);
    }
    let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut next = 0usize;
    for bucket in &mut per_class {
        bucket.shuffle(&mut rng);
        for &i in bucket.iter() {
            folds[next % k].push(i);
            next += 1;
        }
    }
    folds
}

/// Runs the paper's evaluation protocol: `k`-fold stratified
/// cross-validation where each iteration trains a fresh forest on `k-1`
/// folds and tests on the held-out fold; reports mean top-1 and top-5
/// accuracy.
///
/// Each fold is an independent train/test job on `pool` (the forests
/// inside a fold train serially to avoid nested parallelism), and fold
/// accuracies are reduced in fold order, so the report is identical at
/// any thread count.
///
/// # Panics
///
/// Panics if `k < 2` or `k` exceeds the dataset size.
///
/// # Examples
///
/// ```
/// use rforest::{cross_validate, Dataset, ForestConfig};
/// use sim_rt::pool::Pool;
///
/// let mut features = Vec::new();
/// let mut labels = Vec::new();
/// for c in 0..3usize {
///     for i in 0..10 {
///         features.push(vec![c as f64 * 5.0 + (i as f64) * 0.01]);
///         labels.push(c);
///     }
/// }
/// let data = Dataset::new(features, labels)?;
/// let config = ForestConfig { n_trees: 10, ..ForestConfig::default() };
/// let report = cross_validate(&data, &config, 5, 1, Pool::global());
/// assert!(report.top1 > 0.9);
/// # Ok::<(), rforest::DatasetError>(())
/// ```
pub fn cross_validate(
    data: &Dataset,
    config: &ForestConfig,
    k: usize,
    seed: u64,
    pool: &Pool,
) -> CvReport {
    assert!(k >= 2, "cross-validation needs at least 2 folds");
    let folds = stratified_k_fold(data, k, seed);
    let fold_ids: Vec<usize> = (0..k).collect();
    let accuracies = pool.par_map(&fold_ids, |_, &test_fold| {
        let train_idx: Vec<usize> = folds
            .iter()
            .enumerate()
            .filter(|&(f, _)| f != test_fold)
            .flat_map(|(_, fold)| fold.iter().copied())
            .collect();
        let train = data.subset(&train_idx);
        let forest = RandomForest::fit(&train, config, &Pool::serial());
        let test = data.subset(&folds[test_fold]);
        (
            forest.top_k_accuracy(&test, 1),
            forest.top_k_accuracy(&test, 5),
        )
    });
    let (top1_sum, top5_sum) = accuracies
        .iter()
        .fold((0.0, 0.0), |(a1, a5), &(t1, t5)| (a1 + t1, a5 + t5));
    CvReport {
        top1: top1_sum / k as f64,
        top5: top5_sum / k as f64,
        folds: k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn labelled(n_classes: usize, per_class: usize) -> Dataset {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for c in 0..n_classes {
            for i in 0..per_class {
                features.push(vec![c as f64 * 10.0 + (i as f64 * 0.618).fract()]);
                labels.push(c);
            }
        }
        Dataset::new(features, labels).unwrap()
    }

    #[test]
    fn folds_partition_the_dataset() {
        let data = labelled(4, 10);
        let folds = stratified_k_fold(&data, 10, 7);
        let all: Vec<usize> = folds.iter().flatten().copied().collect();
        assert_eq!(all.len(), data.len());
        let unique: BTreeSet<usize> = all.iter().copied().collect();
        assert_eq!(unique.len(), data.len(), "no index may repeat");
    }

    #[test]
    fn folds_are_stratified() {
        let data = labelled(4, 20);
        let folds = stratified_k_fold(&data, 10, 3);
        for fold in &folds {
            let classes: BTreeSet<usize> = fold.iter().map(|&i| data.label_of(i)).collect();
            assert_eq!(classes.len(), 4, "every fold must contain every class");
        }
    }

    #[test]
    fn cross_validation_on_separable_data_is_near_perfect() {
        let data = labelled(5, 20);
        let config = ForestConfig {
            n_trees: 15,
            ..ForestConfig::default()
        };
        let report = cross_validate(&data, &config, 10, 0, Pool::global());
        assert_eq!(report.folds, 10);
        assert!(report.top1 > 0.95, "top1 {}", report.top1);
        assert!(report.top5 >= report.top1);
    }

    #[test]
    fn random_labels_give_chance_accuracy() {
        // Features carry no information about labels.
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..200usize {
            features.push(vec![(i as f64 * 0.618).fract()]);
            labels.push(i % 10);
        }
        let data = Dataset::new(features, labels).unwrap();
        let config = ForestConfig {
            n_trees: 10,
            ..ForestConfig::default()
        };
        let report = cross_validate(&data, &config, 5, 1, Pool::global());
        assert!(
            report.top1 < 0.35,
            "top1 {} should be near 0.1",
            report.top1
        );
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_fold_rejected() {
        let data = labelled(2, 5);
        let _ = cross_validate(&data, &ForestConfig::default(), 1, 0, Pool::global());
    }

    #[test]
    #[should_panic(expected = "more folds")]
    fn too_many_folds_rejected() {
        let data = labelled(2, 2);
        let _ = stratified_k_fold(&data, 10, 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let data = labelled(3, 10);
        assert_eq!(
            stratified_k_fold(&data, 5, 11),
            stratified_k_fold(&data, 5, 11)
        );
    }

    #[test]
    fn report_identical_at_any_thread_count() {
        let data = labelled(4, 10);
        let config = ForestConfig {
            n_trees: 6,
            ..ForestConfig::default()
        };
        let serial = cross_validate(&data, &config, 5, 2, &Pool::serial());
        for threads in [2, 8] {
            let parallel = cross_validate(&data, &config, 5, 2, &Pool::new(threads));
            assert_eq!(
                serial, parallel,
                "thread count {threads} changed the report"
            );
        }
    }
}
