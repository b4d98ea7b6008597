use sim_rt::pool::Pool;
use sim_rt::rng::{derive_seed, SimRng};

use crate::tree::bootstrap_indices;
use crate::{Dataset, DecisionTree, TreeConfig};

/// Configuration of a [`RandomForest`].
///
/// The default matches the paper's classifier: 100 trees, depth 32, Gini
/// impurity, bootstrap sampling, sqrt(d) features per split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestConfig {
    /// Number of trees (paper: 100).
    pub n_trees: usize,
    /// Maximum depth per tree (paper: 32).
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Use bootstrap resampling per tree (paper: yes).
    pub bootstrap: bool,
    /// Master seed.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 100,
            max_depth: 32,
            min_samples_split: 2,
            bootstrap: true,
            seed: 0x5EED,
        }
    }
}

/// A bagged ensemble of Gini-split decision trees.
///
/// # Examples
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    /// Trains the ensemble, building trees in parallel on `pool`.
    ///
    /// Each tree's training and bootstrap seeds are derived up front from
    /// `config.seed` and the tree index, so the resulting forest is
    /// identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `config.n_trees` is zero.
    pub fn fit(data: &Dataset, config: &ForestConfig, pool: &Pool) -> Self {
        assert!(config.n_trees > 0, "forest needs at least one tree");
        let _span = obs::span!("rforest.forest", "fit");
        obs::counter!("rforest.fits").inc();
        let tree_config = TreeConfig {
            max_depth: config.max_depth,
            min_samples_split: config.min_samples_split,
            features_per_split: Some((data.n_features() as f64).sqrt().ceil() as usize),
        };
        let seeds: Vec<(u64, u64)> = (0..config.n_trees as u64)
            .map(|t| {
                (
                    derive_seed(config.seed, 2 * t),
                    derive_seed(config.seed, 2 * t + 1),
                )
            })
            .collect();
        let trees = pool.par_map(&seeds, |_, &(tree_seed, bootstrap_seed)| {
            if config.bootstrap {
                let mut rng = SimRng::seed_from_u64(bootstrap_seed);
                let idx = bootstrap_indices(data.len(), &mut rng);
                let sample = data.subset(&idx);
                DecisionTree::fit(&sample, &tree_config, tree_seed)
            } else {
                DecisionTree::fit(data, &tree_config, tree_seed)
            }
        });
        RandomForest {
            trees,
            n_classes: data.n_classes(),
        }
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Per-class vote tally across all trees (each tree votes once, for
    /// its leaf's majority class).
    ///
    /// # Panics
    ///
    /// Panics if `x` has fewer features than the training data.
    pub fn votes(&self, x: &[f64]) -> Vec<u32> {
        let mut votes = vec![0u32; self.n_classes];
        for tree in &self.trees {
            votes[tree.predict(x)] += 1;
        }
        votes
    }

    /// Predicted class (majority vote; ties break to the lower class id).
    pub fn predict(&self, x: &[f64]) -> usize {
        let votes = self.votes(x);
        votes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &v)| v)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// The `k` classes with the most votes, most-voted first.
    pub fn top_k(&self, x: &[f64], k: usize) -> Vec<usize> {
        let votes = self.votes(x);
        let mut order: Vec<usize> = (0..votes.len()).collect();
        order.sort_by(|&a, &b| votes[b].cmp(&votes[a]).then(a.cmp(&b)));
        order.truncate(k);
        order
    }

    /// Whether `label` is among the top-`k` predictions for `x` — the
    /// metric of Table III's second rows.
    pub fn top_k_contains(&self, x: &[f64], label: usize, k: usize) -> bool {
        self.top_k(x, k).contains(&label)
    }

    /// Classification accuracy over a labelled dataset.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        let correct = (0..data.len())
            .filter(|&i| self.predict(data.features_of(i)) == data.label_of(i))
            .count();
        correct as f64 / data.len() as f64
    }

    /// Top-`k` accuracy over a labelled dataset.
    pub fn top_k_accuracy(&self, data: &Dataset, k: usize) -> f64 {
        let correct = (0..data.len())
            .filter(|&i| self.top_k_contains(data.features_of(i), data.label_of(i), k))
            .count();
        correct as f64 / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n_classes: usize, per_class: usize, spread: f64) -> Dataset {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for c in 0..n_classes {
            for i in 0..per_class {
                let w1 = ((i * 7 + c) as f64 * 0.618).fract() * spread;
                let w2 = ((i * 13 + c) as f64 * 0.414).fract() * spread;
                features.push(vec![c as f64 * 10.0 + w1, c as f64 * 10.0 + w2]);
                labels.push(c);
            }
        }
        Dataset::new(features, labels).unwrap()
    }

    #[test]
    fn separable_blobs_are_classified() {
        let data = blobs(4, 20, 1.0);
        let forest = RandomForest::fit(
            &data,
            &ForestConfig {
                n_trees: 20,
                ..ForestConfig::default()
            },
            Pool::global(),
        );
        assert_eq!(forest.accuracy(&data), 1.0);
        assert_eq!(forest.n_classes(), 4);
        assert_eq!(forest.n_trees(), 20);
    }

    #[test]
    fn votes_sum_to_tree_count() {
        let data = blobs(3, 10, 1.0);
        let forest = RandomForest::fit(
            &data,
            &ForestConfig {
                n_trees: 15,
                ..ForestConfig::default()
            },
            Pool::global(),
        );
        let votes = forest.votes(&[0.0, 0.0]);
        assert_eq!(votes.iter().sum::<u32>(), 15);
    }

    #[test]
    fn top_k_ordering_and_membership() {
        let data = blobs(5, 15, 1.0);
        let forest = RandomForest::fit(
            &data,
            &ForestConfig {
                n_trees: 25,
                ..ForestConfig::default()
            },
            Pool::global(),
        );
        let x = data.features_of(0);
        let top = forest.top_k(x, 3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0], forest.predict(x));
        assert!(forest.top_k_contains(x, data.label_of(0), 1));
        // Top-5 over 5 classes always contains the label.
        assert!(forest.top_k_contains(x, 4, 5));
    }

    #[test]
    fn top_k_accuracy_dominates_top_1() {
        let data = blobs(6, 8, 6.0); // noisy blobs
        let forest = RandomForest::fit(
            &data,
            &ForestConfig {
                n_trees: 10,
                max_depth: 3,
                ..ForestConfig::default()
            },
            Pool::global(),
        );
        let top1 = forest.top_k_accuracy(&data, 1);
        let top5 = forest.top_k_accuracy(&data, 5);
        assert!(top5 >= top1);
        assert_eq!(top1, forest.accuracy(&data));
    }

    #[test]
    fn deterministic_under_seed() {
        let data = blobs(3, 12, 1.0);
        let config = ForestConfig {
            n_trees: 8,
            seed: 99,
            ..ForestConfig::default()
        };
        let a = RandomForest::fit(&data, &config, Pool::global());
        let b = RandomForest::fit(&data, &config, Pool::global());
        assert_eq!(a, b);
    }

    #[test]
    fn identical_at_any_thread_count() {
        let data = blobs(3, 12, 1.0);
        let config = ForestConfig {
            n_trees: 12,
            seed: 7,
            ..ForestConfig::default()
        };
        let serial = RandomForest::fit(&data, &config, &Pool::serial());
        for threads in [2, 8] {
            let parallel = RandomForest::fit(&data, &config, &Pool::new(threads));
            assert_eq!(
                serial, parallel,
                "thread count {threads} changed the forest"
            );
        }
    }

    #[test]
    fn without_bootstrap_trees_see_all_data() {
        let data = blobs(2, 10, 1.0);
        let forest = RandomForest::fit(
            &data,
            &ForestConfig {
                n_trees: 5,
                bootstrap: false,
                ..ForestConfig::default()
            },
            Pool::global(),
        );
        assert_eq!(forest.accuracy(&data), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_rejected() {
        let data = blobs(2, 5, 1.0);
        let _ = RandomForest::fit(
            &data,
            &ForestConfig {
                n_trees: 0,
                ..ForestConfig::default()
            },
            Pool::global(),
        );
    }
}
