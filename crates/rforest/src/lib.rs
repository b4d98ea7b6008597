//! From-scratch random-forest classifier.
//!
//! The fingerprinting attack of Table III is "essentially a classification
//! task with straightforward features", evaluated with a random forest of
//! 100 trees, maximum depth 32, Gini impurity splits, bootstrap sampling,
//! and 10-fold cross-validation. This crate implements exactly that
//! pipeline so the reproduction has no Python/scikit-learn dependency:
//!
//! * [`Dataset`] — labelled feature vectors with validation.
//! * [`DecisionTree`] — CART trees split on Gini impurity.
//! * [`RandomForest`] — bagged ensemble with feature subsampling and
//!   majority voting; exposes vote counts for top-k scoring.
//! * [`stratified_k_fold`] / [`cross_validate`] — the 10-fold evaluation
//!   protocol (9 folds train, 1 fold test, rotating).
//!
//! # Examples
//!
//! ```
//! use rforest::{Dataset, ForestConfig, RandomForest};
//! use sim_rt::pool::Pool;
//!
//! // Two trivially separable classes.
//! let features = vec![
//!     vec![0.0, 0.1], vec![0.2, 0.0], vec![0.1, 0.2],
//!     vec![5.0, 5.1], vec![5.2, 5.0], vec![5.1, 5.2],
//! ];
//! let labels = vec![0, 0, 0, 1, 1, 1];
//! let data = Dataset::new(features, labels)?;
//! let forest = RandomForest::fit(&data, &ForestConfig::default(), Pool::global());
//! assert_eq!(forest.predict(&[0.05, 0.05]), 0);
//! assert_eq!(forest.predict(&[5.05, 5.05]), 1);
//! # Ok::<(), rforest::DatasetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cv;
mod dataset;
mod forest;
mod tree;

pub use cv::{cross_validate, stratified_k_fold, CvReport};
pub use dataset::{Dataset, DatasetError};
pub use forest::{ForestConfig, RandomForest};
pub use tree::{DecisionTree, TreeConfig};
