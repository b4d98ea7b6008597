//! TEE workload inference (the paper's future-work question, answered).
//!
//! Section V asks "whether these INA226 sensors could be exploited to
//! attack trusted execution environments (TEEs) implemented on FPGA".
//! This module mounts that attack on the simulated platform: an SGX-FPGA
//! style enclave ([`fpga_fabric::enclave`]) executes confidential tasks
//! behind logical isolation, and an unprivileged observer classifies which
//! task runs from nothing but hwmon current traces.

use fpga_fabric::enclave::EnclaveTask;
use rforest::{ForestConfig, RandomForest};
use trace_stats::features::feature_vector;
use zynq_soc::{PowerDomain, SimTime};

use crate::workload::fit_with_holdout;
use crate::{Channel, CurrentSampler, Platform, Result, Trace};

/// Parameters of the TEE workload-inference attack.
#[derive(Debug, Clone, PartialEq)]
pub struct TeeAttackConfig {
    /// Labelled traces collected per task in the profiling phase.
    pub traces_per_task: usize,
    /// Capture length per trace, seconds.
    pub capture_seconds: f64,
    /// Feature resample length.
    pub resample_len: usize,
    /// Classifier configuration.
    pub forest: ForestConfig,
    /// Experiment seed.
    pub seed: u64,
}

impl Default for TeeAttackConfig {
    fn default() -> Self {
        TeeAttackConfig {
            traces_per_task: 12,
            capture_seconds: 2.0,
            resample_len: 48,
            forest: ForestConfig {
                n_trees: 50,
                ..ForestConfig::default()
            },
            seed: 23,
        }
    }
}

/// A trained enclave-task classifier.
#[derive(Debug, Clone)]
pub struct TeeClassifier {
    forest: RandomForest,
    resample_len: usize,
}

/// Result of profiling + self-evaluation.
#[derive(Debug, Clone)]
pub struct TeeAttackReport {
    /// The trained classifier (usable online afterwards).
    pub classifier: TeeClassifier,
    /// Hold-out accuracy over all task types.
    pub holdout_accuracy: f64,
}

fn capture_task_trace(
    platform: &Platform,
    config: &TeeAttackConfig,
    start: SimTime,
) -> Result<Trace> {
    let rate_hz = 1_000.0 / 35.0;
    let count = (config.capture_seconds * rate_hz).ceil() as usize;
    CurrentSampler::unprivileged(platform).capture(
        PowerDomain::FpgaLogic,
        Channel::Current,
        start,
        rate_hz,
        count,
    )
}

/// Profiles every [`EnclaveTask`] on fresh platforms, trains a classifier,
/// and evaluates it on held-out captures.
///
/// # Errors
///
/// Propagates deployment, capture, feature and dataset errors.
pub fn run(config: &TeeAttackConfig) -> Result<TeeAttackReport> {
    let (forest, holdout_accuracy) = fit_with_holdout(
        EnclaveTask::ALL.len(),
        config.traces_per_task,
        &config.forest,
        |label, rep| {
            let seed = config
                .seed
                .wrapping_mul(31)
                .wrapping_add((label * 100 + rep) as u64);
            let mut platform = Platform::zcu102(seed);
            let enclave = platform.deploy_enclave()?;
            enclave.run(EnclaveTask::ALL[label]);
            let start = SimTime::from_ms(40 + (zynq_soc::hash01(seed, 8, 0) * 300.0) as u64);
            let trace = capture_task_trace(&platform, config, start)?;
            Ok(feature_vector(&trace.samples, config.resample_len)?)
        },
    )?;
    Ok(TeeAttackReport {
        classifier: TeeClassifier {
            forest,
            resample_len: config.resample_len,
        },
        holdout_accuracy,
    })
}

impl TeeClassifier {
    /// Classifies an online capture of the enclave's FPGA current.
    ///
    /// # Errors
    ///
    /// Propagates feature extraction errors (e.g. an empty trace).
    pub fn identify(&self, trace: &Trace) -> Result<EnclaveTask> {
        let f = feature_vector(&trace.samples, self.resample_len)?;
        Ok(EnclaveTask::ALL[self.forest.predict(&f).min(EnclaveTask::ALL.len() - 1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enclave_tasks_are_classifiable() {
        let config = TeeAttackConfig {
            traces_per_task: 6,
            capture_seconds: 1.0,
            ..TeeAttackConfig::default()
        };
        let report = run(&config).unwrap();
        assert!(
            report.holdout_accuracy >= 0.8,
            "TEE inference accuracy {} (chance 0.2)",
            report.holdout_accuracy
        );
    }

    #[test]
    fn online_identification_of_specific_task() {
        let config = TeeAttackConfig {
            traces_per_task: 6,
            capture_seconds: 1.0,
            ..TeeAttackConfig::default()
        };
        let report = run(&config).unwrap();

        let mut platform = Platform::zcu102(0xEE);
        let enclave = platform.deploy_enclave().unwrap();
        enclave.run(EnclaveTask::MatMul);
        let trace = capture_task_trace(&platform, &config, SimTime::from_ms(40)).unwrap();
        assert_eq!(
            report.classifier.identify(&trace).unwrap(),
            EnclaveTask::MatMul
        );
    }

    #[test]
    fn mitigation_blocks_tee_attack() {
        let mut platform = Platform::zcu102(0xEF);
        let enclave = platform.deploy_enclave().unwrap();
        enclave.run(EnclaveTask::Signature);
        crate::mitigation::restrict_all_sensors(&mut platform).unwrap();
        let config = TeeAttackConfig::default();
        assert!(capture_task_trace(&platform, &config, SimTime::from_ms(40)).is_err());
    }
}
