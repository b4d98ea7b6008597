//! Victim workload classification (cf. Gobulukoglu et al., DAC'21,
//! "Classifying Computations on Multi-Tenant FPGAs" — but circuit-free).
//!
//! Before mounting a targeted attack, a reconnaissance step asks: *what
//! kind of circuit is the fabric running right now?* This module
//! classifies the victim's workload class — idle fabric, power-virus
//! stress, RSA encryption, DPU inference, covert transmission — from a
//! short unprivileged hwmon capture. The prior art needed a co-resident
//! sensor circuit for this; AmpereBleed does it with a file read.

use fpga_fabric::covert::CovertConfig;
use fpga_fabric::rsa::{RsaConfig, RsaKey};
use fpga_fabric::virus::VirusConfig;
use rforest::{Dataset, ForestConfig, RandomForest};
use sim_rt::Pool;
use trace_stats::features::feature_vector;
use zynq_soc::{PowerDomain, SimTime};

use dpu::DpuConfig;

use crate::{AttackError, Channel, CurrentSampler, Platform, Result, Trace};

/// The workload classes the reconnaissance step distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkloadClass {
    /// Nothing deployed beyond the platform's base bitstream.
    Idle,
    /// Power-virus stress activity.
    PowerVirus,
    /// RSA-1024 encryption loop.
    Rsa,
    /// DPU DNN inference loop.
    DpuInference,
    /// Covert-channel transmission.
    CovertTx,
}

impl WorkloadClass {
    /// All classes.
    pub const ALL: [WorkloadClass; 5] = [
        WorkloadClass::Idle,
        WorkloadClass::PowerVirus,
        WorkloadClass::Rsa,
        WorkloadClass::DpuInference,
        WorkloadClass::CovertTx,
    ];
}

impl std::fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WorkloadClass::Idle => "idle",
            WorkloadClass::PowerVirus => "power-virus",
            WorkloadClass::Rsa => "rsa-1024",
            WorkloadClass::DpuInference => "dpu-inference",
            WorkloadClass::CovertTx => "covert-tx",
        };
        f.write_str(s)
    }
}

/// Parameters of the reconnaissance classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Labelled traces per class in the profiling phase.
    pub traces_per_class: usize,
    /// Capture length per trace, seconds.
    pub capture_seconds: f64,
    /// Feature resample length.
    pub resample_len: usize,
    /// Classifier configuration.
    pub forest: ForestConfig,
    /// Experiment seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            traces_per_class: 10,
            capture_seconds: 2.0,
            resample_len: 48,
            forest: ForestConfig {
                n_trees: 50,
                ..ForestConfig::default()
            },
            seed: 41,
        }
    }
}

/// A trained workload classifier.
#[derive(Debug, Clone)]
pub struct WorkloadClassifier {
    forest: RandomForest,
    resample_len: usize,
}

/// Result of profiling + hold-out evaluation.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// The trained classifier.
    pub classifier: WorkloadClassifier,
    /// Hold-out accuracy over all classes.
    pub holdout_accuracy: f64,
}

/// Builds a platform running the given workload class.
fn platform_running(class: WorkloadClass, seed: u64) -> Result<Platform> {
    let mut platform = Platform::zcu102(seed);
    match class {
        WorkloadClass::Idle => {}
        WorkloadClass::PowerVirus => {
            let virus = platform.deploy_virus(VirusConfig::default())?;
            // A plausible stress level, varied per capture.
            let level = 40 + (zynq_soc::hash01(seed, 11, 0) * 80.0) as u32;
            virus
                .activate_groups(level)
                .map_err(|e| AttackError::InvalidParameter(e.to_string()))?;
        }
        WorkloadClass::Rsa => {
            let hw = 1 + (zynq_soc::hash01(seed, 12, 0) * 1023.0) as u32;
            let key = RsaKey::with_hamming_weight(hw, seed)
                .map_err(|e| AttackError::InvalidParameter(e.to_string()))?;
            platform.deploy_rsa(RsaConfig::default(), key)?;
        }
        WorkloadClass::DpuInference => {
            let dpu = platform.deploy_dpu(DpuConfig::default())?;
            let models = dnn_models::zoo();
            let pick = (zynq_soc::hash01(seed, 13, 0) * models.len() as f64) as usize;
            dpu.load_model(&models[pick.min(models.len() - 1)]);
        }
        WorkloadClass::CovertTx => {
            let byte = (zynq_soc::hash01(seed, 14, 0) * 255.0) as u8;
            platform.deploy_covert_transmitter(CovertConfig::default(), &[byte, !byte])?;
        }
    }
    Ok(platform)
}

fn capture(platform: &Platform, config: &WorkloadConfig, start: SimTime) -> Result<Trace> {
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

/// Profiles every workload class, trains the classifier, and evaluates on
/// held-out captures.
///
/// # Errors
///
/// Propagates deployment, capture, feature and dataset errors.
pub fn run(config: &WorkloadConfig) -> Result<WorkloadReport> {
    let (forest, holdout_accuracy) = fit_with_holdout(
        WorkloadClass::ALL.len(),
        config.traces_per_class,
        &config.forest,
        |label, rep| {
            let seed = config
                .seed
                .wrapping_mul(97)
                .wrapping_add((label * 1_000 + rep) as u64);
            let platform = platform_running(WorkloadClass::ALL[label], seed)?;
            let start = SimTime::from_ms(40 + (zynq_soc::hash01(seed, 15, 0) * 500.0) as u64);
            let trace = capture(&platform, config, start)?;
            Ok(feature_vector(&trace.samples, config.resample_len)?)
        },
    )?;
    Ok(WorkloadReport {
        holdout_accuracy,
        classifier: WorkloadClassifier {
            forest,
            resample_len: config.resample_len,
        },
    })
}

/// Captures `reps + 1` feature vectors for each of `classes` labels on
/// the global pool, fits a forest on the first `reps` of every label and
/// scores it on the last one. `capture(label, rep)` must be a pure
/// function of its indices: the vectors fold back in job order, so the
/// forest and its accuracy are identical at any pool width.
pub(crate) fn fit_with_holdout<F>(
    classes: usize,
    reps: usize,
    forest: &ForestConfig,
    capture: F,
) -> Result<(RandomForest, f64)>
where
    F: Fn(usize, usize) -> Result<Vec<f64>> + Sync,
{
    let jobs: Vec<(usize, usize)> = (0..classes)
        .flat_map(|label| (0..=reps).map(move |rep| (label, rep)))
        .collect();
    let captured = Pool::global().par_map(&jobs, |_, &(label, rep)| capture(label, rep));
    let mut features = Vec::with_capacity(classes * reps);
    let mut labels = Vec::with_capacity(classes * reps);
    let mut holdout = Vec::with_capacity(classes);
    for (&(label, rep), f) in jobs.iter().zip(captured) {
        if rep == reps {
            holdout.push((f?, label));
        } else {
            features.push(f?);
            labels.push(label);
        }
    }
    let dataset =
        Dataset::new(features, labels).map_err(|e| AttackError::InvalidParameter(e.to_string()))?;
    let forest = RandomForest::fit(&dataset, forest);
    let correct = holdout
        .iter()
        .filter(|(f, label)| forest.predict(f) == *label)
        .count();
    Ok((forest, correct as f64 / holdout.len() as f64))
}

impl WorkloadClassifier {
    /// Classifies an online capture.
    ///
    /// # Errors
    ///
    /// Propagates feature extraction errors.
    pub fn identify(&self, trace: &Trace) -> Result<WorkloadClass> {
        let f = feature_vector(&trace.samples, self.resample_len)?;
        let label = self.forest.predict(&f).min(WorkloadClass::ALL.len() - 1);
        Ok(WorkloadClass::ALL[label])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_classes_are_distinguishable() {
        let config = WorkloadConfig {
            traces_per_class: 6,
            capture_seconds: 1.5,
            ..WorkloadConfig::default()
        };
        let report = run(&config).unwrap();
        assert!(
            report.holdout_accuracy >= 0.8,
            "reconnaissance accuracy {} (chance 0.2)",
            report.holdout_accuracy
        );
    }

    #[test]
    fn online_identification_of_rsa() {
        let config = WorkloadConfig {
            traces_per_class: 6,
            capture_seconds: 1.5,
            ..WorkloadConfig::default()
        };
        let report = run(&config).unwrap();
        let platform = platform_running(WorkloadClass::Rsa, 0x5A5A).unwrap();
        let trace = capture(&platform, &config, SimTime::from_ms(40)).unwrap();
        assert_eq!(
            report.classifier.identify(&trace).unwrap(),
            WorkloadClass::Rsa
        );
    }

    #[test]
    fn class_display() {
        assert_eq!(WorkloadClass::DpuInference.to_string(), "dpu-inference");
        assert_eq!(WorkloadClass::ALL.len(), 5);
    }
}
