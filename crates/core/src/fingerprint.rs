//! DPU model-fingerprinting attack (Figure 3 and Table III).
//!
//! Threat model: an encrypted DPU accelerator executes one of 39 known
//! image-recognition architectures; the attacker triggers inference and
//! concurrently samples hwmon traces, then classifies which architecture
//! ran. The attack has an **offline** phase (collect labelled traces on an
//! identical board, train one random forest per sensor channel) and an
//! **online** phase (capture one trace of the black-box accelerator and
//! classify it).
//!
//! Expected Table III shape: the FPGA *current* channel is the strongest
//! (paper: 99.7% top-1 over 39 classes, 2.56% chance), power is close
//! behind, DRAM and full-power-CPU currents are strong, low-power-CPU
//! current is moderate, and FPGA *voltage* is barely above chance.

use dnn_models::ModelArch;
use rforest::{cross_validate, CvReport, Dataset, ForestConfig, RandomForest};
use sim_rt::pool::Pool;
use trace_stats::features::feature_vector;
use zynq_soc::{PowerDomain, SimTime};

use dpu::DpuConfig;

use crate::defend::Hardener;
use crate::{AttackError, Channel, CurrentSampler, Platform, Result, Trace};

/// One sensor/channel combination — a row of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SensorChannel {
    /// Monitored power domain.
    pub domain: PowerDomain,
    /// Measurement channel.
    pub channel: Channel,
}

impl std::fmt::Display for SensorChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.channel, self.domain)
    }
}

/// The six rows of Table III, in the paper's order.
pub const TABLE3_CHANNELS: [SensorChannel; 6] = [
    SensorChannel {
        domain: PowerDomain::FullPowerCpu,
        channel: Channel::Current,
    },
    SensorChannel {
        domain: PowerDomain::LowPowerCpu,
        channel: Channel::Current,
    },
    SensorChannel {
        domain: PowerDomain::Ddr,
        channel: Channel::Current,
    },
    SensorChannel {
        domain: PowerDomain::FpgaLogic,
        channel: Channel::Current,
    },
    SensorChannel {
        domain: PowerDomain::FpgaLogic,
        channel: Channel::Voltage,
    },
    SensorChannel {
        domain: PowerDomain::FpgaLogic,
        channel: Channel::Power,
    },
];

/// Parameters of the fingerprinting experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct FingerprintConfig {
    /// Labelled traces collected per model in the offline phase.
    pub traces_per_model: usize,
    /// Capture length in seconds (paper: 5 s full-length).
    pub capture_seconds: f64,
    /// Fixed feature length traces are resampled to.
    pub resample_len: usize,
    /// Classifier configuration (paper: 100 trees, depth 32).
    pub forest: ForestConfig,
    /// Cross-validation folds (paper: 10).
    pub folds: usize,
    /// Experiment seed.
    pub seed: u64,
}

impl Default for FingerprintConfig {
    fn default() -> Self {
        FingerprintConfig {
            traces_per_model: 15,
            capture_seconds: 5.0,
            resample_len: 96,
            forest: ForestConfig::default(),
            folds: 10,
            seed: 7,
        }
    }
}

impl FingerprintConfig {
    /// A reduced configuration for fast tests.
    pub fn quick() -> Self {
        FingerprintConfig {
            traces_per_model: 6,
            capture_seconds: 2.0,
            resample_len: 32,
            forest: ForestConfig {
                n_trees: 25,
                ..ForestConfig::default()
            },
            folds: 3,
            seed: 7,
        }
    }

    /// Checks the experiment parameters before any capture starts.
    ///
    /// # Errors
    ///
    /// [`AttackError::InvalidParameter`] for zero trace counts, a
    /// non-positive/non-finite capture length, a zero resample length, or
    /// fewer than two cross-validation folds.
    pub fn validate(&self) -> Result<()> {
        if self.traces_per_model == 0 {
            return Err(AttackError::InvalidParameter(
                "traces_per_model must be non-zero".into(),
            ));
        }
        if !self.capture_seconds.is_finite() || self.capture_seconds <= 0.0 {
            return Err(AttackError::InvalidParameter(format!(
                "capture length {} s is out of range",
                self.capture_seconds
            )));
        }
        if self.resample_len == 0 {
            return Err(AttackError::InvalidParameter(
                "resample_len must be non-zero".into(),
            ));
        }
        if self.folds < 2 {
            return Err(AttackError::InvalidParameter(
                "cross-validation needs at least two folds".into(),
            ));
        }
        Ok(())
    }
}

/// One labelled capture: all six Table III channels recorded while a known
/// model ran for the capture window.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelCapture {
    /// Index into the model list used for collection.
    pub label: usize,
    /// Model name.
    pub model_name: String,
    /// One trace per [`TABLE3_CHANNELS`] entry, same order.
    pub traces: Vec<Trace>,
}

/// Collects the offline trace corpus: for each model, `traces_per_model`
/// runs on fresh platform instances (fresh noise seeds model run-to-run
/// variation), sampling all six channels at the sensor's natural 35 ms
/// update cadence. Captures are spread across `pool`; `harden` runs on
/// each fresh per-capture platform after the victim model loads and
/// before the attacker samples ([`UNDEFENDED`](crate::defend::UNDEFENDED)
/// for the plain attack).
///
/// Each `(model, repetition)` capture derives its platform seed purely
/// from the campaign seed and its own indices, so the corpus is
/// byte-identical at any thread count.
///
/// # Errors
///
/// Propagates platform deployment and capture errors, plus whatever
/// `harden` returns.
pub fn collect_corpus(
    models: &[&ModelArch],
    config: &FingerprintConfig,
    pool: &Pool,
    harden: Hardener<'_>,
) -> Result<Vec<ModelCapture>> {
    if models.is_empty() {
        return Err(AttackError::InvalidParameter("no victim models".into()));
    }
    config.validate()?;
    let rate_hz = 1_000.0 / 35.0;
    let count = (config.capture_seconds * rate_hz).ceil() as usize;
    let jobs: Vec<(usize, usize)> = (0..models.len())
        .flat_map(|label| (0..config.traces_per_model).map(move |rep| (label, rep)))
        .collect();
    pool.par_map(&jobs, |_, &(label, rep)| -> Result<ModelCapture> {
        let model = models[label];
        let seed = config
            .seed
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add((label * 1_000 + rep) as u64);
        let mut platform = Platform::zcu102(seed);
        let dpu = platform.deploy_dpu(DpuConfig::default())?;
        dpu.load_model(model);
        harden(&mut platform)?;
        let sampler = CurrentSampler::unprivileged(&platform);
        // The attacker's capture starts at an arbitrary phase of the
        // victim's inference loop.
        let start = SimTime::from_ms(40 + (zynq_soc::hash01(seed, 9, 0) * 400.0) as u64);
        let traces = TABLE3_CHANNELS
            .iter()
            .map(|sc| sampler.capture(sc.domain, sc.channel, start, rate_hz, count))
            .collect::<Result<Vec<Trace>>>()?;
        Ok(ModelCapture {
            label,
            model_name: model.name.clone(),
            traces,
        })
    })
    .into_iter()
    .collect()
}

/// Builds the classification dataset for one channel and capture duration
/// from a collected corpus.
///
/// # Errors
///
/// Returns [`AttackError::InvalidParameter`] if the channel is not one of
/// [`TABLE3_CHANNELS`], and propagates dataset/feature errors.
pub fn build_dataset(
    corpus: &[ModelCapture],
    channel: SensorChannel,
    duration_s: f64,
    resample_len: usize,
) -> Result<Dataset> {
    let idx = TABLE3_CHANNELS
        .iter()
        .position(|&sc| sc == channel)
        .ok_or_else(|| AttackError::InvalidParameter(format!("unknown channel {channel}")))?;
    let mut features = Vec::with_capacity(corpus.len());
    let mut labels = Vec::with_capacity(corpus.len());
    for capture in corpus {
        let trace = &capture.traces[idx];
        let prefix = trace.prefix_seconds(duration_s);
        features.push(feature_vector(prefix, resample_len)?);
        labels.push(capture.label);
    }
    Dataset::new(features, labels).map_err(|e| AttackError::InvalidParameter(e.to_string()))
}

/// Builds a *fused* dataset concatenating the feature vectors of several
/// channels per capture — the attacker reads all four sensors anyway, so
/// combining them is free and (like any view fusion) can only add
/// information. This extends Table III with an "all sensors" row.
///
/// # Errors
///
/// Returns [`AttackError::InvalidParameter`] for an empty channel list or
/// unknown channels; propagates dataset/feature errors.
pub fn build_fused_dataset(
    corpus: &[ModelCapture],
    channels: &[SensorChannel],
    duration_s: f64,
    resample_len: usize,
) -> Result<Dataset> {
    if channels.is_empty() {
        return Err(AttackError::InvalidParameter("no channels to fuse".into()));
    }
    let indices: Vec<usize> = channels
        .iter()
        .map(|sc| {
            TABLE3_CHANNELS
                .iter()
                .position(|&c| c == *sc)
                .ok_or_else(|| AttackError::InvalidParameter(format!("unknown channel {sc}")))
        })
        .collect::<Result<_>>()?;
    let mut features = Vec::with_capacity(corpus.len());
    let mut labels = Vec::with_capacity(corpus.len());
    for capture in corpus {
        let mut row = Vec::new();
        for &idx in &indices {
            let trace = &capture.traces[idx];
            let prefix = trace.prefix_seconds(duration_s);
            row.extend(feature_vector(prefix, resample_len)?);
        }
        features.push(row);
        labels.push(capture.label);
    }
    Dataset::new(features, labels).map_err(|e| AttackError::InvalidParameter(e.to_string()))
}

/// One cell of the Table III accuracy grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyCell {
    /// Capture duration in seconds.
    pub duration_s: f64,
    /// Cross-validated top-1 accuracy.
    pub top1: f64,
    /// Cross-validated top-5 accuracy.
    pub top5: f64,
}

/// The full Table III grid: per channel, accuracy at each duration.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyGrid {
    /// Rows in [`TABLE3_CHANNELS`] order.
    pub rows: Vec<(SensorChannel, Vec<AccuracyCell>)>,
    /// Number of classes (for the chance baseline `1/n`).
    pub n_classes: usize,
}

impl AccuracyGrid {
    /// The random-guess baseline (paper: 0.0256 for 39 classes).
    pub fn chance(&self) -> f64 {
        1.0 / self.n_classes as f64
    }

    /// Accuracy cell for a channel/duration, if present.
    pub fn cell(&self, channel: SensorChannel, duration_s: f64) -> Option<AccuracyCell> {
        self.rows
            .iter()
            .find(|(sc, _)| *sc == channel)
            .and_then(|(_, cells)| {
                cells
                    .iter()
                    .find(|c| (c.duration_s - duration_s).abs() < 1e-9)
                    .copied()
            })
    }
}

/// Runs the full Table III evaluation over a corpus: for every channel and
/// every duration in `durations_s`, build the dataset and cross-validate a
/// fresh forest. The `channel x duration` cells are spread across `pool`.
///
/// Each cell trains its forests serially (the grid itself is the parallel
/// axis), and every cell is a pure function of the corpus and the campaign
/// seed, so the grid is identical at any thread count.
///
/// # Errors
///
/// Propagates dataset construction errors.
pub fn evaluate_grid(
    corpus: &[ModelCapture],
    config: &FingerprintConfig,
    durations_s: &[f64],
    pool: &Pool,
) -> Result<AccuracyGrid> {
    config.validate()?;
    let n_classes = corpus.iter().map(|c| c.label).max().unwrap_or(0) + 1;
    let cells_spec: Vec<(SensorChannel, f64)> = TABLE3_CHANNELS
        .iter()
        .flat_map(|&channel| durations_s.iter().map(move |&d| (channel, d)))
        .collect();
    let cells = pool.par_map(
        &cells_spec,
        |_, &(channel, duration)| -> Result<AccuracyCell> {
            let dataset = build_dataset(corpus, channel, duration, config.resample_len)?;
            let report: CvReport = cross_validate(
                &dataset,
                &config.forest,
                config.folds,
                config.seed,
                &Pool::serial(),
            );
            Ok(AccuracyCell {
                duration_s: duration,
                top1: report.top1,
                top5: report.top5,
            })
        },
    );
    let mut rows = Vec::with_capacity(TABLE3_CHANNELS.len());
    let mut iter = cells.into_iter();
    for &channel in &TABLE3_CHANNELS {
        let mut row = Vec::with_capacity(durations_s.len());
        for _ in durations_s {
            row.push(iter.next().expect("one cell per channel x duration")?);
        }
        rows.push((channel, row));
    }
    Ok(AccuracyGrid { rows, n_classes })
}

/// One-call fingerprinting with injected config: collects a corpus over
/// the first `n_models` zoo architectures and evaluates the Table III
/// grid at the configured capture length. This is the entry point the
/// serving layer routes `fingerprint` requests to — everything the run
/// does is a pure function of `(config, n_models)`, so identical requests
/// batch onto one computation. `harden` acts on every corpus capture (see
/// [`collect_corpus`]); the offline training/evaluation half is unchanged,
/// because a defense acts on the sensing path, not on the classifier.
///
/// # Errors
///
/// [`AttackError::InvalidParameter`] when `n_models` is zero or exceeds
/// the zoo; otherwise the [`collect_corpus`] / [`evaluate_grid`] failure
/// modes.
pub fn run(
    config: &FingerprintConfig,
    n_models: usize,
    pool: &Pool,
    harden: Hardener<'_>,
) -> Result<AccuracyGrid> {
    let zoo = dnn_models::zoo();
    if n_models == 0 || n_models > zoo.len() {
        return Err(AttackError::InvalidParameter(format!(
            "n_models must be in 1..={}, got {n_models}",
            zoo.len()
        )));
    }
    let victims: Vec<&ModelArch> = zoo.iter().take(n_models).collect();
    let corpus = collect_corpus(&victims, config, pool, harden)?;
    evaluate_grid(&corpus, config, &[config.capture_seconds], pool)
}

/// The online attack object: a trained classifier for one channel.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    forest: RandomForest,
    model_names: Vec<String>,
    channel: SensorChannel,
    duration_s: f64,
    resample_len: usize,
}

impl Fingerprinter {
    /// Trains the online classifier on a corpus (the offline phase).
    ///
    /// # Errors
    ///
    /// Propagates dataset construction errors.
    pub fn train(
        corpus: &[ModelCapture],
        channel: SensorChannel,
        config: &FingerprintConfig,
    ) -> Result<Self> {
        let dataset = build_dataset(corpus, channel, config.capture_seconds, config.resample_len)?;
        let forest = RandomForest::fit(&dataset, &config.forest, Pool::global());
        let mut model_names = vec![String::new(); dataset.n_classes()];
        for capture in corpus {
            model_names[capture.label] = capture.model_name.clone();
        }
        Ok(Fingerprinter {
            forest,
            model_names,
            channel,
            duration_s: config.capture_seconds,
            resample_len: config.resample_len,
        })
    }

    /// The channel this classifier consumes.
    pub fn channel(&self) -> SensorChannel {
        self.channel
    }

    /// Classifies one online capture; returns the predicted model name.
    ///
    /// # Errors
    ///
    /// Propagates feature extraction errors (e.g. an empty trace).
    pub fn identify(&self, trace: &Trace) -> Result<&str> {
        let prefix = trace.prefix_seconds(self.duration_s);
        let features = feature_vector(prefix, self.resample_len)?;
        let label = self.forest.predict(&features);
        Ok(self.model_names[label].as_str())
    }

    /// Top-`k` candidate model names, most likely first.
    ///
    /// # Errors
    ///
    /// Propagates feature extraction errors.
    pub fn identify_top_k(&self, trace: &Trace, k: usize) -> Result<Vec<&str>> {
        let prefix = trace.prefix_seconds(self.duration_s);
        let features = feature_vector(prefix, self.resample_len)?;
        Ok(self
            .forest
            .top_k(&features, k)
            .into_iter()
            .map(|l| self.model_names[l].as_str())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defend::UNDEFENDED;
    use dnn_models::zoo;

    fn small_corpus() -> (Vec<ModelCapture>, FingerprintConfig) {
        let models = zoo();
        let picks: Vec<&ModelArch> = ["mobilenet-v1", "resnet-50", "vgg-19", "squeezenet"]
            .iter()
            .map(|n| models.iter().find(|m| &m.name == n).unwrap())
            .collect();
        let config = FingerprintConfig::quick();
        let corpus = collect_corpus(&picks, &config, Pool::global(), UNDEFENDED).unwrap();
        (corpus, config)
    }

    #[test]
    fn corpus_collection_shape() {
        let (corpus, config) = small_corpus();
        assert_eq!(corpus.len(), 4 * config.traces_per_model);
        for c in &corpus {
            assert_eq!(c.traces.len(), 6);
            for t in &c.traces {
                assert!(t.len() >= 50, "2 s at 35 ms = ~57 samples");
            }
        }
    }

    #[test]
    fn fpga_current_separates_models() {
        let (corpus, config) = small_corpus();
        let grid = evaluate_grid(&corpus, &config, &[2.0], Pool::global()).unwrap();
        let fpga_current = grid
            .cell(
                SensorChannel {
                    domain: PowerDomain::FpgaLogic,
                    channel: Channel::Current,
                },
                2.0,
            )
            .unwrap();
        assert!(
            fpga_current.top1 > 0.8,
            "FPGA current top-1 {} too low",
            fpga_current.top1
        );
        assert!(fpga_current.top5 >= fpga_current.top1);
    }

    #[test]
    fn voltage_channel_is_much_weaker_than_current() {
        let (corpus, config) = small_corpus();
        let grid = evaluate_grid(&corpus, &config, &[2.0], Pool::global()).unwrap();
        let current = grid
            .cell(
                SensorChannel {
                    domain: PowerDomain::FpgaLogic,
                    channel: Channel::Current,
                },
                2.0,
            )
            .unwrap();
        let voltage = grid
            .cell(
                SensorChannel {
                    domain: PowerDomain::FpgaLogic,
                    channel: Channel::Voltage,
                },
                2.0,
            )
            .unwrap();
        assert!(
            voltage.top1 < current.top1,
            "voltage {} must underperform current {}",
            voltage.top1,
            current.top1
        );
    }

    #[test]
    fn online_identification_works() {
        let (corpus, config) = small_corpus();
        let channel = SensorChannel {
            domain: PowerDomain::FpgaLogic,
            channel: Channel::Current,
        };
        let fp = Fingerprinter::train(&corpus, channel, &config).unwrap();
        assert_eq!(fp.channel(), channel);

        // Fresh online capture of a known victim.
        let models = zoo();
        let victim = models.iter().find(|m| m.name == "vgg-19").unwrap();
        let mut platform = Platform::zcu102(0xDEAD);
        let dpu = platform.deploy_dpu(DpuConfig::default()).unwrap();
        dpu.load_model(victim);
        let sampler = CurrentSampler::unprivileged(&platform);
        let trace = sampler
            .capture(
                PowerDomain::FpgaLogic,
                Channel::Current,
                SimTime::from_ms(40),
                1_000.0 / 35.0,
                57,
            )
            .unwrap();
        assert_eq!(fp.identify(&trace).unwrap(), "vgg-19");
        let top2 = fp.identify_top_k(&trace, 2).unwrap();
        assert_eq!(top2[0], "vgg-19");
        assert_eq!(top2.len(), 2);
    }

    #[test]
    fn fused_channels_match_or_beat_single_channel() {
        let (corpus, config) = small_corpus();
        let all_currents: Vec<SensorChannel> = TABLE3_CHANNELS
            .iter()
            .copied()
            .filter(|sc| sc.channel == Channel::Current)
            .collect();
        let fused = build_fused_dataset(&corpus, &all_currents, 2.0, config.resample_len).unwrap();
        let single = build_dataset(
            &corpus,
            SensorChannel {
                domain: PowerDomain::FpgaLogic,
                channel: Channel::Current,
            },
            2.0,
            config.resample_len,
        )
        .unwrap();
        assert_eq!(fused.n_features(), 4 * single.n_features());
        let fused_report = cross_validate(&fused, &config.forest, config.folds, 1, Pool::global());
        let single_report =
            cross_validate(&single, &config.forest, config.folds, 1, Pool::global());
        assert!(
            fused_report.top1 >= single_report.top1 - 0.05,
            "fusion {} should not trail single-channel {}",
            fused_report.top1,
            single_report.top1
        );
    }

    #[test]
    fn fused_dataset_rejects_bad_channels() {
        let (corpus, config) = small_corpus();
        assert!(build_fused_dataset(&corpus, &[], 1.0, config.resample_len).is_err());
        let bogus = SensorChannel {
            domain: PowerDomain::Ddr,
            channel: Channel::Voltage,
        };
        assert!(build_fused_dataset(&corpus, &[bogus], 1.0, config.resample_len).is_err());
    }

    #[test]
    fn empty_model_list_rejected() {
        let config = FingerprintConfig::quick();
        assert!(matches!(
            collect_corpus(&[], &config, Pool::global(), UNDEFENDED),
            Err(AttackError::InvalidParameter(_))
        ));
    }

    #[test]
    fn unknown_channel_rejected() {
        let (corpus, _) = small_corpus();
        let bogus = SensorChannel {
            domain: PowerDomain::Ddr,
            channel: Channel::Voltage,
        };
        assert!(build_dataset(&corpus, bogus, 1.0, 16).is_err());
    }

    #[test]
    fn grid_chance_baseline() {
        let (corpus, config) = small_corpus();
        let grid = evaluate_grid(&corpus, &config, &[1.0], Pool::global()).unwrap();
        assert_eq!(grid.n_classes, 4);
        assert!((grid.chance() - 0.25).abs() < 1e-12);
        assert_eq!(grid.rows.len(), 6);
    }

    #[test]
    fn sensor_channel_display() {
        let sc = SensorChannel {
            domain: PowerDomain::FpgaLogic,
            channel: Channel::Current,
        };
        assert_eq!(sc.to_string(), "Current (FPGA)");
    }
}
