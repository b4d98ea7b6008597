//! Cross-thread-count determinism of the campaign's parallel stages.
//!
//! The runtime's contract: every parallel stage derives per-job seeds
//! purely from the campaign seed and the job's index, so the corpus, the
//! feature datasets, the Table III accuracy grid and the TEE and
//! workload-reconnaissance classifiers are *byte-identical* whether the
//! work runs on one worker or many. These tests pin that contract end to
//! end — floating-point results are compared through their bit patterns,
//! not with a tolerance.

use amperebleed::fingerprint::{
    build_dataset, collect_corpus_with, evaluate_grid_with, FingerprintConfig, ModelCapture,
    TABLE3_CHANNELS,
};
use dnn_models::ModelArch;
use sim_rt::Pool;

fn victims() -> Vec<&'static ModelArch> {
    let models = dnn_models::zoo();
    ["mobilenet-v1", "resnet-50", "vgg-19", "squeezenet"]
        .iter()
        .map(|n| models.iter().find(|m| &m.name == n).unwrap())
        .collect()
}

fn collect(pool: &Pool) -> (Vec<ModelCapture>, FingerprintConfig) {
    let refs = victims();
    let config = FingerprintConfig::quick();
    let corpus = collect_corpus_with(&refs, &config, pool).unwrap();
    (corpus, config)
}

/// Every f64 in the corpus, as raw bits, in deterministic order.
fn corpus_bits(corpus: &[ModelCapture]) -> Vec<u64> {
    corpus
        .iter()
        .flat_map(|c| c.traces.iter())
        .flat_map(|t| t.samples.iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn corpus_is_byte_identical_at_1_2_and_8_threads() {
    let (serial, config) = collect(&Pool::serial());
    let (two, _) = collect(&Pool::new(2));
    let (eight, _) = collect(&Pool::new(8));
    assert_eq!(serial.len(), 4 * config.traces_per_model);
    assert_eq!(corpus_bits(&serial), corpus_bits(&two));
    assert_eq!(corpus_bits(&serial), corpus_bits(&eight));
    // Labels and names ride along in slot order too.
    for (a, b) in serial.iter().zip(&eight) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.model_name, b.model_name);
    }
}

#[test]
fn feature_datasets_are_byte_identical_across_pools() {
    let (serial, config) = collect(&Pool::serial());
    let (eight, _) = collect(&Pool::new(8));
    for &channel in &TABLE3_CHANNELS {
        let a = build_dataset(&serial, channel, 2.0, config.resample_len).unwrap();
        let b = build_dataset(&eight, channel, 2.0, config.resample_len).unwrap();
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            let bits_a: Vec<u64> = a.features_of(i).iter().map(|v| v.to_bits()).collect();
            let bits_b: Vec<u64> = b.features_of(i).iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits_a, bits_b, "row {i} of {channel:?}");
        }
    }
}

#[test]
fn accuracy_grid_is_identical_at_1_2_and_8_threads() {
    let (corpus, config) = collect(&Pool::serial());
    let durations = [1.0, 2.0];
    let serial = evaluate_grid_with(&corpus, &config, &durations, &Pool::serial()).unwrap();
    let two = evaluate_grid_with(&corpus, &config, &durations, &Pool::new(2)).unwrap();
    let eight = evaluate_grid_with(&corpus, &config, &durations, &Pool::new(8)).unwrap();
    assert_eq!(serial, two);
    assert_eq!(serial, eight);
    // Exact accuracy equality, bitwise: the grids went through identical
    // arithmetic, not merely statistically similar runs.
    for ((_, cells_a), (_, cells_b)) in serial.rows.iter().zip(&eight.rows) {
        for (a, b) in cells_a.iter().zip(cells_b) {
            assert_eq!(a.top1.to_bits(), b.top1.to_bits());
            assert_eq!(a.top5.to_bits(), b.top5.to_bits());
        }
    }
}

/// FNV-1a-64 over a report's full `Debug` rendering: the fitted forest
/// and the hold-out accuracy, folded into one number.
fn debug_digest(report: &impl std::fmt::Debug) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// The TEE stage's captures run on the global pool (sized by
/// `SIM_RT_THREADS`); its training set, holdout and forest must not
/// depend on the pool's width. The pinned value was recorded from a
/// serial loop over the same captures.
#[test]
fn tee_report_matches_its_pinned_digest() {
    let report = amperebleed::tee::run(&amperebleed::tee::TeeAttackConfig::default()).unwrap();
    assert_eq!(debug_digest(&report), 0xa885_29d8_412e_f67b);
}

/// As above, for workload reconnaissance.
#[test]
fn workload_report_matches_its_pinned_digest() {
    let report =
        amperebleed::workload::run(&amperebleed::workload::WorkloadConfig::default()).unwrap();
    assert_eq!(debug_digest(&report), 0x6677_5a1c_dc46_c96e);
}
