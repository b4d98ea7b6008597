//! Negative tests for campaign/characterize config validation: bad
//! parameters must come back as `InvalidParameter`, never a panic. These
//! matter doubly now that the serving layer forwards client-supplied
//! overrides straight into these configs.

use amperebleed::campaign::CampaignConfig;
use amperebleed::characterize::{self, CharacterizeConfig};
use amperebleed::defend::UNDEFENDED;
use amperebleed::fingerprint::{self, FingerprintConfig};
use amperebleed::rsa_attack::{self, RsaAttackConfig};
use amperebleed::{covert, AttackError, Platform};
use fpga_fabric::covert::CovertConfig;
use fpga_fabric::virus::VirusConfig;
use sim_rt::pool::Pool;
use zynq_soc::SimTime;

fn ready_platform(seed: u64) -> Platform {
    let mut p = Platform::zcu102(seed);
    p.deploy_virus(VirusConfig::default()).unwrap();
    p
}

fn assert_invalid<T: std::fmt::Debug>(result: amperebleed::Result<T>, what: &str) {
    match result {
        Err(AttackError::InvalidParameter(_)) => {}
        other => panic!("{what}: expected InvalidParameter, got {other:?}"),
    }
}

#[test]
fn characterize_rejects_zero_sample_count() {
    let p = ready_platform(400);
    let cfg = CharacterizeConfig {
        samples_per_level: 0,
        ..CharacterizeConfig::quick()
    };
    assert_invalid(characterize::run(&p, &cfg), "zero samples_per_level");
}

/// Asserts an `InvalidParameter` whose message names `field` and its
/// upper `bound`.
fn assert_over_bound<T: std::fmt::Debug>(
    result: amperebleed::Result<T>,
    field: &str,
    bound: usize,
) {
    match result {
        Err(AttackError::InvalidParameter(message)) => assert!(
            message.contains(field) && message.contains(&bound.to_string()),
            "{field}: {message}"
        ),
        other => panic!("{field}: expected InvalidParameter, got {other:?}"),
    }
}

#[test]
fn characterize_bounds_samples_per_level() {
    let p = ready_platform(404);
    // `quicklook` is the serve path's `quickstart`: 2^40 samples once
    // aborted the server in the capture buffer's allocation.
    assert_over_bound(
        characterize::quicklook(&p, 1 << 40),
        "samples_per_level",
        characterize::MAX_SAMPLES_PER_LEVEL,
    );
    let at_bound = CharacterizeConfig {
        samples_per_level: characterize::MAX_SAMPLES_PER_LEVEL,
        ..CharacterizeConfig::quick()
    };
    at_bound.validate().unwrap();
    CharacterizeConfig::default().validate().unwrap();
}

#[test]
fn characterize_rejects_zero_duration_settle_phase() {
    let p = ready_platform(401);
    let cfg = CharacterizeConfig {
        settle: SimTime::ZERO,
        ..CharacterizeConfig::quick()
    };
    assert_invalid(characterize::run(&p, &cfg), "zero-duration settle");
}

#[test]
fn characterize_rejects_out_of_range_sample_rates() {
    let p = ready_platform(402);
    for rate in [0.0, -1_000.0, f64::NAN, f64::INFINITY] {
        let cfg = CharacterizeConfig {
            sample_rate_hz: rate,
            ..CharacterizeConfig::quick()
        };
        assert_invalid(characterize::run(&p, &cfg), &format!("rate {rate}"));
    }
}

#[test]
fn fingerprint_rejects_degenerate_configs() {
    let zero_traces = FingerprintConfig {
        traces_per_model: 0,
        ..FingerprintConfig::quick()
    };
    assert_invalid(
        fingerprint::run(&zero_traces, 2, &Pool::serial(), UNDEFENDED),
        "zero traces_per_model",
    );

    let zero_capture = FingerprintConfig {
        capture_seconds: 0.0,
        ..FingerprintConfig::quick()
    };
    assert_invalid(
        fingerprint::run(&zero_capture, 2, &Pool::serial(), UNDEFENDED),
        "zero capture_seconds",
    );

    let zero_resample = FingerprintConfig {
        resample_len: 0,
        ..FingerprintConfig::quick()
    };
    assert_invalid(
        fingerprint::run(&zero_resample, 2, &Pool::serial(), UNDEFENDED),
        "zero resample_len",
    );

    let one_fold = FingerprintConfig {
        folds: 1,
        ..FingerprintConfig::quick()
    };
    assert_invalid(
        fingerprint::run(&one_fold, 2, &Pool::serial(), UNDEFENDED),
        "single fold",
    );

    assert_invalid(
        fingerprint::run(&FingerprintConfig::quick(), 0, &Pool::serial(), UNDEFENDED),
        "zero models",
    );
    assert_invalid(
        fingerprint::run(
            &FingerprintConfig::quick(),
            10_000,
            &Pool::serial(),
            UNDEFENDED,
        ),
        "more models than the zoo holds",
    );
}

#[test]
fn fingerprint_bounds_traces_per_model() {
    // 2^40 traces per model once aborted the server in the corpus
    // allocation.
    let over = FingerprintConfig {
        traces_per_model: 1 << 40,
        ..FingerprintConfig::quick()
    };
    assert_over_bound(
        fingerprint::run(&over, 2, &Pool::serial(), UNDEFENDED),
        "traces_per_model",
        fingerprint::MAX_TRACES_PER_MODEL,
    );
    let at_bound = FingerprintConfig {
        traces_per_model: fingerprint::MAX_TRACES_PER_MODEL,
        ..FingerprintConfig::quick()
    };
    at_bound.validate().unwrap();
    FingerprintConfig::default().validate().unwrap();
}

#[test]
fn fingerprint_bounds_resample_len() {
    let over = FingerprintConfig {
        resample_len: 1 << 40,
        ..FingerprintConfig::quick()
    };
    assert_over_bound(
        fingerprint::run(&over, 2, &Pool::serial(), UNDEFENDED),
        "resample_len",
        fingerprint::MAX_RESAMPLE_LEN,
    );
    let at_bound = FingerprintConfig {
        resample_len: fingerprint::MAX_RESAMPLE_LEN,
        ..FingerprintConfig::quick()
    };
    at_bound.validate().unwrap();
}

#[test]
fn fingerprint_rejects_more_folds_than_traces() {
    // quick() collects 6 traces per model: 18 over three models. A fold
    // count above that once panicked inside cross-validation and took
    // the server's dispatcher down with it.
    let config = FingerprintConfig {
        folds: 100,
        ..FingerprintConfig::quick()
    };
    let traces = 3 * config.traces_per_model;
    assert_over_bound(
        fingerprint::run(&config, 3, &Pool::serial(), UNDEFENDED),
        "folds",
        traces,
    );
    FingerprintConfig {
        folds: traces,
        ..config
    }
    .validate_folds(traces)
    .unwrap();
}

#[test]
fn rsa_bounds_samples_per_key() {
    let over = RsaAttackConfig {
        samples_per_key: rsa_attack::MAX_SAMPLES_PER_KEY + 1,
        ..RsaAttackConfig::quick()
    };
    assert_over_bound(
        rsa_attack::run(&over, UNDEFENDED),
        "samples_per_key",
        rsa_attack::MAX_SAMPLES_PER_KEY,
    );
    let at_bound = RsaAttackConfig {
        samples_per_key: rsa_attack::MAX_SAMPLES_PER_KEY,
        ..RsaAttackConfig::quick()
    };
    at_bound.validate().unwrap();
    RsaAttackConfig::default().validate().unwrap();
}

#[test]
fn rsa_rejects_zero_samples_and_bad_statistics_settings() {
    let zero_samples = RsaAttackConfig {
        samples_per_key: 0,
        ..RsaAttackConfig::quick()
    };
    assert_invalid(
        rsa_attack::run(&zero_samples, UNDEFENDED),
        "zero samples_per_key",
    );

    let bad_rate = RsaAttackConfig {
        sample_rate_hz: f64::NAN,
        ..RsaAttackConfig::quick()
    };
    assert_invalid(rsa_attack::run(&bad_rate, UNDEFENDED), "NaN sample rate");

    let bad_z = RsaAttackConfig {
        z_score: 0.0,
        ..RsaAttackConfig::quick()
    };
    assert_invalid(rsa_attack::run(&bad_z, UNDEFENDED), "zero z-score");
}

#[test]
fn covert_round_trip_rejects_empty_payload() {
    assert_invalid(
        covert::round_trip(&CovertConfig::default(), b"", 7, UNDEFENDED),
        "empty payload",
    );
}

#[test]
fn campaign_validate_catches_stage_overrides_up_front() {
    let mut cfg = CampaignConfig::minimal();
    assert!(cfg.validate().is_ok());
    cfg.characterize.samples_per_level = 0;
    assert_invalid(cfg.validate(), "campaign with zero samples_per_level");
    // campaign::run fails fast on the same config, before any capture.
    assert_invalid(
        amperebleed::campaign::run(&cfg),
        "campaign run with bad stage config",
    );
}

#[test]
fn valid_quick_configs_still_pass_validation() {
    assert!(CharacterizeConfig::quick().validate().is_ok());
    assert!(FingerprintConfig::quick().validate().is_ok());
    assert!(RsaAttackConfig::quick().validate().is_ok());
    assert!(CampaignConfig::default().validate().is_ok());
}
