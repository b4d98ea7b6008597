//! Determinism and zero-strength-identity contracts of the `defend` verb.
//!
//! The acceptance criteria this file pins:
//!
//! * A defend sweep's rendered report is **byte-identical** for a fixed
//!   `(seed, attack config, defense stack)` at pool widths 1, 2 and 8 —
//!   the sweep points are pure functions of their inputs, so spreading
//!   them across workers cannot change a bit.
//! * With every defense strength at zero, the measured attack success
//!   **exactly** matches the undefended baseline (the stack installs
//!   nothing at strength zero, so the sensing path is the same code).

use amperebleed::covert;
use amperebleed::defend::{run, AttackKind, DefendConfig, UNDEFENDED};
use sim_defend::LayerKind;
use sim_rt::Pool;

fn sweep(config: &DefendConfig, pool: &Pool) -> String {
    run(config, pool).unwrap().render()
}

#[test]
fn covert_sweep_report_is_byte_identical_at_1_2_and_8_workers() {
    let config = DefendConfig::quick(AttackKind::Covert);
    let serial = sweep(&config, &Pool::serial());
    let two = sweep(&config, &Pool::new(2));
    let eight = sweep(&config, &Pool::new(8));
    assert_eq!(serial, two);
    assert_eq!(serial, eight);
    // The full report structure, not just its rendering.
    let a = run(&config, &Pool::serial()).unwrap();
    let b = run(&config, &Pool::new(8)).unwrap();
    assert_eq!(a, b);
    for (pa, pb) in a.points.iter().zip(&b.points) {
        assert_eq!(pa.success.to_bits(), pb.success.to_bits());
    }
}

#[test]
fn fingerprint_sweep_report_is_byte_identical_across_pools() {
    let mut config = DefendConfig::quick(AttackKind::Fingerprint);
    // Two points keep the heavier fingerprint sweep affordable in CI.
    config.strengths = vec![0.0, 1.0];
    let serial = sweep(&config, &Pool::serial());
    let eight = sweep(&config, &Pool::new(8));
    assert_eq!(serial, eight);
}

#[test]
fn zero_strength_point_equals_undefended_baseline_exactly() {
    let config = DefendConfig::quick(AttackKind::Covert);
    let report = run(&config, &Pool::serial()).unwrap();
    let zero = report.points[0];
    assert_eq!(zero.strength, 0.0);
    assert_eq!(zero.success.to_bits(), report.baseline.success.to_bits());
    // And both match a direct, defend-free run of the attack.
    let (_rx, ber) =
        covert::round_trip(&config.covert, &config.payload, config.seed, UNDEFENDED).unwrap();
    let direct = amperebleed::defend::bsc_capacity(ber);
    assert_eq!(zero.success.to_bits(), direct.to_bits());
}

#[test]
fn all_zero_strength_sweep_is_flat_at_the_baseline() {
    // A one-point sweep at strength 0 for each attack kind: success must
    // equal the undefended metric bit-for-bit even with every layer kind
    // stacked.
    let mut config = DefendConfig::quick(AttackKind::Covert);
    config.layers = vec![
        LayerKind::Jitter,
        LayerKind::Quantize,
        LayerKind::Noise,
        LayerKind::Throttle,
    ];
    config.strengths = vec![0.0];
    let report = run(&config, &Pool::serial()).unwrap();
    assert_eq!(
        report.points[0].success.to_bits(),
        report.baseline.success.to_bits()
    );
    assert!(!report.points[0].blocked);
}
