//! Figure 4 — the impact of RSA-1024 key Hamming weight on FPGA current
//! and power measurements: 17 keys (HW = 1, 64, 128, ..., 1024), 100 k
//! samples at 1 kHz per key.
//!
//! Paper shape: the current channel separates all 17 groups; the power
//! channel (25 mW LSB) collapses them into ~5.
//!
//! Run with: `cargo bench --bench fig4_rsa_hamming`
//! Set `AMPEREBLEED_SAMPLES` to override samples per key (default 100000).

use amperebleed::defend::UNDEFENDED;
use amperebleed::rsa_attack::{self, RsaAttackConfig};
use amperebleed_bench::section;

fn main() {
    let samples: usize = std::env::var("AMPEREBLEED_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let config = RsaAttackConfig {
        samples_per_key: samples,
        ..RsaAttackConfig::default()
    };
    eprintln!(
        "profiling {} keys x {} samples at {} Hz ...",
        config.hamming_weights.len(),
        config.samples_per_key,
        config.sample_rate_hz
    );
    let report = rsa_attack::run(&config, UNDEFENDED).expect("attack");

    section("Figure 4: per-key distributions");
    println!(
        "{:>6} {:>12} {:>8} {:>8} {:>12} {:>9} {:>9}",
        "HW", "I mean(mA)", "I min", "I max", "P mean(mW)", "I group", "P group"
    );
    for (i, obs) in report.observations.iter().enumerate() {
        println!(
            "{:>6} {:>12.2} {:>8.0} {:>8.0} {:>12.2} {:>9} {:>9}",
            obs.hamming_weight,
            obs.current_ma.mean,
            obs.current_ma.min,
            obs.current_ma.max,
            obs.power_mw.mean,
            report.current_separability.cluster_of[i],
            report.power_separability.cluster_of[i],
        );
    }

    section("brute-force search space with known Hamming weight");
    println!("{:>6} {:>16} {:>14}", "HW", "log2 C(1024,HW)", "bits saved");
    for obs in report.observations.iter().step_by(4) {
        let bits = rsa_attack::search_space_bits(obs.hamming_weight);
        println!(
            "{:>6} {:>16.1} {:>14.1}",
            obs.hamming_weight,
            bits,
            1024.0 - bits
        );
    }

    let n_current = report.current_separability.distinguishable;
    let n_power = report.power_separability.distinguishable;
    section("separability verdict");
    println!("current channel : {n_current} / 17 groups (paper: 17)");
    println!("power channel   : {n_power} / 17 groups (paper: ~5)");

    // Shape assertions.
    assert_eq!(n_current, 17, "current must separate all 17 weights");
    assert!(
        (3..=8).contains(&n_power),
        "power should collapse to ~5 groups, got {n_power}"
    );
    // Monotone means.
    let means: Vec<f64> = report
        .observations
        .iter()
        .map(|o| o.current_ma.mean)
        .collect();
    for w in means.windows(2) {
        assert!(w[1] > w[0], "current means must be monotone in HW");
    }
    println!("\n[ok] Figure 4 shape reproduced");
}
