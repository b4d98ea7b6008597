//! RSA Hamming-weight recovery (the Figure 4 case study).
//!
//! An unprivileged attacker profiles the FPGA current while an RSA-1024
//! circuit (key sealed in the encrypted bitstream) repeatedly encrypts.
//! Mean current is affine in the key's Hamming weight; the 25 mW power
//! channel collapses adjacent weights while the 1 mA current channel
//! separates all of them.
//!
//! Run with: `cargo run --release --example rsa_hamming`

use amperebleed::defend::UNDEFENDED;
use amperebleed::rsa_attack::{self, RsaAttackConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = RsaAttackConfig {
        samples_per_key: 20_000,
        ..RsaAttackConfig::default()
    };
    eprintln!(
        "profiling {} keys x {} samples at {} Hz ...",
        config.hamming_weights.len(),
        config.samples_per_key,
        config.sample_rate_hz
    );
    let report = rsa_attack::run(&config, UNDEFENDED)?;

    println!(
        "{:>6} {:>12} {:>9} {:>12} {:>10} {:>10}",
        "HW", "I mean(mA)", "I std", "P mean(mW)", "I group", "P group"
    );
    for (i, obs) in report.observations.iter().enumerate() {
        println!(
            "{:>6} {:>12.2} {:>9.2} {:>12.2} {:>10} {:>10}",
            obs.hamming_weight,
            obs.current_ma.mean,
            obs.current_ma.std_dev,
            obs.power_mw.mean,
            report.current_separability.cluster_of[i],
            report.power_separability.cluster_of[i],
        );
    }
    println!(
        "\ncurrent channel distinguishes {} / {} Hamming-weight groups",
        report.current_separability.distinguishable,
        report.observations.len()
    );
    println!(
        "power   channel distinguishes {} / {} (paper: ~5)",
        report.power_separability.distinguishable,
        report.observations.len()
    );
    println!(
        "\nKnowing the Hamming weight shrinks brute-force key search and\n\
         seeds statistical key-recovery attacks (Sarkar & Maitra, CHES'12)."
    );
    Ok(())
}
