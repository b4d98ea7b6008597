//! DPU model fingerprinting (the Table III / Figure 3 case study).
//!
//! Offline: collect labelled current traces of known models and train a
//! random forest. Online: point the classifier at a black-box accelerator
//! and name the architecture it runs.
//!
//! Run with: `cargo run --release --example dpu_fingerprint`

use amperebleed::defend::UNDEFENDED;
use amperebleed::fingerprint::{
    collect_corpus, evaluate_grid, FingerprintConfig, Fingerprinter, SensorChannel,
};
use amperebleed::{Channel, CurrentSampler, Platform};
use dnn_models::{zoo, ModelArch};
use dpu::DpuConfig;
use sim_rt::Pool;
use zynq_soc::{PowerDomain, SimTime};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The six models of Figure 3.
    let models = zoo();
    let victims: Vec<&ModelArch> = [
        "mobilenet-v1",
        "squeezenet",
        "efficientnet-lite0",
        "inception-v3",
        "resnet-50",
        "vgg-19",
    ]
    .iter()
    .map(|n| models.iter().find(|m| &m.name == n).expect("in zoo"))
    .collect();

    let config = FingerprintConfig {
        traces_per_model: 10,
        capture_seconds: 3.0,
        ..FingerprintConfig::default()
    };

    eprintln!(
        "offline phase: collecting {} traces ...",
        victims.len() * config.traces_per_model
    );
    let corpus = collect_corpus(&victims, &config, Pool::global(), UNDEFENDED)?;

    eprintln!("training / cross-validating ...");
    let grid = evaluate_grid(&corpus, &config, &[1.0, 2.0, 3.0], Pool::global())?;
    println!("cross-validated accuracy (chance = {:.4}):", grid.chance());
    println!("{:<24} {:>8} {:>8} {:>8}", "sensor", "1s", "2s", "3s");
    for (sc, cells) in &grid.rows {
        print!("{:<24}", sc.to_string());
        for c in cells {
            print!(" {:>7.3}", c.top1);
        }
        println!();
    }

    // Online attack against a black-box accelerator.
    let fpga_current = SensorChannel {
        domain: PowerDomain::FpgaLogic,
        channel: Channel::Current,
    };
    let fingerprinter = Fingerprinter::train(&corpus, fpga_current, &config)?;
    println!("\nonline phase (black-box victims on fresh platforms):");
    for (i, victim) in victims.iter().enumerate() {
        let mut platform = Platform::zcu102(0xACE0 + i as u64);
        let dpu = platform.deploy_dpu(DpuConfig::default())?;
        dpu.load_model(victim);
        let sampler = CurrentSampler::unprivileged(&platform);
        let trace = sampler.capture(
            PowerDomain::FpgaLogic,
            Channel::Current,
            SimTime::from_ms(40),
            1_000.0 / 35.0,
            (config.capture_seconds * 1_000.0 / 35.0) as usize,
        )?;
        let guess = fingerprinter.identify(&trace)?;
        let mark = if guess == victim.name { "HIT " } else { "MISS" };
        println!("  [{mark}] true={:<22} guessed={guess}", victim.name);
    }
    Ok(())
}
