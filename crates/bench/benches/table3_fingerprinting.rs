//! Table III — classification accuracy for encrypted accelerator
//! fingerprinting: 39 models, 6 sensor channels, capture durations of
//! 1-5 s, top-1 and top-5 accuracy under 10-fold cross-validation with a
//! 100-tree / depth-32 random forest.
//!
//! Paper shape: FPGA current 0.997 top-1, power 0.989, DRAM 0.958,
//! full-power CPU 0.837, low-power CPU 0.557, FPGA voltage 0.116
//! (chance = 0.0256); accuracy grows with duration.
//!
//! Run with: `cargo bench --bench table3_fingerprinting`
//! Set `AMPEREBLEED_TRACES` to override traces per model (default 10).

use amperebleed::defend::UNDEFENDED;
use amperebleed::fingerprint::{
    build_fused_dataset, collect_corpus, evaluate_grid, FingerprintConfig, SensorChannel,
    TABLE3_CHANNELS,
};
use amperebleed::Channel;
use amperebleed_bench::{acc, section};
use dnn_models::{zoo, ModelArch};
use rforest::cross_validate;
use sim_rt::Pool;
use zynq_soc::PowerDomain;

fn main() {
    let traces: usize = std::env::var("AMPEREBLEED_TRACES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);

    let models = zoo();
    let all: Vec<&ModelArch> = models.iter().collect();
    let config = FingerprintConfig {
        traces_per_model: traces,
        capture_seconds: 5.0,
        ..FingerprintConfig::default()
    };

    eprintln!(
        "offline phase: {} models x {} traces x 6 channels ...",
        all.len(),
        config.traces_per_model
    );
    let corpus = collect_corpus(&all, &config, Pool::global(), UNDEFENDED).expect("corpus");

    eprintln!("evaluating 6 channels x 5 durations x 10-fold CV ...");
    let durations = [1.0, 2.0, 3.0, 4.0, 5.0];
    let grid = evaluate_grid(&corpus, &config, &durations, Pool::global()).expect("grid");

    section("Table III: top-1 / top-5 accuracy (chance = 0.0256)");
    println!(
        "{:<24} {:>13} {:>13} {:>13} {:>13} {:>13}",
        "Sensor", "1 s", "2 s", "3 s", "4 s", "5 s (full)"
    );
    for (sc, cells) in &grid.rows {
        print!("{:<24}", sc.to_string());
        for c in cells {
            print!(" {:>6}/{:<6}", acc(c.top1), acc(c.top5));
        }
        println!();
    }

    // Extension row: all four current sensors fused (the attacker reads
    // them all anyway).
    let currents: Vec<SensorChannel> = TABLE3_CHANNELS
        .iter()
        .copied()
        .filter(|sc| sc.channel == Channel::Current)
        .collect();
    let fused = build_fused_dataset(&corpus, &currents, 5.0, config.resample_len).expect("fused");
    let fused_report = cross_validate(
        &fused,
        &config.forest,
        config.folds,
        config.seed,
        Pool::global(),
    );
    println!(
        "{:<24} {:>62} {:>6}/{:<6}",
        "All currents (fused)",
        "",
        acc(fused_report.top1),
        acc(fused_report.top5)
    );

    // Shape assertions against the paper's ordering.
    let cell = |d: PowerDomain, ch: Channel| {
        grid.cell(
            SensorChannel {
                domain: d,
                channel: ch,
            },
            5.0,
        )
        .expect("cell")
    };
    let fpga_i = cell(PowerDomain::FpgaLogic, Channel::Current);
    let fpga_v = cell(PowerDomain::FpgaLogic, Channel::Voltage);
    let fpga_p = cell(PowerDomain::FpgaLogic, Channel::Power);
    let dram_i = cell(PowerDomain::Ddr, Channel::Current);
    let lp_i = cell(PowerDomain::LowPowerCpu, Channel::Current);

    assert!(
        fpga_i.top1 > 0.9,
        "FPGA current top-1 {} (paper 0.997)",
        fpga_i.top1
    );
    assert!(
        fpga_p.top1 > 0.8,
        "FPGA power top-1 {} (paper 0.989)",
        fpga_p.top1
    );
    assert!(
        dram_i.top1 > 0.7,
        "DRAM top-1 {} (paper 0.958)",
        dram_i.top1
    );
    assert!(
        fpga_v.top1 < 0.5,
        "FPGA voltage top-1 {} must collapse (paper 0.116)",
        fpga_v.top1
    );
    assert!(fpga_v.top1 > grid.chance(), "voltage still beats chance");
    assert!(fpga_i.top1 > fpga_v.top1 + 0.3, "current >> voltage");
    assert!(lp_i.top1 < fpga_i.top1, "LP CPU below FPGA current");
    // Durations help the strongest channel.
    let fpga_i_1s = grid
        .cell(
            SensorChannel {
                domain: PowerDomain::FpgaLogic,
                channel: Channel::Current,
            },
            1.0,
        )
        .unwrap();
    assert!(fpga_i.top1 >= fpga_i_1s.top1 - 0.05);
    println!("\n[ok] Table III shape reproduced (who wins, and by how much)");
}
