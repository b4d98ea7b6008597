//! Ablation studies for the design choices called out in DESIGN.md:
//!
//! 1. **Sensor update interval** (2-35 ms): how the hwmon cadence affects
//!    fingerprinting-relevant signal (per-window variance captured).
//! 2. **Power-register truncation** (x25 LSB): RSA group separability with
//!    the datasheet truncation vs. a hypothetical fine-grained power node.
//! 3. **PDN stabilizer strength**: the RO baseline only becomes viable
//!    when the stabilizer is weakened — why crafted-circuit attacks die on
//!    modern boards.
//! 4. **Forest size/depth**: classifier cost/accuracy trade-off.
//!
//! Run with: `cargo bench --bench ablations`

use amperebleed::defend::UNDEFENDED;
use amperebleed::fingerprint::{collect_corpus, evaluate_grid, FingerprintConfig, SensorChannel};
use amperebleed::rsa_attack::{self, RsaAttackConfig};
use amperebleed::{Channel, CurrentSampler, Platform};
use amperebleed_bench::section;
use dnn_models::{zoo, ModelArch};
use fpga_fabric::ring_oscillator::{RoBank, RoConfig};
use fpga_fabric::virus::VirusConfig;
use hwmon_sim::Privilege;
use rforest::ForestConfig;
use sim_rt::Pool;
use trace_stats::Summary;
use zynq_soc::board::BoardSpec;
use zynq_soc::{Pdn, PowerDomain, SimTime};

fn ablate_update_interval() {
    section("ablation 1: hwmon update interval (root-configurable, 2-35 ms)");
    let mut p = Platform::zcu102(401);
    let virus = p.deploy_virus(VirusConfig::default()).expect("virus");
    virus.activate_groups(80).unwrap();
    println!(
        "{:>12} {:>16} {:>14}",
        "interval", "fresh conv/s", "trace std(mA)"
    );
    for interval_ms in [2u64, 4, 9, 18, 35] {
        p.hwmon()
            .write(
                p.sensor_path(PowerDomain::FpgaLogic, "update_interval"),
                &interval_ms.to_string(),
                Privilege::Root,
            )
            .expect("root write");
        let sampler = CurrentSampler::unprivileged(&p);
        let trace = sampler
            .capture(
                PowerDomain::FpgaLogic,
                Channel::Current,
                SimTime::from_ms(40),
                1_000.0 / interval_ms as f64,
                400,
            )
            .expect("capture");
        let s = Summary::from_samples(&trace.samples).expect("summary");
        println!(
            "{:>10}ms {:>16.0} {:>14.2}",
            interval_ms,
            1_000.0 / interval_ms as f64,
            s.std_dev
        );
    }
    println!("(faster intervals average fewer ADC samples -> more per-read noise,");
    println!(" but deliver ~17x more independent observations per second)");
}

fn ablate_power_truncation() {
    section("ablation 2: power-register truncation (25 mW LSB vs current)");
    let config = RsaAttackConfig {
        samples_per_key: 15_000,
        ..RsaAttackConfig::default()
    };
    let report = rsa_attack::run(&config, UNDEFENDED).expect("attack");
    println!(
        "current channel (1 mA LSB) : {} / 17 groups",
        report.current_separability.distinguishable
    );
    println!(
        "power channel (25 mW LSB)  : {} / 17 groups",
        report.power_separability.distinguishable
    );
    assert!(
        report.power_separability.distinguishable < report.current_separability.distinguishable
    );
    println!("(the x25 LSB ratio is fixed by the INA226 datasheet: the power");
    println!(" channel is the current channel with its low bits cut off)");
}

fn ablate_stabilizer() {
    section("ablation 3: PDN stabilizer strength vs. RO baseline viability");
    // Drive the same load swing through PDNs of varying stabilizer
    // strength and measure the RO-observable relative variation.
    println!(
        "{:>10} {:>14} {:>18}",
        "strength", "droop (mV)", "RO rel. variation"
    );
    for strength in [1.0, 0.75, 0.5, 0.25, 0.0] {
        let pdn = Pdn::for_board(&BoardSpec::zcu102(), PowerDomain::FpgaLogic)
            .with_stabilizer_strength(strength);
        let v_idle = pdn.rail_voltage(880.0, 0.0);
        let v_busy = pdn.rail_voltage(7_280.0, 0.0);
        let mut bank = RoBank::new(RoConfig::default(), 4);
        let hi: f64 = (0..200)
            .map(|_| bank.sample_mean_count(v_idle))
            .sum::<f64>()
            / 200.0;
        let lo: f64 = (0..200)
            .map(|_| bank.sample_mean_count(v_busy))
            .sum::<f64>()
            / 200.0;
        println!(
            "{:>10.2} {:>14.2} {:>18.5}",
            strength,
            (v_idle - v_busy) * 1_000.0,
            (hi - lo) / hi
        );
    }
    println!("(only a weakened stabilizer gives the crafted circuit real signal;");
    println!(" AmpereBleed's current channel is independent of this knob)");
}

fn ablate_forest() {
    section("ablation 4: forest size / depth (6 models, FPGA current)");
    let models = zoo();
    let picks: Vec<&ModelArch> = [
        "mobilenet-v1",
        "squeezenet",
        "efficientnet-lite0",
        "inception-v3",
        "resnet-50",
        "vgg-19",
    ]
    .iter()
    .map(|n| models.iter().find(|m| &m.name == n).unwrap())
    .collect();
    let base = FingerprintConfig {
        traces_per_model: 8,
        capture_seconds: 3.0,
        folds: 4,
        ..FingerprintConfig::default()
    };
    let corpus = collect_corpus(&picks, &base, Pool::global(), UNDEFENDED).expect("corpus");
    println!("{:>8} {:>7} {:>8}", "trees", "depth", "top-1");
    for (trees, depth) in [(5, 4), (25, 8), (100, 32), (200, 32)] {
        let config = FingerprintConfig {
            forest: ForestConfig {
                n_trees: trees,
                max_depth: depth,
                ..ForestConfig::default()
            },
            ..base.clone()
        };
        let grid = evaluate_grid(&corpus, &config, &[3.0], Pool::global()).expect("grid");
        let cell = grid
            .cell(
                SensorChannel {
                    domain: PowerDomain::FpgaLogic,
                    channel: Channel::Current,
                },
                3.0,
            )
            .unwrap();
        println!("{trees:>8} {depth:>7} {:>8.3}", cell.top1);
    }
    println!("(the paper's 100 trees / depth 32 sits on the flat part of the curve)");
}

fn ablate_covert_bandwidth() {
    section("ablation 5: covert-channel bit period vs. error rate");
    use amperebleed::covert::{bit_error_rate, receive};
    use fpga_fabric::covert::CovertConfig;
    let payload = b"0123456789abcdef";
    println!("{:>12} {:>12} {:>10}", "bit period", "raw bit/s", "BER");
    for (ms, on_ma) in [
        (140u64, 400.0),
        (105, 400.0),
        (70, 400.0),
        (35, 400.0),
        (105, 8.0),
    ] {
        let config = CovertConfig {
            bit_period: SimTime::from_ms(ms),
            on_ma,
            ..CovertConfig::default()
        };
        let mut p = Platform::zcu102(405 ^ ms ^ on_ma as u64);
        p.deploy_covert_transmitter(config, payload)
            .expect("tx fits");
        let rx = receive(&p, &config, payload.len(), SimTime::from_ms(91)).expect("rx");
        let ber = bit_error_rate(payload, &rx.payload);
        let label = if on_ma < 50.0 {
            format!("{ms}ms/weak")
        } else {
            format!("{ms}ms")
        };
        println!(
            "{label:>12} {:>12.1} {:>10.4}",
            config.raw_bandwidth_bps(),
            ber
        );
    }
    println!("(multiple sensor updates per bit give voting margin; sub-update");
    println!(" periods and near-noise amplitudes corrupt the channel)");
}

fn ablate_dvfs_governor() {
    section("ablation 6: DVFS governor vs. CPU-rail signature");
    use zynq_soc::cpu::{CpuActivityConfig, CpuBackgroundLoad};
    use zynq_soc::dvfs::{DvfsConfig, DvfsCpuLoad, Governor};
    use zynq_soc::PowerLoad;
    let base = CpuBackgroundLoad::new(CpuActivityConfig::default(), 406);
    println!(
        "{:>14} {:>14} {:>12}",
        "governor", "mean I (mA)", "p2p (mA)"
    );
    for (name, governor) in [
        ("performance", Governor::Performance),
        ("powersave", Governor::Powersave),
        ("ondemand", Governor::Ondemand { up_threshold: 0.25 }),
    ] {
        let load = DvfsCpuLoad::new(
            base.clone(),
            DvfsConfig {
                governor,
                ..DvfsConfig::default()
            },
        );
        let samples: Vec<f64> = (0..600)
            .map(|k| load.current_ma(SimTime::from_ms(k * 10 + 3), PowerDomain::FullPowerCpu))
            .collect();
        let s = Summary::from_samples(&samples).expect("summary");
        println!("{name:>14} {:>14.1} {:>12.1}", s.mean, s.range());
    }
    println!("(an ondemand governor adds load-correlated frequency steps to the");
    println!(" CPU rail — extra structure a fingerprinting attacker can exploit)");
}

fn main() {
    ablate_update_interval();
    ablate_power_truncation();
    ablate_stabilizer();
    ablate_forest();
    ablate_covert_bandwidth();
    ablate_dvfs_governor();
    println!("\n[ok] ablations complete");
}
