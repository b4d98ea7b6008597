//! End-to-end runs of the three attacks on reduced configurations:
//! characterization (Fig. 2), DPU fingerprinting (Table III) and RSA
//! Hamming-weight recovery (Fig. 4).

use amperebleed::characterize::{self, CharacterizeConfig};
use amperebleed::defend::UNDEFENDED;
use amperebleed::fingerprint::{
    collect_corpus, evaluate_grid, FingerprintConfig, Fingerprinter, SensorChannel, TABLE3_CHANNELS,
};
use amperebleed::rsa_attack::{self, RsaAttackConfig};
use amperebleed::{Channel, CurrentSampler, Platform};
use dnn_models::zoo;
use dpu::DpuConfig;
use fpga_fabric::ring_oscillator::RoConfig;
use fpga_fabric::virus::VirusConfig;
use sim_rt::Pool;
use zynq_soc::{PowerDomain, SimTime};

#[test]
fn characterization_beats_ro_baseline_by_two_orders() {
    let mut p = Platform::zcu102(100);
    p.deploy_virus(VirusConfig::default()).unwrap();
    p.deploy_ro_bank(RoConfig::default()).unwrap();
    let report = characterize::run(&p, &CharacterizeConfig::quick()).unwrap();

    assert!(report.pearson_current > 0.995);
    assert!(report.pearson_power > 0.995);
    assert!(report.pearson_ro.unwrap().abs() > 0.95);
    let ratio = report.variation_ratio_vs_ro.unwrap();
    assert!(
        ratio > 100.0,
        "current variation must dwarf RO variation (got {ratio}x)"
    );
}

#[test]
fn fingerprinting_identifies_figure_three_models() {
    // The six models shown in Figure 3.
    let models = zoo();
    let six: Vec<&dnn_models::ModelArch> = [
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
    let config = FingerprintConfig::quick();
    let corpus = collect_corpus(&six, &config, Pool::global(), UNDEFENDED).unwrap();
    let grid = evaluate_grid(&corpus, &config, &[1.0, 2.0], Pool::global()).unwrap();

    let fpga_current = SensorChannel {
        domain: PowerDomain::FpgaLogic,
        channel: Channel::Current,
    };
    let best = grid.cell(fpga_current, 2.0).unwrap();
    assert!(
        best.top1 > 0.8,
        "FPGA current should fingerprint 6 models nearly perfectly ({})",
        best.top1
    );
    assert!(best.top1 > grid.chance() * 3.0);

    // Longer captures help (or at least do not hurt much).
    let short = grid.cell(fpga_current, 1.0).unwrap();
    assert!(best.top1 >= short.top1 - 0.1);

    // Voltage is the weakest of the six rows.
    let voltage = grid
        .cell(
            SensorChannel {
                domain: PowerDomain::FpgaLogic,
                channel: Channel::Voltage,
            },
            2.0,
        )
        .unwrap();
    for &sc in &TABLE3_CHANNELS {
        let cell = grid.cell(sc, 2.0).unwrap();
        assert!(
            voltage.top1 <= cell.top1 + 1e-9,
            "voltage ({}) should not beat {sc} ({})",
            voltage.top1,
            cell.top1
        );
    }
}

#[test]
fn online_attack_on_unseen_capture() {
    let models = zoo();
    let four: Vec<&dnn_models::ModelArch> = ["mobilenet-v1", "resnet-50", "vgg-19", "densenet-121"]
        .iter()
        .map(|n| models.iter().find(|m| &m.name == n).unwrap())
        .collect();
    let config = FingerprintConfig::quick();
    let corpus = collect_corpus(&four, &config, Pool::global(), UNDEFENDED).unwrap();
    let fp = Fingerprinter::train(
        &corpus,
        SensorChannel {
            domain: PowerDomain::FpgaLogic,
            channel: Channel::Current,
        },
        &config,
    )
    .unwrap();

    // A black-box victim on a platform seed never seen in training.
    let mut hits = 0;
    for (i, victim) in four.iter().enumerate() {
        let mut platform = Platform::zcu102(0xBEEF + i as u64);
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
        if fp.identify(&trace).unwrap() == victim.name {
            hits += 1;
        }
    }
    assert!(hits >= 3, "online attack hit only {hits}/4");
}

#[test]
fn rsa_hamming_weight_recovery() {
    let report = rsa_attack::run(&RsaAttackConfig::quick(), UNDEFENDED).unwrap();
    // Current: every group separable; power: strictly fewer groups than
    // current on the full 17-key sweep (quick sweep uses 5 widely spaced
    // keys, so power may still separate all of them — check ordering only).
    assert!(report.current_separates_all());
    assert!(
        report.power_separability.distinguishable <= report.current_separability.distinguishable
    );
    // Mean current monotone in weight.
    let means: Vec<f64> = report
        .observations
        .iter()
        .map(|o| o.current_ma.mean)
        .collect();
    for w in means.windows(2) {
        assert!(w[1] > w[0]);
    }
}

#[test]
fn rsa_power_channel_collapses_adjacent_groups() {
    // Three adjacent paper keys (64 bits apart, ~8 mA / ~7 mW apart):
    // current separates them, the 25 mW power LSB does not.
    let config = RsaAttackConfig {
        hamming_weights: vec![448, 512, 576],
        samples_per_key: 6_000,
        ..RsaAttackConfig::quick()
    };
    let report = rsa_attack::run(&config, UNDEFENDED).unwrap();
    assert_eq!(report.current_separability.distinguishable, 3);
    assert!(
        report.power_separability.distinguishable < 3,
        "power should merge adjacent groups, got {}",
        report.power_separability.distinguishable
    );
}
