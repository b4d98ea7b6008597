//! Figure 3 — current patterns leaked from the four sensitive sensors
//! while the DPU runs six different DNN models.
//!
//! The bench captures 5 s of each model's inference loop on all four
//! current sensors and prints a coarse ASCII rendering of each trace plus
//! its summary statistics; distinct per-model signatures are the raw
//! material of the Table III fingerprinting attack.
//!
//! Run with: `cargo bench --bench fig3_dpu_traces`

use amperebleed::{Channel, CurrentSampler, Platform};
use amperebleed_bench::section;
use dnn_models::zoo;
use dpu::DpuConfig;
use trace_stats::features::resample;
use trace_stats::Summary;
use zynq_soc::{PowerDomain, SimTime};

const FIGURE3_MODELS: [&str; 6] = [
    "mobilenet-v1",
    "squeezenet",
    "efficientnet-lite0",
    "inception-v3",
    "resnet-50",
    "vgg-19",
];

fn sparkline(xs: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-9);
    xs.iter()
        .map(|&x| GLYPHS[(((x - min) / span) * 7.0).round() as usize])
        .collect()
}

fn main() {
    let models = zoo();

    section("victim suite inventory (Section IV-B)");
    for fs in dnn_models::stats::family_stats(models) {
        println!(
            "{:<14} {:>2} models  {:>6.2}-{:<6.2} GMACs  mean {:>6.1} MB",
            fs.family.to_string(),
            fs.models,
            fs.min_gmacs,
            fs.max_gmacs,
            fs.mean_size_mb
        );
    }
    println!(
        "workload spread across the zoo: {:.0}x",
        dnn_models::stats::workload_spread(models).unwrap_or(f64::NAN)
    );
    let sensors = [
        PowerDomain::FullPowerCpu,
        PowerDomain::LowPowerCpu,
        PowerDomain::FpgaLogic,
        PowerDomain::Ddr,
    ];
    let rate = 1_000.0 / 35.0;
    let count = (5.0 * rate) as usize;

    let mut per_model_fpga_mean = Vec::new();
    for (i, name) in FIGURE3_MODELS.iter().enumerate() {
        let model = models.iter().find(|m| &m.name == name).expect("in zoo");
        section(&format!(
            "{name} ({:.1} MB, {:.2} GMACs)",
            model.model_size_mb(),
            model.total_macs() as f64 / 1e9
        ));
        let mut platform = Platform::zcu102(300 + i as u64);
        let dpu = platform.deploy_dpu(DpuConfig::default()).expect("dpu fits");
        dpu.load_model(model);
        let sampler = CurrentSampler::unprivileged(&platform);
        for &domain in &sensors {
            let trace = sampler
                .capture(domain, Channel::Current, SimTime::from_ms(40), rate, count)
                .expect("capture");
            let s = Summary::from_samples(&trace.samples).expect("summary");
            let shrunk = resample(&trace.samples, 64).expect("resample");
            println!(
                "{:<15} mean {:>7.0} mA  p2p {:>6.0} mA  {}",
                domain.to_string(),
                s.mean,
                s.range(),
                sparkline(&shrunk)
            );
            if domain == PowerDomain::FpgaLogic {
                per_model_fpga_mean.push(s.mean);
            }
        }
    }

    // Shape assertion: the six models produce pairwise-distinct mean FPGA
    // currents (sufficient separation for fingerprinting).
    section("per-model FPGA current means");
    for (name, mean) in FIGURE3_MODELS.iter().zip(&per_model_fpga_mean) {
        println!("{name:<22} {mean:>8.1} mA");
    }
    for i in 0..per_model_fpga_mean.len() {
        for j in i + 1..per_model_fpga_mean.len() {
            assert!(
                (per_model_fpga_mean[i] - per_model_fpga_mean[j]).abs() > 5.0,
                "{} and {} look alike",
                FIGURE3_MODELS[i],
                FIGURE3_MODELS[j]
            );
        }
    }
    println!("\n[ok] six distinct current signatures (Figure 3 shape)");
}
