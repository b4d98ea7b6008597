//! The `perf` benchmark suite body, shared between the `cargo bench`
//! entry point (`benches/perf.rs`) and the in-tree smoke test that runs
//! the same code on the quick schedule under `cargo test`.

use std::hint::black_box;

use amperebleed::{Channel, CurrentSampler, Platform};
use dnn_models::zoo;
use dpu::{DpuAccelerator, DpuConfig};
use fpga_fabric::bigint::U1024;
use fpga_fabric::virus::VirusConfig;
use rforest::{cross_validate, Dataset, ForestConfig, RandomForest};
use sim_rt::bench::Harness;
use sim_rt::Pool;
use zynq_soc::{PowerDomain, PowerLoad, SimTime};

fn bench_sampler(h: &mut Harness) {
    let mut platform = Platform::zcu102(1);
    let virus = platform.deploy_virus(VirusConfig::default()).unwrap();
    virus.activate_groups(80).unwrap();
    let sampler = CurrentSampler::unprivileged(&platform);
    let mut t = 40_000_000u64; // advance so every read hits a fresh window
    h.bench("hwmon_read_current_fresh_conversion", || {
        t += 35_000_000;
        sampler
            .read_once(
                PowerDomain::FpgaLogic,
                Channel::Current,
                SimTime::from_nanos(t),
            )
            .unwrap()
    });
    h.bench("hwmon_read_current_held_value", || {
        sampler
            .read_once(
                PowerDomain::FpgaLogic,
                Channel::Current,
                SimTime::from_ms(40),
            )
            .unwrap()
    });
}

fn bench_loads(h: &mut Harness) {
    let virus = fpga_fabric::virus::PowerVirusArray::new(VirusConfig::default(), 2);
    virus.activate_groups(160).unwrap();
    let mut t = 0u64;
    h.bench("virus_array_current_eval", || {
        t += 100_000;
        virus.current_ma(SimTime::from_nanos(t), PowerDomain::FpgaLogic)
    });

    let models = zoo();
    let densenet = models.iter().find(|m| m.name == "densenet-264").unwrap();
    let dpu = DpuAccelerator::new(DpuConfig::default(), 3);
    dpu.load_model(densenet);
    let mut t = 0u64;
    h.bench("dpu_current_eval_densenet264", || {
        t += 137_000;
        dpu.current_ma(SimTime::from_nanos(t), PowerDomain::FpgaLogic)
    });
}

fn bench_bigint(h: &mut Harness) {
    let mut m = U1024::random(10);
    m.set_bit(0, true);
    m.set_bit(1023, true);
    let a = U1024::random(11).reduce(&m);
    let b_val = U1024::random(12).reduce(&m);
    h.bench("u1024_mod_mul_full_width", || {
        a.mod_mul(black_box(&b_val), &m)
    });
    let e = U1024::from_u64(65_537);
    h.bench("u1024_mod_exp_e65537", || a.mod_exp(black_box(&e), &m));
}

/// A Table III-shaped dataset: `classes` x 10 samples x 103 features
/// (the paper's grid is 39 classes; the smoke schedule shrinks it).
fn table3_dataset(classes: usize) -> Dataset {
    let mut features = Vec::new();
    let mut labels = Vec::new();
    for class in 0..classes {
        for rep in 0..10usize {
            let row: Vec<f64> = (0..103)
                .map(|f| ((class * 31 + rep * 7 + f) as f64 * 0.37).sin() + class as f64)
                .collect();
            features.push(row);
            labels.push(class);
        }
    }
    Dataset::new(features, labels).unwrap()
}

fn bench_forest(h: &mut Harness) {
    let data = table3_dataset(if h.is_quick() { 8 } else { 39 });
    let config = ForestConfig {
        n_trees: if h.is_quick() { 5 } else { 20 },
        ..ForestConfig::default()
    };
    h.bench_with_setup(
        "rforest_fit_39class_20trees",
        || data.clone(),
        |d| RandomForest::fit(&d, &config, Pool::global()),
    );
    let forest = RandomForest::fit(&data, &config, Pool::global());
    let probe = data.features_of(0).to_vec();
    h.bench("rforest_predict", || forest.predict(black_box(&probe)));
}

/// 10-fold CV on one thread vs. the work-stealing pool: the runtime's
/// measured speedup. On a single-core host the ratio hovers around 1.0
/// (pool overhead only) — print it, don't assert on it.
fn bench_forest_cv_speedup(h: &mut Harness) {
    let data = table3_dataset(if h.is_quick() { 8 } else { 39 });
    let config = ForestConfig {
        n_trees: if h.is_quick() { 4 } else { 10 },
        ..ForestConfig::default()
    };
    let serial = h.bench("rforest_cv10_serial", || {
        cross_validate(&data, &config, 10, 7, &Pool::serial())
    });
    let pool = Pool::new(0); // 0 = one worker per available core
    let parallel = h.bench("rforest_cv10_pooled", || {
        cross_validate(&data, &config, 10, 7, &pool)
    });
    println!(
        "perf/cv10 speedup: {:.2}x on {} worker thread(s)",
        serial.ns_per_iter / parallel.ns_per_iter,
        pool.threads()
    );
}

fn bench_signal(h: &mut Harness) {
    // A 5 s capture at the 35 ms cadence is 143 samples; pad to 256.
    let trace: Vec<f64> = (0..143)
        .map(|i| (i as f64 * 0.37).sin() * 100.0 + 1_500.0)
        .collect();
    h.bench("power_spectrum_143_samples", || {
        trace_stats::spectrum::power_spectrum(black_box(&trace)).unwrap()
    });
    h.bench("feature_vector_143_samples", || {
        trace_stats::features::feature_vector(black_box(&trace), 96).unwrap()
    });
    h.bench("autocorrelation_143_samples", || {
        trace_stats::periodicity::autocorrelation(black_box(&trace), 71).unwrap()
    });
}

/// Runs every benchmark group on `h`.
pub fn run_suite(h: &mut Harness) {
    bench_sampler(h);
    bench_loads(h);
    bench_bigint(h);
    bench_forest(h);
    bench_forest_cv_speedup(h);
    bench_signal(h);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole perf suite on the 3-iteration quick schedule: every hot
    /// path exercised, the CV speedup ratio printed, nothing asserted
    /// about absolute timings.
    #[test]
    fn perf_smoke() {
        let mut h = Harness::quick("perf-smoke");
        run_suite(&mut h);
        assert_eq!(h.results().len(), 13, "one measurement per bench");
        assert!(h.results().iter().all(|m| m.iters == 3));
        h.finish();
    }
}
