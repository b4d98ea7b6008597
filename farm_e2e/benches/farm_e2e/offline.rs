//! The offline workload: back-to-back full campaigns on the global pool,
//! with no server.

use std::collections::BTreeMap;
use std::time::Instant;

use amperebleed::campaign::{self, CampaignConfig, CampaignReport};
use farm_e2e::stats::{median, sorted};
use farm_e2e::PER_LAYER;
use sim_rt::pool::Pool;
use sim_rt::rng::derive_seed;
use sim_store::Digest;

use crate::replay::{root_cover, SimCounts};
use crate::served::{pool_layers, sampler_layers, SETUP_BLOCK};
use crate::spans::{Clock, Spans};
use crate::{peak_rss_mb, Args, Report, OUT_DIR};

/// Throughput rounds; the median round's rate is reported.
const ROUNDS: usize = 10;
/// Campaigns a p90 needs: ten beyond its rank.
const MIN_CAMPAIGNS: usize = 100;
/// Campaigns replayed serially as the reference and for the sim counts.
const REPLAYED: u64 = 2;

fn config(seed: u64, i: u64) -> CampaignConfig {
    CampaignConfig {
        seed: derive_seed(seed, i),
        ..CampaignConfig::default()
    }
}

/// The campaign's reproduced shapes, rendered exactly.
fn shape(r: &CampaignReport) -> String {
    let c = &r.characterization;
    let cells: Vec<String> = r
        .fingerprint_grid
        .rows
        .iter()
        .flat_map(|(_, cells)| cells.iter().map(|x| format!("{}/{}", x.top1, x.top5)))
        .collect();
    format!(
        "r_I={} r_V={} r_P={} ratio={:?} grid=[{}] rsa={}/{} ber={} tee={} workload={} mitigated={}",
        c.pearson_current,
        c.pearson_voltage,
        c.pearson_power,
        c.variation_ratio_vs_ro,
        cells.join(","),
        r.rsa.current_separability.distinguishable,
        r.rsa.power_separability.distinguishable,
        r.covert_ber,
        r.tee_accuracy,
        r.workload_accuracy,
        r.mitigation_effective
    )
}

/// The paper's shapes every campaign must reproduce.
fn check(r: &CampaignReport) -> Result<(), String> {
    let c = r.characterization.pearson_current;
    if c <= 0.99 {
        return Err(format!("pearson_current {c} <= 0.99"));
    }
    if !r.rsa.current_separates_all() {
        return Err("current no longer separates every RSA group".into());
    }
    if r.covert_ber != 0.0 {
        return Err(format!("covert BER {}", r.covert_ber));
    }
    if !r.mitigation_effective {
        return Err("mitigation no longer blocks the attack".into());
    }
    Ok(())
}

fn phase_metric(name: &str) -> Option<&'static str> {
    Some(match name {
        "characterization" => "campaign.characterization_ms",
        "fingerprinting" => "campaign.fingerprinting_ms",
        "rsa" => "campaign.rsa_ms",
        "covert" => "campaign.covert_ms",
        "tee+workload" => "campaign.tee_workload_ms",
        "mitigation" => "campaign.mitigation_ms",
        _ => return None,
    })
}

/// The measuring child of the offline workload.
pub fn measure(args: &Args) -> Result<Report, String> {
    // Set-up: what the first campaign would otherwise pay, timed in
    // blocks before, amid and after the rounds (see `SETUP_BLOCK`).
    let traced = args.trace;
    let mut setups = Vec::with_capacity(3 * SETUP_BLOCK);
    let setup_block = |setups: &mut Vec<f64>| {
        for _ in 0..SETUP_BLOCK {
            let t0 = Instant::now();
            obs::init();
            let threads = Pool::global().threads();
            let zoo = dnn_models::zoo();
            std::hint::black_box((threads, zoo));
            setups.push(t0.elapsed().as_secs_f64());
        }
    };
    setup_block(&mut setups);

    let clock = Clock::start();
    let round_ns = (args.length() / ROUNDS as f64 * 1e9) as u64;
    let global_before = Pool::global().stats();
    if traced {
        obs::metrics::reset();
    }
    let mut report = Report::default();
    let mut latencies = Vec::new();
    let mut rates = Vec::new();
    let mut phases: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut shapes = Vec::new();
    // Runs campaign `i`; returns when it ended and how long it took (ms).
    let mut run_one = |i: u64, report: &mut Report| {
        let t0 = clock.now();
        let result = campaign::run(&config(args.seed, i));
        let t1 = clock.now();
        report.attempted += 1;
        match result
            .map_err(|e| e.to_string())
            .and_then(|r| check(&r).map(|()| r))
        {
            Ok(r) => {
                for p in &r.phase_timings {
                    if let Some(name) = phase_metric(p.name) {
                        phases
                            .entry(name)
                            .or_default()
                            .push(p.elapsed.as_secs_f64() * 1e3);
                    }
                }
                if i < REPLAYED {
                    shapes.push(shape(&r));
                }
            }
            Err(e) => report.fail(format!("campaign {i}: {e}")),
        }
        (t1, (t1 - t0) as f64 / 1e6)
    };
    // Campaign 0 runs first and untimed: the first campaign in a process
    // pays lazy initialisation the rest do not.
    let t_load = clock.now();
    run_one(0, &mut report);
    let mut i = 1u64;
    for round in 0..ROUNDS {
        if round == ROUNDS / 2 && !traced {
            setup_block(&mut setups);
        }
        let start = clock.now();
        let mut done = 0u64;
        loop {
            let (end, ms) = run_one(i, &mut report);
            latencies.push(ms);
            i += 1;
            done += 1;
            if end - start >= round_ns {
                rates.push(done as f64 / ((end - start) as f64 / 1e9));
                break;
            }
        }
    }
    while !args.quick && latencies.len() < MIN_CAMPAIGNS {
        latencies.push(run_one(i, &mut report).1);
        i += 1;
    }
    let wall_ns = clock.now() - t_load;
    let peak_rss = peak_rss_mb();
    let snap = obs::metrics::snapshot();
    if !traced {
        setup_block(&mut setups);
    }

    // Serial replay of the first campaigns: the reference shapes and the
    // simulated counts per campaign.
    let mut spans = Spans::default();
    let mut sim = SimCounts::default();
    let mut replayed = Vec::new();
    let t_replay = clock.now();
    for i in 0..REPLAYED {
        obs::metrics::reset();
        let root = spans.next_id();
        let start = clock.now();
        match campaign::run(&config(args.seed, i)) {
            Ok(r) => {
                let mut at = start;
                for p in &r.phase_timings {
                    let end = at + p.elapsed.as_nanos() as u64;
                    let id = spans.next_id();
                    spans.push(id, root, i as i64, p.name, at, end);
                    at = end;
                }
                replayed.push(shape(&r));
            }
            Err(e) => report.fail(format!("replayed campaign {i}: {e}")),
        }
        spans.push(root, 0, i as i64, "replay.campaign", start, clock.now());
        sim.add(&obs::metrics::snapshot());
    }
    let replay_ns = clock.now() - t_replay;
    if replayed != shapes {
        report.fail("campaign results differ from their serial replay".into());
    }
    report.digest =
        (replayed.len() as u64 == REPLAYED).then(|| Digest::of_str(&replayed.join("\n")).hex());
    report.correct = report.failed == 0;

    let ops = median(&rates).unwrap_or(0.0);
    report.info.insert("ops_per_s", ops);
    let latencies = sorted(latencies);

    if traced {
        let layers = &mut report.metrics;
        for m in PER_LAYER {
            layers.insert(m.name, 0.0);
        }
        for (name, values) in &phases {
            layers.insert(name, median(values).unwrap_or(0.0));
        }
        let fit = snap
            .histogram("span.rforest.forest.fit.ns")
            .filter(|h| h.count > 0);
        layers.insert("rforest.fit_ms", fit.map_or(0.0, |h| h.mean / 1e6));
        sampler_layers(&snap, layers);
        pool_layers(global_before, wall_ns, layers);
        sim.fill(REPLAYED as usize, layers);
        let campaign_ns: u64 = spans
            .list
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        layers.insert(
            "sampler.share",
            sim.capture_ns as f64 / campaign_ns.max(1) as f64,
        );
        layers.insert("bench.replay_span_cover", root_cover(&spans, replay_ns));
        let path = std::path::Path::new(OUT_DIR).join("campaign_offline.trace.jsonl");
        let _ = std::fs::remove_file(&path);
        spans
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        return Ok(report);
    }

    report.set_end_to_end(&setups, ops, peak_rss, &latencies, args.quick)?;
    Ok(report)
}
