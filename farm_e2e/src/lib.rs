//! Pure logic of the `farm_e2e` benchmark: the workload and metric
//! declarations, the seeded request mixes, the order statistics, and the
//! A/B verdict rules. The bench target in `benches/farm_e2e/` owns every socket,
//! clock and child process; everything here is deterministic and
//! unit-tested.
//!
//! `BENCHMARK.json` at the repository root declares the same workloads
//! and metrics (plus the regression bounds); a test keeps the two equal.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mix;
pub mod scan;
pub mod stats;
pub mod verdict;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, counts of waste).
    Lower,
    /// Larger values are better (throughput, hit ratios).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`, layer-prefixed for per-layer ones.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// A simulated count: a speed-only change must leave it identical.
    pub sim_stat: bool,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        sim_stat: false,
    }
}

const fn sim(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        sim_stat: true,
    }
}

use Better::{Higher, Lower};

/// Metrics a tenant of the farm sees, reported by every untraced run.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower),
    m("ops_per_s", "ops/s", Higher),
    m("latency_p50_ms", "ms", Lower),
    m("latency_p90_ms", "ms", Lower),
    m("peak_rss_mb", "MiB", Lower),
];

/// Metrics of single layers, reported by the traced run. A layer that is
/// not on a workload's path reports 0.
pub const PER_LAYER: &[Metric] = &[
    m("server.wire_ms_p50", "ms", Lower),
    m("server.wire_ms_p99", "ms", Lower),
    m("client.decode_us", "us", Lower),
    m("gen.lag_p99_ms", "ms", Lower),
    m("protocol.parse_request_us", "us", Lower),
    m("protocol.encode_response_us", "us", Lower),
    m("protocol.response_bytes", "bytes", Lower),
    m("store.key_us", "us", Lower),
    m("store.get_hot_us", "us", Lower),
    m("store.get_persist_us", "us", Lower),
    m("store.hit_decode_us", "us", Lower),
    m("store.insert_us", "us", Lower),
    m("store.lookup_us_p50", "us", Lower),
    m("store.open_ms", "ms", Lower),
    m("store.persist_hit_frac", "1", Lower),
    m("store.hit_ratio", "1", Higher),
    m("sched.request_ms_p50", "ms", Lower),
    m("sched.request_ms_p99", "ms", Lower),
    m("sched.wait_ms", "ms", Lower),
    m("sched.batch_size_mean", "count", Higher),
    m("sched.dedup_ratio", "1", Higher),
    m("sched.shed", "count", Lower),
    m("sched.timeouts", "count", Lower),
    m("farm.image_us", "us", Lower),
    m("farm.waits", "count", Lower),
    m("farm.platform_inits_per_op", "count", Lower),
    m("exec.quickstart_ms", "ms", Lower),
    m("exec.covert_ms", "ms", Lower),
    m("exec.characterize_ms", "ms", Lower),
    m("exec.rsa_ms", "ms", Lower),
    m("exec.defend_ms", "ms", Lower),
    m("exec.group_ms_p50", "ms", Lower),
    m("exec.group_ms_p99", "ms", Lower),
    m("sampler.share", "1", Lower),
    m("sampler.ns_per_read", "ns", Lower),
    m("soc.oppoint_hit_ratio", "1", Higher),
    sim("sampler.reads_per_op", "count"),
    sim("hwmon.fresh_frac", "1"),
    sim("ina226.conversions_per_op", "count"),
    sim("soc.pdn_transients_per_op", "count"),
    sim("fabric.virus_activations_per_op", "count"),
    m("campaign.characterization_ms", "ms", Lower),
    m("campaign.fingerprinting_ms", "ms", Lower),
    m("campaign.rsa_ms", "ms", Lower),
    m("campaign.covert_ms", "ms", Lower),
    m("campaign.tee_workload_ms", "ms", Lower),
    m("campaign.mitigation_ms", "ms", Lower),
    m("rforest.fit_ms", "ms", Lower),
    sim("rforest.fits_per_op", "count"),
    sim("dpu.model_loads_per_op", "count"),
    m("pool.busy_frac", "1", Higher),
    m("pool.jobs_stolen", "count", Lower),
    m("serve.pool_busy_frac", "1", Higher),
    m("bench.trace_overhead_pct", "%", Lower),
    m("bench.replay_span_cover", "1", Higher),
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Workload name as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists: the layers it loads and the changes it
    /// should (and should not) register.
    pub why: &'static str,
}

/// The served cold mix: distinct campaigns, every request a store miss.
pub const COLD: &str = "farm_cold_mix";
/// The served warm replay: a Zipf-popular catalog answered by the store.
pub const WARM: &str = "farm_warm_replay";
/// The served burst: identical requests deduplicated by the scheduler.
pub const BURST: &str = "farm_burst_dedup";
/// The offline full campaign, no server.
pub const OFFLINE: &str = "campaign_offline";

/// Every workload, in run order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: COLD,
        why: "distinct campaigns, each a store miss plus insert: time goes to campaign execution down \
              sampler, hwmon, INA226 and op-point; batching never fires",
    },
    Workload {
        name: WARM,
        why: "Zipf replay of a stored 256-campaign catalog plus 2% fresh misses: TCP front, protocol \
              codec and store lookup do the work, execution runs for 2% of requests",
    },
    Workload {
        name: BURST,
        why: "bursts of 16 identical requests with the store off: scheduler grouping, dedup, fan-out \
              and per-response encode dominate at one execution per 16 requests",
    },
    Workload {
        name: OFFLINE,
        why: "back-to-back full paper campaigns with no server: rforest, dpu, trace-stats and pool \
              parallelism, and no serving layer",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Looks a metric up by name in either table.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Whether `name` is a legal workload or metric name: one or more of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit, at most 64 long.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `nproc` the results depend on: CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_rt::ser::Value;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        sim_rt::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names_of(v: &Value, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has a `{key}` array"))
            .iter()
            .map(|e| e.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_names_match_the_code() {
        let doc = benchmark_json();
        let workloads = names_of(&doc, "workloads");
        let code: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, code);

        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = doc.get(key).and_then(Value::as_array).unwrap();
            assert_eq!(entries.len(), table.len(), "{key}");
            for (entry, metric) in entries.iter().zip(table) {
                let field = |f: &str| entry.get(f).and_then(Value::as_str).unwrap();
                assert_eq!(field("name"), metric.name, "{key}");
                assert_eq!(field("unit"), metric.unit, "{}", metric.name);
                assert_eq!(field("better"), metric.better.as_str(), "{}", metric.name);
            }
        }
        for w in WORKLOADS {
            let why = doc
                .get("workloads")
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .find(|e| e.get("name").and_then(Value::as_str) == Some(w.name))
                .and_then(|e| e.get("why"))
                .and_then(Value::as_str)
                .unwrap()
                .to_string();
            assert_eq!(why, w.why, "{}", w.name);
        }
    }

    #[test]
    fn every_name_is_legal_and_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!metric.unit.is_empty() && metric.unit.len() <= 16);
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name(""));
    }

    #[test]
    fn benchmark_json_bounds_respect_the_contract() {
        let doc = benchmark_json();
        let e2e = doc.get("end_to_end").and_then(Value::as_array).unwrap();
        let bound = |name: &str| {
            e2e.iter()
                .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
                .and_then(|e| e.get("bound"))
                .and_then(Value::as_f64)
                .unwrap()
        };
        let largest = END_TO_END.iter().map(|m| bound(m.name)).fold(0.0, f64::max);
        assert!(largest <= 0.25);
        assert_eq!(
            bound("setup_s"),
            largest,
            "set-up carries the largest bound"
        );
    }
}
