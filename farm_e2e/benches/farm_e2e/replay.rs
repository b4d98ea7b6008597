//! Serial replay: after the server has shut down, each sampled request
//! walks the server's layers one public call at a time, in server order,
//! each call inside a bench span. The results are the byte-for-byte
//! reference the served responses are checked against; the spans give
//! the per-layer times.

use std::collections::BTreeMap;
use std::path::Path;

use farm_e2e::mix::CAMPAIGN_VERBS;
use farm_e2e::stats::median;
use obs::metrics::MetricsSnapshot;
use sim_serve::exec;
use sim_serve::farm::Farm;
use sim_serve::protocol::{parse_request, Request, Response};
use sim_store::{Store, StoreConfig};

use crate::served::BOARDS;
use crate::spans::{Clock, Spans};

/// What a replay produced.
pub struct Replay {
    /// Reference result JSON by request key.
    pub refs: BTreeMap<String, String>,
    /// Failures met on the way (a stored result that differs from a
    /// fresh execution, or a request that no longer runs).
    pub errors: Vec<String>,
    /// Per-layer metrics measured by the replay.
    pub layers: BTreeMap<&'static str, f64>,
    /// The replay's spans.
    pub spans: Spans,
    /// The seed unpinned requests adopt on this farm.
    pub default_seed: u64,
}

/// Identity of a request's result: verb, effective seed, canonical config.
pub fn key_of(req: &Request, default_seed: u64) -> String {
    format!(
        "{}\u{1f}{}\u{1f}{}",
        req.verb,
        req.seed.unwrap_or(default_seed),
        req.config.to_canonical_json()
    )
}

fn exec_span(verb: &str) -> &'static str {
    match verb {
        "quickstart" => "exec.quickstart",
        "covert" => "exec.covert",
        "characterize" => "exec.characterize",
        "rsa" => "exec.rsa",
        "defend" => "exec.defend",
        _ => "exec.other",
    }
}

/// Simulated counts summed over registry snapshots.
#[derive(Debug, Default)]
pub struct SimCounts {
    reads: u64,
    fresh: u64,
    held: u64,
    conversions: u64,
    transients: u64,
    activations: u64,
    fits: u64,
    model_loads: u64,
    /// Σ `sampler.capture.ns`.
    pub capture_ns: u64,
}

impl SimCounts {
    /// Adds a snapshot taken after a registry reset.
    pub fn add(&mut self, snap: &MetricsSnapshot) {
        let c = |name: &str| snap.counter(name).unwrap_or(0);
        self.reads +=
            c("sampler.reads.current") + c("sampler.reads.voltage") + c("sampler.reads.power");
        self.fresh += c("hwmon.reads.fresh");
        self.held += c("hwmon.reads.held");
        self.conversions += c("ina226.conversions");
        self.transients += c("zynq.pdn.transients");
        self.activations += c("fabric.virus.activations");
        self.fits += c("rforest.fits");
        self.model_loads += c("dpu.model_loads");
        self.capture_ns += snap.histogram("sampler.capture.ns").map_or(0, |h| h.sum);
    }

    /// The simulated-count metrics per operation.
    pub fn fill(&self, ops: usize, layers: &mut BTreeMap<&'static str, f64>) {
        let per_op = |n: u64| n as f64 / ops.max(1) as f64;
        layers.insert("sampler.reads_per_op", per_op(self.reads));
        layers.insert(
            "hwmon.fresh_frac",
            self.fresh as f64 / (self.fresh + self.held).max(1) as f64,
        );
        layers.insert("ina226.conversions_per_op", per_op(self.conversions));
        layers.insert("soc.pdn_transients_per_op", per_op(self.transients));
        layers.insert("fabric.virus_activations_per_op", per_op(self.activations));
        layers.insert("rforest.fits_per_op", per_op(self.fits));
        layers.insert("dpu.model_loads_per_op", per_op(self.model_loads));
    }
}

/// Share of `wall_ns` covered by root spans.
pub fn root_cover(spans: &Spans, wall_ns: u64) -> f64 {
    let covered: u64 = spans
        .list
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    covered as f64 / wall_ns.max(1) as f64
}

struct Walk {
    clock: Clock,
    spans: Spans,
    store: Store,
    farm: Farm,
    default_seed: u64,
    refs: BTreeMap<String, String>,
    errors: Vec<String>,
    response_bytes: Vec<f64>,
}

impl Walk {
    /// One request through every layer the server would call.
    fn request(&mut self, req: &Request) {
        let line = req.to_json_line();
        let (id, clock) = (req.id, self.clock);
        let root = self.spans.next_id();
        let start = clock.now();
        let sp = &mut self.spans;

        let parsed = sp.time(&clock, root, id, "protocol.parse_request", || {
            parse_request(line.trim())
        });
        let parsed = match parsed {
            Ok(p) => p,
            Err(e) => {
                self.errors.push(format!("replay id {id}: {e}"));
                return;
            }
        };
        let (verb, config) = (parsed.verb.as_str(), &parsed.config);
        let seed = parsed.seed.unwrap_or(self.default_seed);
        let key = sp.time(&clock, root, id, "store.key", || {
            Store::key(verb, seed, config)
        });

        let before = self.store.stats();
        let t = clock.now();
        let got = self.store.get(&key);
        let tier = match (&got, self.store.stats().hits_persist > before.hits_persist) {
            (None, _) => "store.get_miss",
            (Some(_), true) => "store.get_persist",
            (Some(_), false) => "store.get_hot",
        };
        let span_id = sp.next_id();
        sp.push(span_id, root, id, tier, t, clock.now());
        let stored = got.map(|json| {
            sp.time(&clock, root, id, "store.hit_decode", || {
                sim_rt::json::parse(&json)
            })
        });

        let farm = &self.farm;
        let board = sp.time(&clock, root, id, "farm.checkout", || farm.checkout(seed));
        let result = if exec::uses_board_platform(verb) && board.seed == seed {
            match sp.time(&clock, root, id, "farm.image", || board.image()) {
                Ok(platform) => sp.time(&clock, root, id, exec_span(verb), || {
                    exec::execute_on(&platform, verb, seed, config)
                }),
                Err(e) => Err(e),
            }
        } else {
            sp.time(&clock, root, id, exec_span(verb), || {
                exec::execute(verb, seed, config)
            })
        };
        let board_id = board.id as u64;
        farm.checkin(board);
        let value = match result {
            Ok(v) => v,
            Err(e) => {
                self.errors.push(format!(
                    "replay {verb} seed {seed}: {} {}",
                    e.kind, e.message
                ));
                return;
            }
        };

        let store = &self.store;
        let json = sp.time(&clock, root, id, "store.insert", || {
            let json = value.to_json();
            store.insert(&key, verb, seed, &json);
            json
        });
        sp.time(&clock, root, id, "store.get_hot", || store.get(&key));
        let wire = sp.time(&clock, root, id, "protocol.encode_response", || {
            Response::ok(parsed.id, verb, board_id, seed, 0.0, value.clone()).to_json_line()
        });
        sp.push(root, 0, id, "replay.request", start, clock.now());

        self.response_bytes.push(wire.len() as f64);
        match stored {
            Some(Ok(v)) if v.to_json() != json => self.errors.push(format!(
                "stored {verb} seed {seed} differs from a fresh execution"
            )),
            Some(Err(e)) => self
                .errors
                .push(format!("stored {verb} seed {seed} does not parse: {e}")),
            _ => {}
        }
        self.refs.insert(key_of(req, self.default_seed), json);
    }
}

fn median_of(spans: &Spans, name: &str, scale: f64) -> f64 {
    median(&spans.durations_us(name)).map_or(0.0, |us| us * scale)
}

/// Replays `sample` against a fresh store on `dir` (or a memory-only
/// store) and a bench-owned farm seeded like the server's. The registry
/// is reset per verb group, so sampler shares attribute per verb.
pub fn served(sample: &[Request], farm_seed: u64, dir: Option<&Path>) -> Replay {
    let clock = Clock::start();
    let mut spans = Spans::default();
    let t0 = clock.now();
    let store = spans.time(&clock, 0, -1, "store.open", || {
        Store::open(StoreConfig {
            dir: dir.map(Path::to_path_buf),
            ..StoreConfig::default()
        })
    });
    let farm = Farm::new(farm_seed, BOARDS);
    let default_seed = farm.default_seed();
    let mut walk = Walk {
        clock,
        spans,
        store: match store {
            Ok(s) => s,
            Err(e) => {
                return Replay {
                    refs: BTreeMap::new(),
                    errors: vec![format!("replay store: {e}")],
                    layers: BTreeMap::new(),
                    spans: Spans::default(),
                    default_seed,
                }
            }
        },
        farm,
        default_seed,
        refs: BTreeMap::new(),
        errors: Vec::new(),
        response_bytes: Vec::new(),
    };

    let mut order: Vec<&Request> = sample.iter().collect();
    order.sort_by_key(|r| CAMPAIGN_VERBS.iter().position(|v| *v == r.verb));
    let mut sim = SimCounts::default();
    for group in order.chunk_by(|a, b| a.verb == b.verb) {
        obs::metrics::reset();
        for req in group {
            walk.request(req);
        }
        sim.add(&obs::metrics::snapshot());
    }
    let wall_ns = clock.now() - t0;

    let spans = &walk.spans;
    let mut layers = BTreeMap::new();
    for (metric, span, scale) in [
        ("protocol.parse_request_us", "protocol.parse_request", 1.0),
        (
            "protocol.encode_response_us",
            "protocol.encode_response",
            1.0,
        ),
        ("store.key_us", "store.key", 1.0),
        ("store.get_hot_us", "store.get_hot", 1.0),
        ("store.get_persist_us", "store.get_persist", 1.0),
        ("store.hit_decode_us", "store.hit_decode", 1.0),
        ("store.insert_us", "store.insert", 1.0),
        ("farm.image_us", "farm.image", 1.0),
        ("exec.quickstart_ms", "exec.quickstart", 1e-3),
        ("exec.covert_ms", "exec.covert", 1e-3),
        ("exec.characterize_ms", "exec.characterize", 1e-3),
        ("exec.rsa_ms", "exec.rsa", 1e-3),
        ("exec.defend_ms", "exec.defend", 1e-3),
    ] {
        layers.insert(metric, median_of(spans, span, scale));
    }
    layers.insert(
        "protocol.response_bytes",
        walk.response_bytes.iter().sum::<f64>() / walk.response_bytes.len().max(1) as f64,
    );
    let exec_ns: f64 = CAMPAIGN_VERBS
        .iter()
        .map(|v| spans.durations_us(exec_span(v)).iter().sum::<f64>() * 1e3)
        .sum();
    layers.insert("sampler.share", sim.capture_ns as f64 / exec_ns.max(1.0));
    sim.fill(sample.len(), &mut layers);
    layers.insert("bench.replay_span_cover", root_cover(spans, wall_ns));

    Replay {
        refs: walk.refs,
        errors: walk.errors,
        layers,
        spans: walk.spans,
        default_seed,
    }
}
