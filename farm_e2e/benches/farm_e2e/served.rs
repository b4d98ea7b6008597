//! The served workloads: an in-process `sim_serve::Server` (2 boards,
//! 2 execution threads) driven over one TCP connection, first by an open
//! loop for latency, then by a closed loop for throughput.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use farm_e2e::mix::{
    burst_campaign, burst_request, burst_schedule, cold_request, fixed_schedule, WarmMix,
    BURST_CAMPAIGNS, BURST_CLOSED_TENANTS, BURST_PERIOD_NS, BURST_SIZE, BURST_TENANTS, CATALOG,
    PREP_TENANTS,
};
use farm_e2e::stats::{median, percentile, sorted};
use farm_e2e::{Workload, BURST, COLD, PER_LAYER, WARM};
use obs::metrics::MetricsSnapshot;
use sim_rt::pool::Pool;
use sim_serve::protocol::{parse_response, Request, Response};
use sim_serve::{SchedConfig, Server, ServerConfig, ServerHandle};
use sim_store::{Digest, Store, StoreConfig};

use crate::replay::{self, key_of};
use crate::spans::{client_span_id, Clock, Spans};
use crate::{peak_rss_mb, Args, Report, OUT_DIR};

/// Farm size and execution pool width: one thread per CPU of the
/// 2-core machine the bounds were set on.
pub const BOARDS: usize = 2;
const THREADS: usize = 2;
/// Set-ups timed per run, in three blocks spread over the run (before,
/// between and after the load phases) so that the median samples more
/// than one moment of a noisy machine. Traced runs, which do not report
/// set-up time, time only the first block.
pub const SETUP_BLOCK: usize = 11;
/// Share of the run spent in the open loop; the closed loop's rounds
/// take the rest. 40 % of 20 s gives the cold mix 1200 samples at
/// 150 req/s: over 100 beyond its p90, and enough for a p99.
const OPEN_SHARE: f64 = 0.4;
/// Closed-loop rounds; the median round's rate is reported. One more
/// round runs first, untimed: it is reliably slow while the server and
/// the connection settle after the open loop.
const ROUNDS: usize = 10;
/// Open-loop arrival rates (req/s).
const COLD_RATE: f64 = 150.0;
const WARM_RATE: f64 = 2_000.0;
/// Closed-loop pipelining windows.
const COLD_WINDOW: usize = 8;
const WARM_WINDOW: usize = 32;
const BURST_WINDOW: usize = 32;
/// Every 16th request's result is checked byte-for-byte.
const CHECK_EVERY: i64 = 16;
/// The cold mix's pinned set: the checked open-loop requests below this id.
const COLD_PINNED_IDS: i64 = 1_024;
/// A silent server fails the run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

fn checked(id: i64) -> bool {
    id % CHECK_EVERY == 0
}

/// The load one served run sends.
struct Plan {
    name: &'static str,
    seed: u64,
    warm: WarmMix,
    /// Open-loop requests (ids `0..open_n`); the closed loop continues
    /// the same sequence.
    open_n: usize,
    /// Due time of each open-loop request, ns from the loop's start.
    due: Vec<u64>,
    /// Closed-loop window.
    window: usize,
    /// Length of one closed-loop round.
    round_ns: u64,
}

impl Plan {
    fn new(name: &'static str, args: &Args) -> Plan {
        let secs = args.length();
        let open_s = OPEN_SHARE * secs;
        let seed = args.seed;
        let (open_n, due, window) = match name {
            COLD => {
                let n = (COLD_RATE * open_s).round() as usize;
                (n, fixed_schedule(COLD_RATE, n), COLD_WINDOW)
            }
            WARM => {
                let n = (WARM_RATE * open_s).round() as usize;
                (n, fixed_schedule(WARM_RATE, n), WARM_WINDOW)
            }
            _ => {
                let bursts = (open_s * 1e9 / BURST_PERIOD_NS as f64) as usize;
                let n = bursts * BURST_SIZE as usize;
                (n, burst_schedule(n), BURST_WINDOW)
            }
        };
        Plan {
            name,
            seed,
            warm: WarmMix::new(seed),
            open_n,
            due,
            window,
            round_ns: ((1.0 - OPEN_SHARE) * secs / (ROUNDS + 1) as f64 * 1e9) as u64,
        }
    }

    /// Request `i` of the run.
    fn request(&self, i: u64) -> Request {
        match self.name {
            COLD => cold_request(self.seed, i),
            WARM => self.warm.request(i),
            _ => {
                let tenants = if i < self.open_n as u64 {
                    BURST_TENANTS
                } else {
                    BURST_CLOSED_TENANTS
                };
                burst_request(self.seed, i, tenants)
            }
        }
    }

    /// The requests a serial replay re-executes as the reference: every
    /// checked request, the whole catalog on warm, and the eight standard
    /// campaigns on burst.
    fn replay_sample(&self, checked_ids: &[i64]) -> Vec<Request> {
        let mut sample: Vec<Request> = match self.name {
            WARM => (0..CATALOG)
                .map(|k| {
                    self.warm
                        .catalog_request(k, k as u64, k as u64 % PREP_TENANTS)
                })
                .collect(),
            BURST => (0..BURST_CAMPAIGNS)
                .map(|k| {
                    let (verb, seed) = burst_campaign(self.seed, k);
                    let mut req = Request::new(k as i64, verb);
                    req.seed = seed;
                    req
                })
                .collect(),
            _ => Vec::new(),
        };
        if self.name == COLD || self.name == WARM {
            sample.extend(
                checked_ids
                    .iter()
                    .map(|&id| self.request(id as u64))
                    .filter(|r| self.name == COLD || self.warm.entry(r.id as u64).is_none()),
            );
        }
        sample
    }

    /// Keys of the pinned request set, in order; `None` when this run
    /// did not send all of it.
    fn pinned_keys(&self, default_seed: u64) -> Option<Vec<String>> {
        let reqs: Vec<Request> = match self.name {
            COLD => {
                if (self.open_n as i64) < COLD_PINNED_IDS {
                    return None;
                }
                (0..COLD_PINNED_IDS)
                    .step_by(CHECK_EVERY as usize)
                    .map(|id| self.request(id as u64))
                    .collect()
            }
            _ => self.replay_sample(&[]),
        };
        Some(reqs.iter().map(|r| key_of(r, default_seed)).collect())
    }
}

fn server_config(args: &Args) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        boards: BOARDS,
        farm_seed: args.seed,
        threads: THREADS,
        sched: SchedConfig::default(),
        store: args.dir.clone().map(|dir| StoreConfig {
            dir: Some(dir),
            ..StoreConfig::default()
        }),
    }
}

/// One client connection speaking the raw line protocol.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(IO_TIMEOUT))?;
        writer.set_write_timeout(Some(IO_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn {
            writer,
            reader,
            line: String::new(),
        })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())
    }

    /// Reads one response line; the raw line stays in `self.line`.
    fn read_line(&mut self) -> std::io::Result<()> {
        read_line(&mut self.reader, &mut self.line)
    }
}

fn read_line(reader: &mut BufReader<TcpStream>, line: &mut String) -> std::io::Result<()> {
    line.clear();
    if reader.read_line(line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    Ok(())
}

fn io(e: std::io::Error) -> String {
    format!("client i/o: {e}")
}

/// A running server with its client connection.
struct Live {
    handle: ServerHandle,
    join: JoinHandle<()>,
    conn: Conn,
}

impl Live {
    /// Binds and starts a server and returns it with its set-up time:
    /// from `Server::bind` (store open included) to the first `ping`
    /// answered. The client connects as soon as the port is bound, before
    /// the accept loop starts, so the time never depends on whether the
    /// connection beat the loop's first poll.
    fn start(cfg: &ServerConfig) -> Result<(Live, f64), String> {
        let t0 = Instant::now();
        let server = Server::bind(cfg.clone()).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let handle = server.handle();
        let mut conn = Conn::connect(addr).map_err(io)?;
        let join = std::thread::spawn(move || server.run());
        conn.send(&Request::new(-1, "ping").to_json_line())
            .map_err(io)?;
        conn.read_line().map_err(io)?;
        let setup_s = t0.elapsed().as_secs_f64();
        let pong = parse_response(conn.line.trim())?;
        if !pong.is_ok() {
            return Err(format!("ping answered {}", pong.status));
        }
        Ok((Live { handle, join, conn }, setup_s))
    }

    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        drop(self.conn);
        self.join
            .join()
            .map_err(|_| "server thread panicked".to_string())
    }
}

/// One received response, kept for latency and checking.
struct Rec {
    id: i64,
    recv_ns: u64,
    elapsed_ms: f64,
    /// Hash of a checked request's result JSON: a hash, not the bytes,
    /// so that client memory does not grow with throughput.
    result: Option<u64>,
}

fn hash_of(json: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    json.hash(&mut h);
    h.finish()
}

/// Parses and checks one response line.
fn take_response(line: &str, recv_ns: u64) -> Result<Rec, String> {
    let resp: Response = parse_response(line.trim())?;
    if !resp.is_ok() {
        return Err(format!(
            "id {}: {} {}",
            resp.id,
            resp.status,
            resp.error_kind.unwrap_or_default()
        ));
    }
    let result = match (&resp.result, checked(resp.id)) {
        (Some(v), true) => Some(hash_of(&v.to_json())),
        (None, _) => return Err(format!("id {}: ok without a result", resp.id)),
        _ => None,
    };
    Ok(Rec {
        id: resp.id,
        recv_ns,
        elapsed_ms: resp.elapsed_ms.unwrap_or(f64::NAN),
        result,
    })
}

/// What the load phases produced.
#[derive(Default)]
struct Load {
    /// Open-loop records, in arrival order.
    open: Vec<Rec>,
    /// Actual send time of each open-loop request.
    sent_ns: Vec<u64>,
    /// Start of the open loop on the run clock.
    open_t0: u64,
    /// Checked closed-loop records.
    closed: Vec<Rec>,
    /// Completions per second of each closed-loop round.
    rates: Vec<f64>,
    /// Requests sent.
    attempted: u64,
    /// Failure descriptions.
    failures: Vec<String>,
    /// Client spans.
    spans: Spans,
}

/// Open loop: a sender thread writes each request at its due time, a
/// receiver thread reads the responses. Latency runs from the due time,
/// so a stall also charges the requests queued behind it.
fn open_loop(
    conn: &mut Conn,
    plan: &Plan,
    clock: &Clock,
    traced: bool,
    load: &mut Load,
) -> Result<(), String> {
    let n = plan.open_n;
    let mut writer = conn.writer.try_clone().map_err(io)?;
    let reader = &mut conn.reader;
    let t0 = clock.now();
    let due = &plan.due;
    let (sent, recv) = std::thread::scope(|s| {
        let sender = s.spawn(|| -> std::io::Result<(Vec<u64>, Spans)> {
            let mut sent = Vec::with_capacity(n);
            let mut spans = Spans::default();
            for (i, &due) in due.iter().enumerate() {
                let req = plan.request(i as u64);
                let now = clock.now();
                if t0 + due > now {
                    std::thread::sleep(Duration::from_nanos(t0 + due - now));
                }
                let start = clock.now();
                let line = req.to_json_line();
                let encoded = clock.now();
                writer.write_all(line.as_bytes())?;
                sent.push(start);
                if traced {
                    let root = client_span_id(req.id, 0);
                    spans.push(
                        client_span_id(req.id, 1),
                        root,
                        req.id,
                        "client.encode",
                        start,
                        encoded,
                    );
                    spans.push(
                        client_span_id(req.id, 2),
                        root,
                        req.id,
                        "client.write",
                        encoded,
                        clock.now(),
                    );
                }
            }
            Ok((sent, spans))
        });
        let receiver = s.spawn(|| -> std::io::Result<(Vec<Rec>, Vec<String>, Spans)> {
            let mut recs = Vec::with_capacity(n);
            let mut failures = Vec::new();
            let mut spans = Spans::default();
            let mut line = String::new();
            for _ in 0..n {
                read_line(reader, &mut line)?;
                let recv_ns = clock.now();
                let rec = take_response(&line, recv_ns);
                if traced {
                    let decoded = clock.now();
                    if let Ok(rec) = &rec {
                        let root = client_span_id(rec.id, 0);
                        spans.push(
                            client_span_id(rec.id, 3),
                            root,
                            rec.id,
                            "client.decode",
                            recv_ns,
                            decoded,
                        );
                        let due_ns = t0 + due.get(rec.id as usize).copied().unwrap_or(0);
                        spans.push(root, 0, rec.id, "request", due_ns, decoded);
                    }
                }
                match rec {
                    Ok(rec) => recs.push(rec),
                    Err(e) => failures.push(e),
                }
            }
            Ok((recs, failures, spans))
        });
        (sender.join(), receiver.join())
    });
    let (sent, send_spans) = sent
        .map_err(|_| "sender panicked".to_string())?
        .map_err(io)?;
    let (recs, failures, recv_spans) = recv
        .map_err(|_| "receiver panicked".to_string())?
        .map_err(io)?;
    load.attempted += n as u64;
    load.open_t0 = t0;
    load.sent_ns = sent;
    load.open = recs;
    load.failures.extend(failures);
    load.spans.list.extend(send_spans.list);
    load.spans.list.extend(recv_spans.list);
    Ok(())
}

/// Closed loop: one thread keeps `window` requests in flight, sending
/// the next as each response arrives: an untimed round, then [`ROUNDS`]
/// timed ones.
fn closed_loop(
    conn: &mut Conn,
    plan: &Plan,
    clock: &Clock,
    traced: bool,
    load: &mut Load,
) -> Result<(), String> {
    let mut next = plan.open_n as u64;
    let mut in_flight: Vec<(i64, u64)> = Vec::with_capacity(plan.window);
    let mut send = |conn: &mut Conn, in_flight: &mut Vec<(i64, u64)>, spans: &mut Spans| {
        let req = plan.request(next);
        next += 1;
        let start = clock.now();
        let line = req.to_json_line();
        let encoded = clock.now();
        conn.send(&line)?;
        if traced {
            let root = client_span_id(req.id, 0);
            spans.push(
                client_span_id(req.id, 1),
                root,
                req.id,
                "client.encode",
                start,
                encoded,
            );
            spans.push(
                client_span_id(req.id, 2),
                root,
                req.id,
                "client.write",
                encoded,
                clock.now(),
            );
        }
        in_flight.push((req.id, start));
        std::io::Result::Ok(())
    };
    for round in 0..=ROUNDS {
        let start = clock.now();
        let end = start + plan.round_ns;
        let mut done = 0u64;
        let mut last = start;
        while in_flight.len() < plan.window {
            send(conn, &mut in_flight, &mut load.spans).map_err(io)?;
        }
        while !in_flight.is_empty() {
            conn.read_line().map_err(io)?;
            last = clock.now();
            done += 1;
            let rec = match farm_e2e::scan::ok_response_id(&conn.line) {
                Some(id) if !checked(id) => Ok(Rec {
                    id,
                    recv_ns: last,
                    elapsed_ms: f64::NAN,
                    result: None,
                }),
                _ => take_response(&conn.line, last),
            };
            match rec {
                Ok(rec) => {
                    if let Some(pos) = in_flight.iter().position(|(id, _)| *id == rec.id) {
                        let (id, sent) = in_flight.swap_remove(pos);
                        if traced {
                            let root = client_span_id(id, 0);
                            let decoded = clock.now();
                            load.spans.push(
                                client_span_id(id, 3),
                                root,
                                id,
                                "client.decode",
                                last,
                                decoded,
                            );
                            load.spans.push(root, 0, id, "request", sent, decoded);
                        }
                    } else {
                        return Err(format!("response for unknown id {}", rec.id));
                    }
                    if rec.result.is_some() {
                        load.closed.push(rec);
                    }
                }
                Err(e) => {
                    // A failed response still frees its window slot.
                    let id = parse_response(conn.line.trim()).map_or(-1, |r| r.id);
                    in_flight.retain(|(i, _)| *i != id);
                    load.failures.push(e);
                }
            }
            if last < end {
                send(conn, &mut in_flight, &mut load.spans).map_err(io)?;
            }
        }
        if round > 0 {
            load.rates
                .push(done as f64 / ((last - start) as f64 / 1e9).max(1e-9));
        }
    }
    load.attempted += next - plan.open_n as u64;
    Ok(())
}

fn counter(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer numbers read off the program's own metrics registry over
/// the measured phase, plus the client-side ones.
fn served_layers(
    snap: &MetricsSnapshot,
    load: &Load,
    plan: &Plan,
    wall_ns: u64,
    serve_busy_before: f64,
    global_before: sim_rt::pool::PoolStats,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let hist = |name: &str| snap.histogram(name).cloned();
    let ms = |ns: f64| ns / 1e6;
    let p = |name: &str, f: fn(&obs::metrics::HistogramSummary) -> f64| {
        hist(name).filter(|h| h.count > 0).map_or(0.0, |h| f(&h))
    };
    let mut set = |name: &'static str, v: f64| {
        layers.insert(name, v);
    };

    let wire: Vec<f64> = load
        .open
        .iter()
        .filter(|r| r.elapsed_ms.is_finite())
        .map(|r| (r.recv_ns - load.sent_ns[r.id as usize]) as f64 / 1e6 - r.elapsed_ms)
        .collect();
    let wire = sorted(wire);
    set("server.wire_ms_p50", percentile(&wire, 0.5).unwrap_or(0.0));
    set("server.wire_ms_p99", percentile(&wire, 0.99).unwrap_or(0.0));
    // Open loop only: the closed loop fully decodes just its checked
    // responses, so its decode spans time a different operation.
    let decode_us: Vec<f64> = load
        .spans
        .list
        .iter()
        .filter(|s| s.name == "client.decode" && s.req < plan.open_n as i64)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    set("client.decode_us", median(&decode_us).unwrap_or(0.0));
    set("gen.lag_p99_ms", lag_p99_ms(load, plan));

    set("store.lookup_us_p50", p("store.lookup.ns", |h| h.p50) / 1e3);
    let hits = counter(snap, "store.hits");
    set(
        "store.persist_hit_frac",
        ratio(counter(snap, "store.hits.persist"), hits),
    );
    set(
        "store.hit_ratio",
        ratio(hits, hits + counter(snap, "store.misses")),
    );
    set(
        "sched.request_ms_p50",
        ms(p("serve.request.latency_ns", |h| h.p50)),
    );
    set(
        "sched.request_ms_p99",
        ms(p("serve.request.latency_ns", |h| h.p99)),
    );
    let wait = p("serve.request.latency_ns", |h| h.mean) - p("serve.exec.latency_ns", |h| h.mean);
    set("sched.wait_ms", ms(wait.max(0.0)));
    set("sched.batch_size_mean", p("serve.batch.size", |h| h.mean));
    let deduped = counter(snap, "serve.batch.deduped");
    set(
        "sched.dedup_ratio",
        ratio(deduped, deduped + counter(snap, "serve.batch.groups")),
    );
    let shed: u64 = snap
        .counters
        .iter()
        .filter(|c| c.name.starts_with("serve.shed."))
        .map(|c| c.value)
        .sum();
    set("sched.shed", shed as f64);
    set("sched.timeouts", counter(snap, "serve.timeouts"));
    set("farm.waits", counter(snap, "serve.farm.waits"));
    set(
        "farm.platform_inits_per_op",
        ratio(
            counter(snap, "serve.farm.platform_inits"),
            load.attempted as f64,
        ),
    );
    set(
        "exec.group_ms_p50",
        ms(p("serve.exec.latency_ns", |h| h.p50)),
    );
    set(
        "exec.group_ms_p99",
        ms(p("serve.exec.latency_ns", |h| h.p99)),
    );
    sampler_layers(snap, layers);
    let busy = snap.gauge("serve.pool.busy_nanos").unwrap_or(0.0) - serve_busy_before;
    layers.insert(
        "serve.pool_busy_frac",
        ratio(busy.max(0.0), THREADS as f64 * wall_ns as f64),
    );
    pool_layers(global_before, wall_ns, layers);
}

/// Sampler-path ratios from a registry snapshot.
pub fn sampler_layers(snap: &MetricsSnapshot, layers: &mut BTreeMap<&'static str, f64>) {
    let reads: f64 = ["current", "voltage", "power"]
        .iter()
        .map(|c| counter(snap, &format!("sampler.reads.{c}")))
        .sum();
    let capture_ns = snap
        .histogram("sampler.capture.ns")
        .map_or(0.0, |h| h.sum as f64);
    layers.insert("sampler.ns_per_read", ratio(capture_ns, reads));
    let hit = counter(snap, "soc.oppoint.cache_hit");
    layers.insert(
        "soc.oppoint_hit_ratio",
        ratio(hit, hit + counter(snap, "soc.oppoint.cache_miss")),
    );
}

/// The global pool's busy share and steals since `before`.
pub fn pool_layers(
    before: sim_rt::pool::PoolStats,
    wall_ns: u64,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let pool = Pool::global();
    let after = pool.stats();
    let busy = after.busy_nanos.saturating_sub(before.busy_nanos) as f64;
    layers.insert(
        "pool.busy_frac",
        ratio(busy, pool.threads() as f64 * wall_ns as f64),
    );
    layers.insert(
        "pool.jobs_stolen",
        after.jobs_stolen.saturating_sub(before.jobs_stolen) as f64,
    );
}

fn lag_p99_ms(load: &Load, plan: &Plan) -> f64 {
    let lag: Vec<f64> = load
        .sent_ns
        .iter()
        .zip(&plan.due)
        .map(|(&sent, &due)| sent.saturating_sub(load.open_t0 + due) as f64 / 1e6)
        .collect();
    percentile(&sorted(lag), 0.99).unwrap_or(0.0)
}

/// Fills a workload's catalog store before a warm run: the 256 catalog
/// campaigns from 32 tenants, through a server of its own.
pub fn prep_warm(args: &Args) -> Result<Report, String> {
    obs::init();
    let warm = WarmMix::new(args.seed);
    let (mut live, _) = Live::start(&server_config(args))?;
    let mut report = Report::default();
    for chunk in (0..CATALOG).collect::<Vec<_>>().chunks(WARM_WINDOW) {
        for &k in chunk {
            let req = warm.catalog_request(k, k as u64, k as u64 % PREP_TENANTS);
            live.conn.send(&req.to_json_line()).map_err(io)?;
        }
        for _ in chunk {
            live.conn.read_line().map_err(io)?;
            report.attempted += 1;
            if let Err(e) = take_response(&live.conn.line, 0) {
                report.fail(e);
            }
        }
    }
    live.stop()?;
    report.correct = report.failed == 0;
    Ok(report)
}

/// Brings the process's span log to the state of a server that has run
/// for a while: full. Nothing in the server drains the log, so after its
/// first 65,536 spans every later span is dropped; filling it first makes
/// every run measure that steady state, instead of a log still growing
/// for a throughput-dependent part of the run.
fn fill_span_log() {
    obs::trace::set_recording(true);
    let dropped = obs::metrics::counter("trace.log.dropped");
    let before = dropped.get();
    for i in 0..(1u64 << 20) {
        if dropped.get() > before {
            break;
        }
        obs::trace::record(obs::trace::SpanRecord {
            trace_id: i,
            span_id: i,
            parent: None,
            seq: 0,
            target: "bench",
            name: "fill",
            start_ns: 0,
            end_ns: 0,
            links: Vec::new(),
            notes: Vec::new(),
        });
    }
}

/// Copies the files of `from` into a new directory `to`.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// The measuring child of a served workload.
pub fn measure(args: &Args, w: &Workload) -> Result<Report, String> {
    obs::init();
    fill_span_log();
    let traced = args.trace;
    let plan = Plan::new(w.name, args);
    let cfg = server_config(args);
    // Set-ups open a frozen copy of the store as the run found it: the
    // measured server's own directory grows with every insert.
    let mut setup_cfg = cfg.clone();
    let setup_dir = args.dir.as_ref().map(|dir| dir.with_extension("setup"));
    let mut store_open_ms = 0.0;
    if let (Some(dir), Some(copy)) = (&args.dir, &setup_dir) {
        copy_dir(dir, copy).map_err(|e| format!("{}: {e}", copy.display()))?;
        let store_cfg = StoreConfig {
            dir: Some(copy.clone()),
            ..StoreConfig::default()
        };
        let t0 = Instant::now();
        Store::open(store_cfg.clone()).map_err(|e| e.to_string())?;
        store_open_ms = t0.elapsed().as_secs_f64() * 1e3;
        setup_cfg.store = Some(store_cfg);
    }

    let mut setups = Vec::with_capacity(3 * SETUP_BLOCK);
    let setup_block = |setups: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUP_BLOCK {
            let (live, setup_s) = Live::start(&setup_cfg)?;
            setups.push(setup_s);
            live.stop()?;
        }
        Ok(())
    };
    setup_block(&mut setups)?;
    let (mut live, _) = Live::start(&cfg)?;

    let clock = Clock::start();
    let serve_busy_before = obs::metrics::gauge("serve.pool.busy_nanos").get();
    let global_before = Pool::global().stats();
    if traced {
        obs::metrics::reset();
    }
    let mut load = Load::default();
    let t_load = clock.now();
    open_loop(&mut live.conn, &plan, &clock, traced, &mut load)?;
    if !traced {
        setup_block(&mut setups)?;
    }
    closed_loop(&mut live.conn, &plan, &clock, traced, &mut load)?;
    let wall_ns = clock.now() - t_load;
    let peak_rss = peak_rss_mb();
    let snap = obs::metrics::snapshot();
    live.stop()?;
    if !traced {
        setup_block(&mut setups)?;
    }
    if let Some(copy) = &setup_dir {
        let _ = std::fs::remove_dir_all(copy);
    }

    let mut report = Report {
        attempted: load.attempted,
        ..Report::default()
    };
    for e in std::mem::take(&mut load.failures) {
        report.fail(e);
    }

    // Serial replay: the byte-for-byte reference, and the layer timings.
    let checked_ids: Vec<i64> = load
        .open
        .iter()
        .chain(&load.closed)
        .filter(|r| r.result.is_some())
        .map(|r| r.id)
        .collect();
    let sample = plan.replay_sample(&checked_ids);
    let rp = replay::served(&sample, args.seed, args.dir.as_deref());
    for e in rp.errors {
        report.fail(e);
    }
    for rec in load.open.iter().chain(&load.closed) {
        let Some(got) = &rec.result else { continue };
        let key = key_of(&plan.request(rec.id as u64), rp.default_seed);
        match rp.refs.get(&key) {
            Some(want) if hash_of(want) == *got => {}
            Some(_) => report.fail(format!(
                "id {}: result differs from the serial reference",
                rec.id
            )),
            None => report.fail(format!("id {}: no serial reference", rec.id)),
        }
    }
    report.digest = plan.pinned_keys(rp.default_seed).and_then(|keys| {
        let refs: Option<Vec<&str>> = keys
            .iter()
            .map(|k| rp.refs.get(k).map(String::as_str))
            .collect();
        refs.map(|r| Digest::of_str(&r.join("\n")).hex())
    });
    report.correct = report.failed == 0;

    let latencies = sorted(
        load.open
            .iter()
            .map(|r| (r.recv_ns - (load.open_t0 + plan.due[r.id as usize])) as f64 / 1e6)
            .collect(),
    );
    let ops = median(&load.rates).unwrap_or(0.0);
    report.info.insert("ops_per_s", ops);
    report
        .info
        .insert("gen.lag_p99_ms", lag_p99_ms(&load, &plan));

    if traced {
        for m in PER_LAYER {
            report.metrics.insert(m.name, 0.0);
        }
        served_layers(
            &snap,
            &load,
            &plan,
            wall_ns,
            serve_busy_before,
            global_before,
            &mut report.metrics,
        );
        report.metrics.extend(rp.layers);
        report.metrics.insert("store.open_ms", store_open_ms);
        // Closed-loop spans count toward the tracing overhead but are not
        // written: at tens of thousands of requests they would dwarf the rest.
        let path = Path::new(OUT_DIR).join(format!("{}.trace.jsonl", w.name));
        let _ = std::fs::remove_file(&path);
        load.spans.list.retain(|s| s.req < plan.open_n as i64);
        for spans in [&load.spans, &rp.spans] {
            spans
                .write_jsonl(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        return Ok(report);
    }

    report.set_end_to_end(&setups, ops, peak_rss, &latencies, args.quick)?;
    Ok(report)
}
