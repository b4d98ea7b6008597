//! Admission control and the batching dispatcher.
//!
//! A request passes through three gates at admission (all on the
//! connection thread, so a shed never occupies queue space):
//!
//! 1. **token bucket** per tenant (`rate_per_sec`/`burst`) → `rate_limited`
//! 2. **max-inflight quota** per tenant → `quota_exceeded`
//! 3. **bounded queue** (`queue_cap`) → `queue_full`
//!
//! Admitted jobs wait in the bounded queue until the single dispatcher
//! thread drains a batch, drops expired deadlines (`timeout`), groups the
//! rest by `(verb, seed, config)` — identical capture jobs share one
//! board lock-hold and one execution — and fans the groups out across
//! the farm on the [`sim_rt::pool::Pool`]. Results are duplicated to
//! every request of a group, which is safe precisely because execution
//! is a pure function of the group key (see `exec`).
//!
//! Shutdown (`shutdown` verb or [`Scheduler::begin_drain`]) flips the
//! farm into draining: new work is shed as `shutting_down`, everything
//! already admitted is served, then the shutdown requests themselves are
//! acknowledged with drain statistics and the dispatcher parks.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use sim_rt::pool::Pool;
use sim_rt::ser::Value;
use sim_store::Store;

use crate::exec::{self, ExecError};
use crate::farm::Farm;
use crate::protocol::{Request, Response};

/// Where a finished [`Response`] goes (the connection's write half, or a
/// buffer in tests).
pub type Sink = Arc<dyn Fn(Response) + Send + Sync>;

/// Admission and batching knobs.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Bounded queue length; admissions beyond it shed `queue_full`.
    pub queue_cap: usize,
    /// Max jobs the dispatcher drains per batch.
    pub batch_max: usize,
    /// Token-bucket refill rate per tenant (requests/second).
    pub rate_per_sec: f64,
    /// Token-bucket capacity per tenant (burst size).
    pub burst: f64,
    /// Max admitted-but-unanswered requests per tenant.
    pub max_inflight: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            queue_cap: 256,
            batch_max: 32,
            rate_per_sec: 200.0,
            burst: 50.0,
            max_inflight: 64,
        }
    }
}

struct Job {
    req: Request,
    /// Effective seed, resolved at admission (pinned or farm default) so
    /// the result cannot depend on board placement.
    seed: u64,
    /// Root trace context, minted at admission from
    /// `(tenant, seed, per-tenant request counter)` — deterministic, so
    /// replaying a request stream reproduces every trace id.
    ctx: obs::trace::TraceContext,
    admitted_ns: u64,
    deadline_ns: Option<u64>,
    sink: Sink,
}

struct Tenant {
    tokens: f64,
    last_refill_ns: u64,
    inflight: usize,
    /// Requests that reached this tenant's admission gates.
    requests: u64,
    /// Requests that passed the token/quota gates.
    admitted: u64,
    /// Requests refused by admission control or the drain.
    shed: u64,
    /// Admitted requests whose deadline expired before execution.
    timeouts: u64,
    /// Trace counter feeding [`obs::trace::TraceContext::root`].
    next_trace: u64,
}

impl Tenant {
    fn new(now: u64, burst: f64) -> Tenant {
        Tenant {
            tokens: burst,
            last_refill_ns: now,
            inflight: 0,
            requests: 0,
            admitted: 0,
            shed: 0,
            timeouts: 0,
            next_trace: 0,
        }
    }
}

struct State {
    queue: VecDeque<Job>,
    draining: bool,
    stopped: bool,
    shutdown_jobs: Vec<(i64, Sink)>,
}

/// The scheduler: shared between every connection thread (submissions)
/// and the single dispatcher thread (execution).
pub struct Scheduler {
    cfg: SchedConfig,
    farm: Farm,
    pool: Pool,
    store: Option<Arc<Store>>,
    state: Mutex<State>,
    work: Condvar,
    tenants: Mutex<std::collections::BTreeMap<String, Tenant>>,
    served: AtomicU64,
}

impl Scheduler {
    /// Builds a scheduler over `farm`, executing groups on `pool`, and
    /// backed by a content-addressed result store when `store` is set.
    /// Lookups happen on the connection thread *before* admission
    /// control: a hit answers immediately without consuming a token,
    /// quota slot, queue slot, or board; a miss runs normally and the
    /// computed result is inserted for the next taker.
    pub fn new(cfg: SchedConfig, farm: Farm, pool: Pool, store: Option<Arc<Store>>) -> Scheduler {
        Scheduler {
            cfg,
            farm,
            pool,
            store,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                draining: false,
                stopped: false,
                shutdown_jobs: Vec::new(),
            }),
            work: Condvar::new(),
            tenants: Mutex::new(std::collections::BTreeMap::new()),
            served: AtomicU64::new(0),
        }
    }

    /// The farm this scheduler multiplexes.
    pub fn farm(&self) -> &Farm {
        &self.farm
    }

    /// Whether the dispatcher has finished draining and parked.
    pub fn stopped(&self) -> bool {
        self.lock_state().stopped
    }

    /// Starts a drain without a client request (the ctrl-channel half of
    /// shutdown): stop admitting, serve the backlog, park.
    pub fn begin_drain(&self) {
        self.lock_state().draining = true;
        obs::counter!("serve.drains").inc();
        self.work.notify_all();
    }

    /// Admits or sheds one request. Every path eventually calls `sink`
    /// exactly once with this request's response — the zero-lost-response
    /// invariant shutdown relies on.
    pub fn submit(&self, req: Request, sink: Sink) {
        obs::counter!("serve.requests").inc();

        if req.verb == "shutdown" {
            let mut st = self.lock_state();
            st.draining = true;
            st.shutdown_jobs.push((req.id, sink));
            drop(st);
            obs::counter!("serve.drains").inc();
            self.work.notify_all();
            return;
        }
        if req.verb == "stats" {
            obs::counter!("serve.stats.requests").inc();
            let resp = self.stats_response(&req);
            self.respond_unserved(sink, resp);
            return;
        }
        if !exec::known_verb(&req.verb) {
            self.respond_unserved(
                sink,
                Response::failure(
                    req.id,
                    &req.verb,
                    "error",
                    "unknown_verb",
                    format!("unknown verb `{}`", req.verb),
                ),
            );
            return;
        }
        if self.lock_state().draining {
            self.shed(&req, sink, "shutting_down", "server is draining");
            return;
        }

        let seed = req.seed.unwrap_or_else(|| self.farm.default_seed());
        // Content-addressed short-circuit: a stored result answers on
        // the connection thread, before the admission gates — replayed
        // campaigns must not spend tokens, quota, queue slots, or
        // boards on work the store already holds.
        if let Some(resp) = self.store_lookup(&req, seed) {
            self.respond_unserved(sink, resp);
            return;
        }

        let now = obs::clock::monotonic_ns();
        let ctx = {
            let mut tenants = self
                .tenants
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let tenant = tenants
                .entry(req.tenant.clone())
                .or_insert_with(|| Tenant::new(now, self.cfg.burst));
            tenant.requests += 1;
            let dt_s = now.saturating_sub(tenant.last_refill_ns) as f64 / 1e9;
            tenant.tokens = (tenant.tokens + dt_s * self.cfg.rate_per_sec).min(self.cfg.burst);
            tenant.last_refill_ns = now;
            if tenant.tokens < 1.0 {
                drop(tenants);
                self.shed(&req, sink, "rate_limited", "tenant rate limit exceeded");
                return;
            }
            if tenant.inflight >= self.cfg.max_inflight {
                drop(tenants);
                self.shed(
                    &req,
                    sink,
                    "quota_exceeded",
                    "tenant max-inflight quota reached",
                );
                return;
            }
            tenant.tokens -= 1.0;
            tenant.inflight += 1;
            tenant.admitted += 1;
            let ctx = obs::trace::TraceContext::root(&req.tenant, seed, tenant.next_trace);
            tenant.next_trace += 1;
            ctx
        };

        let job = Job {
            seed,
            ctx,
            deadline_ns: req.deadline_ms.map(|ms| now + ms.saturating_mul(1_000_000)),
            admitted_ns: now,
            sink,
            req,
        };
        {
            let mut st = self.lock_state();
            if st.draining {
                let (req, sink) = (job.req, job.sink);
                drop(st);
                self.release_tenant(&req.tenant);
                self.shed(&req, sink, "shutting_down", "server is draining");
                return;
            }
            if st.queue.len() >= self.cfg.queue_cap {
                let (req, sink) = (job.req, job.sink);
                drop(st);
                self.release_tenant(&req.tenant);
                self.shed(&req, sink, "queue_full", "request queue is full");
                return;
            }
            st.queue.push_back(job);
            obs::gauge!("serve.queue.depth").set(st.queue.len() as f64);
        }
        obs::counter!("serve.admitted").inc();
        self.work.notify_all();
    }

    /// Runs the dispatcher until a drain completes. Call from a dedicated
    /// service thread (`sim_rt::pool::service_scope`).
    pub fn dispatch_loop(&self) {
        loop {
            let batch: Vec<Job> = {
                let mut st = self.lock_state();
                loop {
                    if !st.queue.is_empty() {
                        break;
                    }
                    if st.draining {
                        let waiters = std::mem::take(&mut st.shutdown_jobs);
                        st.stopped = true;
                        drop(st);
                        self.ack_shutdown(waiters);
                        self.work.notify_all();
                        return;
                    }
                    st = self
                        .work
                        .wait(st)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                let n = st.queue.len().min(self.cfg.batch_max);
                let batch = st.queue.drain(..n).collect();
                obs::gauge!("serve.queue.depth").set(st.queue.len() as f64);
                batch
            };
            self.process_batch(batch);
        }
    }

    fn process_batch(&self, batch: Vec<Job>) {
        obs::histogram!("serve.batch.size").observe(batch.len() as u64);
        let now = obs::clock::monotonic_ns();

        // Expired deadlines time out without ever touching a board.
        let (live, expired): (Vec<Job>, Vec<Job>) = batch
            .into_iter()
            .partition(|job| job.deadline_ns.is_none_or(|d| d > now));
        let mut dumped = false;
        for job in expired {
            obs::counter!("serve.timeouts").inc();
            {
                let mut tenants = self
                    .tenants
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if let Some(t) = tenants.get_mut(&job.req.tenant) {
                    t.timeouts += 1;
                }
            }
            obs::flight::record(
                "timeout",
                job.ctx.trace_id,
                job.ctx.span_id,
                job.req.id,
                0,
                "deadline_exceeded",
            );
            // One dump per batch is enough context; a mass-expiry must
            // not write the same rings dozens of times.
            if !dumped {
                obs::flight::auto_dump("deadline_exceeded");
                dumped = true;
            }
            let mut resp = Response::failure(
                job.req.id,
                &job.req.verb,
                "timeout",
                "deadline_exceeded",
                "deadline expired before a board was available".into(),
            );
            resp.trace = Some(obs::trace::hex(job.ctx.trace_id));
            obs::trace::record_root(job.ctx, "serve", "request", job.admitted_ns, now);
            self.respond(&job, resp);
        }
        if live.is_empty() {
            return;
        }

        // Batch compatible jobs: one execution per distinct
        // (verb, seed, config) key, results fanned out to every taker.
        let mut groups: Vec<(String, Vec<Job>)> = Vec::new();
        for job in live {
            let key = format!(
                "{}\u{1f}{}\u{1f}{}",
                job.req.verb,
                job.seed,
                job.req.config.to_json()
            );
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, jobs)) => jobs.push(job),
                None => groups.push((key, vec![job])),
            }
        }
        let jobs_total: usize = groups.iter().map(|(_, jobs)| jobs.len()).sum();
        obs::counter!("serve.batch.groups").add(groups.len() as u64);
        obs::counter!("serve.batch.deduped").add((jobs_total - groups.len()) as u64);

        let outcomes = self
            .pool
            .par_map(&groups, |_, (_, jobs)| self.run_group(jobs));

        let done_ns = obs::clock::monotonic_ns();
        for ((_, jobs), (board, outcome)) in groups.iter().zip(&outcomes) {
            for job in jobs {
                let elapsed_ms = done_ns.saturating_sub(job.admitted_ns) as f64 / 1e6;
                obs::histogram!("serve.request.latency_ns")
                    .observe(done_ns.saturating_sub(job.admitted_ns));
                let mut resp = match outcome {
                    Ok(value) => {
                        obs::counter!("serve.responses.ok").inc();
                        Response::ok(
                            job.req.id,
                            &job.req.verb,
                            *board as u64,
                            job.seed,
                            elapsed_ms,
                            value.clone(),
                        )
                    }
                    Err(e) => {
                        obs::counter!("serve.responses.error").inc();
                        Response::failure(
                            job.req.id,
                            &job.req.verb,
                            "error",
                            e.kind,
                            e.message.clone(),
                        )
                    }
                };
                resp.trace = Some(obs::trace::hex(job.ctx.trace_id));
                // The request root spans admission through response, so
                // it is recorded here rather than as a lexical scope.
                obs::trace::record_root(job.ctx, "serve", "request", job.admitted_ns, done_ns);
                self.respond(job, resp);
            }
        }
        obs::record_pool_stats("serve.pool", &self.pool.stats());
    }

    /// Executes one group representative on a checked-out board, under
    /// the representative's trace: a `batch` span linking every member
    /// trace, a `board` span noting the board id, and the `exec` span
    /// tree grown by the verb itself.
    fn run_group(&self, jobs: &[Job]) -> (usize, Result<Value, ExecError>) {
        let Some(job) = jobs.first() else {
            return (0, Err(ExecError::internal("empty batch group")));
        };
        obs::trace::scoped(job.ctx, || {
            let mut batch_span = obs::trace::span("serve.sched", "batch");
            for member in jobs {
                batch_span.link(member.ctx.trace_id);
            }
            let board = self.farm.checkout(job.seed);
            let mut board_span = obs::trace::span("serve.farm", "board");
            board_span.note("board", board.id as i64);
            let t0 = obs::clock::monotonic_ns();
            let verb = job.req.verb.as_str();
            let result = if exec::uses_board_platform(verb) && board.seed == job.seed {
                board
                    .image()
                    .and_then(|p| exec::execute_on(&p, verb, job.seed, &job.req.config))
            } else {
                exec::execute(verb, job.seed, &job.req.config)
            };
            obs::histogram!("serve.exec.latency_ns").observe(obs::clock::monotonic_ns() - t0);
            let id = board.id;
            board_span.close();
            batch_span.close();
            self.farm.checkin(board);
            // Feed the store while still inside the group's trace scope
            // so the `store/insert` span lands in this request's tree.
            if let (Some(store), Ok(value)) = (self.store.as_deref(), &result) {
                let key = Store::key(verb, job.seed, &job.req.config);
                store.insert(&key, verb, job.seed, &value.to_json());
            }
            (id, result)
        })
    }

    /// Answers a request from the result store when one is configured
    /// and warm. Runs on the connection thread before admission: a hit
    /// never consumes a token, quota slot, queue slot, or board. The
    /// response is marked `cached: true` — delivery metadata, like
    /// `board`; the `result` bytes are identical to a fresh execution
    /// under the determinism contract, which is what makes serving from
    /// the store sound at all.
    fn store_lookup(&self, req: &Request, seed: u64) -> Option<Response> {
        let store = self.store.as_deref()?;
        let t0 = obs::clock::monotonic_ns();
        let key = Store::key(&req.verb, seed, &req.config);
        let hit = store.get(&key);
        obs::histogram!("store.lookup.ns").observe(obs::clock::monotonic_ns().saturating_sub(t0));
        let json = hit?;
        let value = match sim_rt::json::parse(&json) {
            Ok(value) => value,
            Err(_) => {
                // A record that no longer parses is damage, not a reason
                // to fail the request: fall through to a real execution.
                obs::counter!("store.decode_errors").inc();
                return None;
            }
        };
        // Hits still mint a deterministic trace root (and count toward
        // the tenant's request total) so replay traffic stays visible in
        // telemetry. Misses leave the tenant untouched here — the normal
        // admission path below mints exactly the trace it would have
        // minted with no store configured.
        let ctx = {
            let mut tenants = self
                .tenants
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let tenant = tenants
                .entry(req.tenant.clone())
                .or_insert_with(|| Tenant::new(t0, self.cfg.burst));
            tenant.requests += 1;
            let ctx = obs::trace::TraceContext::root(&req.tenant, seed, tenant.next_trace);
            tenant.next_trace += 1;
            ctx
        };
        let done = obs::clock::monotonic_ns();
        obs::trace::record_root(ctx, "serve", "store_hit", t0, done);
        Some(Response {
            id: req.id,
            status: "ok".into(),
            verb: req.verb.clone(),
            board: None,
            seed: Some(seed),
            elapsed_ms: Some(done.saturating_sub(t0) as f64 / 1e6),
            result: Some(value),
            error_kind: None,
            error: None,
            trace: Some(obs::trace::hex(ctx.trace_id)),
            cached: Some(true),
        })
    }

    /// Sends a response for an admitted job and releases its quota slot.
    fn respond(&self, job: &Job, resp: Response) {
        (job.sink)(resp);
        self.served.fetch_add(1, Ordering::Relaxed);
        self.release_tenant(&job.req.tenant);
    }

    /// Sends a response for a request that was never admitted.
    fn respond_unserved(&self, sink: Sink, resp: Response) {
        obs::metrics::counter(format!("serve.responses.{}", resp.status)).inc();
        sink(resp);
        self.served.fetch_add(1, Ordering::Relaxed);
    }

    fn shed(&self, req: &Request, sink: Sink, kind: &'static str, message: &str) {
        obs::metrics::counter(format!("serve.shed.{kind}")).inc();
        {
            let mut tenants = self
                .tenants
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            tenants
                .entry(req.tenant.clone())
                .or_insert_with(|| Tenant::new(obs::clock::monotonic_ns(), self.cfg.burst))
                .shed += 1;
        }
        obs::flight::record("shed", 0, 0, req.id, 0, kind);
        // Queue exhaustion is the one shed that signals the *server* is
        // behind rather than the tenant misbehaving; snapshot the rings.
        if kind == "queue_full" {
            obs::flight::auto_dump("queue_full");
        }
        sink(Response::failure(
            req.id,
            &req.verb,
            "shed",
            kind,
            message.into(),
        ));
        self.served.fetch_add(1, Ordering::Relaxed);
    }

    fn ack_shutdown(&self, waiters: Vec<(i64, Sink)>) {
        let served = self.served.load(Ordering::Relaxed);
        for (id, sink) in waiters {
            let result = Value::Object(vec![
                ("drained".into(), Value::Bool(true)),
                ("served".into(), Value::Int(served as i64)),
                ("boards".into(), Value::Int(self.farm.boards() as i64)),
            ]);
            sink(Response {
                id,
                status: "ok".into(),
                verb: "shutdown".into(),
                board: None,
                seed: None,
                elapsed_ms: None,
                result: Some(result),
                error_kind: None,
                error: None,
                trace: None,
                cached: None,
            });
        }
    }

    /// Answers the `stats` control verb: a live dump of the metrics
    /// registry (same records as `metrics_to_jsonl`, so percentiles match
    /// the export byte-for-byte), pool counters, per-tenant admission
    /// breakdowns, and queue state. `{"flight": true}` in the request
    /// config additionally inlines the flight-recorder rings as JSONL.
    fn stats_response(&self, req: &Request) -> Response {
        let mut want_flight = false;
        match &req.config {
            Value::Null => {}
            Value::Object(fields) => {
                for (key, value) in fields {
                    match (key.as_str(), value) {
                        ("flight", Value::Bool(b)) => want_flight = *b,
                        ("flight", _) => {
                            return Response::failure(
                                req.id,
                                "stats",
                                "error",
                                "bad_config",
                                "`flight` must be a bool".into(),
                            );
                        }
                        _ => {
                            return Response::failure(
                                req.id,
                                "stats",
                                "error",
                                "bad_config",
                                format!("unknown stats option `{key}`"),
                            );
                        }
                    }
                }
            }
            _ => {
                return Response::failure(
                    req.id,
                    "stats",
                    "error",
                    "bad_config",
                    "stats config must be an object".into(),
                );
            }
        }

        obs::record_pool_stats("serve.pool", &self.pool.stats());
        let snap = obs::metrics::snapshot();
        let metrics: Vec<Value> = snap
            .to_records()
            .into_iter()
            .map(|r| Value::Object(r.into_fields()))
            .collect();

        let pool_stats = self.pool.stats();
        let pool = Value::Object(vec![
            ("threads".into(), Value::Int(self.pool.threads() as i64)),
            (
                "jobs_completed".into(),
                Value::Int(pool_stats.jobs_completed as i64),
            ),
            (
                "jobs_stolen".into(),
                Value::Int(pool_stats.jobs_stolen as i64),
            ),
            (
                "jobs_retried".into(),
                Value::Int(pool_stats.jobs_retried as i64),
            ),
            ("maps_run".into(), Value::Int(pool_stats.maps_run as i64)),
            (
                "busy_nanos".into(),
                Value::Int(pool_stats.busy_nanos as i64),
            ),
        ]);

        let tenants: Vec<Value> = {
            let tenants = self
                .tenants
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            tenants
                .iter()
                .map(|(name, t)| {
                    Value::Object(vec![
                        ("tenant".into(), Value::Str(name.clone())),
                        ("requests".into(), Value::Int(t.requests as i64)),
                        ("admitted".into(), Value::Int(t.admitted as i64)),
                        ("inflight".into(), Value::Int(t.inflight as i64)),
                        ("shed".into(), Value::Int(t.shed as i64)),
                        ("timeouts".into(), Value::Int(t.timeouts as i64)),
                    ])
                })
                .collect()
        };

        let (queue_depth, draining) = {
            let st = self.lock_state();
            (st.queue.len(), st.draining)
        };

        let store = match &self.store {
            None => Value::Object(vec![("enabled".into(), Value::Bool(false))]),
            Some(store) => {
                let mut fields = vec![
                    ("enabled".into(), Value::Bool(true)),
                    ("persistent".into(), Value::Bool(store.persistent())),
                ];
                if let Value::Object(stats) = store.stats().to_value() {
                    fields.extend(stats);
                }
                Value::Object(fields)
            }
        };

        let mut fields = vec![
            (
                "served".into(),
                Value::Int(self.served.load(Ordering::Relaxed) as i64),
            ),
            ("boards".into(), Value::Int(self.farm.boards() as i64)),
            ("queue_depth".into(), Value::Int(queue_depth as i64)),
            ("draining".into(), Value::Bool(draining)),
            ("pool".into(), pool),
            ("store".into(), store),
            ("tenants".into(), Value::Array(tenants)),
            ("metrics".into(), Value::Array(metrics)),
        ];
        if want_flight {
            fields.push(("flight".into(), Value::Str(obs::flight::dump_jsonl())));
        }

        Response {
            id: req.id,
            status: "ok".into(),
            verb: "stats".into(),
            board: None,
            seed: None,
            elapsed_ms: None,
            result: Some(Value::Object(fields)),
            error_kind: None,
            error: None,
            trace: None,
            cached: None,
        }
    }

    fn release_tenant(&self, tenant: &str) {
        let mut tenants = self
            .tenants
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(t) = tenants.get_mut(tenant) {
            t.inflight = t.inflight.saturating_sub(1);
        }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_sink() -> (Sink, Arc<Mutex<Vec<Response>>>) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        let sink: Sink = Arc::new(move |resp| {
            sink_seen
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(resp);
        });
        (sink, seen)
    }

    fn sched(cfg: SchedConfig) -> Scheduler {
        Scheduler::new(cfg, Farm::new(5, 1), Pool::serial(), None)
    }

    fn ping(id: i64) -> Request {
        Request::new(id, "ping")
    }

    #[test]
    fn token_bucket_sheds_after_burst() {
        let s = sched(SchedConfig {
            burst: 2.0,
            rate_per_sec: 0.0,
            ..SchedConfig::default()
        });
        let (sink, seen) = collect_sink();
        for id in 0..4 {
            s.submit(ping(id), Arc::clone(&sink));
        }
        let seen = seen.lock().unwrap();
        // The first two were admitted (queued, no dispatcher running);
        // the rest shed immediately with the typed error.
        assert_eq!(seen.len(), 2);
        for resp in seen.iter() {
            assert_eq!(resp.status, "shed");
            assert_eq!(resp.error_kind.as_deref(), Some("rate_limited"));
        }
    }

    #[test]
    fn bounded_queue_sheds_queue_full() {
        let s = sched(SchedConfig {
            queue_cap: 3,
            burst: 100.0,
            ..SchedConfig::default()
        });
        let (sink, seen) = collect_sink();
        for id in 0..5 {
            s.submit(ping(id), Arc::clone(&sink));
        }
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 2, "two requests beyond queue_cap");
        for resp in seen.iter() {
            assert_eq!(resp.status, "shed");
            assert_eq!(resp.error_kind.as_deref(), Some("queue_full"));
        }
    }

    #[test]
    fn inflight_quota_sheds_quota_exceeded() {
        let s = sched(SchedConfig {
            max_inflight: 1,
            burst: 100.0,
            ..SchedConfig::default()
        });
        let (sink, seen) = collect_sink();
        s.submit(ping(0), Arc::clone(&sink));
        s.submit(ping(1), Arc::clone(&sink));
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].error_kind.as_deref(), Some("quota_exceeded"));
    }

    #[test]
    fn unknown_verb_answers_immediately() {
        let s = sched(SchedConfig::default());
        let (sink, seen) = collect_sink();
        s.submit(Request::new(9, "frobnicate"), sink);
        let seen = seen.lock().unwrap();
        assert_eq!(seen[0].status, "error");
        assert_eq!(seen[0].error_kind.as_deref(), Some("unknown_verb"));
    }

    #[test]
    fn drain_serves_backlog_then_acks_shutdown() {
        let s = sched(SchedConfig::default());
        let (sink, seen) = collect_sink();
        s.submit(ping(1), Arc::clone(&sink));
        s.submit(ping(2), Arc::clone(&sink));
        s.submit(Request::new(3, "shutdown"), Arc::clone(&sink));
        // Post-drain submissions shed.
        s.submit(ping(4), Arc::clone(&sink));
        s.dispatch_loop();
        assert!(s.stopped());
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 4, "zero lost responses");
        let by_id = |id: i64| seen.iter().find(|r| r.id == id).unwrap();
        assert!(by_id(1).is_ok());
        assert!(by_id(2).is_ok());
        assert_eq!(by_id(4).error_kind.as_deref(), Some("shutting_down"));
        let ack = by_id(3);
        assert!(ack.is_ok());
        let result = ack.result.as_ref().unwrap();
        assert_eq!(result.get("drained").unwrap().as_bool(), Some(true));
        assert_eq!(result.get("served").unwrap().as_i64(), Some(3));
    }

    #[test]
    fn expired_deadline_times_out_and_frees_the_board() {
        let s = sched(SchedConfig::default());
        let (sink, seen) = collect_sink();
        let mut doomed = ping(1);
        doomed.deadline_ms = Some(0);
        s.submit(doomed, Arc::clone(&sink));
        s.submit(ping(2), Arc::clone(&sink));
        s.submit(Request::new(3, "shutdown"), Arc::clone(&sink));
        s.dispatch_loop();
        let seen = seen.lock().unwrap();
        let by_id = |id: i64| seen.iter().find(|r| r.id == id).unwrap();
        assert_eq!(by_id(1).status, "timeout");
        assert_eq!(by_id(1).error_kind.as_deref(), Some("deadline_exceeded"));
        // The board kept serving afterwards: request 2 completed.
        assert!(by_id(2).is_ok());
    }

    #[test]
    fn stats_verb_percentiles_match_jsonl_export() {
        let s = sched(SchedConfig::default());
        let hist = obs::metrics::histogram("test.stats.frozen_hist".to_string());
        hist.observe(100);
        hist.observe(250);
        hist.observe(10_000);
        let (sink, seen) = collect_sink();
        let mut req = Request::new(50, "stats");
        req.config = Value::Object(vec![("flight".into(), Value::Bool(true))]);
        s.submit(req, sink);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 1);
        let resp = &seen[0];
        assert!(resp.is_ok(), "stats answers ok: {:?}", resp.error);
        let result = resp.result.as_ref().unwrap();
        assert!(result.get("flight").is_some(), "flight dump inlined");
        let metrics = match result.get("metrics").unwrap() {
            Value::Array(rows) => rows,
            other => panic!("metrics must be an array, got {other:?}"),
        };
        let row = metrics
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some("test.stats.frozen_hist"))
            .expect("histogram present in stats dump");
        // The stats row must be byte-identical to the JSONL export line:
        // same schema, same percentile math, same float formatting.
        let jsonl = obs::metrics::snapshot().to_jsonl();
        let line = jsonl
            .lines()
            .find(|l| l.contains("\"test.stats.frozen_hist\""))
            .expect("histogram present in jsonl export");
        assert_eq!(row.to_json(), line);
    }

    #[test]
    fn served_responses_carry_a_trace_id() {
        let run = || {
            let s = sched(SchedConfig::default());
            let (sink, seen) = collect_sink();
            s.submit(ping(1), sink);
            s.begin_drain();
            s.dispatch_loop();
            let seen = seen.lock().unwrap();
            let resp = seen.iter().find(|r| r.id == 1).unwrap().clone();
            resp.trace.clone().expect("served response carries a trace")
        };
        let first = run();
        assert_eq!(first.len(), 16, "trace id is 16 hex chars: {first:?}");
        assert!(first.chars().all(|c| c.is_ascii_hexdigit()));
        // Deterministic minting: a fresh scheduler replaying the same
        // request stream reproduces the same trace id.
        assert_eq!(first, run());
    }

    #[test]
    fn identical_requests_batch_onto_one_execution() {
        let s = sched(SchedConfig::default());
        let before = obs::metrics::counter("serve.batch.deduped".to_string()).get();
        let (sink, seen) = collect_sink();
        for id in 0..3 {
            let mut req = Request::new(id, "ping");
            req.seed = Some(77);
            s.submit(req, Arc::clone(&sink));
        }
        s.begin_drain();
        s.dispatch_loop();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.iter().filter(|r| r.is_ok()).count(), 3);
        let after = obs::metrics::counter("serve.batch.deduped".to_string()).get();
        assert!(
            after >= before + 2,
            "three identical jobs dedup to one execution"
        );
    }
}
