//! Crossbeam-free work-stealing thread pool with a deterministic
//! `par_map` API.
//!
//! Jobs are distributed round-robin into per-worker deques; an idle worker
//! pops from its own queue front and steals from the back of its
//! neighbours'. Results land in their input slot, so the output order (and
//! therefore every downstream computation) is **identical at any thread
//! count** as long as each job is a pure function of its input — which is
//! what [`Pool::par_map_seeded`] guarantees by deriving per-job child
//! seeds from a master seed with [`derive_seed`].
//!
//! A panicking job is retried once (transient-failure capture); a second
//! panic is re-raised on the calling thread after every worker has
//! drained, so no result is silently dropped.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Mutex, OnceLock};
// Wall-clock here only feeds the `busy_nanos` throughput stat; it is never
// visible to simulation results.
use std::time::Instant; // sim-lint: allow(wall-clock)

use crate::rng::derive_seed;

/// Snapshot of a pool's cumulative progress counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Total jobs completed across all `par_map` calls.
    pub jobs_completed: u64,
    /// Jobs that panicked once and were retried.
    pub jobs_retried: u64,
    /// Jobs executed by a worker other than the one they were dealt to.
    pub jobs_stolen: u64,
    /// `par_map` invocations served.
    pub maps_run: u64,
    /// Wall-clock nanoseconds spent inside `par_map` calls.
    pub busy_nanos: u64,
}

impl PoolStats {
    /// Mean throughput in jobs per second over the pool's lifetime.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.busy_nanos == 0 {
            return 0.0;
        }
        self.jobs_completed as f64 / (self.busy_nanos as f64 / 1e9)
    }
}

/// A fixed-width scoped thread pool.
///
/// The pool holds no threads between calls — each `par_map` spawns scoped
/// workers (`std::thread::scope`), which keeps borrows of the input slice
/// safe without `'static` bounds and leaves nothing running between
/// campaigns.
///
/// # Examples
///
/// ```
/// use sim_rt::pool::Pool;
///
/// let pool = Pool::new(4);
/// let squares = pool.par_map(&[1, 2, 3, 4], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
#[derive(Debug)]
pub struct Pool {
    threads: usize,
    jobs_completed: AtomicU64,
    jobs_retried: AtomicU64,
    jobs_stolen: AtomicU64,
    maps_run: AtomicU64,
    busy_nanos: AtomicU64,
}

impl Pool {
    /// Creates a pool with `threads` workers; `0` means one worker per
    /// available CPU (overridable with the `SIM_RT_THREADS` env var).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            default_threads()
        } else {
            threads
        };
        Pool {
            threads,
            jobs_completed: AtomicU64::new(0),
            jobs_retried: AtomicU64::new(0),
            jobs_stolen: AtomicU64::new(0),
            maps_run: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
        }
    }

    /// A single-threaded pool: `par_map` degenerates to an in-order loop.
    pub const fn serial() -> Self {
        Pool {
            threads: 1,
            jobs_completed: AtomicU64::new(0),
            jobs_retried: AtomicU64::new(0),
            jobs_stolen: AtomicU64::new(0),
            maps_run: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
        }
    }

    /// The process-wide shared pool, sized by `SIM_RT_THREADS` or the
    /// available CPU count.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(0))
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cumulative progress counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            jobs_retried: self.jobs_retried.load(Ordering::Relaxed),
            jobs_stolen: self.jobs_stolen.load(Ordering::Relaxed),
            maps_run: self.maps_run.load(Ordering::Relaxed),
            busy_nanos: self.busy_nanos.load(Ordering::Relaxed),
        }
    }

    /// Maps `f` over `items` in parallel; `out[i] == f(i, &items[i])`.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of any job that fails twice.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let started = Instant::now(); // sim-lint: allow(wall-clock)
        self.maps_run.fetch_add(1, Ordering::Relaxed);
        let workers = self.threads.min(items.len()).max(1);
        let out = if workers == 1 {
            self.serial_map(items, &f)
        } else {
            self.stealing_map(items, &f, workers)
        };
        self.busy_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// [`par_map`](Pool::par_map) with a per-job child seed derived from
    /// `master_seed` and the job index — the deterministic fan-out used by
    /// the campaign, fingerprinting, and characterization sweeps.
    pub fn par_map_seeded<T, R, F>(&self, master_seed: u64, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(u64, usize, &T) -> R + Sync,
    {
        self.par_map(items, |i, item| {
            f(derive_seed(master_seed, i as u64), i, item)
        })
    }

    fn serial_map<T, R, F>(&self, items: &[T], f: &F) -> Vec<R>
    where
        F: Fn(usize, &T) -> R,
    {
        let profiling = profile::enabled();
        let mut prof_run = 0u64;
        let mut prof_jobs = 0u64;
        let mut out = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let started = profiling.then(Instant::now); // sim-lint: allow(wall-clock)
            let r = self.run_job(i, item, f);
            if let Some(t) = started {
                prof_run += t.elapsed().as_nanos() as u64;
                prof_jobs += 1;
            }
            self.jobs_completed.fetch_add(1, Ordering::Relaxed);
            out.push(r);
        }
        if prof_jobs > 0 {
            profile::record_lane("serial", prof_run, 0, prof_jobs);
        }
        out
    }

    fn stealing_map<T, R, F>(&self, items: &[T], f: &F, workers: usize) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        // Round-robin deal into per-worker deques.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new((w..items.len()).step_by(workers).collect()))
            .collect();
        let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<R>)>();

        std::thread::scope(|scope| {
            for w in 0..workers {
                let tx = tx.clone();
                let queues = &queues;
                scope.spawn(move || {
                    let profiling = profile::enabled();
                    let mut prof_run = 0u64;
                    let mut prof_steal = 0u64;
                    let mut prof_jobs = 0u64;
                    while let Some((i, stolen)) = next_job(queues, w) {
                        if stolen {
                            self.jobs_stolen.fetch_add(1, Ordering::Relaxed);
                        }
                        let started = profiling.then(Instant::now); // sim-lint: allow(wall-clock)
                        let result =
                            catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))).or_else(|_| {
                                // One retry per job before giving up.
                                self.jobs_retried.fetch_add(1, Ordering::Relaxed);
                                catch_unwind(AssertUnwindSafe(|| f(i, &items[i])))
                            });
                        if let Some(t) = started {
                            let ns = t.elapsed().as_nanos() as u64;
                            if stolen {
                                prof_steal += ns;
                            } else {
                                prof_run += ns;
                            }
                            prof_jobs += 1;
                        }
                        if tx.send((i, result)).is_err() {
                            return; // collector gone: a sibling job failed
                        }
                    }
                    if prof_jobs > 0 {
                        profile::record_worker(w, prof_run, prof_steal, prof_jobs);
                    }
                });
            }
            drop(tx);

            let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
            let mut failure: Option<Box<dyn std::any::Any + Send>> = None;
            for (i, result) in rx {
                match result {
                    Ok(r) => {
                        slots[i] = Some(r);
                        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(payload) => failure = Some(payload),
                }
            }
            if let Some(payload) = failure {
                std::panic::resume_unwind(payload);
            }
            slots
                .into_iter()
                .map(|s| s.expect("every job sends exactly one result"))
                .collect()
        })
    }

    fn run_job<T, R, F>(&self, i: usize, item: &T, f: &F) -> R
    where
        F: Fn(usize, &T) -> R,
    {
        match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
            Ok(r) => r,
            Err(_) => {
                self.jobs_retried.fetch_add(1, Ordering::Relaxed);
                f(i, item)
            }
        }
    }
}

/// A structured scope for long-lived named service threads — accept
/// loops, connection readers, executor workers.
///
/// The workspace invariant (enforced by sim-lint's `stray-spawn` rule) is
/// that all thread creation lives in this module; `par_map` covers
/// fork-join data parallelism, and this covers everything that must
/// outlive a single map: a server's threads run until the scope closure
/// returns, and [`service_scope`] joins them all before returning, so no
/// service thread ever outlives the state it borrows.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicU32, Ordering};
///
/// let hits = AtomicU32::new(0);
/// sim_rt::pool::service_scope(|scope| {
///     for _ in 0..3 {
///         scope.spawn("worker", || {
///             hits.fetch_add(1, Ordering::SeqCst);
///         });
///     }
/// });
/// assert_eq!(hits.load(Ordering::SeqCst), 3);
/// ```
#[derive(Debug)]
pub struct ServiceScope<'scope, 'env> {
    scope: &'scope std::thread::Scope<'scope, 'env>,
    spawned: AtomicU64,
}

impl<'scope, 'env> ServiceScope<'scope, 'env> {
    /// Spawns a named service thread; the handle can be joined early, and
    /// any thread still running when the scope closure returns is joined
    /// by [`service_scope`] itself.
    pub fn spawn<F, T>(&self, name: &str, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        self.spawned.fetch_add(1, Ordering::Relaxed);
        std::thread::Builder::new()
            .name(name.to_string())
            .spawn_scoped(self.scope, f)
            .expect("service thread spawn failed")
    }

    /// Number of threads spawned through this scope so far.
    pub fn spawned(&self) -> u64 {
        self.spawned.load(Ordering::Relaxed)
    }
}

/// Runs `f` with a [`ServiceScope`]; returns once `f` and every thread it
/// spawned have finished. Panics from service threads surface here, like
/// [`std::thread::scope`].
pub fn service_scope<'env, T>(f: impl for<'scope> FnOnce(&ServiceScope<'scope, 'env>) -> T) -> T {
    std::thread::scope(|scope| {
        let svc = ServiceScope {
            scope,
            spawned: AtomicU64::new(0),
        };
        f(&svc)
    })
}

/// Pops a job index: own queue front first, then steal from the back of
/// the busiest sibling. The flag says whether the job was stolen.
fn next_job(queues: &[Mutex<VecDeque<usize>>], me: usize) -> Option<(usize, bool)> {
    if let Some(i) = queues[me].lock().expect("queue lock poisoned").pop_front() {
        return Some((i, false));
    }
    for off in 1..queues.len() {
        let victim = (me + off) % queues.len();
        if let Some(i) = queues[victim]
            .lock()
            .expect("queue lock poisoned")
            .pop_back()
        {
            return Some((i, true));
        }
    }
    None
}

/// Opt-in pool self-profiling: per-worker run/steal phase timers folded
/// into a flamegraph-compatible stack table.
///
/// Enabled by setting `AMPEREBLEED_PROFILE` (any non-empty value other
/// than `0`); when enabled, every job executed by [`Pool::par_map`] is
/// timed and attributed to its worker lane, split by whether the job ran
/// on its dealt worker (`run`) or was stolen (`steal`). The job bodies
/// this pool runs (board captures, campaign phases) dwarf one `Instant`
/// read, so the sample rate is 1 — every job is a sample.
///
/// [`folded`](crate::pool::profile::folded) renders the table in folded-stack format
/// (`pool;worker3;steal 120400` per line), directly consumable by
/// standard flamegraph tooling. The aggregate totals surface as
/// `pool.profile.*` gauges in every metrics snapshot.
pub mod profile {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
    use std::sync::{Mutex, OnceLock};

    /// Environment variable enabling the profiler. A value that is not
    /// `1`, `true`, or `stdout` names the folded-stack output file.
    pub const PROFILE_ENV: &str = "AMPEREBLEED_PROFILE";

    /// Runtime override of the env-var gate: 0 = follow env, 1 = on,
    /// 2 = off.
    static FORCE: AtomicU8 = AtomicU8::new(0);

    fn env_value() -> &'static Option<String> {
        static VALUE: OnceLock<Option<String>> = OnceLock::new();
        VALUE.get_or_init(|| std::env::var(PROFILE_ENV).ok().filter(|v| !v.is_empty()))
    }

    /// Whether job timing is currently live.
    pub fn enabled() -> bool {
        match FORCE.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => env_value().as_deref().is_some_and(|v| v != "0"),
        }
    }

    /// Overrides the `AMPEREBLEED_PROFILE` gate at runtime: `Some(true)`
    /// forces profiling on, `Some(false)` off, `None` defers to the env.
    pub fn force(on: Option<bool>) {
        let v = match on {
            Some(true) => 1,
            Some(false) => 2,
            None => 0,
        };
        FORCE.store(v, Ordering::Relaxed);
    }

    /// Where the serve binary writes the folded table on exit: a file
    /// path when `AMPEREBLEED_PROFILE` names one, `None` (stdout) when
    /// the variable just toggles (`1`, `true`, `stdout`).
    pub fn output_path() -> Option<String> {
        env_value()
            .as_deref()
            .filter(|v| !matches!(*v, "0" | "1" | "true" | "stdout"))
            .map(str::to_string)
    }

    static SAMPLES: AtomicU64 = AtomicU64::new(0);
    static RUN_NS: AtomicU64 = AtomicU64::new(0);
    static STEAL_NS: AtomicU64 = AtomicU64::new(0);

    fn table() -> &'static Mutex<BTreeMap<String, u64>> {
        static TABLE: OnceLock<Mutex<BTreeMap<String, u64>>> = OnceLock::new();
        TABLE.get_or_init(|| Mutex::new(BTreeMap::new()))
    }

    /// Aggregate profiler totals, mirrored as `pool.profile.*` gauges.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct ProfileStats {
        /// Whether timing is currently live.
        pub enabled: bool,
        /// Jobs timed (sample rate is 1: every job is a sample).
        pub samples: u64,
        /// Nanoseconds spent in jobs run on their dealt worker.
        pub run_ns: u64,
        /// Nanoseconds spent in stolen jobs.
        pub steal_ns: u64,
    }

    /// Current aggregate totals.
    pub fn stats() -> ProfileStats {
        ProfileStats {
            enabled: enabled(),
            samples: SAMPLES.load(Ordering::Relaxed),
            run_ns: RUN_NS.load(Ordering::Relaxed),
            steal_ns: STEAL_NS.load(Ordering::Relaxed),
        }
    }

    /// Folds one lane's accumulated phase times into the table. Called
    /// once per worker per map, so the table mutex is far off the
    /// per-job hot path.
    pub(super) fn record_lane(lane: &str, run_ns: u64, steal_ns: u64, samples: u64) {
        SAMPLES.fetch_add(samples, Ordering::Relaxed);
        RUN_NS.fetch_add(run_ns, Ordering::Relaxed);
        STEAL_NS.fetch_add(steal_ns, Ordering::Relaxed);
        let mut table = table()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if run_ns > 0 {
            *table.entry(format!("pool;{lane};run")).or_insert(0) += run_ns;
        }
        if steal_ns > 0 {
            *table.entry(format!("pool;{lane};steal")).or_insert(0) += steal_ns;
        }
    }

    /// [`record_lane`] keyed by a stealing worker's index.
    pub(super) fn record_worker(worker: usize, run_ns: u64, steal_ns: u64, samples: u64) {
        record_lane(&format!("worker{worker}"), run_ns, steal_ns, samples);
    }

    /// Renders the accumulated table in folded-stack format, one
    /// `stack;frames value` line per entry, sorted by stack name —
    /// ready for flamegraph tooling.
    pub fn folded() -> String {
        let table = table()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = String::new();
        for (stack, ns) in table.iter() {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&ns.to_string());
            out.push('\n');
        }
        out
    }

    /// Clears the table and totals (tests, between-campaign baselines).
    pub fn reset() {
        SAMPLES.store(0, Ordering::Relaxed);
        RUN_NS.store(0, Ordering::Relaxed);
        STEAL_NS.store(0, Ordering::Relaxed);
        table()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }
}

fn default_threads() -> usize {
    if let Ok(v) = std::env::var("SIM_RT_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SimRng};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_input_order() {
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..1_000).collect();
        let out = pool.par_map(&items, |_, &x| x * 2);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn identical_at_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let reference = Pool::serial().par_map_seeded(99, &items, |seed, _, &x| {
            let mut rng = SimRng::seed_from_u64(seed ^ x);
            rng.next_u64()
        });
        for threads in [2, 3, 8] {
            let out = Pool::new(threads).par_map_seeded(99, &items, |seed, _, &x| {
                let mut rng = SimRng::seed_from_u64(seed ^ x);
                rng.next_u64()
            });
            assert_eq!(out, reference, "thread count {threads} changed results");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let pool = Pool::new(4);
        let out: Vec<u32> = pool.par_map(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn transient_panic_is_retried_once() {
        let pool = Pool::new(2);
        let flaky = AtomicUsize::new(0);
        let items = [0u32; 16];
        let out = pool.par_map(&items, |i, _| {
            // Job 5 fails on its first attempt only.
            if i == 5 && flaky.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            i
        });
        assert_eq!(out[5], 5);
        assert_eq!(pool.stats().jobs_retried, 1);
        assert_eq!(pool.stats().jobs_completed, 16);
    }

    #[test]
    fn persistent_panic_propagates() {
        let pool = Pool::new(2);
        let items = [0u32; 8];
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&items, |i, _| {
                assert!(i != 3, "job 3 always fails");
                i
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn progress_counters_accumulate() {
        let pool = Pool::new(2);
        pool.par_map(&[0u8; 10], |i, _| i);
        pool.par_map(&[0u8; 5], |i, _| i);
        let stats = pool.stats();
        assert_eq!(stats.jobs_completed, 15);
        assert_eq!(stats.maps_run, 2);
        assert!(stats.jobs_per_sec() > 0.0);
        // Steals are scheduling-dependent, but can never exceed the work.
        assert!(stats.jobs_stolen <= stats.jobs_completed);
    }

    #[test]
    fn serial_pool_never_steals() {
        let pool = Pool::serial();
        pool.par_map(&[0u8; 64], |i, _| i);
        assert_eq!(pool.stats().jobs_stolen, 0);
    }

    #[test]
    fn serial_pool_has_one_thread() {
        assert_eq!(Pool::serial().threads(), 1);
        assert!(Pool::global().threads() >= 1);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let pool = Pool::new(64);
        let out = pool.par_map(&[1u32, 2], |_, &x| x + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn service_scope_joins_and_counts() {
        let total = AtomicUsize::new(0);
        let spawned = service_scope(|scope| {
            for i in 0..4 {
                let total = &total;
                scope.spawn("svc-test", move || {
                    total.fetch_add(i + 1, Ordering::SeqCst);
                });
            }
            scope.spawned()
        });
        assert_eq!(spawned, 4);
        assert_eq!(total.load(Ordering::SeqCst), 1 + 2 + 3 + 4);
    }

    #[test]
    fn service_scope_threads_are_named() {
        service_scope(|scope| {
            let h = scope.spawn("svc-named", || {
                std::thread::current().name().map(str::to_string)
            });
            assert_eq!(h.join().unwrap().as_deref(), Some("svc-named"));
        });
    }

    /// The profiler's force switch and totals are process-global;
    /// serialize the tests that toggle them.
    fn profile_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn profiler_folds_run_and_steal_lanes() {
        let _guard = profile_guard();
        profile::force(Some(true));
        let work = |i: usize, _: &u8| (0..200usize).fold(i, |a, b| a ^ b.wrapping_mul(31));
        Pool::new(2).par_map(&[0u8; 64], work);
        Pool::serial().par_map(&[0u8; 8], work);
        profile::force(Some(false));
        let stats = profile::stats();
        assert!(!stats.enabled, "force(Some(false)) wins over the env");
        assert!(stats.samples >= 72, "every job is a sample");
        assert!(stats.run_ns + stats.steal_ns > 0);
        let folded = profile::folded();
        assert!(folded.contains("pool;serial;run "));
        assert!(
            folded.contains("pool;worker0;") || folded.contains("pool;worker1;"),
            "stealing lanes present: {folded}"
        );
        for line in folded.lines() {
            let (stack, value) = line.rsplit_once(' ').expect("folded line shape");
            assert!(stack.starts_with("pool;"), "{line}");
            value.parse::<u64>().expect("folded value is integer ns");
        }
    }

    #[test]
    fn profiler_off_by_default_records_nothing_new() {
        let _guard = profile_guard();
        profile::force(Some(false));
        let before = profile::stats().samples;
        Pool::new(2).par_map(&[0u8; 32], |i, _| i);
        assert_eq!(profile::stats().samples, before);
        profile::force(None);
    }

    #[test]
    fn service_scope_propagates_panics() {
        let result = std::panic::catch_unwind(|| {
            service_scope(|scope| {
                scope.spawn("svc-doomed", || panic!("boom"));
            })
        });
        assert!(result.is_err());
    }
}
