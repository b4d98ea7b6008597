//! Zero-dependency observability for the AmpereBleed reproduction:
//! leveled structured events, spans, pluggable sinks, and a process-global
//! metrics registry — std-only, consistent with the workspace's offline
//! constraint.
//!
//! # Events and filtering
//!
//! Library code emits [`event!`] (or the leveled shorthands [`trace!`],
//! [`debug!`], [`info!`], [`warn!`], [`error!`]) against a dotted target
//! such as `"core.sampler"`. The active filter comes from the
//! `AMPEREBLEED_LOG` environment variable on first use —
//! `AMPEREBLEED_LOG=debug` or `AMPEREBLEED_LOG=info,core.sampler=trace` —
//! and defaults to `warn`. Events below the filter cost one atomic load.
//!
//! Every event carries *dual timestamps*: monotonic wall-clock nanoseconds
//! since process start, and (when the emitting site knows it) the
//! simulation timestamp in nanoseconds, so a trace can be replayed against
//! either clock.
//!
//! # Sinks
//!
//! Enabled events fan out to every installed [`Sink`]. A stderr
//! pretty-printer is always installed; setting `AMPEREBLEED_TRACE_FILE`
//! adds a JSON Lines file sink whose rows reuse [`sim_rt::ser`], so traces
//! land in the same JSONL/CSV pipeline as exported results. Tests install
//! a [`MemorySink`] and assert on the captured events.
//!
//! # Metrics
//!
//! [`metrics`] hosts process-global counters, gauges, and fixed-bucket
//! latency histograms behind cheap atomic handles; [`metrics::snapshot`]
//! freezes them into records for the same export pipeline. The
//! [`counter!`], [`gauge!`], and [`histogram!`] macros cache the registry
//! lookup in a per-call-site static, so hot paths pay one atomic add.
//!
//! # Tracing and the flight recorder
//!
//! [`trace`](mod@trace) adds deterministic request tracing on top of events: a
//! [`TraceContext`] minted from `(tenant, seed, request counter)`
//! propagates by value across pool workers, spans reconstruct into trees,
//! and the structural JSONL export is byte-identical at any pool width.
//! [`flight`] keeps a fixed-capacity ring of recent events per service
//! thread and dumps it to the file named by [`FLIGHT_FILE_ENV`] on
//! deadline misses, queue shedding, or panic.
//!
//! # Examples
//!
//! ```
//! obs::info!("demo.module", "work unit done"; "items" => 3, "ok" => true);
//!
//! let reads = obs::counter!("demo.reads");
//! reads.inc();
//! let lat = obs::histogram!("demo.latency_ns");
//! lat.observe(1_250);
//!
//! let snap = obs::metrics::snapshot();
//! assert!(snap.counter("demo.reads").unwrap() >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod event;
pub mod flight;
pub mod level;
pub mod metrics;
pub mod span;
pub mod trace;

mod macros;

pub use event::{Event, JsonlSink, MemorySink, Sink, StderrSink};
pub use flight::FlightEvent;
pub use level::Level;
pub use metrics::{Counter, Gauge, Histogram, MetricsSnapshot};
pub use span::Span;
pub use trace::{SpanNode, SpanRecord, TraceContext, TraceSpan};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// `true` when the `compile-off` feature removed all instrumentation.
///
/// The macros branch on this constant, so with the feature enabled every
/// event, span, and metric update folds away at compile time.
pub const COMPILED_OUT: bool = cfg!(feature = "compile-off");

/// Environment variable holding the level filter (e.g. `debug` or
/// `info,core.sampler=trace`).
pub const LOG_ENV: &str = "AMPEREBLEED_LOG";

/// Environment variable naming a JSONL trace file to append events to.
pub const TRACE_FILE_ENV: &str = "AMPEREBLEED_TRACE_FILE";

/// Environment variable naming the JSONL file [`flight::auto_dump`]
/// appends to when the serve layer hits a deadline, sheds, or panics.
pub const FLIGHT_FILE_ENV: &str = "AMPEREBLEED_FLIGHT_FILE";

/// The process-global observability runtime: filter plus sink list.
struct Runtime {
    /// Default level for targets without an override (0 = off).
    default_level: AtomicU8,
    /// Per-target-prefix overrides, most specific match wins.
    overrides: RwLock<Vec<(String, u8)>>,
    /// Cached maximum of default and all overrides — the fast-path gate.
    max_level: AtomicU8,
    sinks: RwLock<Vec<Arc<dyn Sink>>>,
}

static RUNTIME: OnceLock<Runtime> = OnceLock::new();

fn runtime() -> &'static Runtime {
    RUNTIME.get_or_init(Runtime::from_env)
}

impl Runtime {
    fn from_env() -> Runtime {
        clock::init();
        let spec = std::env::var(LOG_ENV).unwrap_or_default();
        let (default_level, overrides) = parse_filter(&spec);
        let max = overrides
            .iter()
            .map(|&(_, l)| l)
            .fold(default_level, u8::max);
        let mut sinks: Vec<Arc<dyn Sink>> = vec![Arc::new(StderrSink::new())];
        let mut open_error = None;
        if let Ok(path) = std::env::var(TRACE_FILE_ENV) {
            match JsonlSink::create(&path) {
                Ok(sink) => sinks.push(Arc::new(sink)),
                Err(e) => open_error = Some((path, e)),
            }
        }
        let rt = Runtime {
            default_level: AtomicU8::new(default_level),
            overrides: RwLock::new(overrides),
            max_level: AtomicU8::new(max),
            sinks: RwLock::new(sinks),
        };
        if let Some((path, e)) = open_error {
            // The stderr sink is installed, so the failure is visible.
            rt.dispatch(
                Event::new(Level::Error, "obs", "failed to open trace file")
                    .field("path", path)
                    .field("error", e.to_string()),
            );
        }
        rt
    }

    fn dispatch(&self, event: Event) {
        event::count_event(event.level);
        let sinks = self.sinks.read().expect("sink list poisoned");
        for sink in sinks.iter() {
            sink.record(&event);
        }
    }

    fn recompute_max(&self) {
        let overrides = self.overrides.read().expect("override list poisoned");
        let max = overrides
            .iter()
            .map(|&(_, l)| l)
            .fold(self.default_level.load(Ordering::Relaxed), u8::max);
        self.max_level.store(max, Ordering::Relaxed);
    }
}

/// Parses an `AMPEREBLEED_LOG`-style spec into `(default, overrides)`.
///
/// Unrecognized tokens are ignored; an empty spec yields the `warn`
/// default.
fn parse_filter(spec: &str) -> (u8, Vec<(String, u8)>) {
    let mut default = Level::Warn.as_u8();
    let mut overrides = Vec::new();
    for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        match token.split_once('=') {
            Some((target, level)) => {
                if let Some(l) = level::parse_filter_level(level.trim()) {
                    overrides.push((target.trim().to_owned(), l));
                }
            }
            None => {
                if let Some(l) = level::parse_filter_level(token) {
                    default = l;
                }
            }
        }
    }
    (default, overrides)
}

/// Forces runtime initialization (env parsing, sink installation, clock
/// start). Optional — every entry point initializes lazily — but calling
/// it first thing pins the wall-clock zero to process start.
pub fn init() {
    let _ = runtime();
}

/// Whether an event at `level` for `target` would reach the sinks.
///
/// This is the macro fast path: one relaxed atomic load when the level is
/// globally disabled.
pub fn enabled(level: Level, target: &str) -> bool {
    if COMPILED_OUT {
        return false;
    }
    let rt = runtime();
    let n = level.as_u8();
    if n > rt.max_level.load(Ordering::Relaxed) {
        return false;
    }
    let overrides = rt.overrides.read().expect("override list poisoned");
    let mut best: Option<(usize, u8)> = None;
    for (prefix, l) in overrides.iter() {
        // A prefix matches itself and dotted descendants, never substrings.
        let hit = target == prefix
            || (target.starts_with(prefix.as_str())
                && target.as_bytes().get(prefix.len()) == Some(&b'.'));
        if hit {
            match best {
                Some((len, _)) if len >= prefix.len() => {}
                _ => best = Some((prefix.len(), *l)),
            }
        }
    }
    let effective = best.map_or(rt.default_level.load(Ordering::Relaxed), |(_, l)| l);
    n <= effective
}

/// Replaces the filter with a single global level (clears per-target
/// overrides). `None` disables all events.
pub fn set_level(level: Option<Level>) {
    let rt = runtime();
    let n = level.map_or(0, Level::as_u8);
    rt.default_level.store(n, Ordering::Relaxed);
    rt.overrides
        .write()
        .expect("override list poisoned")
        .clear();
    rt.recompute_max();
}

/// Adds a per-target-prefix override (`target` matches itself and any
/// dotted descendant).
pub fn set_target_level(target: impl Into<String>, level: Level) {
    let rt = runtime();
    rt.overrides
        .write()
        .expect("override list poisoned")
        .push((target.into(), level.as_u8()));
    rt.recompute_max();
}

/// Installs an additional sink.
pub fn install_sink(sink: Arc<dyn Sink>) {
    runtime()
        .sinks
        .write()
        .expect("sink list poisoned")
        .push(sink);
}

/// Removes every installed sink (including the default stderr sink).
/// Mostly for tests that want full control of the sink set.
pub fn clear_sinks() {
    runtime().sinks.write().expect("sink list poisoned").clear();
}

/// Flushes every installed sink.
pub fn flush() {
    let sinks = runtime().sinks.read().expect("sink list poisoned");
    for sink in sinks.iter() {
        sink.flush();
    }
}

/// Sends a fully-built event to the sinks. Prefer the [`event!`] macro,
/// which performs the level check before constructing anything.
pub fn emit(event: Event) {
    if COMPILED_OUT {
        return;
    }
    runtime().dispatch(event);
}

/// Mirrors a [`sim_rt::pool::PoolStats`] snapshot into gauges named
/// `{prefix}.jobs_completed`, `.jobs_retried`, `.jobs_stolen`,
/// `.maps_run`, `.busy_nanos`, and `.jobs_per_sec`, so pool telemetry
/// lands in the same metrics snapshot as everything else.
pub fn record_pool_stats(prefix: &str, stats: &sim_rt::pool::PoolStats) {
    metrics::gauge(format!("{prefix}.jobs_completed")).set(stats.jobs_completed as f64);
    metrics::gauge(format!("{prefix}.jobs_retried")).set(stats.jobs_retried as f64);
    metrics::gauge(format!("{prefix}.jobs_stolen")).set(stats.jobs_stolen as f64);
    metrics::gauge(format!("{prefix}.maps_run")).set(stats.maps_run as f64);
    metrics::gauge(format!("{prefix}.busy_nanos")).set(stats.busy_nanos as f64);
    metrics::gauge(format!("{prefix}.jobs_per_sec")).set(stats.jobs_per_sec());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests here mutate the process-global filter; serialize them.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn filter_spec_parsing() {
        assert_eq!(parse_filter(""), (Level::Warn.as_u8(), vec![]));
        assert_eq!(parse_filter("debug").0, Level::Debug.as_u8());
        assert_eq!(parse_filter("off").0, 0);
        let (d, o) = parse_filter("info, core.sampler=trace ,bogus, x=nope");
        assert_eq!(d, Level::Info.as_u8());
        assert_eq!(o, vec![("core.sampler".to_owned(), Level::Trace.as_u8())]);
    }

    #[test]
    fn level_filtering_with_overrides() {
        let _guard = guard();
        set_level(Some(Level::Info));
        assert!(enabled(Level::Info, "core.campaign"));
        assert!(!enabled(Level::Debug, "core.campaign"));

        set_target_level("core.sampler", Level::Trace);
        assert!(enabled(Level::Trace, "core.sampler"));
        assert!(enabled(Level::Trace, "core.sampler.reads"));
        assert!(
            !enabled(Level::Trace, "core.samplerish"),
            "prefix must end at a dot"
        );
        assert!(
            !enabled(Level::Debug, "core.campaign"),
            "override is scoped"
        );

        set_level(None);
        assert!(!enabled(Level::Error, "core.campaign"));
        set_level(Some(Level::Warn));
    }

    #[test]
    fn memory_sink_captures_events_and_counts_levels() {
        let _guard = guard();
        set_level(Some(Level::Debug));
        let sink = Arc::new(MemorySink::new());
        install_sink(Arc::clone(&sink) as Arc<dyn Sink>);
        crate::event!(Level::Debug, "obs.test", "hello"; "k" => 7);
        crate::event!(Level::Trace, "obs.test", "filtered out");
        let events = sink.events();
        let ours: Vec<_> = events.iter().filter(|e| e.target == "obs.test").collect();
        assert_eq!(ours.len(), 1);
        assert_eq!(ours[0].message, "hello");
        assert_eq!(ours[0].fields.len(), 1);
        set_level(Some(Level::Warn));
    }
}
