//! Flight recorder: a fixed-capacity, allocation-free ring buffer of
//! recent events per service thread, dumped to JSONL on anomalies.
//!
//! Every service thread that records an event gets its own
//! [`RING_CAP`]-slot ring registered in a process-global table. Pushing
//! an event after registration copies one [`FlightEvent`] (all fields
//! `Copy`, tags are `&'static str`) into a preallocated slot — no heap
//! traffic on the hot path. When the ring is full the oldest event is
//! overwritten and `flight.dropped` ticks.
//!
//! A ring lives as long as its thread. When the thread exits, its ring
//! leaves the table and its events move, oldest first, into one shared
//! [`RING_CAP`]-slot ring of exited threads' events, each still tagged
//! with its thread's name. So a post-mortem dump still shows what the
//! most recently exited workers saw last, and the table never holds more
//! than one ring per live thread plus that shared one (the `flight.rings`
//! gauge), however many short-lived pool threads a server has spawned.
//!
//! Dumps happen three ways: automatically via [`auto_dump`] when the
//! serve layer hits `deadline_exceeded`, sheds on a full queue, or
//! panics (appending reason-stamped rows to the file named by
//! `AMPEREBLEED_FLIGHT_FILE`); on demand through the `stats` serve verb
//! (which embeds [`dump_jsonl`] in its response); and directly from
//! tests via [`snapshot_records`].

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use sim_rt::ser::Record;

/// Events retained per thread; older events are overwritten.
pub const RING_CAP: usize = 256;

/// Runtime switch for the recorder (the overhead bench's "off" arm).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables flight-event recording at runtime.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether flight-event recording is currently live.
pub fn enabled() -> bool {
    !crate::COMPILED_OUT && ENABLED.load(Ordering::Relaxed)
}

/// One recorded event. Every field is `Copy`, so a ring slot is filled
/// without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic nanoseconds since process start.
    pub wall_ns: u64,
    /// Event kind (`"span"`, `"timeout"`, `"shed"`, …).
    pub kind: &'static str,
    /// Trace this event belongs to (0 when untraced).
    pub trace_id: u64,
    /// Span this event belongs to (0 when untraced).
    pub span_id: u64,
    /// First kind-specific payload (e.g. span duration in ns).
    pub a: i64,
    /// Second kind-specific payload (e.g. child sequence number).
    pub b: i64,
    /// Short static label (span name, shed kind, …).
    pub tag: &'static str,
}

/// Fixed-capacity overwrite-oldest event buffer.
struct Ring<T> {
    slots: Vec<T>,
    /// Index the next event will be written to.
    next: usize,
}

impl<T> Ring<T> {
    fn new() -> Ring<T> {
        Ring {
            slots: Vec::with_capacity(RING_CAP),
            next: 0,
        }
    }

    /// Appends one event; returns `true` when an older event was
    /// overwritten.
    fn push(&mut self, ev: T) -> bool {
        if self.slots.len() < RING_CAP {
            self.slots.push(ev);
            self.next = self.slots.len() % RING_CAP;
            false
        } else {
            self.slots[self.next] = ev;
            self.next = (self.next + 1) % RING_CAP;
            true
        }
    }

    /// Events oldest-first. Until the ring first fills, `next` is its
    /// length, so the first slice is empty.
    fn in_order(&self) -> impl Iterator<Item = &T> {
        self.slots[self.next..]
            .iter()
            .chain(&self.slots[..self.next])
    }
}

/// A ring shared between its owning thread and the dump paths.
type SharedRing = Arc<Mutex<Ring<FlightEvent>>>;

/// The rings of live threads, each with its thread's name, plus the
/// shared ring that holds the last events of exited threads.
struct Registry {
    live: Vec<(Arc<str>, SharedRing)>,
    exited: Ring<(Arc<str>, FlightEvent)>,
}

impl Registry {
    /// Rings in the table: one per live recording thread, plus the
    /// exited threads' ring.
    fn rings(&self) -> usize {
        self.live.len() + 1
    }
}

/// The process-global ring table. Lock it before any ring it lists.
fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            live: Vec::new(),
            exited: Ring::new(),
        })
    })
}

/// A thread's registered ring. Dropping it (at thread exit) takes the
/// ring out of the table and moves its events into the exited ring.
struct Owner {
    /// The thread's name, shared by every event moved into the exited
    /// ring so the move allocates nothing per event.
    name: Arc<str>,
    ring: SharedRing,
}

impl Owner {
    fn register() -> Owner {
        let name: Arc<str> = Arc::from(std::thread::current().name().unwrap_or("unnamed"));
        let ring = Arc::new(Mutex::new(Ring::new()));
        let mut reg = registry()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        reg.live.push((Arc::clone(&name), Arc::clone(&ring)));
        crate::gauge!("flight.rings").set(reg.rings() as f64);
        Owner { name, ring }
    }
}

impl Drop for Owner {
    fn drop(&mut self) {
        let mut reg = registry()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        reg.live.retain(|(_, ring)| !Arc::ptr_eq(ring, &self.ring));
        let ring = self
            .ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut overwritten = 0u64;
        for ev in ring.in_order() {
            overwritten += u64::from(reg.exited.push((Arc::clone(&self.name), *ev)));
        }
        crate::gauge!("flight.rings").set(reg.rings() as f64);
        crate::counter!("flight.dropped").add(overwritten);
    }
}

thread_local! {
    /// This thread's ring, registered on first use and unregistered when
    /// the thread exits.
    static RING: RefCell<Option<Owner>> = const { RefCell::new(None) };
}

/// Records one event into the calling thread's ring. One mutex op and a
/// slot copy after the thread's first event (which registers the ring).
/// An event recorded while the thread's locals are being torn down has no
/// ring left and counts as dropped.
pub fn record(kind: &'static str, trace_id: u64, span_id: u64, a: i64, b: i64, tag: &'static str) {
    if !enabled() {
        return;
    }
    crate::counter!("flight.events").inc();
    // Register eagerly so the overflow and dump counters always export,
    // even before the first overwrite or dump.
    let dropped = crate::counter!("flight.dropped");
    let _ = crate::counter!("flight.dumps");
    let ev = FlightEvent {
        wall_ns: crate::clock::monotonic_ns(),
        kind,
        trace_id,
        span_id,
        a,
        b,
        tag,
    };
    let overwrote = RING.try_with(|cell| {
        let mut slot = cell.borrow_mut();
        let owner = slot.get_or_insert_with(Owner::register);
        let overwrote = owner
            .ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(ev);
        overwrote
    });
    if overwrote.unwrap_or(true) {
        dropped.inc();
    }
}

/// Freezes every ring into export records, ordered by `(wall_ns, thread)`
/// so interleaved thread activity reads chronologically.
pub fn snapshot_records() -> Vec<Record> {
    let reg = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut rows: Vec<(Arc<str>, FlightEvent)> = reg.exited.in_order().cloned().collect();
    for (name, ring) in &reg.live {
        let ring = ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        rows.extend(ring.in_order().map(|ev| (Arc::clone(name), *ev)));
    }
    drop(reg);
    rows.sort_by(|x, y| (x.1.wall_ns, &*x.0).cmp(&(y.1.wall_ns, &*y.0)));
    rows.iter()
        .map(|(thread, ev)| event_record(thread, ev))
        .collect()
}

fn event_record(thread: &str, ev: &FlightEvent) -> Record {
    let mut r = Record::new();
    r.push("thread", thread)
        .push("wall_ns", ev.wall_ns)
        .push("kind", ev.kind)
        .push("trace", crate::trace::hex(ev.trace_id))
        .push("span", crate::trace::hex(ev.span_id))
        .push("a", ev.a)
        .push("b", ev.b)
        .push("tag", ev.tag);
    r
}

/// Renders every ring as JSONL (the `stats` verb's on-demand dump).
/// Counts one `flight.dumps`.
pub fn dump_jsonl() -> String {
    crate::metrics::counter("flight.dumps").inc();
    sim_rt::to_jsonl(&snapshot_records())
}

/// Where [`auto_dump`] appends, initialized from `AMPEREBLEED_FLIGHT_FILE`.
fn dump_path_slot() -> &'static Mutex<Option<String>> {
    static PATH: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    PATH.get_or_init(|| Mutex::new(std::env::var(crate::FLIGHT_FILE_ENV).ok()))
}

/// The current automatic-dump path, if any.
pub fn dump_path() -> Option<String> {
    dump_path_slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Overrides the automatic-dump path (`None` disables automatic dumps).
/// Primarily for tests; production configures `AMPEREBLEED_FLIGHT_FILE`.
pub fn set_dump_path(path: Option<String>) {
    *dump_path_slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = path;
}

/// Dumps every ring to the configured file, stamping each row with
/// `reason` (`"deadline_exceeded"`, `"queue_full"`, `"panic"`). Appends,
/// so successive anomalies accumulate in one file. A no-op without a
/// configured path; counts `flight.dumps` when it writes.
pub fn auto_dump(reason: &'static str) {
    if crate::COMPILED_OUT {
        return;
    }
    let Some(path) = dump_path() else {
        return;
    };
    let mut rows = snapshot_records();
    for row in &mut rows {
        row.push("reason", reason);
    }
    let text = sim_rt::to_jsonl(&rows);
    use std::io::Write as _;
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(text.as_bytes()));
    match written {
        Ok(()) => crate::metrics::counter("flight.dumps").inc(),
        Err(e) => crate::warn!("obs.flight", "flight dump failed";
            "path" => path, "reason" => reason, "error" => e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_reads_in_order() {
        let mut ring = Ring::new();
        let ev = |n: i64| FlightEvent {
            wall_ns: n as u64,
            kind: "t",
            trace_id: 0,
            span_id: 0,
            a: n,
            b: 0,
            tag: "t",
        };
        for n in 0..RING_CAP as i64 {
            assert!(!ring.push(ev(n)), "no overwrite before capacity");
        }
        assert!(ring.push(ev(RING_CAP as i64)), "capacity + 1 overwrites");
        let events: Vec<FlightEvent> = ring.in_order().copied().collect();
        assert_eq!(events.len(), RING_CAP);
        assert_eq!(events[0].a, 1, "oldest surviving event first");
        assert_eq!(events[RING_CAP - 1].a, RING_CAP as i64);
    }

    #[test]
    fn record_registers_ring_and_snapshot_sees_it() {
        record("test", 7, 8, 1, 2, "unit");
        let rows = snapshot_records();
        let jsonl = sim_rt::to_jsonl(&rows);
        assert!(jsonl.contains("\"kind\":\"test\""));
        assert!(jsonl.contains("\"tag\":\"unit\""));
        assert!(jsonl.contains(&crate::trace::hex(7)));
    }

    #[test]
    fn exited_threads_free_their_rings_but_keep_their_last_events() {
        // One thread at a time, each joined before the next starts: the
        // table must shrink back after every exit, not grow to 64.
        sim_rt::pool::service_scope(|svc| {
            for i in 0..64 {
                let worker = svc.spawn(&format!("flight-exit-{i}"), move || {
                    record("exit-test", 0, 0, i, 0, "exit");
                });
                assert!(worker.join().is_ok());
            }
        });
        let rings = registry()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .rings();
        assert!(
            rings < 8,
            "{rings} rings registered after 64 threads exited"
        );
        let jsonl = sim_rt::to_jsonl(&snapshot_records());
        assert!(
            jsonl
                .lines()
                .any(|row| row.contains("\"thread\":\"flight-exit-63\"")
                    && row.contains("\"kind\":\"exit-test\"")
                    && row.contains("\"a\":63")),
            "the last exited thread's event is missing from the dump"
        );
    }

    #[test]
    fn disabled_recorder_drops_events() {
        set_enabled(false);
        record("test-disabled", 0, 0, 0, 0, "gone");
        set_enabled(true);
        let jsonl = sim_rt::to_jsonl(&snapshot_records());
        assert!(!jsonl.contains("test-disabled"));
    }
}
