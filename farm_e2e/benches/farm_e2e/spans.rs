//! The benchmark's own spans, recorded around calls into each layer from
//! the bench files: name, start, end, parent and request id. They stay in
//! memory during the run and are written as JSON lines at its end.

use std::path::Path;
use std::time::Instant;

use sim_rt::ser::Value;

/// One closed span; times are ns since the run's [`Clock`] origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id, unique within the run.
    pub id: u64,
    /// Parent span id (0 for a root).
    pub parent: u64,
    /// Request id the span belongs to.
    pub req: i64,
    /// Layer call, e.g. `store.get`.
    pub name: &'static str,
    /// Start, ns since the clock origin.
    pub start_ns: u64,
    /// End, ns since the clock origin.
    pub end_ns: u64,
}

/// The run's time origin.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// Starts the clock.
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// ns since the origin.
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// An in-memory span list.
#[derive(Debug, Default)]
pub struct Spans {
    /// Spans in close order.
    pub list: Vec<Span>,
    minted: u64,
}

impl Spans {
    /// Records a closed span.
    pub fn push(
        &mut self,
        id: u64,
        parent: u64,
        req: i64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.list.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span with a fresh id under `parent`.
    pub fn time<R>(
        &mut self,
        clock: &Clock,
        parent: u64,
        req: i64,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.next_id();
        let start = clock.now();
        let out = f();
        self.push(id, parent, req, name, start, clock.now());
        out
    }

    /// Mints a fresh span id.
    pub fn next_id(&mut self) -> u64 {
        self.minted += 1;
        MINTED_IDS | self.minted
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.list
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Appends the spans to `path` as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?,
        );
        for s in &self.list {
            let line = Value::Object(vec![
                ("id".into(), Value::from(s.id)),
                ("parent".into(), Value::from(s.parent)),
                ("req".into(), Value::Int(s.req)),
                ("name".into(), Value::Str(s.name.into())),
                ("start_ns".into(), Value::from(s.start_ns)),
                ("end_ns".into(), Value::from(s.end_ns)),
            ])
            .to_json();
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// High bit marking ids minted by [`Spans::next_id`], so they never
/// collide with the client's per-request ids.
const MINTED_IDS: u64 = 1 << 62;

/// Client span ids: request `req`'s root and its numbered children.
pub fn client_span_id(req: i64, child: u64) -> u64 {
    (req as u64 + 1) * 8 + child
}
