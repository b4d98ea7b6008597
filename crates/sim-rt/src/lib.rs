//! Zero-dependency deterministic simulation runtime.
//!
//! Every crate in the AmpereBleed reproduction runs offline and must
//! produce bit-identical results from a campaign seed — on one thread or
//! sixteen, on any machine. This crate is the substrate that makes that
//! possible without reaching for the crates.io registry:
//!
//! * [`rng`] — seeded xoshiro256++ generation with uniform/normal
//!   sampling, Fisher-Yates shuffling, and stream splitting
//!   ([`rng::derive_seed`]) so one master seed fans out into independent
//!   per-job child streams.
//! * [`pool`] — a work-stealing scoped thread pool whose
//!   [`pool::Pool::par_map`] writes result `i` into slot `i`; combined
//!   with per-job derived seeds, parallel campaigns are byte-identical to
//!   their serial runs at any thread count.
//! * [`ser`] — a tiny value model ([`ser::Value`], [`ser::Record`],
//!   [`ser::ToRecord`]) rendering results as compact JSON, JSON Lines, or
//!   CSV with no derive machinery.
//! * [`json`] — the decode half: a strict recursive-descent JSON parser
//!   ([`json::parse`]) producing the same [`ser::Value`] model, so wire
//!   protocols round-trip through one representation.
//! * [`check`] — seeded randomized property tests via
//!   [`prop_check!`], reproducible from the test name alone.
//! * [`bench`](mod@bench) — a wall-clock micro-benchmark harness with a `--quick`
//!   smoke mode that lets the bench suite run inside `cargo test`.
//! * [`lockorder`] — a debug-build lock-order watchdog
//!   ([`lockorder::TrackedMutex`]) that records held-before edges per lock
//!   class and detects cycles; release builds compile it to a plain
//!   `Mutex`.
//!
//! # Examples
//!
//! ```
//! use sim_rt::pool::Pool;
//! use sim_rt::rng::{Rng, SimRng};
//!
//! // A seeded campaign: each job gets its own derived stream, so the
//! // output is independent of thread count and scheduling order.
//! let jobs: Vec<u32> = (0..64).collect();
//! let pool = Pool::new(4);
//! let out = pool.par_map_seeded(42, &jobs, |seed, _, &level| {
//!     let mut rng = SimRng::seed_from_u64(seed);
//!     level as f64 + rng.normal(0.0, 0.1)
//! });
//! assert_eq!(out, Pool::serial().par_map_seeded(42, &jobs, |seed, _, &level| {
//!     let mut rng = SimRng::seed_from_u64(seed);
//!     level as f64 + rng.normal(0.0, 0.1)
//! }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod check;
pub mod json;
pub mod lockorder;
pub mod pool;
pub mod rng;
pub mod ser;

pub use json::parse as parse_json;
pub use lockorder::TrackedMutex;
pub use pool::Pool;
pub use rng::{derive_seed, Rng, SimRng, SliceShuffle};
pub use ser::{to_csv, to_jsonl, Record, ToRecord, Value};
