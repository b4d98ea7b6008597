//! `farm_e2e`: the end-to-end benchmark of the AmpereBleed board farm.
//!
//! ```text
//! cargo bench --offline --manifest-path farm_e2e/Cargo.toml --bench farm_e2e -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--quick] [--trace [0|1]] \
//!     [--out FILE] [--compare BASE CHANGE]
//! ```
//!
//! Each workload runs in a child process of this binary, so set-up time
//! and peak memory belong to that workload alone. The served workloads
//! drive an in-process `sim_serve::Server` (2 boards, 2 threads) over one
//! TCP connection: an open loop (a sender and a receiver thread) for
//! latency, then a closed loop (one thread, pipelined window) for
//! throughput. Every run checks sampled results byte-for-byte against a
//! serial `exec` reference and exits non-zero on any mismatch.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics, or with
//! `--trace` the per-layer ones).

mod offline;
mod replay;
mod served;
mod spans;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use farm_e2e::stats::{median, percentile};
use farm_e2e::verdict::{compare, Row};
use farm_e2e::{Workload, WARM, WORKLOADS};
use sim_rt::ser::Value;

/// Measured seconds per workload run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

/// Seed-1 `results_digest` of each workload: the reference results of
/// its pinned request set, which no change to speed alone may alter.
const PINNED_SEED1: &[(&str, &str)] = &[
    (
        "farm_cold_mix",
        "c2fbc457730c7b1af962d0ba15a374298a4c50e57428e4c403166a8623f02e9d",
    ),
    (
        "farm_warm_replay",
        "7b06051b1db8e1b9a7d7ac56b6c9d9e134df001e3fea0ff9cce30deaaf3a7c96",
    ),
    (
        "farm_burst_dedup",
        "0c9656407032a35a08900082cfd7753198341da7622f72288f80487ecc9db37b",
    ),
    (
        "campaign_offline",
        "a3e8553a7fd4f95915b592ec9df8f27aa03a22af8ae5ce707387a0fca6e2a597",
    ),
];

/// Where outputs go, relative to the package root (cargo's working
/// directory for bench targets).
const OUT_DIR: &str = "out";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload seed.
    pub seed: u64,
    /// Workloads to run (all by default).
    pub workloads: Vec<&'static Workload>,
    /// Measured seconds per workload run.
    pub seconds: f64,
    /// One tenth of the lengths, correctness on, no timing verdicts.
    pub quick: bool,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
    /// Append result rows to this file.
    pub out: Option<PathBuf>,
    /// Compare two row files instead of running.
    pub compare: Option<(PathBuf, PathBuf)>,
    /// Internal: run as a child (`measure` or `prep`).
    pub child: Option<String>,
    /// Internal: the child's store directory.
    pub dir: Option<PathBuf>,
}

impl Args {
    /// Measured seconds after `--quick` scaling.
    pub fn length(&self) -> f64 {
        if self.quick {
            self.seconds / 10.0
        } else {
            self.seconds
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        workloads: WORKLOADS.iter().collect(),
        seconds: DEFAULT_SECONDS,
        quick: false,
        trace: false,
        out: None,
        compare: None,
        child: None,
        dir: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--workload" => {
                let name = value("--workload")?;
                let w = farm_e2e::workload(&name).ok_or(format!("unknown workload `{name}`"))?;
                args.workloads = vec![w];
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--quick" => args.quick = true,
            "--trace" => {
                // Bare `--trace` or `--trace 0|1`.
                args.trace = it.peek().map(String::as_str) != Some("0");
                if matches!(it.peek().map(String::as_str), Some("0" | "1")) {
                    it.next();
                }
            }
            "--out" => args.out = Some(value("--out")?.into()),
            "--compare" => {
                let base = value("--compare")?;
                let change = value("--compare")?;
                args.compare = Some((base.into(), change.into()));
            }
            "--child" => args.child = Some(value("--child")?),
            "--dir" => args.dir = Some(value("--dir")?.into()),
            // cargo bench passes --bench to harness-less targets.
            "--bench" => {}
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// What one child process reports back, as one JSON line on stdout.
#[derive(Debug, Default, Clone)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed: shed, timed out, errored or mismatched.
    pub failed: u64,
    /// First few failure descriptions.
    pub errors: Vec<String>,
    /// Digest of the reference results of the pinned request set, when
    /// the run covered all of it.
    pub digest: Option<String>,
    /// Reported metrics: end-to-end, or per-layer when traced.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra numbers for the human-readable summary.
    pub info: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Fills the end-to-end metrics from a run's samples (`latencies`
    /// ascending, in ms). A p90 needs 100 samples; outside `--quick` a run
    /// too short for one is an error. The p99, where the samples carry
    /// one, is reported beside them but not gated: on the reference
    /// machine its run-to-run spread exceeds any bound it could hold.
    pub fn set_end_to_end(
        &mut self,
        setups: &[f64],
        ops_per_s: f64,
        peak_rss_mb: f64,
        latencies: &[f64],
        quick: bool,
    ) -> Result<(), String> {
        self.metrics
            .insert("setup_s", median(setups).unwrap_or(0.0));
        self.metrics.insert("ops_per_s", ops_per_s);
        self.metrics.insert("peak_rss_mb", peak_rss_mb);
        self.info.insert("latency_samples", latencies.len() as f64);
        if let Some(p99) = percentile(latencies, 0.99) {
            self.info.insert("latency_p99_ms", p99);
        }
        match (percentile(latencies, 0.5), percentile(latencies, 0.9)) {
            (Some(p50), Some(p90)) => {
                self.metrics.insert("latency_p50_ms", p50);
                self.metrics.insert("latency_p90_ms", p90);
            }
            _ if quick => {}
            _ => {
                return Err(format!(
                    "{} latency samples cannot carry a p90 (need 100): raise --seconds",
                    latencies.len()
                ))
            }
        }
        Ok(())
    }

    /// Records a failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    fn to_json(&self) -> String {
        let map = |m: &BTreeMap<&'static str, f64>| {
            Value::Object(
                m.iter()
                    .map(|(k, v)| (k.to_string(), Value::Float(*v)))
                    .collect(),
            )
        };
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::from(self.attempted)),
            ("failed".into(), Value::from(self.failed)),
            (
                "errors".into(),
                Value::Array(self.errors.iter().cloned().map(Value::Str).collect()),
            ),
            ("digest".into(), Value::from(self.digest.clone())),
            ("metrics".into(), map(&self.metrics)),
            ("info".into(), map(&self.info)),
        ])
        .to_json()
    }

    fn from_json(line: &str) -> Option<Report> {
        let v = sim_rt::json::parse(line).ok()?;
        // Keys are interned against the declared names.
        let map = |key: &str, intern: &dyn Fn(&str) -> Option<&'static str>| {
            v.get(key)?
                .as_object()?
                .iter()
                .map(|(k, x)| Some((intern(k)?, x.as_f64()?)))
                .collect::<Option<BTreeMap<_, _>>>()
        };
        Some(Report {
            correct: v.get("correct")?.as_bool()?,
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            errors: v
                .get("errors")?
                .as_array()?
                .iter()
                .filter_map(|e| e.as_str().map(str::to_string))
                .collect(),
            digest: v.get("digest")?.as_str().map(str::to_string),
            metrics: map("metrics", &|k| farm_e2e::metric(k).map(|m| m.name))?,
            info: map("info", &|k| INFO.iter().copied().find(|n| *n == k))?,
        })
    }
}

/// Names of the summary-only numbers a child may report.
pub const INFO: &[&str] = &[
    "ops_per_s",
    "latency_p99_ms",
    "latency_samples",
    "gen.lag_p99_ms",
];

/// Resident-set high-water mark of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs this binary as a child and returns its report.
fn spawn_child(
    args: &Args,
    w: &Workload,
    role: &str,
    traced: bool,
    dir: Option<&Path>,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", role, "--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    if let Some(dir) = dir {
        cmd.arg("--dir").arg(dir);
    }
    let out = cmd.output().map_err(|e| format!("spawning {role}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = stdout.lines().last().and_then(Report::from_json);
    match (out.status.success(), report) {
        (true, Some(r)) => Ok(r),
        (_, r) => Err(format!(
            "{} child for {} failed ({}){}",
            role,
            w.name,
            out.status,
            r.map(|r| format!(": {:?}", r.errors)).unwrap_or_default()
        )),
    }
}

/// Runs one workload: prep (warm only), the untraced run, and with
/// `--trace` the traced run. Returns the report whose metrics are the
/// ones this invocation prints.
fn run_workload(args: &Args, w: &Workload, tmp: &Path) -> Result<Report, String> {
    let dir = tmp.join(w.name);
    let needs_dir = w.name == farm_e2e::COLD || w.name == WARM;
    let run = |traced: bool| -> Result<Report, String> {
        if needs_dir {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        if w.name == WARM {
            spawn_child(args, w, "prep", false, Some(&dir))?;
        }
        let r = spawn_child(
            args,
            w,
            "measure",
            traced,
            needs_dir.then_some(dir.as_path()),
        );
        let _ = std::fs::remove_dir_all(&dir);
        r
    };
    let plain = run(false)?;
    if !args.trace {
        return Ok(plain);
    }
    let mut traced = run(true)?;
    let (untraced_ops, traced_ops) = (plain.info["ops_per_s"], traced.info["ops_per_s"]);
    traced.metrics.insert(
        "bench.trace_overhead_pct",
        (untraced_ops - traced_ops) / untraced_ops * 100.0,
    );
    traced.correct &= plain.correct;
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    traced.errors.extend(plain.errors);
    Ok(traced)
}

fn unit_of(name: &str) -> &'static str {
    farm_e2e::metric(name).map_or("", |m| m.unit)
}

fn metrics_value(metrics: &BTreeMap<&'static str, f64>, prefix: &str) -> Vec<(String, Value)> {
    metrics
        .iter()
        .map(|(name, v)| {
            (
                format!("{prefix}{name}"),
                Value::Object(vec![
                    ("value".into(), Value::Float(*v)),
                    ("unit".into(), Value::Str(unit_of(name).into())),
                ]),
            )
        })
        .collect()
}

fn print_summary(args: &Args, w: &Workload, r: &Report) {
    let digest = r.digest.as_deref().unwrap_or("-");
    println!(
        "{} (seed {}, nproc {}, {} s{}{}): {}, {} attempted, {} failed, results_digest {}",
        w.name,
        args.seed,
        farm_e2e::nproc(),
        args.length(),
        if args.quick { ", quick" } else { "" },
        if args.trace { ", traced" } else { "" },
        if r.correct { "correct" } else { "INCORRECT" },
        r.attempted,
        r.failed,
        &digest[..digest.len().min(16)],
    );
    for e in &r.errors {
        println!("  error: {e}");
    }
    for (name, v) in &r.metrics {
        println!("  {name:<34} {v:>14.6} {}", unit_of(name));
    }
    if !args.trace {
        if let Some(n) = r.info.get("latency_samples") {
            println!("  (latency percentiles over {n} samples)");
        }
        for (name, v) in &r.info {
            if name.contains('.') || *name == "latency_p99_ms" {
                println!("  {name:<34} {v:>14.6} ms (not gated)");
            }
        }
    }
}

fn row_json(args: &Args, w: &Workload, r: &Report) -> Value {
    Value::Object(vec![
        ("workload".into(), Value::Str(w.name.into())),
        ("seed".into(), Value::from(args.seed)),
        ("nproc".into(), Value::from(farm_e2e::nproc() as u64)),
        ("seconds".into(), Value::Float(args.length())),
        ("quick".into(), Value::Bool(args.quick)),
        ("trace".into(), Value::Bool(args.trace)),
        ("correct".into(), Value::Bool(r.correct)),
        ("attempted".into(), Value::from(r.attempted)),
        ("failed".into(), Value::from(r.failed)),
        ("results_digest".into(), Value::from(r.digest.clone())),
        (
            "metrics".into(),
            Value::Object(metrics_value(&r.metrics, "")),
        ),
    ])
}

/// Checks the seed-1 digest against [`PINNED_SEED1`].
fn check_pinned(args: &Args, w: &Workload, r: &mut Report) {
    if args.seed != 1 || args.quick {
        return;
    }
    let pinned = PINNED_SEED1.iter().find(|(name, _)| *name == w.name);
    match (pinned, &r.digest) {
        (Some((_, want)), Some(got)) if want != got => {
            r.correct = false;
            r.fail(format!(
                "results_digest {got} differs from the pinned {want}"
            ));
        }
        (Some(_), None) => {
            r.correct = false;
            r.fail("run too short to cover the pinned request set".into());
        }
        _ => {}
    }
}

fn orchestrate(args: &Args) -> i32 {
    let tmp = PathBuf::from(OUT_DIR).join(format!("tmp-{}", std::process::id()));
    let mut rows = Vec::new();
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics: Vec<(String, Value)> = Vec::new();
    for w in &args.workloads {
        let mut r = match run_workload(args, w, &tmp) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("farm_e2e: {e}");
                let _ = std::fs::remove_dir_all(&tmp);
                return 1;
            }
        };
        check_pinned(args, w, &mut r);
        print_summary(args, w, &r);
        all_correct &= r.correct;
        attempted += r.attempted;
        failed += r.failed;
        let prefix = if args.workloads.len() > 1 {
            format!("{}/", w.name)
        } else {
            String::new()
        };
        metrics.extend(metrics_value(&r.metrics, &prefix));
        rows.push(row_json(args, w, &r));
    }
    let _ = std::fs::remove_dir_all(&tmp);

    let jsonl: String = rows.iter().map(|r| r.to_json() + "\n").collect();
    let mut targets: Vec<PathBuf> = args.out.iter().cloned().collect();
    if args.quick {
        targets.push("BENCH_farm_e2e.quick.json".into());
    } else if args.workloads.len() == WORKLOADS.len() && !args.trace && args.out.is_none() {
        targets.push("BENCH_farm_e2e.json".into());
    }
    for (k, path) in targets.iter().enumerate() {
        let written = if k == 0 && args.out.is_some() {
            append(path, &jsonl)
        } else {
            std::fs::write(path, &jsonl)
        };
        if let Err(e) = written {
            eprintln!("farm_e2e: writing {}: {e}", path.display());
            return 1;
        }
        println!("farm_e2e: wrote {}", path.display());
    }

    println!(
        "{}",
        Value::Object(vec![
            ("correct".into(), Value::Bool(all_correct)),
            ("attempted".into(), Value::from(attempted)),
            ("failed".into(), Value::from(failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
        .to_json()
    );
    i32::from(!all_correct)
}

fn append(path: &Path, text: &str) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?
        .write_all(text.as_bytes())
}

fn read_rows(path: &Path) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            sim_rt::json::parse(l)
                .ok()
                .as_ref()
                .and_then(Row::from_json)
                .ok_or(format!("{}: not a result row: {l}", path.display()))
        })
        .collect()
}

/// End-to-end bounds from `BENCHMARK.json` (next to the package, or in
/// the working directory).
fn read_bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = ["BENCHMARK.json", "../BENCHMARK.json"]
        .into_iter()
        .find(|p| Path::new(p).is_file())
        .ok_or("BENCHMARK.json not found")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = sim_rt::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end array")?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

fn run_compare(base: &Path, change: &Path) -> Result<i32, String> {
    let bounds = read_bounds()?;
    let reports = compare(&read_rows(base)?, &read_rows(change)?, &bounds);
    let mut worse = false;
    for r in &reports {
        println!("{:<18} {}", r.workload, r.verdict().as_str());
        for (m, j) in &r.cells {
            println!(
                "  {:<16} {:<10} base {:>12.6} change {:>12.6} {:<6} ({:+.1}%, spread {:.1}%, \
                 bound {:.0}%, won {}/{})",
                m.name,
                j.verdict.as_str(),
                j.base,
                j.change,
                m.unit,
                (j.change - j.base) / j.base.abs() * 100.0,
                j.spread * 100.0,
                bounds[m.name] * 100.0,
                j.wins,
                j.pairs
            );
        }
        if !r.sim_stats_changed.is_empty() {
            println!(
                "  simulated statistics changed: {}",
                r.sim_stats_changed.join(", ")
            );
        }
        worse |= r.verdict() == farm_e2e::verdict::Verdict::Worse;
    }
    Ok(i32::from(worse))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("farm_e2e: {e}");
            std::process::exit(2);
        }
    };
    let code = if let Some((base, change)) = &args.compare {
        run_compare(base, change).unwrap_or_else(|e| {
            eprintln!("farm_e2e: {e}");
            2
        })
    } else if let Some(role) = args.child.clone() {
        let w = args.workloads[0];
        let report = match (role.as_str(), w.name) {
            ("prep", WARM) => served::prep_warm(&args),
            ("measure", farm_e2e::OFFLINE) => offline::measure(&args),
            ("measure", _) => served::measure(&args, w),
            _ => Err(format!("unknown child role `{role}`")),
        };
        match report {
            Ok(r) => {
                println!("{}", r.to_json());
                0
            }
            Err(e) => {
                eprintln!("farm_e2e: {}: {e}", w.name);
                1
            }
        }
    } else {
        if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
            eprintln!("farm_e2e: {OUT_DIR}: {e}");
            std::process::exit(1);
        }
        orchestrate(&args)
    };
    std::process::exit(code);
}
