//! Observability of the full stack: the minimal campaign must emit sane
//! counters through [`obs`], the JSONL sink must produce parseable rows,
//! and — the contract that matters most — instrumentation must not
//! perturb the deterministic results pinned by `thread_determinism.rs`.

use std::sync::{Arc, Mutex, MutexGuard};

use amperebleed::campaign::{run, CampaignConfig};
use amperebleed::fingerprint::{collect_corpus_with, FingerprintConfig, ModelCapture};
use dnn_models::ModelArch;
use obs::{Level, MemorySink, Sink};
use sim_rt::Pool;

/// These tests mutate the process-global filter and sink list; serialize
/// them so the default multi-threaded test runner cannot interleave.
fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Routes events to a fresh [`MemorySink`] only (silences stderr), runs
/// `f` at the given level, then restores the default `warn` filter.
fn with_memory_sink<T>(level: Level, f: impl FnOnce() -> T) -> (T, Arc<MemorySink>) {
    obs::init();
    obs::clear_sinks();
    let sink = Arc::new(MemorySink::new());
    obs::install_sink(Arc::clone(&sink) as Arc<dyn Sink>);
    obs::set_level(Some(level));
    let out = f();
    obs::set_level(Some(Level::Warn));
    obs::clear_sinks();
    (out, sink)
}

#[test]
fn minimal_campaign_emits_sane_counters_and_no_errors() {
    let _guard = guard();
    let (report, sink) = with_memory_sink(Level::Info, || {
        run(&CampaignConfig::minimal()).expect("minimal campaign runs")
    });

    // The embedded snapshot carries real traffic from every layer.
    let m = &report.metrics;
    assert!(m.counter("sampler.reads.current").unwrap_or(0) > 0);
    assert!(m.counter("ina226.conversions").unwrap_or(0) > 0);
    assert!(m.counter("hwmon.fs.reads").unwrap_or(0) > 0);
    assert!(m.counter("dpu.model_loads").unwrap_or(0) > 0);
    assert!(m.counter("rforest.fits").unwrap_or(0) > 0);
    let capture = m
        .histogram("sampler.capture.ns")
        .expect("capture latency histogram present");
    assert!(capture.count > 0);
    assert!(capture.p99 >= capture.p50);
    // Pool telemetry rides along as gauges.
    assert!(m.gauge("pool.global.jobs_completed").unwrap_or(0.0) > 0.0);

    // Nothing in a healthy campaign reaches the error level.
    assert_eq!(m.counter("obs.events.error").unwrap_or(0), 0);

    // The campaign lifecycle events reached the sink, sim-stamped.
    let events = sink.events();
    let campaign: Vec<_> = events
        .iter()
        .filter(|e| e.target == "core.campaign")
        .collect();
    assert!(campaign.iter().any(|e| e.message == "campaign started"));
    assert!(campaign.iter().any(|e| e.message == "campaign finished"));

    // Phase timings and the profile table round-trip the same data.
    assert_eq!(report.phase_timings.len(), 6);
    let table = report.profile_table();
    assert!(table.contains("phase timings"));
    assert!(table.contains("sampler.capture.ns"));

    // Exporters accept the snapshot: one row per metric, uniform schema.
    let jsonl = amperebleed::export::metrics_to_jsonl(m);
    assert_eq!(jsonl.lines().count(), m.len());
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"name\":"), "{line}");
        assert!(line.contains("\"kind\":"), "{line}");
    }
    let csv = amperebleed::export::metrics_to_csv(m);
    assert_eq!(csv.lines().count(), 1 + m.len());
}

#[test]
fn jsonl_sink_writes_one_valid_object_per_event() {
    let _guard = guard();
    let path = std::env::temp_dir().join(format!("amperebleed_obs_{}.jsonl", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");

    obs::init();
    obs::clear_sinks();
    let sink = obs::JsonlSink::create(path_str).expect("temp file opens");
    obs::install_sink(Arc::new(sink));
    obs::set_level(Some(Level::Debug));
    obs::info!("obs.test", sim = 1_500_000u64, "first"; "k" => 1, "tag" => "a");
    obs::debug!("obs.test", "second");
    obs::trace!("obs.test", "filtered out");
    obs::set_level(Some(Level::Warn));
    obs::flush();
    obs::clear_sinks();

    let body = std::fs::read_to_string(&path).expect("trace file readable");
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(
        lines.len(),
        2,
        "trace-level event must be filtered:\n{body}"
    );
    assert!(lines[0].contains("\"message\":\"first\""), "{}", lines[0]);
    assert!(lines[0].contains("\"sim_ns\":1500000"), "{}", lines[0]);
    assert!(lines[0].contains("\"k\":1"), "{}", lines[0]);
    assert!(lines[1].contains("\"level\":\"debug\""), "{}", lines[1]);
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }
}

fn victims() -> Vec<&'static ModelArch> {
    let models = dnn_models::zoo();
    ["mobilenet-v1", "resnet-50"]
        .iter()
        .map(|n| models.iter().find(|m| &m.name == n).unwrap())
        .collect()
}

fn corpus_bits(corpus: &[ModelCapture]) -> Vec<u64> {
    corpus
        .iter()
        .flat_map(|c| c.traces.iter())
        .flat_map(|t| t.samples.iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn trace_level_instrumentation_does_not_perturb_determinism() {
    let _guard = guard();
    let refs = victims();
    let config = FingerprintConfig::quick();

    // Quietest possible run as the reference.
    let (baseline, _) = with_memory_sink(Level::Error, || {
        collect_corpus_with(&refs, &config, &Pool::serial()).unwrap()
    });
    // Loudest possible run: trace-level events captured in memory, metrics
    // hot on every sensor read, work-stealing pool. Results must be
    // byte-identical — instrumentation never touches an RNG stream.
    let (noisy, sink) = with_memory_sink(Level::Trace, || {
        collect_corpus_with(&refs, &config, &Pool::new(4)).unwrap()
    });
    assert!(
        sink.events().iter().any(|e| e.target == "hwmon.fs"),
        "trace level must actually exercise the event path"
    );
    assert_eq!(corpus_bits(&baseline), corpus_bits(&noisy));
}
