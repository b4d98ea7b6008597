//! End-to-end checks for the tracing and telemetry plane: the span
//! forest of a served request mix is byte-identical at any pool width,
//! and the `stats` verb answers the same percentile records over the
//! wire as the JSONL metrics export.

use std::sync::{Arc, Mutex, OnceLock};

use sim_rt::pool::Pool;
use sim_rt::ser::Value;
use sim_serve::farm::Farm;
use sim_serve::scheduler::{SchedConfig, Scheduler, Sink};
use sim_serve::{Client, Request, Server, ServerConfig};

/// The trace log and recording flag are process-global; tests that touch
/// them serialize on this guard.
fn guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Serves a fixed request mix on a fresh scheduler at the given pool
/// width and returns the structural JSONL export of the span forest:
/// client request → scheduler batch → board → campaign phases.
fn serve_forest(threads: usize) -> String {
    let _ = obs::trace::take();
    let s = Scheduler::new(
        SchedConfig::default(),
        Farm::new(11, 4),
        Pool::new(threads),
        None,
    );
    let responses = Arc::new(Mutex::new(Vec::new()));
    let sink_responses = Arc::clone(&responses);
    let sink: Sink = Arc::new(move |resp| {
        sink_responses
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(resp);
    });

    // Two identical quickstarts from different tenants (they batch onto
    // one execution), a ping, a covert round trip, and a small
    // characterize sweep.
    let quickstart_cfg = Value::Object(vec![("samples_per_level".into(), Value::Int(10))]);
    let mut q1 = Request::new(1, "quickstart");
    q1.tenant = "alice".into();
    q1.seed = Some(5);
    q1.config = quickstart_cfg.clone();
    let mut q2 = Request::new(2, "quickstart");
    q2.tenant = "bob".into();
    q2.seed = Some(5);
    q2.config = quickstart_cfg;
    let ping = Request::new(3, "ping");
    let mut covert = Request::new(4, "covert");
    covert.seed = Some(9);
    covert.config = Value::Object(vec![("payload".into(), Value::Str("hi".into()))]);
    let mut characterize = Request::new(5, "characterize");
    characterize.seed = Some(7);
    characterize.config = Value::Object(vec![
        (
            "levels".into(),
            Value::Array(vec![Value::Int(0), Value::Int(40)]),
        ),
        ("samples_per_level".into(), Value::Int(10)),
    ]);

    for req in [q1, q2, ping, covert, characterize] {
        s.submit(req, Arc::clone(&sink));
    }
    s.begin_drain();
    s.dispatch_loop();

    let responses = responses
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    assert_eq!(responses.len(), 5);
    for resp in responses.iter() {
        assert!(resp.is_ok(), "request {} failed: {:?}", resp.id, resp.error);
        assert!(resp.trace.is_some(), "request {} lost its trace", resp.id);
    }

    let records = obs::trace::take();
    obs::trace::forest_to_jsonl(&obs::trace::build_forest(&records))
}

#[test]
fn served_span_forest_is_identical_across_pool_widths() {
    let _guard = guard();
    obs::trace::set_recording(true);
    let serial = serve_forest(1);
    for name in [
        "\"request\"",
        "\"batch\"",
        "\"board\"",
        "\"quicklook\"",
        "\"sweep\"",
    ] {
        assert!(serial.contains(name), "forest misses {name}:\n{serial}");
    }
    for threads in [2, 8] {
        assert_eq!(
            serial,
            serve_forest(threads),
            "served span forest must not depend on pool width ({threads} threads)"
        );
    }
}

#[test]
fn stats_verb_matches_jsonl_export_over_the_wire() {
    let _guard = guard();
    let hist = obs::metrics::histogram("test.wire.frozen_hist".to_string());
    hist.observe(7);
    hist.observe(400);
    hist.observe(90_000);

    let server = Server::bind(ServerConfig {
        boards: 1,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    sim_rt::pool::service_scope(|svc| {
        let join = svc.spawn("stats-wire-server", move || server.run());

        let mut client = Client::connect(addr).expect("connect");
        let resp = client.stats(Value::Null).expect("stats response");
        assert!(resp.is_ok(), "stats failed: {:?}", resp.error);
        let result = resp.result.as_ref().expect("stats result");
        assert!(result.get("queue_depth").is_some());
        let rows = result
            .get("metrics")
            .and_then(Value::as_array)
            .expect("metrics array");
        let wire_row = rows
            .iter()
            .find(|r| r.get("name").and_then(Value::as_str) == Some("test.wire.frozen_hist"))
            .expect("frozen histogram served");

        // The same record from the local export, through the same JSON
        // parser the wire row went through — percentiles must agree
        // exactly.
        let jsonl = obs::metrics::snapshot().to_jsonl();
        let line = jsonl
            .lines()
            .find(|l| l.contains("\"test.wire.frozen_hist\""))
            .expect("frozen histogram exported");
        let exported = sim_rt::json::parse(line).expect("export line parses");
        assert_eq!(*wire_row, exported);

        client.shutdown_server().expect("shutdown ack");
        join.join().expect("server thread");
    });
}
