//! End-to-end tests over real TCP: determinism under concurrency, typed
//! backpressure, deadlines, and graceful shutdown.

use std::collections::BTreeMap;
use std::net::SocketAddr;

use sim_rt::pool::{service_scope, Pool};
use sim_rt::rng::derive_seed;
use sim_rt::ser::Value;
use sim_serve::{exec, Client, SchedConfig, Server, ServerConfig, ServerHandle};

/// Runs `f` against a live server, guaranteeing drain + join even if the
/// body panics (the drop guard fires the ctrl-channel shutdown).
fn with_server<T>(cfg: ServerConfig, f: impl FnOnce(SocketAddr, ServerHandle) -> T) -> T {
    struct DrainGuard(ServerHandle);
    impl Drop for DrainGuard {
        fn drop(&mut self) {
            self.0.shutdown();
        }
    }

    let server = Server::bind(cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = server.handle();
    service_scope(|svc| {
        let guard = DrainGuard(handle.clone());
        let join = svc.spawn("test-server", move || server.run());
        let out = f(addr, handle.clone());
        drop(guard);
        join.join().expect("server thread");
        out
    })
}

fn obj(fields: &[(&str, Value)]) -> Value {
    Value::Object(
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

/// The request mix for the determinism gate: every client sends one
/// campaign request with a pinned seed.
fn plan(client: usize) -> (&'static str, u64, Value) {
    let seed = 1_000 + client as u64;
    match client % 4 {
        0 => (
            "quickstart",
            seed,
            obj(&[("samples_per_level", Value::Int(60))]),
        ),
        1 => (
            "characterize",
            seed,
            obj(&[
                ("level_step", Value::Int(40)),
                ("samples_per_level", Value::Int(50)),
            ]),
        ),
        2 => (
            "rsa",
            seed,
            obj(&[
                (
                    "hamming_weights",
                    Value::Array(vec![Value::Int(1), Value::Int(512), Value::Int(1024)]),
                ),
                ("samples_per_key", Value::Int(400)),
            ]),
        ),
        _ => (
            "covert",
            seed,
            obj(&[("payload", Value::Str("det".into()))]),
        ),
    }
}

/// The acceptance gate: ≥8 concurrent clients against a 4-board farm,
/// each response's `result` byte-identical to the same request run
/// serially against a fresh single board with the same seed, at pool
/// widths 1, 2, and 8.
#[test]
fn concurrent_results_are_byte_identical_to_serial() {
    // Serial reference results, computed once on fresh platforms.
    let mut reference: BTreeMap<usize, String> = BTreeMap::new();
    for client in 0..8 {
        let (verb, seed, config) = plan(client);
        let value = exec::execute(verb, seed, &config).expect("serial reference");
        reference.insert(client, value.to_json());
    }

    for threads in [1usize, 2, 8] {
        let cfg = ServerConfig {
            boards: 4,
            farm_seed: 11,
            threads,
            ..ServerConfig::default()
        };
        let results = with_server(cfg, |addr, _| {
            let clients: Vec<usize> = (0..8).collect();
            Pool::new(8).par_map(&clients, |_, &client| {
                let mut conn = Client::connect(addr).expect("connect");
                conn.set_tenant(format!("tenant-{client}"));
                let (verb, seed, config) = plan(client);
                let resp = conn.request(verb, Some(seed), config).expect("request");
                assert_eq!(resp.status, "ok", "{verb}: {:?}", resp.error);
                assert_eq!(resp.seed, Some(seed));
                (client, resp.result.expect("ok has a result").to_json())
            })
        });
        for (client, got) in results {
            assert_eq!(
                got, reference[&client],
                "client {client} diverged at pool width {threads}"
            );
        }
    }
}

/// Unpinned requests adopt the farm default seed at admission, so the
/// response both names the seed and matches its serial replay.
#[test]
fn unpinned_requests_adopt_the_farm_default_seed() {
    let cfg = ServerConfig {
        boards: 2,
        farm_seed: 77,
        ..ServerConfig::default()
    };
    with_server(cfg, |addr, _| {
        let mut conn = Client::connect(addr).unwrap();
        let config = obj(&[("samples_per_level", Value::Int(40))]);
        let resp = conn.request("quickstart", None, config.clone()).unwrap();
        assert!(resp.is_ok());
        let default_seed = derive_seed(77, 0);
        assert_eq!(resp.seed, Some(default_seed));
        let want = exec::execute("quickstart", default_seed, &config).unwrap();
        assert_eq!(resp.result.unwrap().to_json(), want.to_json());
    });
}

/// Fingerprint rides the same wire contract (kept out of the 3×8 sweep
/// above only because forest training dominates its runtime).
#[test]
fn fingerprint_over_the_wire_matches_serial() {
    let config = obj(&[
        ("traces_per_model", Value::Int(4)),
        ("capture_seconds", Value::Float(1.0)),
        ("resample_len", Value::Int(16)),
        ("folds", Value::Int(2)),
        ("n_models", Value::Int(2)),
    ]);
    let want = exec::execute("fingerprint", 31, &config).unwrap().to_json();
    let cfg = ServerConfig {
        boards: 1,
        ..ServerConfig::default()
    };
    with_server(cfg, |addr, _| {
        let mut conn = Client::connect(addr).unwrap();
        let resp = conn
            .request("fingerprint", Some(31), config.clone())
            .unwrap();
        assert_eq!(resp.status, "ok", "{:?}", resp.error);
        assert_eq!(resp.result.unwrap().to_json(), want);
    });
}

/// The defend sweep over the wire matches its serial replay byte for
/// byte — the served path adds no nondeterminism to the attack-vs-defense
/// report (acceptance criterion of the defend verb).
#[test]
fn defend_over_the_wire_matches_serial() {
    let config = obj(&[
        ("attack", Value::Str("covert".into())),
        (
            "layers",
            Value::Array(vec![
                Value::Str("jitter".into()),
                Value::Str("noise".into()),
                Value::Str("throttle".into()),
            ]),
        ),
        (
            "strengths",
            Value::Array(vec![Value::Float(0.0), Value::Float(1.0)]),
        ),
        ("payload", Value::Str("det".into())),
    ]);
    let want = exec::execute("defend", 47, &config).unwrap().to_json();
    let cfg = ServerConfig {
        boards: 1,
        ..ServerConfig::default()
    };
    with_server(cfg, |addr, _| {
        let mut conn = Client::connect(addr).unwrap();
        let resp = conn.request("defend", Some(47), config.clone()).unwrap();
        assert_eq!(resp.status, "ok", "{:?}", resp.error);
        assert_eq!(resp.result.unwrap().to_json(), want);
    });
}

/// A tenant blowing through its token bucket gets typed `shed` responses
/// while the admitted request still completes.
#[test]
fn rate_limited_tenant_sheds_with_typed_error() {
    let cfg = ServerConfig {
        boards: 1,
        sched: SchedConfig {
            burst: 1.0,
            rate_per_sec: 0.0,
            ..SchedConfig::default()
        },
        ..ServerConfig::default()
    };
    with_server(cfg, |addr, _| {
        let mut conn = Client::connect(addr).unwrap();
        let ids: Vec<i64> = (0..3)
            .map(|_| conn.send("ping", None, Value::Null).unwrap())
            .collect();
        let responses: Vec<_> = ids.iter().map(|&id| conn.wait(id).unwrap()).collect();
        let ok = responses.iter().filter(|r| r.is_ok()).count();
        let shed: Vec<_> = responses.iter().filter(|r| r.status == "shed").collect();
        assert_eq!(ok, 1, "exactly the burst is admitted");
        assert_eq!(shed.len(), 2);
        for resp in shed {
            assert_eq!(resp.error_kind.as_deref(), Some("rate_limited"));
        }
    });
}

/// An expired deadline returns `timeout` and the board keeps serving.
#[test]
fn expired_deadline_times_out_and_board_keeps_serving() {
    let cfg = ServerConfig {
        boards: 1,
        ..ServerConfig::default()
    };
    with_server(cfg, |addr, _| {
        let mut conn = Client::connect(addr).unwrap();
        let doomed = conn
            .send_with_deadline("quickstart", Some(5), Some(0), Value::Null)
            .unwrap();
        let resp = conn.wait(doomed).unwrap();
        assert_eq!(resp.status, "timeout");
        assert_eq!(resp.error_kind.as_deref(), Some("deadline_exceeded"));
        // The board went back to the free pool: a follow-up is served.
        let resp = conn.request("ping", None, Value::Null).unwrap();
        assert!(resp.is_ok());
    });
}

/// A sample count far past its bound is refused with a typed error
/// before any capture buffer is reserved, and the connection keeps
/// serving. The 2^40 samples asked for here once aborted the whole
/// server inside the allocator.
#[test]
fn oversized_sample_count_is_refused_and_connection_keeps_serving() {
    let cfg = ServerConfig {
        boards: 1,
        ..ServerConfig::default()
    };
    with_server(cfg, |addr, _| {
        let mut conn = Client::connect(addr).unwrap();
        let config = obj(&[("samples_per_level", Value::Int(1 << 40))]);
        let resp = conn.request("quickstart", Some(9), config).unwrap();
        assert_eq!(resp.status, "error");
        assert_eq!(resp.error_kind.as_deref(), Some("invalid_parameter"));
        let message = resp.error.unwrap_or_default();
        let bound = amperebleed::characterize::MAX_SAMPLES_PER_LEVEL.to_string();
        assert!(
            message.contains("samples_per_level") && message.contains(&bound),
            "{message}"
        );
        let resp = conn.request("ping", None, Value::Null).unwrap();
        assert!(resp.is_ok());
    });
}

/// Malformed lines get a typed `bad_request` answer instead of killing
/// the connection. So does a line past `MAX_REQUEST_LINE`, which the
/// server skips without buffering before it serves the next line.
#[test]
fn malformed_lines_answer_bad_request() {
    with_server(ServerConfig::default(), |addr, _| {
        use std::io::{BufRead, BufReader, Write};
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut next_response = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            sim_serve::protocol::parse_response(line.trim()).unwrap()
        };

        stream.write_all(b"{\"id\":1,\"verb\":\n").unwrap();
        let resp = next_response();
        assert_eq!(resp.status, "error");
        assert_eq!(resp.error_kind.as_deref(), Some("bad_request"));
        assert_eq!(resp.id, -1);

        let huge = vec![b'x'; 10_000_000];
        assert!(huge.len() > 4 * sim_serve::server::MAX_REQUEST_LINE);
        stream.write_all(&huge).unwrap();
        stream
            .write_all(b"\n{\"id\":2,\"verb\":\"ping\"}\n")
            .unwrap();
        let resp = next_response();
        assert_eq!(resp.error_kind.as_deref(), Some("bad_request"));
        let message = resp.error.expect("bad_request carries a message");
        assert!(
            message.contains(&sim_serve::server::MAX_REQUEST_LINE.to_string()),
            "the answer names the cap: {message}"
        );
        let resp = next_response();
        assert_eq!(resp.id, 2);
        assert!(resp.is_ok(), "ping after the long line: {:?}", resp.error);

        stream
            .write_all(b"\xff\xfe\n{\"id\":3,\"verb\":\"ping\"}\n")
            .unwrap();
        let resp = next_response();
        assert_eq!(resp.error_kind.as_deref(), Some("bad_request"));
        let message = resp.error.expect("bad_request carries a message");
        assert!(message.contains("UTF-8"), "{message}");
        let resp = next_response();
        assert_eq!(resp.id, 3);
        assert!(
            resp.is_ok(),
            "ping after the non-UTF-8 line: {:?}",
            resp.error
        );
    });
}

/// Graceful shutdown: everything admitted before the `shutdown` verb is
/// answered (zero lost responses), the ack carries drain stats, and the
/// server process winds down to a closed socket.
#[test]
fn graceful_shutdown_drains_with_zero_lost_responses() {
    let cfg = ServerConfig {
        boards: 2,
        farm_seed: 5,
        ..ServerConfig::default()
    };
    with_server(cfg, |addr, _| {
        let mut conn = Client::connect(addr).unwrap();
        let config = obj(&[("samples_per_level", Value::Int(30))]);
        let ids: Vec<i64> = (0..6)
            .map(|i| {
                conn.send("quickstart", Some(200 + i), config.clone())
                    .unwrap()
            })
            .collect();
        let ack_id = conn.send("shutdown", None, Value::Null).unwrap();

        for &id in &ids {
            let resp = conn.wait(id).unwrap();
            assert!(resp.is_ok(), "request {id} lost in drain: {:?}", resp.error);
        }
        let ack = conn.wait(ack_id).unwrap();
        assert!(ack.is_ok());
        let stats = ack.result.expect("drain stats");
        assert_eq!(stats.get("drained").unwrap().as_bool(), Some(true));
        assert!(stats.get("served").unwrap().as_i64().unwrap() >= 6);
        assert_eq!(stats.get("boards").unwrap().as_i64(), Some(2));

        // The server closes the connection after the drain.
        let eof = conn.wait(9_999);
        assert!(eof.is_err(), "connection should reach EOF after drain");
    });
}

/// The ctrl-channel (SIGTERM-equivalent) drains without a client.
#[test]
fn ctrl_channel_shutdown_stops_an_idle_server() {
    // with_server's guard IS the ctrl-channel path: if begin_drain did
    // not stop an idle server, this test would hang on join.
    with_server(ServerConfig::default(), |addr, _| {
        let mut conn = Client::connect(addr).unwrap();
        assert!(conn.request("ping", None, Value::Null).unwrap().is_ok());
    });
}
