//! A closed connection must give its socket back. This file holds one
//! test so that no parallel test opens descriptors in the same process
//! while it counts them.

use std::time::Duration;

use sim_rt::pool::service_scope;
use sim_rt::ser::Value;
use sim_serve::{Client, Server, ServerConfig, ServerHandle};

/// Open file descriptors of this process (server and client alike).
#[cfg(target_os = "linux")]
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn closed_connections_release_their_descriptors() {
    /// Drains the server even if an assertion fails, so the scope joins.
    struct DrainGuard(ServerHandle);
    impl Drop for DrainGuard {
        fn drop(&mut self) {
            self.0.shutdown();
        }
    }

    const CYCLES: usize = 200;
    let server = Server::bind(ServerConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let guard = DrainGuard(server.handle());
    service_scope(|svc| {
        let join = svc.spawn("fd-test-server", move || server.run());
        let before = open_fds();
        for i in 0..CYCLES {
            let mut conn = Client::connect(addr).expect("connect");
            // A tenant per connection keeps every ping under its own
            // rate limit.
            conn.set_tenant(format!("fd-{i}"));
            let resp = conn.request("ping", None, Value::Null).expect("ping");
            assert!(resp.is_ok(), "cycle {i}: {:?}", resp.error);
        }
        // Each reader notices its client's close on its own thread, so
        // give the last few up to 10 s to exit before judging.
        let mut grown = open_fds().saturating_sub(before);
        for _ in 0..1_000 {
            if grown < 20 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
            grown = open_fds().saturating_sub(before);
        }
        drop(guard);
        join.join().expect("server thread");
        assert!(
            grown < 20,
            "{grown} descriptors still open after {CYCLES} closed connections"
        );
    });
}
