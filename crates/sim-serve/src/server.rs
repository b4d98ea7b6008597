//! The TCP front: accept loop, per-connection readers, and the graceful
//! shutdown path.
//!
//! [`Server::run`] blocks inside one [`sim_rt::pool::service_scope`]
//! holding every thread the server owns: the dispatcher and one reader
//! per connection. Responses are written by whichever thread finishes a
//! job, through a mutex over the connection's write half — each response
//! is a single `write_all` of one line, so lines never interleave.
//!
//! Shutdown (a client `shutdown` verb or [`ServerHandle::shutdown`])
//! drains the scheduler, then the accept loop closes both halves of
//! every open connection; blocked readers observe EOF and exit, the
//! scope joins, and `run` returns. A connection whose client closes it
//! first leaves the table as its reader exits, so a long-running server
//! holds one socket per open connection, not one per connection ever
//! accepted.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sim_rt::pool::{service_scope, Pool};
use sim_store::{Store, StoreConfig};

use crate::farm::Farm;
use crate::protocol::{self, Response};
use crate::scheduler::{SchedConfig, Scheduler, Sink};

/// Polling period of the non-blocking accept loop.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Longest request line accepted, in bytes, not counting its newline.
/// Real requests are a few hundred bytes; a longer line is answered with
/// `bad_request` and skipped without being buffered.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Everything needed to stand up a server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Board-farm size.
    pub boards: usize,
    /// Farm seed; board `i` runs on `derive_seed(farm_seed, i)`.
    pub farm_seed: u64,
    /// Execution pool width (0 = one worker per CPU).
    pub threads: usize,
    /// Admission/batching knobs.
    pub sched: SchedConfig,
    /// Content-addressed result store: `None` disables memoization
    /// entirely; `Some` with [`StoreConfig::dir`] unset is a hot tier
    /// only; with a dir, results also persist across restarts.
    pub store: Option<StoreConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            boards: 4,
            farm_seed: 1,
            threads: 0,
            sched: SchedConfig::default(),
            store: None,
        }
    }
}

/// A bound (but not yet running) server.
pub struct Server {
    listener: TcpListener,
    scheduler: Arc<Scheduler>,
    /// Open connections by id, kept so a drain can shut down a reader
    /// still parked in a read. Each reader removes its own entry.
    conns: Arc<Mutex<BTreeMap<u64, TcpStream>>>,
}

/// The ctrl-channel: triggers the same drain-then-stop path as the
/// `shutdown` verb, from outside any connection (the SIGTERM-equivalent).
#[derive(Clone)]
pub struct ServerHandle {
    scheduler: Arc<Scheduler>,
}

impl ServerHandle {
    /// Starts a graceful drain; `Server::run` returns once it completes.
    pub fn shutdown(&self) {
        self.scheduler.begin_drain();
    }
}

impl Server {
    /// Binds the listener and assembles the farm, store, and scheduler.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, or a store directory that cannot be
    /// opened (damaged store *content* self-heals and is not an error).
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        obs::init();
        // Spans feed both the `stats` verb and flight dumps; a server
        // without them is blind, so recording is on for the lifetime of
        // the process.
        obs::trace::set_recording(true);
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let farm = Farm::new(config.farm_seed, config.boards);
        let pool = Pool::new(config.threads);
        let store = match config.store {
            None => None,
            Some(store_cfg) => Some(Arc::new(
                Store::open(store_cfg).map_err(|e| std::io::Error::other(e.to_string()))?,
            )),
        };
        let scheduler = Arc::new(Scheduler::with_store(config.sched, farm, pool, store));
        Ok(Server {
            listener,
            scheduler,
            conns: Arc::new(Mutex::new(BTreeMap::new())),
        })
    }

    /// The bound address (read the ephemeral port from here).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A shutdown handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            scheduler: Arc::clone(&self.scheduler),
        }
    }

    /// Serves until a graceful shutdown completes.
    pub fn run(self) {
        let Server {
            listener,
            scheduler,
            conns,
        } = self;
        service_scope(|svc| {
            let dispatcher_sched = Arc::clone(&scheduler);
            svc.spawn("serve-dispatcher", move || dispatcher_sched.dispatch_loop());

            let mut conn_id = 0u64;
            while !scheduler.stopped() {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        obs::counter!("serve.connections").inc();
                        // Accepted sockets must block: readers park in
                        // a read until data or shutdown arrives.
                        if stream.set_nonblocking(false).is_err() {
                            continue;
                        }
                        let (read_half, write_half) = match (stream.try_clone(), stream.try_clone())
                        {
                            (Ok(r), Ok(w)) => (r, w),
                            _ => continue,
                        };
                        conns
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .insert(conn_id, stream);
                        let sched = Arc::clone(&scheduler);
                        let conns = Arc::clone(&conns);
                        svc.spawn(&format!("serve-conn-{conn_id}"), move || {
                            connection_loop(read_half, write_half, &sched);
                            conns
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .remove(&conn_id);
                        });
                        conn_id += 1;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => {
                        obs::counter!("serve.accept_errors").inc();
                        std::thread::sleep(ACCEPT_POLL);
                    }
                }
            }

            // Drained: unblock every parked reader so the scope can join.
            for stream in conns
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .values()
            {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        });
    }
}

/// Reads request lines until EOF, submitting each to the scheduler.
fn connection_loop(read_half: TcpStream, write_half: TcpStream, scheduler: &Scheduler) {
    let writer = Arc::new(Mutex::new(write_half));
    let sink: Sink = Arc::new(move |resp: Response| {
        let line = resp.to_json_line();
        let mut w = writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if w.write_all(line.as_bytes()).is_err() {
            obs::counter!("serve.tx_errors").inc();
        }
    });
    let bad_request = |message: String| {
        obs::counter!("serve.bad_requests").inc();
        sink(Response::failure(-1, "", "error", "bad_request", message));
    };

    let mut reader = BufReader::new(read_half);
    let mut line = Vec::new();
    loop {
        line.clear();
        // One byte past the cap tells an over-long line from one that
        // fits exactly.
        let read = (&mut reader)
            .take(MAX_REQUEST_LINE as u64 + 1)
            .read_until(b'\n', &mut line);
        if let Ok(0) | Err(_) = read {
            break;
        }
        if line.len() > MAX_REQUEST_LINE && !line.ends_with(b"\n") {
            // Answer, then skip the rest of the line and keep serving:
            // closing a socket with unread input would reset it and could
            // destroy the answer before the client reads it.
            bad_request(format!("request line exceeds {MAX_REQUEST_LINE} bytes"));
            if reader.skip_until(b'\n').is_err() {
                break;
            }
            continue;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            break;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }
        match protocol::parse_request(trimmed) {
            Ok(req) => scheduler.submit(req, Arc::clone(&sink)),
            Err(message) => bad_request(message),
        }
    }
}
