//! The TCP front: accept loop, per-connection readers, and the graceful
//! shutdown path.
//!
//! [`Server::run`] blocks inside one [`sim_rt::pool::service_scope`]
//! holding every thread the server owns: the dispatcher and one reader
//! per connection. Responses are written by whichever thread finishes a
//! job, through a mutex over the connection's write half — whole lines
//! at a time, so lines never interleave.
//!
//! Accepted sockets are `TCP_NODELAY`, so each write leaves at once.
//! With Nagle's algorithm on, a line written while an earlier one is
//! still unacknowledged waits for the client's next packet or its
//! delayed-ACK timer (at least 40 ms on Linux), so pipelined and
//! fanned-out responses measured TCP, not the server. Without Nagle,
//! each write is a segment of its own and wakes the client, so a reader
//! holds the answers it produces itself (store hits, sheds, errors)
//! while it still has complete requests received, and sends them in one
//! write before a read that may block. No answer waits on input or a
//! timer. Responses from the dispatcher are written at once: holding a
//! batch's fan-out until its last line delays the requests the client
//! sends back, and the next batch forms before they arrive.
//!
//! At most [`MAX_CONNECTIONS`] connections are open at once, each with
//! its own reader thread. The accept loop answers one more with a single
//! `shed` line of kind `too_many_connections` (id −1) and closes it.
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
use crate::scheduler::{count_shed, SchedConfig, Scheduler, Sink};

/// Polling period of the non-blocking accept loop.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Longest request line accepted, in bytes, not counting its newline.
/// Real requests are a few hundred bytes; a longer line is answered with
/// `bad_request` and skipped without being buffered.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Most connections open at once. Each holds a reader thread, so the cap
/// bounds the server's threads; the clients in this workspace open at
/// most 8.
pub const MAX_CONNECTIONS: usize = 128;

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
        let scheduler = Arc::new(Scheduler::new(config.sched, farm, pool, store));
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
                        // a read until data or shutdown arrives. No Nagle:
                        // see the module doc.
                        if stream.set_nonblocking(false).is_err()
                            || stream.set_nodelay(true).is_err()
                        {
                            continue;
                        }
                        let open = conns
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .len();
                        if open >= MAX_CONNECTIONS {
                            refuse(stream);
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

/// Answers a connection past [`MAX_CONNECTIONS`] with one `shed` line,
/// then closes it by dropping it.
fn refuse(mut stream: TcpStream) {
    const KIND: &str = "too_many_connections";
    count_shed(KIND);
    let message = format!("server already holds {MAX_CONNECTIONS} open connections");
    let line = Response::failure(-1, "", "shed", KIND, message).to_json_line();
    write_or_count(&mut stream, line.as_bytes());
}

/// A connection's write half. Its reader's own answers (store hits,
/// sheds, errors) are held until [`Outbox::flush`], so that the answers
/// to requests received together leave in one write; answers from any
/// other thread are written at once. Whole lines only, under one lock,
/// so lines never interleave.
struct Outbox {
    reader: std::thread::ThreadId,
    out: Mutex<Held>,
}

struct Held {
    stream: TcpStream,
    lines: Vec<u8>,
}

impl Outbox {
    /// An outbox whose reader is the calling thread.
    fn new(stream: TcpStream) -> Outbox {
        Outbox {
            reader: std::thread::current().id(),
            out: Mutex::new(Held {
                stream,
                lines: Vec::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Held> {
        self.out
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn send(&self, line: String) {
        let mut out = self.lock();
        if std::thread::current().id() != self.reader {
            write_or_count(&mut out.stream, line.as_bytes());
        } else if out.lines.is_empty() {
            out.lines = line.into_bytes();
        } else {
            out.lines.extend_from_slice(line.as_bytes());
        }
    }

    /// Writes the held lines, if any, in one `write_all`.
    fn flush(&self) {
        let mut out = self.lock();
        let lines = std::mem::take(&mut out.lines);
        if !lines.is_empty() {
            write_or_count(&mut out.stream, &lines);
        }
    }
}

fn write_or_count(stream: &mut TcpStream, bytes: &[u8]) {
    if stream.write_all(bytes).is_err() {
        obs::counter!("serve.tx_errors").inc();
    }
}

/// Reads request lines until EOF, submitting each to the scheduler.
///
/// Before a read that may block, that is whenever the buffer holds no
/// complete request line, the reader flushes its held answers.
fn connection_loop(read_half: TcpStream, write_half: TcpStream, scheduler: &Scheduler) {
    let outbox = Arc::new(Outbox::new(write_half));
    let sink: Sink = {
        let outbox = Arc::clone(&outbox);
        Arc::new(move |resp: Response| outbox.send(resp.to_json_line()))
    };
    let bad_request = |message: String| {
        obs::counter!("serve.bad_requests").inc();
        sink(Response::failure(-1, "", "error", "bad_request", message));
    };

    let mut reader = BufReader::new(read_half);
    let mut line = Vec::new();
    loop {
        if !reader.buffer().contains(&b'\n') {
            outbox.flush();
        }
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
            outbox.flush();
            if reader.skip_until(b'\n').is_err() {
                break;
            }
            continue;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            bad_request("request line is not valid UTF-8".into());
            continue;
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
    outbox.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An outbox read by the calling thread over a loopback connection,
    /// and the client's end with a short read timeout.
    fn pair() -> (Arc<Outbox>, BufReader<TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        (Arc::new(Outbox::new(server)), BufReader::new(client))
    }

    fn next_line(client: &mut BufReader<TcpStream>) -> Option<String> {
        let mut line = String::new();
        client.read_line(&mut line).ok()?;
        Some(line)
    }

    #[test]
    fn the_readers_own_answers_leave_together_at_flush() {
        let (outbox, mut client) = pair();
        outbox.send("a\n".into());
        outbox.send("b\n".into());
        assert_eq!(next_line(&mut client), None, "held answers must not leave");
        outbox.flush();
        assert_eq!(next_line(&mut client).as_deref(), Some("a\n"));
        assert_eq!(next_line(&mut client).as_deref(), Some("b\n"));
        outbox.flush();
        assert_eq!(next_line(&mut client), None);
    }

    #[test]
    fn answers_from_other_threads_are_not_held() {
        let (outbox, mut client) = pair();
        outbox.send("held\n".into());
        let other = Arc::clone(&outbox);
        // A raw OS thread on purpose: what is tested is that the sending
        // thread is not the reader.
        // sim-lint: allow(stray-spawn)
        let sender = std::thread::spawn(move || other.send("other\n".into()));
        sender.join().unwrap();
        assert_eq!(next_line(&mut client).as_deref(), Some("other\n"));
        outbox.flush();
        assert_eq!(next_line(&mut client).as_deref(), Some("held\n"));
    }
}
