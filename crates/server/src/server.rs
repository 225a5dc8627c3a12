//! The TCP front end: bounded thread-pool execution with per-query
//! deadlines, explicit load shedding, and graceful drain.
//!
//! ## Concurrency model
//!
//! * one **acceptor** thread takes connections off the listener;
//! * one thread per connection reads frames, owns the connection's
//!   [`QuerySession`], and writes responses (so responses never
//!   interleave);
//! * a fixed pool of **executor** threads runs the actual queries, one
//!   shard of one query per job: the connection thread submits a job for
//!   every healthy shard and merges the per-shard answers itself
//!   ([`ShardedSearcher::gather`](tks_shard::ShardedSearcher::gather)),
//!   so an answer crosses two thread hops whatever the shard count.
//!   These are the only threads the product starts.  The number of
//!   in-flight queries (any shard job queued or executing) is bounded by
//!   [`ServerConfig::queue_depth`]; when the bound is hit, new queries
//!   are refused immediately with a typed
//!   [`Overloaded`](WireErrorCode::Overloaded) error instead of
//!   queueing without limit and stalling every caller.
//!
//! ## Deadlines
//!
//! Every query carries a deadline (the request's `deadline_ms` or the
//! server default).  The connection thread waits for the shard answers
//! only up to that deadline (plus a small grace for the reply hop) and
//! then answers with [`DeadlineExceeded`](WireErrorCode::DeadlineExceeded)
//! — a slow shard turns into a typed error, never a hung connection.  An
//! executor that picks a shard job up *after* its deadline already passed
//! sheds it without touching the engine.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] stops accepting, lets every in-flight
//! request finish and deliver its response, then joins the connection
//! threads and drains the executor pool.  Queries arriving during the
//! drain get a typed [`ShuttingDown`](WireErrorCode::ShuttingDown)
//! error.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use tks_core::{Query, QueryResponse, SearchError, Searcher};
use tks_shard::{QuerySession, ShardedSearcher};

use crate::error::ServerError;
use crate::wire::{
    self, FrameError, WireDegraded, WireError, WireErrorCode, WireQuery, WireQueryResponse,
    WireRequest, WireResponse, WireStatus, PROTOCOL_VERSION,
};

/// Extra wait beyond the query deadline for the executor's reply hop,
/// so a result that beat the deadline by a hair is not discarded.
const DEADLINE_GRACE_MS: u64 = 50;

/// Hard ceiling on any single query's deadline (guards `Instant`
/// arithmetic and runaway waits).
const MAX_DEADLINE_MS: u64 = 3_600_000;

/// Tuning for one [`ArchiveServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Executor threads running queries (≥ 1).
    pub workers: usize,
    /// Bound on in-flight queries, queued + executing (≥ 1).  Beyond
    /// it, queries are shed with [`WireErrorCode::Overloaded`].
    pub queue_depth: usize,
    /// Bound on concurrent connections; beyond it, new connections are
    /// refused with [`WireErrorCode::Overloaded`] and closed.
    pub max_connections: usize,
    /// Frame-size ceiling for incoming requests.
    pub max_frame_bytes: usize,
    /// Deadline applied to queries that do not carry their own.
    pub default_deadline_ms: u64,
    /// Test/bench hook: sleep this long in the executor before running
    /// each shard job, simulating a slow shard.  Zero in production.
    pub inject_delay_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 16,
            max_connections: 64,
            max_frame_bytes: wire::DEFAULT_MAX_FRAME_BYTES,
            default_deadline_ms: 30_000,
            inject_delay_ms: 0,
        }
    }
}

/// Recover from lock poisoning: a panicking holder (only possible in
/// test builds) must not wedge the server.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

// ---------------------------------------------------------------------------
// Executor pool
// ---------------------------------------------------------------------------

/// One shard's answer to one query, as [`ShardedSearcher::gather`]
/// takes it.
type ShardAnswer = (u32, Result<QueryResponse, SearchError>);

/// One admitted query's place under the in-flight bound.  Its shard jobs
/// share it, so the place frees when the last of them is done — however
/// early the connection thread stopped waiting.
struct Slot(Arc<AtomicUsize>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One shard of one query.
struct Job {
    shard: u32,
    query: Query,
    searcher: Searcher,
    deadline: Instant,
    reply: mpsc::Sender<Result<ShardAnswer, WireError>>,
    slot: Arc<Slot>,
}

struct ExecPool {
    tx: Mutex<Option<mpsc::Sender<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    in_flight: Arc<AtomicUsize>,
    depth: usize,
}

fn shutting_down() -> WireError {
    WireError::new(WireErrorCode::ShuttingDown, "server is draining")
}

impl ExecPool {
    fn start(workers: usize, depth: usize, delay: Duration) -> Result<ExecPool, ServerError> {
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let mut handles = Vec::new();
        for i in 0..workers.max(1) {
            let rx = Arc::clone(&rx);
            let h = thread::Builder::new()
                .name(format!("tks-exec-{i}"))
                .spawn(move || worker_loop(&rx, delay))
                .map_err(ServerError::Io)?;
            handles.push(h);
        }
        Ok(ExecPool {
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(handles),
            in_flight: Arc::new(AtomicUsize::new(0)),
            depth: depth.max(1),
        })
    }

    /// Admit one query if the in-flight bound allows; otherwise shed it.
    fn admit(&self) -> Result<Arc<Slot>, WireError> {
        self.in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.depth).then_some(n + 1)
            })
            .map(|_| Arc::new(Slot(Arc::clone(&self.in_flight))))
            .map_err(|_| {
                WireError::new(
                    WireErrorCode::Overloaded,
                    format!("in-flight query queue is full ({} queries)", self.depth),
                )
            })
    }

    /// Queue an admitted query's shard jobs.
    fn submit(&self, jobs: impl Iterator<Item = Job>) -> Result<(), WireError> {
        let guard = lock(&self.tx);
        let tx = guard.as_ref().ok_or_else(shutting_down)?;
        for job in jobs {
            tx.send(job).map_err(|_| shutting_down())?;
        }
        Ok(())
    }

    /// Close the queue, let the workers drain what is already queued,
    /// and join them.
    fn shutdown(&self) {
        *lock(&self.tx) = None;
        for h in lock(&self.workers).drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(rx: &Mutex<mpsc::Receiver<Job>>, delay: Duration) {
    loop {
        // Hold the lock only while dequeueing, not while executing.
        let job = {
            let guard = lock(rx);
            guard.recv()
        };
        let Ok(job) = job else {
            break; // queue closed and drained: shutdown
        };
        let result = if Instant::now() >= job.deadline {
            // Expired while queued: shed without touching the engine.
            Err(WireError::new(
                WireErrorCode::DeadlineExceeded,
                "deadline expired while the query was queued",
            ))
        } else {
            if !delay.is_zero() {
                thread::sleep(delay);
            }
            Ok((job.shard, job.searcher.execute(job.query)))
        };
        // Release the shard handle and the query's slot before the
        // reply: a caller that has its answer may tear the writer down
        // (`try_into_engines`) or send its next query.
        drop(job.searcher);
        drop(job.slot);
        // The connection may have given up (deadline) — a dead reply
        // channel is fine.
        let _ = job.reply.send(result);
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

struct Shared {
    searcher: ShardedSearcher,
    config: ServerConfig,
    shutdown: AtomicBool,
    active_conns: AtomicUsize,
    conns: Mutex<Vec<JoinHandle<()>>>,
    pool: ExecPool,
}

/// The archive's TCP front end.
pub struct ArchiveServer;

impl ArchiveServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `searcher`.  Returns immediately; the server runs on background
    /// threads until the handle is shut down or dropped.
    pub fn bind(
        addr: &str,
        searcher: ShardedSearcher,
        config: ServerConfig,
    ) -> Result<ServerHandle, ServerError> {
        let listener = TcpListener::bind(addr).map_err(|e| ServerError::Bind {
            addr: addr.to_string(),
            source: e,
        })?;
        let local = listener.local_addr().map_err(ServerError::Io)?;
        let pool = ExecPool::start(
            config.workers,
            config.queue_depth,
            Duration::from_millis(config.inject_delay_ms),
        )?;
        let shared = Arc::new(Shared {
            searcher,
            config,
            shutdown: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            conns: Mutex::new(Vec::new()),
            pool,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name("tks-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .map_err(ServerError::Io)?;
        Ok(ServerHandle {
            addr: local,
            shared,
            accept: Some(accept),
        })
    }
}

/// A running server.  Dropping the handle shuts the server down
/// gracefully (draining in-flight queries first).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain in-flight queries (their responses are
    /// still delivered), join every server thread.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return; // already drained
        }
        // Wake the acceptor with a no-op connection so it observes the
        // flag even if no real client ever connects again.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Connection threads finish their current request (delivering
        // the response) and exit at the next idle poll tick.
        for h in lock(&self.shared.conns).drain(..) {
            let _ = h.join();
        }
        self.shared.pool.shutdown();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.drain();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        let active = shared.active_conns.fetch_add(1, Ordering::SeqCst);
        if active >= shared.config.max_connections {
            shared.active_conns.fetch_sub(1, Ordering::SeqCst);
            let _ = wire::write_response(
                &mut stream,
                &WireResponse::Error(WireError::new(
                    WireErrorCode::Overloaded,
                    format!(
                        "connection limit reached ({} connections)",
                        shared.config.max_connections
                    ),
                )),
            );
            continue;
        }
        let conn_shared = Arc::clone(shared);
        let spawned = thread::Builder::new()
            .name("tks-conn".to_string())
            .spawn(move || {
                let _guard = ConnGuard(Arc::clone(&conn_shared));
                handle_conn(stream, &conn_shared);
            });
        match spawned {
            Ok(h) => {
                // Forget the connections that ended since the last
                // accept (their threads have already exited), so the
                // tracked handles stay bounded by the open connections.
                let mut conns = lock(&shared.conns);
                conns.retain(|c| !c.is_finished());
                conns.push(h);
            }
            Err(_) => {
                shared.active_conns.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// Decrements the connection count however the connection thread exits.
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.active_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_conn(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    // A short read timeout turns the blocking read loop into a poll
    // loop, so the connection notices a shutdown even while idle.
    let _ = stream.set_read_timeout(Some(wire::IDLE_POLL));
    // And a write timeout ends a connection whose peer stopped reading,
    // instead of pinning this thread (and a drain) in `write_all`.
    let _ = stream.set_write_timeout(Some(wire::WRITE_STALL));
    let mut session = QuerySession::open(&shared.searcher);
    loop {
        match wire::read_request(&mut stream, shared.config.max_frame_bytes) {
            Ok(req) => {
                if handle_request(&mut stream, shared, &mut session, req).is_err() {
                    break; // peer stopped reading
                }
            }
            Err(FrameError::IdleTimeout) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            // Clean goodbye, mid-frame disconnect, or transport failure:
            // nothing sensible to say on this socket any more.
            Err(FrameError::Closed) | Err(FrameError::Truncated) | Err(FrameError::Io(_)) => break,
            Err(FrameError::TooLarge { len, max }) => {
                // The oversized body was never read, so the stream can
                // no longer be re-synchronised: answer and close.
                let _ = wire::write_response(
                    &mut stream,
                    &WireResponse::Error(WireError::new(
                        WireErrorCode::FrameTooLarge,
                        format!("frame of {len} bytes exceeds the {max}-byte limit"),
                    )),
                );
                break;
            }
            Err(FrameError::UnsupportedVersion(v)) => {
                // The frame was consumed; the stream is still in sync.
                let r = wire::write_response(
                    &mut stream,
                    &WireResponse::Error(WireError::new(
                        WireErrorCode::UnsupportedVersion,
                        format!(
                            "protocol version {v} is not supported (server speaks {PROTOCOL_VERSION})"
                        ),
                    )),
                );
                if r.is_err() {
                    break;
                }
            }
            Err(FrameError::Malformed(msg)) => {
                // Likewise consumed: report and keep serving.
                let r = wire::write_response(
                    &mut stream,
                    &WireResponse::Error(WireError::new(WireErrorCode::Malformed, msg)),
                );
                if r.is_err() {
                    break;
                }
            }
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn handle_request(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    session: &mut QuerySession,
    req: WireRequest,
) -> Result<(), FrameError> {
    let resp = match req {
        WireRequest::Ping => WireResponse::Pong,
        WireRequest::Status => status_of(shared, session),
        WireRequest::Refresh => WireResponse::Refreshed {
            watermarks: session.refresh().to_vec(),
        },
        WireRequest::Query { query, deadline_ms } => {
            match run_query(shared, session, &query, deadline_ms) {
                Ok(resp) => WireResponse::Query(resp),
                Err(e) => WireResponse::Error(e),
            }
        }
    };
    wire::write_response(stream, &resp)
}

fn status_of(shared: &Arc<Shared>, session: &QuerySession) -> WireResponse {
    WireResponse::Status(WireStatus {
        protocol_version: PROTOCOL_VERSION,
        shards: shared.searcher.shards(),
        visible_docs: session.visible_docs(),
        watermarks: session.watermarks().to_vec(),
        degraded: shared
            .searcher
            .degraded()
            .iter()
            .map(|d| WireDegraded {
                shard: d.shard,
                reason: d.reason.clone(),
            })
            .collect(),
    })
}

fn run_query(
    shared: &Arc<Shared>,
    session: &QuerySession,
    query: &WireQuery,
    deadline_ms: Option<u64>,
) -> Result<WireQueryResponse, WireError> {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err(shutting_down());
    }
    let budget_ms = deadline_ms
        .unwrap_or(shared.config.default_deadline_ms)
        .clamp(1, MAX_DEADLINE_MS);
    let now = Instant::now();
    let deadline = now
        .checked_add(Duration::from_millis(budget_ms))
        .unwrap_or(now);
    let query = query.to_query();
    let pinned = session.searcher();
    let readers = pinned.scatter();
    let fanout = readers.len();

    let slot = shared.pool.admit()?;
    let (reply, answers_rx) = mpsc::channel();
    shared
        .pool
        .submit(readers.into_iter().map(|(shard, searcher)| Job {
            shard,
            query: query.clone(),
            searcher: searcher.clone(),
            deadline,
            reply: reply.clone(),
            slot: Arc::clone(&slot),
        }))?;
    // Only the jobs hold the slot and the reply channel from here on.
    drop((slot, reply));

    let give_up = deadline + Duration::from_millis(DEADLINE_GRACE_MS);
    let mut answers = Vec::with_capacity(fanout);
    while answers.len() < fanout {
        let wait = give_up.saturating_duration_since(Instant::now());
        match answers_rx.recv_timeout(wait) {
            Ok(answer) => answers.push(answer?),
            Err(RecvTimeoutError::Timeout) => {
                return Err(WireError::new(
                    WireErrorCode::DeadlineExceeded,
                    format!("query exceeded its {budget_ms}ms deadline"),
                ))
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(WireError::new(
                    WireErrorCode::Internal,
                    "query executor vanished before replying",
                ))
            }
        }
    }
    pinned
        .gather(&query, answers)
        .map(|resp| WireQueryResponse::from(&resp))
        .map_err(|e| WireError::from(&e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tks_shard::ShardedArchive;

    /// Short-lived connections must not accumulate join handles: the
    /// acceptor reaps finished connection threads on every accept.
    #[test]
    fn finished_connections_are_reaped_on_accept() {
        let archive = ShardedArchive::create(tks_core::EngineConfig::default(), 1).unwrap();
        let (_writer, searcher) = archive.into_service();
        let config = ServerConfig::default();
        let bound = 2 * config.max_connections;
        let handle = ArchiveServer::bind("127.0.0.1:0", searcher, config).unwrap();
        for cycle in 0..400 {
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            wire::write_request(&mut stream, &WireRequest::Ping).unwrap();
            let pong = wire::read_response(&mut stream, wire::DEFAULT_MAX_FRAME_BYTES).unwrap();
            assert!(
                matches!(pong, WireResponse::Pong),
                "cycle {cycle}: {pong:?}"
            );
            drop(stream);
            let tracked = lock(&handle.shared.conns).len();
            assert!(tracked <= bound, "cycle {cycle}: {tracked} handles tracked");
        }
        handle.shutdown();
    }
}
