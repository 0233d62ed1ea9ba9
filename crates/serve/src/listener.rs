//! The server proper: accept loop, worker pool, and lifecycle handle.
//!
//! Thread layout for one server:
//!
//! ```text
//! accept thread ──try_admit──▶ bounded queue ──recv──▶ worker 0..N
//!      │  (shed: answer 429 inline, close)                  │
//!      │                                                    ▼
//!      └── polls DrainState::is_finished ──▶ exit     route + respond
//! ```
//!
//! The accept loop is nonblocking so it can interleave accepting with the
//! drain flag; accepted sockets are switched back to blocking, and every
//! request frame is read under both a per-read socket timeout (stalled
//! peer) and an absolute frame deadline (drip-feeding peer) — together
//! the slow-loris bound. A worker holds exactly one connection at a time, so `workers`
//! is also the in-service concurrency cap; `queue_depth` bounds the wait
//! line behind them, and everything past that is shed at accept time.
//!
//! Connections are reused (HTTP/1.1 keep-alive): a worker serves up to
//! `max_requests_per_conn` sequential requests per socket, each under its
//! own fresh [`FrameClock`]. Because a parked idle connection pins a
//! worker thread, the between-request idle window (`keepalive_idle`) is
//! deliberately short — reuse is for clients actively pipelining work,
//! not a long-lived pool slot — and the per-connection request cap
//! rotates workers across clients under contention. Draining, an
//! explicit `Connection: close` from the client, or any framing error
//! flips the connection to close behind the in-flight reply.
//!
//! The listener is generic over a [`Service`]: the same hardened front
//! end (admission, framing, slow-loris bounds, panic barrier, drain)
//! serves both the single-process task router ([`spawn`]) and the
//! cluster gateway ([`spawn_service`] with a proxying service).

use crate::admission::{Admission, AdmissionStats, ShedReason};
use crate::drain::{run_drain, DrainState};
use crate::json::Json;
use crate::protocol::{
    error_body, read_request, write_json_bytes_response, write_response, write_text_response,
    ErrorCode, FrameClock, Limits, Request,
};
use crate::router::{handle, AppState};
use crate::telemetry;
use deptree_core::DeptreeError;
use deptree_relation::Relation;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Everything a server instance needs to start.
#[derive(Debug)]
pub struct ServeConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Named datasets, preloaded by the caller.
    pub datasets: Vec<(String, Relation)>,
    /// Connection cap (queued + in service); excess is shed with 429.
    pub max_connections: usize,
    /// Accept→worker hand-off queue depth; excess is shed with 429.
    pub queue_depth: usize,
    /// Worker threads; also the in-service concurrency cap.
    pub workers: usize,
    /// Per-read socket timeout (fully-stalled-peer bound).
    pub read_timeout: Duration,
    /// Absolute cap on reading one whole request frame, however slowly
    /// the bytes arrive (drip-feeding-peer bound).
    pub frame_timeout: Duration,
    /// Socket write timeout (stuck-peer bound).
    pub write_timeout: Duration,
    /// Header/body byte caps.
    pub limits: Limits,
    /// Deadline for requests that do not name one.
    pub default_deadline: Duration,
    /// Cap on any requested deadline.
    pub max_deadline: Duration,
    /// Engine threads available to each request.
    pub threads: usize,
    /// Soft-drain grace before in-flight work is cancelled.
    pub drain_grace: Duration,
    /// Requests served per connection before the server closes it
    /// (keep-alive rotation cap; 1 restores close-per-request).
    pub max_requests_per_conn: usize,
    /// How long a reused connection may sit idle between requests before
    /// the server closes it (an idle connection pins a worker thread).
    pub keepalive_idle: Duration,
    /// Response cache capacity in bytes; 0 disables caching.
    pub response_cache_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            datasets: Vec::new(),
            max_connections: 64,
            queue_depth: 16,
            workers: 4,
            read_timeout: Duration::from_secs(5),
            frame_timeout: Duration::from_secs(15),
            write_timeout: Duration::from_secs(5),
            limits: Limits::default(),
            default_deadline: Duration::from_secs(10),
            max_deadline: Duration::from_secs(60),
            threads: 1,
            drain_grace: Duration::from_secs(3),
            max_requests_per_conn: 64,
            keepalive_idle: Duration::from_millis(500),
            response_cache_bytes: 0,
        }
    }
}

/// What a [`Service`] answers one request with.
pub enum ServiceReply {
    /// A JSON body (the normal task/error path).
    Json(u16, Json),
    /// A plain-text body (the Prometheus `/metrics` exposition).
    Text(u16, String),
    /// A pre-rendered JSON body forwarded byte-for-byte (the gateway's
    /// proxy path: the worker's response must reach the client unchanged).
    Bytes(u16, Vec<u8>),
}

/// The application half of a server: everything behind the framing.
///
/// The listener owns sockets, admission, timeouts and the panic
/// barrier; the service owns routing and state. [`AppState`] implements
/// it for the single-process daemon, the gateway for the cluster front.
pub trait Service: Send + Sync + 'static {
    /// Answer one parsed request. Must not panic for correctness — the
    /// listener's catch-unwind turns a panic into one `500`, not a dead
    /// worker — but panicking loses the request.
    fn respond(&self, req: &Request) -> ServiceReply;

    /// The lifecycle state the accept loop polls to stop.
    fn drain_handle(&self) -> &Arc<DrainState>;
}

/// Network/framing knobs for [`spawn_service`] — the transport subset of
/// [`ServeConfig`], shared by the daemon and the gateway front end.
#[derive(Debug, Clone)]
pub struct ListenOpts {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Connection cap (queued + in service); excess is shed with 429.
    pub max_connections: usize,
    /// Accept→worker hand-off queue depth; excess is shed with 429.
    pub queue_depth: usize,
    /// Worker threads; also the in-service concurrency cap.
    pub workers: usize,
    /// Per-read socket timeout (fully-stalled-peer bound).
    pub read_timeout: Duration,
    /// Absolute cap on reading one whole request frame.
    pub frame_timeout: Duration,
    /// Socket write timeout (stuck-peer bound).
    pub write_timeout: Duration,
    /// Header/body byte caps.
    pub limits: Limits,
    /// Soft-drain grace before in-flight work is cancelled.
    pub drain_grace: Duration,
    /// Requests served per connection before the server closes it.
    pub max_requests_per_conn: usize,
    /// Idle window between requests on a reused connection.
    pub keepalive_idle: Duration,
}

impl Default for ListenOpts {
    fn default() -> Self {
        let d = ServeConfig::default();
        ListenOpts {
            addr: d.addr,
            max_connections: d.max_connections,
            queue_depth: d.queue_depth,
            workers: d.workers,
            read_timeout: d.read_timeout,
            frame_timeout: d.frame_timeout,
            write_timeout: d.write_timeout,
            limits: d.limits,
            drain_grace: d.drain_grace,
            max_requests_per_conn: d.max_requests_per_conn,
            keepalive_idle: d.keepalive_idle,
        }
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::drain`] then [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    drain: Arc<DrainState>,
    drain_grace: Duration,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<AdmissionStats>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The lifecycle state, for wiring signal handlers.
    pub fn drain_state(&self) -> &Arc<DrainState> {
        &self.drain
    }

    /// Connections shed so far.
    pub fn shed(&self) -> u64 {
        self.stats.shed.load(Ordering::Relaxed)
    }

    /// Connections admitted so far.
    pub fn admitted(&self) -> u64 {
        self.stats.admitted.load(Ordering::Relaxed)
    }

    /// Run the graceful-drain protocol to completion (blocking): flip
    /// readiness, wait out the grace, cancel stragglers, stop accepting.
    pub fn drain(&self) {
        run_drain(&self.drain, self.drain_grace);
    }

    /// Wait for the accept loop and every worker to exit. Call after
    /// [`ServerHandle::drain`]; joining a serving handle blocks forever.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// The single-process daemon routes requests to [`AppState`]'s tasks;
/// `/metrics` is text and bypasses the JSON router.
impl Service for AppState {
    fn respond(&self, req: &Request) -> ServiceReply {
        if req.method == "GET" && req.path == "/metrics" {
            return ServiceReply::Text(200, telemetry::render());
        }
        // Response cache: the key is computed exactly once per request —
        // it pins the dataset version this request is answered against,
        // so a concurrent dataset swap can never file a reply under the
        // new version's key (the stale entry lands under the old version,
        // which no future lookup resolves to).
        let key = self.cache_key(req);
        if let Some(key) = &key {
            if let Some(bytes) = self.cache_lookup(key) {
                return ServiceReply::Bytes(200, bytes);
            }
        }
        let (status, body) = handle(self, req);
        if let Some(key) = key {
            if let Some(bytes) = self.cache_store(key, status, &body) {
                // Serve the exact bytes that were stored, so a later hit
                // is a byte-identical replay of this reply.
                return ServiceReply::Bytes(status, bytes);
            }
        }
        ServiceReply::Json(status, body)
    }

    fn drain_handle(&self) -> &Arc<DrainState> {
        &self.drain
    }
}

/// Bind, spawn the accept loop and worker pool, and return the handle.
pub fn spawn(config: ServeConfig) -> Result<ServerHandle, DeptreeError> {
    let drain = DrainState::new();
    let mut datasets = BTreeMap::new();
    for (name, r) in config.datasets {
        // Resident-footprint gauge per table: the columnar estimate at
        // preload. The router refreshes it after each task, when lazy
        // views (sorted runs, packed numerics) have materialized.
        telemetry::dataset_bytes(&name).set(r.approx_bytes() as i64);
        datasets.insert(name, r);
    }
    let app = Arc::new(AppState::new(
        datasets,
        drain,
        config.threads.max(1),
        config.default_deadline,
        config.max_deadline,
        config.response_cache_bytes,
    ));
    let opts = ListenOpts {
        addr: config.addr,
        max_connections: config.max_connections,
        queue_depth: config.queue_depth,
        workers: config.workers,
        read_timeout: config.read_timeout,
        frame_timeout: config.frame_timeout,
        write_timeout: config.write_timeout,
        limits: config.limits,
        drain_grace: config.drain_grace,
        max_requests_per_conn: config.max_requests_per_conn,
        keepalive_idle: config.keepalive_idle,
    };
    spawn_service(opts, app)
}

/// Bind, spawn the accept loop and worker pool for an arbitrary
/// [`Service`], and return the handle. The service's own
/// [`DrainState`] drives the lifecycle, so one drain covers both the
/// transport and whatever the service tracks in flight.
pub fn spawn_service(
    opts: ListenOpts,
    service: Arc<impl Service>,
) -> Result<ServerHandle, DeptreeError> {
    let listener = TcpListener::bind(&opts.addr).map_err(|e| DeptreeError::Io {
        path: opts.addr.clone(),
        message: format!("bind failed: {e}"),
    })?;
    let addr = listener.local_addr().map_err(|e| DeptreeError::Io {
        path: opts.addr.clone(),
        message: format!("local_addr failed: {e}"),
    })?;
    listener
        .set_nonblocking(true)
        .map_err(|e| DeptreeError::Io {
            path: opts.addr.clone(),
            message: format!("set_nonblocking failed: {e}"),
        })?;

    // Register every metric family before the first request, so an early
    // scrape (or the CI smoke) sees all required series at zero.
    let _ = telemetry::serve_metrics();

    let drain = Arc::clone(service.drain_handle());
    let (admission, rx) = Admission::new(opts.queue_depth, opts.max_connections);
    let stats = Arc::clone(&admission.stats);
    let rx = Arc::new(Mutex::new(rx));
    let io = IoConfig {
        read_timeout: opts.read_timeout,
        frame_timeout: opts.frame_timeout,
        write_timeout: opts.write_timeout,
        limits: opts.limits,
        max_requests_per_conn: opts.max_requests_per_conn,
        keepalive_idle: opts.keepalive_idle,
    };

    let mut workers = Vec::with_capacity(opts.workers.max(1));
    for i in 0..opts.workers.max(1) {
        let service = Arc::clone(&service);
        let rx = Arc::clone(&rx);
        workers.push(
            std::thread::Builder::new()
                .name(format!("deptree-worker-{i}"))
                .spawn(move || worker_loop(service.as_ref(), &rx, &io))
                .map_err(|e| DeptreeError::Io {
                    path: "worker".into(),
                    message: e.to_string(),
                })?,
        );
    }

    let accept_drain = Arc::clone(&drain);
    let accept = std::thread::Builder::new()
        .name("deptree-accept".to_owned())
        .spawn(move || accept_loop(&listener, &admission, &accept_drain, &io))
        .map_err(|e| DeptreeError::Io {
            path: "accept".into(),
            message: e.to_string(),
        })?;

    Ok(ServerHandle {
        addr,
        drain,
        drain_grace: opts.drain_grace,
        accept: Some(accept),
        workers,
        stats,
    })
}

/// Per-connection I/O settings shared by accept and worker threads.
#[derive(Debug, Clone, Copy)]
struct IoConfig {
    read_timeout: Duration,
    frame_timeout: Duration,
    write_timeout: Duration,
    limits: Limits,
    max_requests_per_conn: usize,
    keepalive_idle: Duration,
}

/// How long the accept loop sleeps when there is nothing to accept.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

fn accept_loop(listener: &TcpListener, admission: &Admission, drain: &DrainState, io: &IoConfig) {
    while !drain.is_finished() {
        match listener.accept() {
            Ok((stream, _)) => {
                // The listener is nonblocking; the accepted socket must
                // not be, or every worker read would spin on WouldBlock.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                if let Err((stream, reason)) = admission.try_admit(stream) {
                    shed(stream, reason, io);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => {
                // Transient accept failure (EMFILE, aborted handshake);
                // back off briefly instead of spinning.
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
    // Dropping `admission` here closes the queue; workers drain what is
    // left and exit on the disconnect.
}

/// Answer a shed connection with `429 overloaded` (best effort) and
/// close it. Runs on the accept thread, so it must stay cheap: a short
/// write timeout bounds it.
fn shed(mut stream: TcpStream, reason: ShedReason, io: &IoConfig) {
    telemetry::serve_metrics().shed(reason).inc();
    let _ = stream.set_write_timeout(Some(io.write_timeout.min(Duration::from_millis(500))));
    let (code, detail) = match reason {
        ShedReason::Connections => (ErrorCode::Overloaded, "connection cap reached"),
        ShedReason::Queue => (ErrorCode::Overloaded, "request queue full"),
        ShedReason::Closed => (ErrorCode::Draining, "server is shutting down"),
    };
    let _ = write_response(
        &mut stream,
        code.http_status(),
        &error_body(code, detail),
        false,
    );
}

/// How long a worker blocks on the queue before re-checking liveness.
const WORKER_POLL: Duration = Duration::from_millis(50);

fn worker_loop(service: &dyn Service, rx: &Mutex<Receiver<crate::admission::Conn>>, io: &IoConfig) {
    loop {
        // Hold the lock only for the timed receive, never while serving.
        let conn = {
            let rx = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            rx.recv_timeout(WORKER_POLL)
        };
        match conn {
            Ok(conn) => serve_conn(service, conn, io),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Wait up to `idle` for the first byte of a follow-up request on a
/// reused connection. `peek` leaves the byte in the socket buffer for
/// `read_request`. Returns `false` on idle timeout, peer close, or any
/// socket error — all of which mean "stop reusing this connection".
fn next_request_arrives(stream: &TcpStream, idle: Duration) -> bool {
    if stream
        .set_read_timeout(Some(idle.max(Duration::from_millis(1))))
        .is_err()
    {
        return false;
    }
    let mut probe = [0u8; 1];
    match stream.peek(&mut probe) {
        Ok(n) => n > 0,
        Err(_) => false,
    }
}

/// Serve one connection: up to `max_requests_per_conn` sequential
/// request/response exchanges, then close.
///
/// Each request gets a fresh [`FrameClock`] — the slow-loris budget is
/// per frame, not per connection, so a long-lived well-behaved client is
/// never starved by its own history. Bytes read past one frame's end are
/// carried into the next parse (`carry`), which is what makes client-side
/// pipelining safe. Any framing error is answered (best effort) with
/// `Connection: close` and ends the connection: after a malformed frame
/// the stream position is untrusted and resynchronizing would be
/// guesswork.
fn serve_conn(service: &dyn Service, mut conn: crate::admission::Conn, io: &IoConfig) {
    // `conn` stays whole for the duration: its admission slot is the
    // "in service" claim and must not release until the socket closes.
    let stream = &mut conn.stream;
    if stream.set_write_timeout(Some(io.write_timeout)).is_err() {
        return;
    }
    // No Nagle: each response leaves in one write, and batching it
    // against the client's delayed ACK would stall every keep-alive
    // round trip by tens of milliseconds.
    if stream.set_nodelay(true).is_err() {
        return;
    }
    let metrics = telemetry::serve_metrics();
    metrics.admitted.inc();
    let mut carry: Vec<u8> = Vec::new();
    let max_requests = io.max_requests_per_conn.max(1);
    for served in 1..=max_requests {
        // Between requests, with no pipelined bytes already in hand,
        // give the client one short idle window to start its next frame.
        if served > 1 && carry.is_empty() && !next_request_arrives(stream, io.keepalive_idle) {
            break;
        }
        let clock = FrameClock::start(io.read_timeout, io.frame_timeout);
        let req = match read_request(stream, &io.limits, &clock, &mut carry) {
            Ok(req) => req,
            Err(crate::protocol::ProtoError::Closed) => break, // nobody to answer
            Err(e) => {
                let code = e.code();
                metrics.requests("other", code.http_status()).inc();
                let _ = write_response(
                    stream,
                    code.http_status(),
                    &error_body(code, &e.message()),
                    false,
                );
                break;
            }
        };
        let started = std::time::Instant::now();
        // The in-flight gauge brackets respond() itself; the panic
        // barrier below guarantees the decrement runs even when the
        // handler panics.
        metrics.inflight.add(1);
        // Last-resort panic barrier: a handler bug must cost one
        // request, not the worker thread (and with it 1/N of the
        // server's capacity).
        let reply = match catch_unwind(AssertUnwindSafe(|| service.respond(&req))) {
            Ok(reply) => reply,
            Err(_) => ServiceReply::Json(
                ErrorCode::Internal.http_status(),
                error_body(ErrorCode::Internal, "request handler panicked"),
            ),
        };
        metrics.inflight.add(-1);
        metrics.latency.observe_duration(started.elapsed());
        // Decided after respond(), not before: a drain that began while
        // this request was computing must close the connection behind
        // the in-flight reply, not hand the client a dead socket.
        let keep = req.keep_alive && served < max_requests && !service.drain_handle().is_draining();
        metrics.requests(&req.path, reply_status(&reply)).inc();
        let wrote = match reply {
            ServiceReply::Text(status, text) => write_text_response(stream, status, &text, keep),
            ServiceReply::Bytes(status, bytes) => {
                write_json_bytes_response(stream, status, &bytes, keep)
            }
            ServiceReply::Json(status, body) => write_response(stream, status, &body, keep),
        };
        if wrote.is_err() || !keep {
            break;
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
    // `conn` drops here, releasing its admission slot.
}

fn reply_status(reply: &ServiceReply) -> u16 {
    match reply {
        ServiceReply::Text(status, _)
        | ServiceReply::Bytes(status, _)
        | ServiceReply::Json(status, _) => *status,
    }
}
