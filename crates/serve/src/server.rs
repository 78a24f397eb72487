//! The serving front: a readiness event loop over nonblocking sockets,
//! a bounded-queue admission gate, a worker pool that batches
//! same-dataset probes, and a graceful drain path.
//!
//! One thread owns every socket (accept, read, frame parse, admission,
//! response write); `workers` threads pull admitted jobs from the
//! bounded [`QueueSet`] and run them through the engine. Workers hand
//! fully encoded response frames back through a completion list plus a
//! wake pipe, so the socket thread never blocks on the engine and the
//! engine threads never touch a socket.
//!
//! Admission happens *before* a request costs anything: draining, frame
//! and dataset validation, the per-connection in-flight cap, and the
//! bounded queue are all checked on the event loop, and every refusal
//! is an explicit wire response carrying a §5-derived `retry_after_ms`
//! where retrying makes sense. Nothing is ever silently dropped: every
//! admitted request is answered exactly once, or its connection is
//! closed by an injected fault — never neither.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use msj_core::{Request, SpatialEngine};
use msj_fault::{FaultConfig, FaultSession, WireAction};
use msj_geom::{CancelToken, Point, Rect};
use msj_obs::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::poll::{new_poller, Event, Poller};
use crate::protocol::{
    decode_request, encode_response, response_body_for, retry_after_ms, selection_body,
    ResponseBody, ShedReason, WireRequestBody, MAX_REQUEST_FRAME,
};
use crate::queue::{Job, QueueKey, QueueSet};

/// Server tuning knobs. Every field is plain data with a sensible
/// default; construct with struct-update syntax.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back via
    /// [`Server::addr`]).
    pub addr: String,
    /// Engine worker threads pulling from the queues.
    pub workers: usize,
    /// Per-dataset-pair queue bound; a full queue sheds.
    pub queue_bound: usize,
    /// Largest same-kind selection run popped as one shared descent.
    pub batch_max: usize,
    /// Largest accepted request-frame body, in bytes.
    pub max_frame: u32,
    /// Per-connection cap on admitted-but-unanswered requests.
    pub conn_inflight_cap: usize,
    /// How long a partially received frame may stall before the
    /// connection is closed.
    pub read_timeout: Duration,
    /// How long a pending response may go without write progress before
    /// the connection is closed.
    pub write_timeout: Duration,
    /// How long a quiet connection (no pending work either way) is kept.
    pub idle_timeout: Duration,
    /// Budget for [`Server::shutdown`] to complete queued and in-flight
    /// work before queued jobs are answered `Draining` and running ones
    /// are cancelled.
    pub drain_deadline: Duration,
    /// Wire fault plan for chaos tests; when disabled, falls back to
    /// `MSJ_FAULT_PLAN`/`MSJ_FAULT_SEED`.
    pub fault: FaultConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_bound: 64,
            batch_max: 16,
            max_frame: MAX_REQUEST_FRAME,
            conn_inflight_cap: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(120),
            drain_deadline: Duration::from_secs(10),
            fault: FaultConfig::disabled(),
        }
    }
}

/// What the drain accomplished, reported by [`Server::join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Whether every admitted request was answered and flushed within
    /// the drain deadline (plus a short cancellation grace).
    pub clean: bool,
    /// Queued jobs answered `Draining` because the deadline passed.
    pub abandoned_queued: usize,
    /// In-flight requests cancelled when the deadline passed.
    pub cancelled_inflight: usize,
}

/// Extra slack granted after the drain deadline for cancelled work to
/// unwind cooperatively before the loop force-exits.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Poll timeout: bounds wake latency for timeouts and drain checks.
const TICK_MS: i32 = 50;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// One encoded response frame routed back to a connection.
struct Completion {
    conn: u64,
    frame: Vec<u8>,
    /// Admission-time anchor of the e2e latency sample; `None` for
    /// responses synthesized outside the admitted path.
    received: Option<Instant>,
}

/// State shared between the event loop, the workers, and [`Server`]
/// handles.
struct Shared {
    engine: Arc<SpatialEngine>,
    queues: QueueSet,
    completions: Mutex<Vec<Completion>>,
    /// Cancel tokens of requests a worker is executing right now, so the
    /// drain deadline can cancel them through the one token path.
    executing: Mutex<HashMap<u64, CancelToken>>,
    next_exec: AtomicUsize,
    /// Requests admitted and not yet answered (queued + executing +
    /// completion pending).
    inflight: AtomicUsize,
    shutdown: AtomicBool,
    wake: UnixStream,
    metrics: ServeMetrics,
}

/// Every serving instrument, resolved once at [`Server::start`]: the
/// worker and event loops record through these handles and never look a
/// metric up by name.
struct ServeMetrics {
    join_queue_depth: Arc<Gauge>,
    selection_queue_depth: Arc<Gauge>,
    queue_wait: Arc<Histogram>,
    batch_size: Arc<Histogram>,
    e2e: Arc<Histogram>,
    /// `msj_request_shed_total{reason}`, indexed by [`ShedReason`].
    shed: [Arc<Counter>; 3],
    /// `msj_conn_timeouts_total{kind}`, in [`TIMEOUT_KINDS`] order.
    conn_timeouts: [Arc<Counter>; 3],
    connections_total: Arc<Counter>,
    connections_open: Arc<Gauge>,
    frames_too_large: Arc<Counter>,
    frames_malformed: Arc<Counter>,
    draining_responses: Arc<Counter>,
}

/// `kind` labels of `msj_conn_timeouts_total`.
const TIMEOUT_KINDS: [&str; 3] = ["read", "write", "idle"];

impl Shared {
    fn wake(&self) {
        let _ = (&self.wake).write(&[1]);
    }

    fn publish_depths(&self) {
        let (join, select) = self.queues.depths();
        self.metrics.join_queue_depth.set(join as f64);
        self.metrics.selection_queue_depth.set(select as f64);
    }

    fn count_shed(&self, reason: ShedReason) {
        self.metrics.shed[reason as usize].inc();
    }
}

/// A running server. Dropping the handle does **not** stop it; call
/// [`Server::shutdown`] then [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    handle: Option<JoinHandle<DrainReport>>,
}

impl Server {
    /// Binds, spawns the event loop and the worker pool, and returns
    /// once the listener is accepting.
    pub fn start(engine: Arc<SpatialEngine>, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;

        let metrics = describe_metrics(engine.metrics());
        let shared = Arc::new(Shared {
            metrics,
            engine,
            queues: QueueSet::new(config.queue_bound, config.batch_max),
            completions: Mutex::new(Vec::new()),
            executing: Mutex::new(HashMap::new()),
            next_exec: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            wake: wake_tx,
        });

        let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        let handle = {
            let shared = shared.clone();
            let config = config.clone();
            std::thread::spawn(move || {
                let mut state = EventLoop::new(listener, wake_rx, shared, config, workers);
                state.run()
            })
        };

        Ok(Server {
            addr,
            shared,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts a graceful drain: the listener closes, queued and
    /// in-flight requests complete, new requests answer `Draining`.
    /// Idempotent; returns immediately.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake();
    }

    /// Waits for the drain to finish and reports what it took.
    pub fn join(mut self) -> DrainReport {
        let handle = self.handle.take().expect("join called once");
        handle.join().unwrap_or(DrainReport {
            clean: false,
            abandoned_queued: 0,
            cancelled_inflight: 0,
        })
    }
}

/// Pre-registers every serving metric family so the Prometheus
/// exposition shows them (at zero) from the first scrape, and hands back
/// the resolved instruments.
fn describe_metrics(reg: &MetricsRegistry) -> ServeMetrics {
    reg.describe(
        "msj_queue_depth",
        "Requests waiting in the bounded serving queues, by queue kind.",
    );
    reg.describe(
        "msj_queue_wait_nanos",
        "Time admitted requests spent queued before a worker picked them up.",
    );
    reg.describe(
        "msj_request_shed_total",
        "Requests refused with a Shed response, by reason.",
    );
    reg.describe(
        "msj_conn_timeouts_total",
        "Connections closed by the read/write/idle timeout sweeps.",
    );
    reg.describe("msj_connections_total", "Connections ever accepted.");
    reg.describe("msj_connections_open", "Connections open right now.");
    reg.describe(
        "msj_frames_rejected_total",
        "Request frames refused before admission, by reason.",
    );
    reg.describe(
        "msj_serve_batch_size",
        "Jobs dispatched per worker pull (selection runs batch).",
    );
    reg.describe(
        "msj_serve_e2e_nanos",
        "Admission-to-response-enqueue latency per served request.",
    );
    reg.describe(
        "msj_draining_responses_total",
        "Requests answered Draining during shutdown.",
    );
    reg.describe(
        "msj_serve_requests_total",
        "Requests admitted into the serving queues, by kind.",
    );
    let metrics = ServeMetrics {
        join_queue_depth: reg.gauge("msj_queue_depth", &[("queue", "join")]),
        selection_queue_depth: reg.gauge("msj_queue_depth", &[("queue", "selection")]),
        queue_wait: reg.histogram("msj_queue_wait_nanos", &[]),
        batch_size: reg.histogram("msj_serve_batch_size", &[]),
        e2e: reg.histogram("msj_serve_e2e_nanos", &[]),
        shed: [
            ShedReason::QueueFull,
            ShedReason::Admission,
            ShedReason::ConnCap,
        ]
        .map(|reason| reg.counter("msj_request_shed_total", &[("reason", reason.label())])),
        conn_timeouts: TIMEOUT_KINDS
            .map(|kind| reg.counter("msj_conn_timeouts_total", &[("kind", kind)])),
        connections_total: reg.counter("msj_connections_total", &[]),
        connections_open: reg.gauge("msj_connections_open", &[]),
        frames_too_large: reg.counter("msj_frames_rejected_total", &[("reason", "too_large")]),
        frames_malformed: reg.counter("msj_frames_rejected_total", &[("reason", "malformed")]),
        draining_responses: reg.counter("msj_draining_responses_total", &[]),
    };
    metrics.join_queue_depth.set(0.0);
    metrics.selection_queue_depth.set(0.0);
    metrics.connections_open.set(0.0);
    metrics
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    let metrics = &shared.metrics;
    let mut batch: Vec<Job> = Vec::new();
    loop {
        batch.clear();
        let Some(key) = shared.queues.pop_batch(&mut batch) else {
            return;
        };
        shared.publish_depths();
        let picked = Instant::now();
        for job in &batch {
            let waited = picked.duration_since(job.received);
            metrics.queue_wait.record(waited.as_nanos() as u64);
        }
        metrics.batch_size.record(batch.len() as u64);

        let mut done: Vec<Completion> = Vec::with_capacity(batch.len());
        match key {
            QueueKey::Join(..) => {
                let job = batch.pop().expect("join batches hold one job");
                done.push(run_join(shared, job));
            }
            QueueKey::Select(dataset) => {
                run_selection_batch(shared, dataset, &mut batch, &mut done)
            }
        }
        for c in &done {
            if let Some(received) = c.received {
                metrics.e2e.record(received.elapsed().as_nanos() as u64);
            }
        }
        shared.completions.lock().expect("completions").extend(done);
        shared.wake();
    }
}

fn run_join(shared: &Shared, job: Job) -> Completion {
    let request = match job.body {
        WireRequestBody::Join { a, b } => Request::Join {
            a,
            b,
            execution: None,
        },
        WireRequestBody::SelfJoin { dataset } => Request::SelfJoin {
            dataset,
            execution: None,
        },
        ref other => unreachable!("join queue held {other:?}"),
    };
    // Park the token where the drain deadline can reach it, run, unpark.
    let slot = shared.next_exec.fetch_add(1, Ordering::Relaxed) as u64;
    shared
        .executing
        .lock()
        .expect("executing")
        .insert(slot, job.cancel.clone());
    let result = shared.engine.submit_with_cancel(request, &job.cancel);
    shared.executing.lock().expect("executing").remove(&slot);

    let body = response_body_for(&result);
    if let ResponseBody::Shed { reason, .. } = body {
        // Engine-side §5 admission refusals surface as wire sheds; keep
        // the shed counter complete across both shed sites.
        shared.count_shed(reason);
    }
    Completion {
        conn: job.conn,
        frame: encode_response(job.request_id, &body),
        received: Some(job.received),
    }
}

fn run_selection_batch(
    shared: &Shared,
    dataset: u32,
    batch: &mut Vec<Job>,
    done: &mut Vec<Completion>,
) {
    // Jobs whose deadline expired while queued answer without touching
    // the engine — the partial-work accounting is zero by construction.
    let mut live: Vec<Job> = Vec::with_capacity(batch.len());
    for job in batch.drain(..) {
        if job.cancel.is_cancelled() {
            let body = match job.cancel.reason() {
                Some(msj_geom::CancelReason::DeadlineExpired) => ResponseBody::DeadlineExceeded {
                    elapsed_ms: job.cancel.elapsed().as_millis() as u64,
                    partial_candidates: 0,
                },
                _ => ResponseBody::Cancelled {
                    partial_candidates: 0,
                },
            };
            done.push(Completion {
                conn: job.conn,
                frame: encode_response(job.request_id, &body),
                received: Some(job.received),
            });
        } else {
            live.push(job);
        }
    }
    if live.is_empty() {
        return;
    }
    let Some(handle) = shared.engine.dataset(dataset) else {
        for job in live {
            done.push(Completion {
                conn: job.conn,
                frame: encode_response(
                    job.request_id,
                    &ResponseBody::UnknownDataset { id: dataset },
                ),
                received: Some(job.received),
            });
        }
        return;
    };
    // One shared descent for the whole same-kind run: the queue
    // guarantees the batch is homogeneous.
    let responses = match live[0].body {
        WireRequestBody::Point { .. } => {
            let points: Vec<Point> = live
                .iter()
                .map(|job| match job.body {
                    WireRequestBody::Point { x, y, .. } => Point::new(x, y),
                    ref other => unreachable!("mixed selection batch: {other:?}"),
                })
                .collect();
            shared.engine.point_query_batch(&handle, &points)
        }
        WireRequestBody::Window { .. } => {
            let windows: Vec<Rect> = live
                .iter()
                .map(|job| match job.body {
                    WireRequestBody::Window { bounds, .. } => Rect::new(
                        Point::new(bounds[0], bounds[1]),
                        Point::new(bounds[2], bounds[3]),
                    ),
                    ref other => unreachable!("mixed selection batch: {other:?}"),
                })
                .collect();
            shared.engine.window_query_batch(&handle, &windows)
        }
        ref other => unreachable!("selection queue held {other:?}"),
    };
    debug_assert_eq!(responses.len(), live.len());
    for (job, response) in live.into_iter().zip(responses) {
        done.push(Completion {
            conn: job.conn,
            frame: encode_response(job.request_id, &selection_body(&response)),
            received: Some(job.received),
        });
    }
}

// ---------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    out_pos: usize,
    /// Admitted-but-unanswered requests from this connection.
    inflight: usize,
    /// When the currently incomplete inbound frame started arriving.
    frame_started: Option<Instant>,
    /// Last successful socket write while output was pending.
    last_write: Instant,
    last_activity: Instant,
    /// Whether EPOLLOUT interest is currently armed.
    want_write: bool,
    close_after_flush: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        let now = Instant::now();
        Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            out_pos: 0,
            inflight: 0,
            frame_started: None,
            last_write: now,
            last_activity: now,
            want_write: false,
            close_after_flush: false,
        }
    }

    fn has_output(&self) -> bool {
        self.out_pos < self.outbuf.len()
    }
}

struct EventLoop {
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    shared: Arc<Shared>,
    config: ServeConfig,
    workers: Vec<JoinHandle<()>>,
    poller: Box<dyn Poller>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    fault: FaultSession,
    /// `msj_fault_injected_total{site}` of the armed wire fault plan.
    fault_injected: Option<Arc<Counter>>,
    /// `msj_serve_requests_total{kind}` handles, by request kind.
    admitted: HashMap<&'static str, Arc<Counter>>,
    drain_started: Option<Instant>,
    deadline_fired: bool,
    abandoned_queued: usize,
    cancelled_inflight: usize,
}

impl EventLoop {
    fn new(
        listener: TcpListener,
        wake_rx: UnixStream,
        shared: Arc<Shared>,
        config: ServeConfig,
        workers: Vec<JoinHandle<()>>,
    ) -> Self {
        let mut poller = new_poller();
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, true, false);
        poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, true, false);
        let fault_config = if config.fault.enabled() {
            config.fault
        } else {
            FaultConfig::from_env()
        };
        let fault_injected = fault_config.kind.map(|kind| {
            let site = [("site", kind.site())];
            shared
                .engine
                .metrics()
                .counter("msj_fault_injected_total", &site)
        });
        EventLoop {
            fault_injected,
            admitted: HashMap::new(),
            listener: Some(listener),
            wake_rx,
            shared,
            config,
            workers,
            poller,
            conns: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            fault: FaultSession::new(fault_config),
            drain_started: None,
            deadline_fired: false,
            abandoned_queued: 0,
            cancelled_inflight: 0,
        }
    }

    fn run(&mut self) -> DrainReport {
        let mut events: Vec<Event> = Vec::new();
        let clean = loop {
            events.clear();
            self.poller.wait(TICK_MS, &mut events);
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.drain_wake_pipe(),
                    token => self.conn_ready(token, ev),
                }
            }
            self.deliver_completions();
            self.flush_all();
            self.sweep_timeouts();
            self.shared.publish_depths();
            let open = self.conns.len() as f64;
            self.shared.metrics.connections_open.set(open);
            if let Some(clean) = self.drain_step() {
                break clean;
            }
        };
        // Stop the workers (close wakes any blocked pop), flush what
        // their final completions added, then let sockets close on drop.
        self.shared.queues.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.deliver_completions();
        self.flush_all();
        self.shared.metrics.connections_open.set(0.0);
        DrainReport {
            clean,
            abandoned_queued: self.abandoned_queued,
            cancelled_inflight: self.cancelled_inflight,
        }
    }

    fn draining(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Advances the drain state machine; `Some(clean)` exits the loop.
    fn drain_step(&mut self) -> Option<bool> {
        if !self.draining() {
            return None;
        }
        let now = Instant::now();
        let started = *self.drain_started.get_or_insert(now);
        if let Some(listener) = self.listener.take() {
            self.poller.deregister(listener.as_raw_fd());
        }
        // Drain the sockets before judging settlement: frames already
        // received — including bytes still in the kernel buffer that no
        // readiness event has surfaced yet — must be answered (admission
        // converts them to `Draining`). Exiting with unread input would
        // reset the connection and silently discard those requests.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            match self.read_frames(token) {
                Ok(true) | Err(_) => self.close_conn(token),
                Ok(false) => {}
            }
        }
        let settled = self.shared.queues.is_empty()
            && self.shared.inflight.load(Ordering::Acquire) == 0
            && self.conns.values().all(|c| !c.has_output());
        if settled {
            return Some(!self.deadline_fired);
        }
        if now.duration_since(started) >= self.config.drain_deadline {
            if !self.deadline_fired {
                self.deadline_fired = true;
                // Queued work gets an explicit Draining each (never a
                // silent drop); running work is cancelled through its
                // own token and will answer Cancelled.
                for job in self.shared.queues.drain_all() {
                    self.abandoned_queued += 1;
                    self.shared.metrics.draining_responses.inc();
                    self.shared.inflight.fetch_sub(1, Ordering::AcqRel);
                    if let Some(conn) = self.conns.get_mut(&job.conn) {
                        conn.inflight = conn.inflight.saturating_sub(1);
                    }
                    let frame = encode_response(job.request_id, &ResponseBody::Draining);
                    self.queue_frame(job.conn, frame);
                }
                let executing = self.shared.executing.lock().expect("executing");
                for token in executing.values() {
                    token.cancel();
                    self.cancelled_inflight += 1;
                }
            }
            if now.duration_since(started) >= self.config.drain_deadline + DRAIN_GRACE {
                return Some(false);
            }
        }
        None
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    self.poller.register(stream.as_raw_fd(), token, true, false);
                    self.conns.insert(token, Conn::new(stream));
                    self.shared.metrics.connections_total.inc();
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn drain_wake_pipe(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn conn_ready(&mut self, token: u64, ev: Event) {
        if ev.readable {
            match self.read_frames(token) {
                Ok(true) | Err(_) => {
                    self.close_conn(token);
                    return;
                }
                Ok(false) => {}
            }
        }
        if ev.writable {
            if let Some(conn) = self.conns.get_mut(&token) {
                if flush_conn(conn).is_err() {
                    self.close_conn(token);
                }
            }
        }
    }

    /// Reads what the socket has and handles every complete frame.
    /// `Ok(true)` means EOF.
    fn read_frames(&mut self, token: u64) -> io::Result<bool> {
        let mut eof = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return Ok(false);
            };
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        if conn.inbuf.is_empty() {
                            conn.frame_started = Some(Instant::now());
                        }
                        conn.inbuf.extend_from_slice(&chunk[..n]);
                        conn.last_activity = Instant::now();
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }
        // Parse complete frames outside the borrow of the connection:
        // admission may synthesize responses onto other queues.
        loop {
            let frame = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return Ok(false);
                };
                if conn.inbuf.len() < 4 {
                    if conn.inbuf.is_empty() {
                        conn.frame_started = None;
                    }
                    break;
                }
                let declared = u32::from_le_bytes(conn.inbuf[..4].try_into().unwrap());
                if declared > self.config.max_frame {
                    // Cannot resync a stream after refusing to buffer a
                    // frame: answer and close.
                    self.shared.metrics.frames_too_large.inc();
                    conn.close_after_flush = true;
                    conn.inbuf.clear();
                    conn.frame_started = None;
                    let frame = encode_response(0, &ResponseBody::FrameTooLarge { declared });
                    self.queue_frame(token, frame);
                    break;
                }
                let total = 4 + declared as usize;
                if conn.inbuf.len() < total {
                    break;
                }
                let body: Vec<u8> = conn.inbuf[4..total].to_vec();
                conn.inbuf.drain(..total);
                if conn.inbuf.is_empty() {
                    conn.frame_started = None;
                } else {
                    conn.frame_started = Some(Instant::now());
                }
                body
            };
            self.handle_frame(token, &frame);
        }
        Ok(eof)
    }

    /// Admission: every path out of this function is an explicit wire
    /// response or an enqueued job.
    fn handle_frame(&mut self, token: u64, body: &[u8]) {
        let reg = self.shared.engine.metrics();
        let request = match decode_request(body) {
            Ok(request) => request,
            Err(message) => {
                self.shared.metrics.frames_malformed.inc();
                let frame = encode_response(0, &ResponseBody::BadRequest { message });
                self.queue_frame(token, frame);
                return;
            }
        };
        if self.draining() {
            self.shared.metrics.draining_responses.inc();
            let frame = encode_response(request.request_id, &ResponseBody::Draining);
            self.queue_frame(token, frame);
            return;
        }
        if matches!(request.body, WireRequestBody::Metrics) {
            let text = reg.render_prometheus();
            let frame = encode_response(request.request_id, &ResponseBody::Text(text));
            self.queue_frame(token, frame);
            return;
        }
        // Validate dataset ids before the request costs a queue slot.
        if let Some(unknown) = self.unknown_dataset(&request.body) {
            let frame = encode_response(
                request.request_id,
                &ResponseBody::UnknownDataset { id: unknown },
            );
            self.queue_frame(token, frame);
            return;
        }
        let key = QueueKey::for_body(&request.body).expect("metrics handled above");
        let inflight_here = self.conns.get(&token).map_or(0, |c| c.inflight);
        if inflight_here >= self.config.conn_inflight_cap {
            self.shared.count_shed(ShedReason::ConnCap);
            let (estimate, from_history) = self.estimate(&request.body);
            let frame = encode_response(
                request.request_id,
                &ResponseBody::Shed {
                    retry_after_ms: retry_after_ms(estimate, inflight_here as u64),
                    reason: ShedReason::ConnCap,
                    from_history,
                },
            );
            self.queue_frame(token, frame);
            return;
        }
        let cancel = if request.deadline_ms > 0 {
            CancelToken::with_deadline(Duration::from_millis(u64::from(request.deadline_ms)))
        } else {
            CancelToken::new()
        };
        let job = Job {
            conn: token,
            request_id: request.request_id,
            body: request.body,
            cancel,
            received: Instant::now(),
        };
        let pending_ahead = self.shared.queues.pending_for(key) as u64;
        match self.shared.queues.try_push(key, job) {
            Ok(()) => {
                self.shared.inflight.fetch_add(1, Ordering::AcqRel);
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.inflight += 1;
                }
                // Resolved on a kind's first admitted request: the family
                // has no samples before traffic, and the exposition says so.
                let kind = request.kind_label();
                let admitted = self
                    .admitted
                    .entry(kind)
                    .or_insert_with(|| reg.counter("msj_serve_requests_total", &[("kind", kind)]));
                admitted.inc();
                self.shared.publish_depths();
            }
            Err(job) => {
                // Queue at the bound: 429 now, with the model's guess at
                // when that backlog will have cleared.
                self.shared.count_shed(ShedReason::QueueFull);
                let (estimate, from_history) = self.estimate(&job.body);
                let frame = encode_response(
                    job.request_id,
                    &ResponseBody::Shed {
                        retry_after_ms: retry_after_ms(estimate, pending_ahead),
                        reason: ShedReason::QueueFull,
                        from_history,
                    },
                );
                self.queue_frame(token, frame);
            }
        }
    }

    fn unknown_dataset(&self, body: &WireRequestBody) -> Option<u32> {
        let missing = |id: u32| self.shared.engine.dataset(id).is_none().then_some(id);
        match *body {
            WireRequestBody::Join { a, b } => missing(a).or_else(|| missing(b)),
            WireRequestBody::SelfJoin { dataset }
            | WireRequestBody::Point { dataset, .. }
            | WireRequestBody::Window { dataset, .. } => missing(dataset),
            WireRequestBody::Metrics => None,
        }
    }

    /// The §5 estimate feeding a shed's retry hint — history-informed
    /// when the engine has run the pair before, a-priori otherwise.
    fn estimate(&self, body: &WireRequestBody) -> (f64, bool) {
        let request = match *body {
            WireRequestBody::Join { a, b } => Request::Join {
                a,
                b,
                execution: None,
            },
            WireRequestBody::SelfJoin { dataset } => Request::SelfJoin {
                dataset,
                execution: None,
            },
            WireRequestBody::Point { dataset, x, y } => Request::Point {
                dataset,
                point: Point::new(x, y),
            },
            WireRequestBody::Window { dataset, bounds } => Request::Window {
                dataset,
                window: Rect::new(
                    Point::new(bounds[0], bounds[1]),
                    Point::new(bounds[2], bounds[3]),
                ),
            },
            WireRequestBody::Metrics => return (0.0, false),
        };
        self.shared
            .engine
            .estimate_request(&request)
            .unwrap_or((0.0, false))
    }

    /// Routes one response frame onto a connection's output buffer,
    /// applying the wire fault plan at exactly this seam.
    fn queue_frame(&mut self, token: u64, frame: Vec<u8>) {
        let action = self.fault.on_response();
        if action != WireAction::Proceed {
            if let (Some(_), Some(injected)) = (self.fault.fired(), &self.fault_injected) {
                injected.inc();
            }
        }
        match action {
            WireAction::Proceed => {}
            WireAction::SlowThenProceed(stall) => {
                // A deliberately slow wire: the response still goes out,
                // later. Blocking the loop is the point — every other
                // connection observes the stall, as with a real
                // head-of-line blocking incident.
                std::thread::sleep(stall);
            }
            WireAction::ConnReset | WireAction::DropBeforeReply => {
                // Computed, then never sent: the client must treat the
                // close as request-failed.
                self.close_conn(token);
                return;
            }
            WireAction::PartialWrite => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    let cut = (frame.len() / 2).max(1);
                    conn.outbuf.extend_from_slice(&frame[..cut]);
                    conn.close_after_flush = true;
                    conn.last_write = Instant::now();
                }
                return;
            }
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            if !conn.has_output() {
                conn.last_write = Instant::now();
            }
            conn.outbuf.extend_from_slice(&frame);
        }
    }

    fn deliver_completions(&mut self) {
        let done: Vec<Completion> = {
            let mut lock = self.shared.completions.lock().expect("completions");
            std::mem::take(&mut *lock)
        };
        for completion in done {
            self.shared.inflight.fetch_sub(1, Ordering::AcqRel);
            if let Some(conn) = self.conns.get_mut(&completion.conn) {
                conn.inflight = conn.inflight.saturating_sub(1);
                self.queue_frame(completion.conn, completion.frame);
            }
            // A vanished connection simply discards the frame — the
            // request was still answered from the engine's perspective.
        }
    }

    fn flush_all(&mut self) {
        let tokens: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.has_output() || c.close_after_flush)
            .map(|(&t, _)| t)
            .collect();
        for token in tokens {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            match flush_conn(conn) {
                Err(_) => self.close_conn(token),
                Ok(flushed) => {
                    if flushed && conn_should_close(self.conns.get(&token)) {
                        self.close_conn(token);
                    } else {
                        self.rearm(token);
                    }
                }
            }
        }
    }

    fn rearm(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let wants = conn.has_output();
        if wants != conn.want_write {
            conn.want_write = wants;
            self.poller
                .modify(conn.stream.as_raw_fd(), token, true, wants);
        }
    }

    fn sweep_timeouts(&mut self) {
        let now = Instant::now();
        let mut doomed: Vec<(u64, &'static str)> = Vec::new();
        for (&token, conn) in &self.conns {
            if conn.has_output() && now.duration_since(conn.last_write) > self.config.write_timeout
            {
                doomed.push((token, "write"));
            } else if let Some(started) = conn.frame_started {
                if now.duration_since(started) > self.config.read_timeout {
                    doomed.push((token, "read"));
                }
            } else if conn.inflight == 0
                && !conn.has_output()
                && now.duration_since(conn.last_activity) > self.config.idle_timeout
            {
                doomed.push((token, "idle"));
            }
        }
        for (token, kind) in doomed {
            let slot = TIMEOUT_KINDS.iter().position(|known| *known == kind);
            self.shared.metrics.conn_timeouts[slot.expect("a timeout kind")].inc();
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.deregister(conn.stream.as_raw_fd());
            // In-flight jobs of this connection keep running; their
            // completions are discarded on delivery.
        }
    }
}

fn conn_should_close(conn: Option<&Conn>) -> bool {
    conn.is_some_and(|c| c.close_after_flush && !c.has_output())
}

/// Writes as much pending output as the socket accepts.
/// `Ok(true)` = buffer fully flushed.
fn flush_conn(conn: &mut Conn) -> io::Result<bool> {
    while conn.has_output() {
        match conn.stream.write(&conn.outbuf[conn.out_pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                conn.out_pos += n;
                conn.last_write = Instant::now();
                conn.last_activity = conn.last_write;
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    conn.outbuf.clear();
    conn.out_pos = 0;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::WireRequest;
    use msj_core::JoinConfig;
    use msj_datagen::small_carto;

    fn engine_with_datasets() -> (Arc<SpatialEngine>, u32, u32) {
        let engine = Arc::new(SpatialEngine::new(JoinConfig::default()));
        let a = engine.register(small_carto(60, 8.0, 11)).id();
        let b = engine.register(small_carto(60, 8.0, 23)).id();
        (engine, a, b)
    }

    fn start(engine: Arc<SpatialEngine>, config: ServeConfig) -> Server {
        Server::start(engine, config).expect("server starts")
    }

    #[test]
    fn serves_selections_and_joins_byte_identically_to_in_process_submits() {
        let (engine, a, b) = engine_with_datasets();
        let server = start(engine.clone(), ServeConfig::default());
        let mut client = Client::connect(server.addr()).expect("connect");

        let requests = vec![
            WireRequest::point(1, a, 0.4, 0.6),
            WireRequest::window(2, b, [0.1, 0.1, 0.5, 0.5]),
            WireRequest::join(3, a, b),
            WireRequest::self_join(4, a),
        ];
        for request in requests {
            let reply = client.call(&request).expect("reply");
            let expected = response_body_for(&engine.submit(to_request(&request.body)));
            let expected_frame = encode_response(request.request_id, &expected);
            assert_eq!(
                reply.frame, expected_frame,
                "wire frame differs from in-process encoding for {request:?}"
            );
        }
        server.shutdown();
        assert!(server.join().clean);
    }

    fn to_request(body: &WireRequestBody) -> Request {
        match *body {
            WireRequestBody::Join { a, b } => Request::Join {
                a,
                b,
                execution: None,
            },
            WireRequestBody::SelfJoin { dataset } => Request::SelfJoin {
                dataset,
                execution: None,
            },
            WireRequestBody::Point { dataset, x, y } => Request::Point {
                dataset,
                point: Point::new(x, y),
            },
            WireRequestBody::Window { dataset, bounds } => Request::Window {
                dataset,
                window: Rect::new(
                    Point::new(bounds[0], bounds[1]),
                    Point::new(bounds[2], bounds[3]),
                ),
            },
            WireRequestBody::Metrics => unreachable!(),
        }
    }

    #[test]
    fn unknown_dataset_and_malformed_frames_answer_explicitly() {
        let (engine, a, _) = engine_with_datasets();
        let server = start(engine, ServeConfig::default());
        let mut client = Client::connect(server.addr()).expect("connect");

        let reply = client
            .call(&WireRequest::point(7, 999, 0.0, 0.0))
            .expect("reply");
        assert_eq!(reply.body, ResponseBody::UnknownDataset { id: 999 });

        let reply = client.call(&WireRequest::join(8, a, 999)).expect("reply");
        assert_eq!(reply.body, ResponseBody::UnknownDataset { id: 999 });

        // A syntactically valid frame with an unknown kind byte.
        let mut raw = Vec::new();
        raw.extend_from_slice(&13u32.to_le_bytes());
        raw.extend_from_slice(&1u64.to_le_bytes());
        raw.extend_from_slice(&0u32.to_le_bytes());
        raw.push(99);
        client.send_raw(&raw).expect("send");
        let reply = client.recv().expect("reply");
        assert!(matches!(reply.body, ResponseBody::BadRequest { .. }));

        server.shutdown();
        server.join();
    }

    /// A NaN or infinite coordinate is a malformed frame: it is answered
    /// `BadRequest` and counted, never handed to the engine (where a
    /// window with a NaN bound would answer with ids).
    #[test]
    fn non_finite_coordinates_are_malformed_frames() {
        let (engine, a, _) = engine_with_datasets();
        let server = start(engine.clone(), ServeConfig::default());
        let mut client = Client::connect(server.addr()).expect("connect");
        let hostile = [
            WireRequest::point(1, a, f64::NAN, 0.5),
            WireRequest::point(2, a, 0.5, f64::INFINITY),
            WireRequest::window(3, a, [0.1, 0.1, f64::NAN, 0.5]),
            WireRequest::window(4, a, [f64::NEG_INFINITY, 0.1, 0.5, 0.5]),
        ];
        for request in &hostile {
            client.send(request).expect("send");
            let reply = client.recv().expect("reply");
            assert!(
                matches!(reply.body, ResponseBody::BadRequest { .. }),
                "{request:?} answered {:?}",
                reply.body
            );
        }
        let malformed = "msj_frames_rejected_total{reason=\"malformed\"}";
        let counted = engine.metrics().snapshot().counter(malformed);
        assert_eq!(counted, hostile.len() as u64);
        server.shutdown();
        server.join();
    }

    #[test]
    fn oversized_frames_are_rejected_and_the_connection_closed() {
        let (engine, _, _) = engine_with_datasets();
        let server = start(
            engine.clone(),
            ServeConfig {
                max_frame: 64,
                ..ServeConfig::default()
            },
        );
        let mut client = Client::connect(server.addr()).expect("connect");
        let mut raw = Vec::new();
        raw.extend_from_slice(&(1u32 << 20).to_le_bytes());
        raw.extend_from_slice(&[0u8; 32]);
        client.send_raw(&raw).expect("send");
        let reply = client.recv().expect("reply");
        assert_eq!(
            reply.body,
            ResponseBody::FrameTooLarge {
                declared: 1u32 << 20
            }
        );
        // The server closes after answering; the next read sees EOF.
        assert!(client.recv().is_err());
        assert_eq!(
            engine
                .metrics()
                .snapshot()
                .counter("msj_frames_rejected_total{reason=\"too_large\"}"),
            1
        );
        server.shutdown();
        server.join();
    }

    #[test]
    fn draining_server_refuses_new_requests_explicitly() {
        let engine = Arc::new(SpatialEngine::new(JoinConfig::default()));
        let a = engine.register(small_carto(250, 8.0, 11)).id();
        let b = engine.register(small_carto(250, 8.0, 23)).id();
        // One worker: the second join queues behind the first, so the
        // drain window is at least one full join wide.
        let server = start(
            engine,
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        );
        let mut client = Client::connect(server.addr()).expect("connect");
        client.send(&WireRequest::join(1, a, b)).expect("send");
        client.send(&WireRequest::self_join(2, b)).expect("send");
        std::thread::sleep(Duration::from_millis(20));
        server.shutdown();
        client
            .send(&WireRequest::point(3, a, 0.5, 0.5))
            .expect("send");
        for _ in 0..3 {
            let reply = client.recv().expect("reply");
            if reply.request_id == 3 {
                assert_eq!(reply.body, ResponseBody::Draining);
            } else {
                // The admitted joins still complete during the drain.
                assert!(reply.body.is_ok(), "admitted join failed: {:?}", reply.body);
            }
        }
        assert!(server.join().clean);
    }

    #[test]
    fn metrics_request_exposes_serving_families() {
        let (engine, a, _) = engine_with_datasets();
        let server = start(engine, ServeConfig::default());
        let mut client = Client::connect(server.addr()).expect("connect");
        client
            .call(&WireRequest::point(1, a, 0.5, 0.5))
            .expect("warm");
        let reply = client.call(&WireRequest::metrics(2)).expect("metrics");
        let ResponseBody::Text(text) = reply.body else {
            panic!("expected text body");
        };
        for family in [
            "msj_queue_depth",
            "msj_request_shed_total",
            "msj_conn_timeouts_total",
            "msj_connections_open",
            "msj_serve_batch_size",
        ] {
            assert!(text.contains(family), "exposition lacks {family}:\n{text}");
        }
        server.shutdown();
        server.join();
    }

    #[test]
    fn queue_full_sheds_carry_a_cost_model_retry_hint() {
        let (engine, a, b) = engine_with_datasets();
        // One worker, queue bound 1: the second and later concurrent
        // joins find the queue full while the first executes.
        let server = start(
            engine,
            ServeConfig {
                workers: 1,
                queue_bound: 1,
                ..ServeConfig::default()
            },
        );
        let mut client = Client::connect(server.addr()).expect("connect");
        let mut shed = None;
        for id in 0..24 {
            client
                .send(&WireRequest::join(id, a, b))
                .expect("send join");
        }
        for _ in 0..24 {
            let reply = client.recv().expect("reply");
            if let ResponseBody::Shed {
                retry_after_ms,
                reason,
                ..
            } = reply.body
            {
                assert_eq!(reason, ShedReason::QueueFull);
                assert!(retry_after_ms >= 1);
                shed = Some(retry_after_ms);
            }
        }
        assert!(
            shed.is_some(),
            "no queue-full shed under 24 pipelined joins"
        );
        server.shutdown();
        server.join();
    }

    #[test]
    fn conn_inflight_cap_sheds_excess_pipelining() {
        let (engine, a, b) = engine_with_datasets();
        let server = start(
            engine,
            ServeConfig {
                workers: 1,
                queue_bound: 256,
                conn_inflight_cap: 2,
                ..ServeConfig::default()
            },
        );
        let mut client = Client::connect(server.addr()).expect("connect");
        for id in 0..12 {
            client.send(&WireRequest::join(id, a, b)).expect("send");
        }
        let mut conn_cap_sheds = 0;
        for _ in 0..12 {
            if let ResponseBody::Shed {
                reason: ShedReason::ConnCap,
                ..
            } = client.recv().expect("reply").body
            {
                conn_cap_sheds += 1;
            }
        }
        assert!(conn_cap_sheds > 0, "cap of 2 never shed under 12 pipelined");
        server.shutdown();
        server.join();
    }

    /// Satellite: admission-driven sheds carry a `retry_after_ms`
    /// derived from the §5 estimate, and the payload pins whether that
    /// estimate was history-informed — a-priori for a never-run pair,
    /// history-informed once the pair has produced statistics.
    #[test]
    fn admission_sheds_pin_a_priori_and_history_informed_retry_hints() {
        let (engine, a, b) = engine_with_datasets();
        engine.set_admission_limit(Some(0.0));
        let server = start(engine.clone(), ServeConfig::default());
        let mut client = Client::connect(server.addr()).expect("connect");

        // Never-run pair: the estimate can only be a-priori.
        let reply = client.call(&WireRequest::join(1, a, b)).expect("reply");
        match reply.body {
            ResponseBody::Shed {
                retry_after_ms,
                reason,
                from_history,
            } => {
                assert_eq!(reason, ShedReason::Admission);
                assert!(retry_after_ms >= 1);
                assert!(!from_history, "fresh pair cannot have history");
            }
            other => panic!("expected admission shed, got {other:?}"),
        }

        // Lift the limit, run the pair once, re-tighten: the refusal is
        // now grounded in observed statistics.
        engine.set_admission_limit(None);
        let reply = client.call(&WireRequest::join(2, a, b)).expect("reply");
        assert!(reply.body.is_ok());
        engine.set_admission_limit(Some(0.0));
        let reply = client.call(&WireRequest::join(3, a, b)).expect("reply");
        match reply.body {
            ResponseBody::Shed {
                retry_after_ms,
                reason,
                from_history,
            } => {
                assert_eq!(reason, ShedReason::Admission);
                assert!(retry_after_ms >= 1);
                assert!(from_history, "prepared pair must report history");
            }
            other => panic!("expected admission shed, got {other:?}"),
        }
        let shed_key = "msj_request_shed_total{reason=\"admission\"}";
        assert_eq!(engine.metrics().snapshot().counter(shed_key), 2);
        server.shutdown();
        server.join();
    }

    #[test]
    fn client_deadline_rides_the_engine_token_path() {
        let (engine, a, b) = engine_with_datasets();
        // Zero-millisecond deadline: expired by the time a worker looks.
        let server = start(engine, ServeConfig::default());
        let mut client = Client::connect(server.addr()).expect("connect");
        let reply = client
            .call(&WireRequest::join(5, a, b).with_deadline_ms(1))
            .expect("reply");
        match reply.body {
            ResponseBody::DeadlineExceeded { .. } | ResponseBody::Cancelled { .. } => {}
            // A fast machine can legitimately finish inside 1 ms.
            ref body if body.is_ok() => {}
            other => panic!("unexpected reply {other:?}"),
        }
        server.shutdown();
        server.join();
    }
}
