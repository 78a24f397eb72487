//! The serving front: blocking threads over `std::net` sockets, an
//! admission gate, selections answered on their connection's reader,
//! bounded join queues served by a worker pool, and a graceful drain.
//!
//! One thread accepts connections, and runs the drain once
//! [`Server::shutdown`] wakes it. Each connection has a *reader* and a
//! *writer* thread. The reader admits every complete frame of a read,
//! then answers the read's points and windows itself, each same-kind run
//! of at most `batch_max` through one batch call: a probe takes
//! microseconds, less than a hand-off to another thread. Joins go to the
//! bounded `QueueSet`, where `workers` threads run them and append each
//! reply to the job's connection outbox, never touching a socket. Whoever
//! holds the outbox's `writing` claim writes: the writer, or the reader,
//! which writes its own replies when the writer is idle. A parked writer
//! is woken only by frames it can claim, the end of input or a close, and
//! a parked reader only by freed room or a close (see `Outbox`).
//!
//! Admission happens *before* a request costs anything: draining, frame
//! and dataset validation, the per-connection in-flight cap, and a join's
//! queue bound are all checked on the reader, and every refusal is an
//! explicit wire response carrying a §5-derived `retry_after_ms` where
//! retrying makes sense. A reader stops reading while it writes or while
//! its outbox holds `OUTBOX_BYTES` unwritten, so a client that does not
//! read its replies is pushed back by TCP instead of buffered, and delays
//! no other connection. Nothing is ever silently dropped: every admitted
//! request is answered exactly once, or its connection is closed by a
//! timeout or an injected fault — never neither.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use msj_core::{Request, SpatialEngine};
use msj_fault::{FaultSession, WireAction};
use msj_geom::{CancelToken, Point, Rect};
use msj_obs::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::protocol::{
    decode_request, encode_response, encode_response_into, response_body_for, retry_after_ms,
    selection_body, ResponseBody, ShedReason, WireRequestBody, MAX_REQUEST_FRAME,
};
use crate::queue::{Job, QueueKey, QueueSet};

/// Server tuning knobs. Every field is plain data with a sensible
/// default; construct with struct-update syntax.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back via
    /// [`Server::addr`]).
    pub addr: String,
    /// Engine worker threads running joins from the queues. Selections
    /// run on their connection's reader instead.
    pub workers: usize,
    /// Per-dataset-pair join queue bound; a full queue sheds the join.
    /// Selections are bounded by `conn_inflight_cap` and TCP push-back.
    pub queue_bound: usize,
    /// Largest same-kind run of a read's selections answered as one
    /// shared descent.
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
    /// work before queued joins are answered `Draining` and running ones
    /// are cancelled.
    pub drain_deadline: Duration,
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
        }
    }
}

/// What the drain accomplished, reported by [`Server::join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrainReport {
    /// Whether every admitted request was answered and flushed within
    /// the drain deadline (plus a short cancellation grace).
    pub clean: bool,
    /// Queued joins answered `Draining` because the deadline passed.
    pub abandoned_queued: usize,
    /// In-flight requests cancelled when the deadline passed.
    pub cancelled_inflight: usize,
}

/// Extra slack granted after the drain deadline for cancelled work to
/// unwind cooperatively before the drain gives up.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// How often the drain checks whether the admitted work has settled.
const TICK: Duration = Duration::from_millis(5);

/// Unwritten reply bytes at which a connection's reader stops reading.
const OUTBOX_BYTES: usize = 256 * 1024;

/// State shared between the accepting thread, the connection threads,
/// the workers, and [`Server`] handles.
struct Shared {
    engine: Arc<SpatialEngine>,
    config: ServeConfig,
    queues: QueueSet,
    /// Cancel tokens of joins a worker is executing right now, so the
    /// drain deadline can cancel them through the one token path.
    executing: Mutex<HashMap<u64, CancelToken>>,
    next_exec: AtomicUsize,
    /// Requests admitted and not yet answered (queued or executing).
    inflight: AtomicUsize,
    /// Connections whose threads are still running.
    open: AtomicUsize,
    shutdown: AtomicBool,
    /// The engine's fault plan, armed at the wire; whoever writes a frame
    /// consults it once.
    fault: FaultSession,
    metrics: ServeMetrics,
}

/// Every serving instrument, resolved once at [`Server::start`]: the
/// serving threads record through these handles and never look a metric
/// up by name.
struct ServeMetrics {
    join_queue_depth: Arc<Gauge>,
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

/// `kind` labels of `msj_conn_timeouts_total`, indexed by [`READ`],
/// [`WRITE`] and [`IDLE`].
const TIMEOUT_KINDS: [&str; 3] = ["read", "write", "idle"];
const READ: usize = 0;
const WRITE: usize = 1;
const IDLE: usize = 2;

impl Shared {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn publish_depth(&self) {
        let depth = self.queues.depth();
        self.metrics.join_queue_depth.set(depth as f64);
    }

    fn count_open(&self, opened: bool) {
        let open = if opened {
            self.open.fetch_add(1, Ordering::AcqRel) + 1
        } else {
            self.open.fetch_sub(1, Ordering::AcqRel) - 1
        };
        self.metrics.connections_open.set(open as f64);
    }

    /// The wire fault plan's verdict on the next frame written, counted
    /// when it fires.
    fn wire_fault(&self) -> WireAction {
        let action = self.fault.on_response();
        if let Some(site) = self.fault.fired().filter(|_| action != WireAction::Proceed) {
            let site = [("site", site)];
            let metrics = self.engine.metrics();
            metrics.counter("msj_fault_injected_total", &site).inc();
        }
        action
    }

    fn unknown_dataset(&self, body: &WireRequestBody) -> Option<u32> {
        let missing = |id: u32| self.engine.dataset(id).is_none().then_some(id);
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
        body.to_request()
            .and_then(|request| self.engine.estimate_request(&request))
            .unwrap_or((0.0, false))
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
    /// Binds, spawns the accepting thread and the worker pool, and
    /// returns once the listener is accepting.
    pub fn start(engine: Arc<SpatialEngine>, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            metrics: describe_metrics(engine.metrics()),
            queues: QueueSet::new(config.queue_bound),
            config,
            executing: Mutex::new(HashMap::new()),
            next_exec: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            open: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            fault: engine.fault_session(),
            engine,
        });

        let workers: Vec<JoinHandle<()>> = (0..shared.config.workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        let handle = {
            let shared = shared.clone();
            std::thread::spawn(move || serve(listener, shared, workers))
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
        // Wake the accepting thread, which then closes the listener.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            let loopback: std::net::IpAddr = match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            };
            wake.set_ip(loopback);
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
    }

    /// Waits for the drain to finish and reports what it took.
    pub fn join(mut self) -> DrainReport {
        let handle = self.handle.take().expect("join called once");
        handle.join().unwrap_or_default()
    }
}

/// Pre-registers every serving metric family so the Prometheus
/// exposition shows them (at zero) from the first scrape, and hands back
/// the resolved instruments.
fn describe_metrics(reg: &MetricsRegistry) -> ServeMetrics {
    reg.describe(
        "msj_queue_depth",
        "Joins waiting in the bounded serving queues, by queue kind.",
    );
    reg.describe(
        "msj_queue_wait_nanos",
        "Time from admission until a worker starts the join or a reader the selection's run.",
    );
    reg.describe(
        "msj_request_shed_total",
        "Requests refused with a Shed response, by reason.",
    );
    reg.describe(
        "msj_conn_timeouts_total",
        "Connections closed by the read-stall, write-stall and idle timeouts.",
    );
    reg.describe("msj_connections_total", "Connections ever accepted.");
    reg.describe("msj_connections_open", "Connections open right now.");
    reg.describe(
        "msj_frames_rejected_total",
        "Request frames refused before admission, by reason.",
    );
    reg.describe(
        "msj_serve_batch_size",
        "Requests per dispatch: one per join, the run's length per selection run.",
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
        "Requests admitted for serving, by kind.",
    );
    let metrics = ServeMetrics {
        join_queue_depth: reg.gauge("msj_queue_depth", &[("queue", "join")]),
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
    metrics.connections_open.set(0.0);
    metrics
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    let metrics = &shared.metrics;
    while let Some(job) = shared.queues.pop() {
        shared.publish_depth();
        metrics
            .queue_wait
            .record(job.received.elapsed().as_nanos() as u64);
        metrics.batch_size.record(1);
        let body = run_join(shared, &job);
        metrics.e2e.record(job.received.elapsed().as_nanos() as u64);
        job.reply.push(&encode_response(job.request_id, &body));
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

fn run_join(shared: &Shared, job: &Job) -> ResponseBody {
    let request = job.body.to_request().expect("the join queue holds joins");
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
        shared.metrics.shed[reason as usize].inc();
    }
    body
}

// ---------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------

/// Where a connection's replies wait to be written. Every admitted join's
/// [`Job`] carries its connection's outbox, so whoever answers the job —
/// a worker, or the drain — appends the frame here; the reader hands its
/// own replies over in one piece per read.
///
/// The writer and the reader may park on it, each on a condvar of its
/// own, and a change signals a parked thread only when it can act: the
/// writer on frames it can claim (a worker's push, or a released claim
/// with frames pushed meanwhile), on the end of input with nothing in
/// flight or pending, or on close; the reader on room freed below
/// `OUTBOX_BYTES`, or on close. A reply the reader writes itself wakes
/// no one.
#[derive(Debug)]
pub(crate) struct Outbox {
    state: Mutex<OutboxState>,
    /// Where the writer parks, in [`Outbox::take`], and the reader, in
    /// [`Outbox::wait_for_room`].
    writer: Condvar,
    reader: Condvar,
}

#[derive(Debug)]
struct OutboxState {
    /// Whole encoded frames no one has claimed for writing yet.
    pending: Vec<u8>,
    /// Bytes in `pending` plus those a writing thread holds unwritten.
    unwritten: usize,
    /// Whether the reader or the writer is writing claimed frames now.
    writing: bool,
    /// Whether the writer / the reader is parked and not yet signalled.
    writer_parked: bool,
    reader_parked: bool,
    /// Admitted requests from this connection not yet answered.
    inflight: usize,
    /// When a byte was last read or written.
    last_activity: Instant,
    /// The reader has stopped: the writer ends the connection once every
    /// admitted request is answered and written.
    input_done: bool,
    /// The connection is over; frames pushed now are discarded.
    closed: bool,
}

impl OutboxState {
    /// Claims the writing, moving every pending frame into `out` (which
    /// is empty); `false` when someone writes already or nothing waits.
    fn claim(&mut self, out: &mut Vec<u8>) -> bool {
        if self.writing || self.closed || self.pending.is_empty() {
            return false;
        }
        self.writing = true;
        std::mem::swap(out, &mut self.pending);
        true
    }

    /// Whether the writer is done: the connection is closed, or the
    /// reader stopped and every reply is answered and claimed.
    fn over(&self) -> bool {
        self.closed || (self.input_done && self.inflight == 0 && self.pending.is_empty())
    }

    /// Whether a parked writer could claim frames or end now.
    fn writer_can_act(&self) -> bool {
        self.over() || (!self.writing && !self.pending.is_empty())
    }

    /// Whether a parked reader could read again or end now.
    fn reader_can_act(&self) -> bool {
        self.closed || self.unwritten < OUTBOX_BYTES
    }
}

impl Outbox {
    pub(crate) fn new() -> Outbox {
        Outbox {
            state: Mutex::new(OutboxState {
                pending: Vec::new(),
                unwritten: 0,
                writing: false,
                writer_parked: false,
                reader_parked: false,
                inflight: 0,
                last_activity: Instant::now(),
                input_done: false,
                closed: false,
            }),
            writer: Condvar::new(),
            reader: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, OutboxState> {
        self.state.lock().expect("outbox lock poisoned")
    }

    /// Changes the state, then signals each parked thread that can act.
    fn update(&self, change: impl FnOnce(&mut OutboxState)) {
        let mut s = self.lock();
        change(&mut s);
        if s.writer_parked && s.writer_can_act() {
            s.writer_parked = false;
            self.writer.notify_one();
        }
        if s.reader_parked && s.reader_can_act() {
            s.reader_parked = false;
            self.reader.notify_one();
        }
    }

    /// Appends the reply frame to one admitted request.
    fn push(&self, frame: &[u8]) {
        self.update(|s| {
            s.inflight -= 1;
            if !s.closed {
                s.unwritten += frame.len();
                s.pending.extend_from_slice(frame);
            }
        });
    }

    /// The reader's hand-off of its frames, `answered` of them to admitted
    /// requests; `true` when it claimed the writing of every pending frame,
    /// now in `frames`. Wakes no one: a writing writer takes them next.
    fn hand_off(&self, frames: &mut Vec<u8>, answered: usize) -> bool {
        let mut s = self.lock();
        s.inflight -= answered;
        if s.closed {
            frames.clear();
            return false;
        }
        s.unwritten += frames.len();
        s.pending.append(frames);
        s.claim(frames)
    }

    /// Counts one more admitted request, unless `cap` are in flight
    /// already; then `Err` carries how many are.
    fn admit(&self, cap: usize) -> Result<(), usize> {
        let mut s = self.lock();
        if s.inflight >= cap {
            return Err(s.inflight);
        }
        s.inflight += 1;
        Ok(())
    }

    /// How long the connection has been quiet; `None` while a request is
    /// in flight or a reply unwritten.
    fn idle_for(&self) -> Option<Duration> {
        let s = self.lock();
        (s.inflight == 0 && s.unwritten == 0).then(|| s.last_activity.elapsed())
    }

    fn touch(&self) {
        self.lock().last_activity = Instant::now();
    }

    /// Blocks while the outbox is full; `false` once the connection is
    /// closed.
    fn wait_for_room(&self) -> bool {
        let mut s = self.lock();
        while !s.reader_can_act() {
            s.reader_parked = true;
            s = self.reader.wait(s).expect("outbox lock poisoned");
        }
        !s.closed
    }

    /// The writer's claim: blocks until it holds the writing with frames
    /// in `out`; `false` once the connection is over.
    fn take(&self, out: &mut Vec<u8>) -> bool {
        let mut s = self.lock();
        loop {
            if s.over() {
                return false;
            }
            if s.claim(out) {
                return true;
            }
            s.writer_parked = true;
            s = self.writer.wait(s).expect("outbox lock poisoned");
        }
    }

    /// Ends the connection's replies: pending frames are discarded, and
    /// both threads are signalled if parked.
    fn close(&self) {
        self.update(|s| {
            s.closed = true;
            s.unwritten -= s.pending.len();
            s.pending.clear();
        });
    }

    /// Releases the writing claim over `bytes` claimed bytes: written,
    /// or discarded by a fault.
    fn wrote(&self, bytes: usize) {
        self.update(|s| {
            s.writing = false;
            s.unwritten -= bytes;
            s.last_activity = Instant::now();
        });
    }
}

/// One client connection: the socket both of its threads use, and its
/// outbox.
struct Connection {
    stream: TcpStream,
    outbox: Arc<Outbox>,
}

impl Connection {
    /// Ends the connection now: unwritten replies are discarded, and
    /// shutting the socket wakes a blocked reader or writer.
    fn close(&self) {
        self.outbox.close();
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// The reader's and the writer's one write path: writes claimed frames,
    /// consulting the wire fault plan per frame, and releases the claim. A
    /// fault, an error or `write_timeout` without progress closes the
    /// connection and returns `false`.
    fn write_claimed(&self, shared: &Shared, bytes: &mut Vec<u8>) -> bool {
        let taken = bytes.len();
        let (mut at, mut end) = (0, taken);
        while at < taken {
            let header = bytes[at..at + 4].try_into().expect("four header bytes");
            let next = at + 4 + u32::from_le_bytes(header) as usize;
            match shared.wire_fault() {
                WireAction::Proceed => {}
                // A deliberately slow wire: the reply still goes out,
                // later. Only this connection waits.
                WireAction::SlowThenProceed(stall) => std::thread::sleep(stall),
                // Computed, then never sent: the client must treat the
                // close as request-failed.
                WireAction::ConnReset | WireAction::DropBeforeReply => end = at,
                WireAction::PartialWrite => end = at + ((next - at) / 2).max(1),
            }
            if end < taken {
                break;
            }
            at = next;
        }
        let written = (&self.stream).write_all(&bytes[..end]);
        bytes.clear();
        self.outbox.wrote(taken);
        match written {
            Ok(()) if end == taken => return true,
            Err(e) if stalled(&e) => shared.metrics.conn_timeouts[WRITE].inc(),
            _ => {}
        }
        self.close();
        false
    }
}

/// The accepting thread: spawns a reader per connection until shutdown,
/// then closes the listener, drains, and waits for every thread.
fn serve(listener: TcpListener, shared: Arc<Shared>, workers: Vec<JoinHandle<()>>) -> DrainReport {
    let mut conns: Vec<(Weak<Connection>, JoinHandle<()>)> = Vec::new();
    for stream in listener.incoming() {
        if shared.draining() {
            break;
        }
        match stream {
            Ok(stream) => {
                conns.retain(|(_, thread)| !thread.is_finished());
                conns.push(spawn_connection(stream, &shared));
            }
            // Out of descriptors and the like: back off instead of spinning.
            Err(_) => std::thread::sleep(TICK),
        }
    }
    drop(listener);
    let report = drain(&shared, &conns);
    // Stop the workers (close wakes any blocked pop); their last replies
    // land in the outboxes.
    shared.queues.close();
    for worker in workers {
        let _ = worker.join();
    }
    // Each reader sees EOF once it has read what already arrived, and
    // each writer ends its connection once the replies are written.
    for conn in conns.iter().filter_map(|(conn, _)| conn.upgrade()) {
        let _ = conn.stream.shutdown(Shutdown::Read);
    }
    for (_, thread) in conns {
        let _ = thread.join();
    }
    shared.metrics.connections_open.set(0.0);
    report
}

/// The drain state machine: waits until every admitted request is
/// answered and written, answering the queued joins `Draining` and
/// cancelling running ones once the deadline passes.
fn drain(shared: &Shared, conns: &[(Weak<Connection>, JoinHandle<()>)]) -> DrainReport {
    let started = Instant::now();
    let mut report = DrainReport::default();
    let mut deadline_fired = false;
    loop {
        let settled = shared.inflight.load(Ordering::Acquire) == 0
            && conns
                .iter()
                .filter_map(|(conn, _)| conn.upgrade())
                .all(|conn| conn.outbox.lock().unwritten == 0);
        if settled {
            report.clean = !deadline_fired;
            return report;
        }
        let waited = started.elapsed();
        if waited >= shared.config.drain_deadline && !deadline_fired {
            deadline_fired = true;
            // Queued work gets an explicit Draining each (never a silent
            // drop); running work is cancelled through its own token and
            // will answer Cancelled.
            for job in shared.queues.drain_all() {
                report.abandoned_queued += 1;
                shared.metrics.draining_responses.inc();
                job.reply
                    .push(&encode_response(job.request_id, &ResponseBody::Draining));
                shared.inflight.fetch_sub(1, Ordering::AcqRel);
            }
            shared.publish_depth();
            for token in shared.executing.lock().expect("executing").values() {
                token.cancel();
                report.cancelled_inflight += 1;
            }
        }
        if waited >= shared.config.drain_deadline + DRAIN_GRACE {
            return report;
        }
        std::thread::sleep(TICK);
    }
}

/// Starts a connection's thread, which reads and starts its writer.
fn spawn_connection(stream: TcpStream, shared: &Arc<Shared>) -> (Weak<Connection>, JoinHandle<()>) {
    let _ = stream.set_nodelay(true);
    let timeout = shared.config.write_timeout.max(Duration::from_millis(1));
    let _ = stream.set_write_timeout(Some(timeout));
    let outbox = Arc::new(Outbox::new());
    let conn = Arc::new(Connection { stream, outbox });
    shared.metrics.connections_total.inc();
    shared.count_open(true);
    let weak = Arc::downgrade(&conn);
    let shared = shared.clone();
    let thread = std::thread::spawn(move || {
        let writer = {
            let (shared, conn) = (shared.clone(), conn.clone());
            std::thread::spawn(move || write_loop(&shared, &conn))
        };
        Reader {
            shared: &shared,
            conn: &conn,
            admitted: HashMap::new(),
            frames: Vec::new(),
            answered: 0,
            selections: Vec::new(),
            live: Vec::new(),
            points: Vec::new(),
            windows: Vec::new(),
        }
        .run();
        let _ = writer.join();
        shared.count_open(false);
    });
    (weak, thread)
}

/// A connection's writer: writes what others leave in the outbox until
/// the connection is over.
fn write_loop(shared: &Shared, conn: &Connection) {
    let mut bytes = Vec::new();
    while conn.outbox.take(&mut bytes) && conn.write_claimed(shared, &mut bytes) {}
    conn.close();
}

/// Whether a socket call gave up at its timeout.
fn stalled(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Which run a selection belongs to: whether it is a point probe, and
/// its dataset.
fn run_key(body: &WireRequestBody) -> (bool, u32) {
    match *body {
        WireRequestBody::Point { dataset, .. } => (true, dataset),
        WireRequestBody::Window { dataset, .. } => (false, dataset),
        ref other => unreachable!("a reader runs selections only, not {other:?}"),
    }
}

/// A connection's reader: reads frames, admits each one, answers the
/// selections among them and writes its replies when the writer is idle.
struct Reader<'a> {
    shared: &'a Shared,
    conn: &'a Connection,
    /// `msj_serve_requests_total{kind}` handles, by request kind.
    admitted: HashMap<&'static str, Arc<Counter>>,
    /// Reply frames encoded since the last hand-off to the outbox, and
    /// how many of them answer admitted requests.
    frames: Vec<u8>,
    answered: usize,
    /// Selections admitted from the current read, in arrival order.
    selections: Vec<Job>,
    /// One run's still-live selections (indices into it) and their probes.
    live: Vec<usize>,
    points: Vec<Point>,
    windows: Vec<Rect>,
}

impl Reader<'_> {
    /// Reads until EOF, a timeout, an oversized frame or the connection
    /// closing, waiting whenever the outbox is full.
    fn run(mut self) {
        let (config, conn) = (&self.shared.config, self.conn);
        let mut chunk = [0u8; 16 * 1024];
        let mut inbuf: Vec<u8> = Vec::new();
        // When the frame at the front of `inbuf` started arriving.
        let mut frame_started: Option<Instant> = None;
        let mut timeout_set = None;
        while conn.outbox.wait_for_room() {
            // A read waits out the read-stall bound while a frame is
            // partly in, the idle bound otherwise; on expiry, the state
            // at that moment decides whether either has passed.
            let wait = match (frame_started, conn.outbox.idle_for()) {
                (Some(started), _) => config.read_timeout.saturating_sub(started.elapsed()),
                (None, Some(idle)) => config.idle_timeout.saturating_sub(idle),
                (None, None) => config.idle_timeout,
            };
            let wait = Some(wait.max(Duration::from_millis(1)));
            if timeout_set != wait {
                let _ = conn.stream.set_read_timeout(wait);
                timeout_set = wait;
            }
            let n = match (&conn.stream).read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e) if stalled(&e) => {
                    let timed_out = match frame_started {
                        Some(started) => (started.elapsed() >= config.read_timeout).then_some(READ),
                        None => conn
                            .outbox
                            .idle_for()
                            .is_some_and(|idle| idle >= config.idle_timeout)
                            .then_some(IDLE),
                    };
                    if let Some(kind) = timed_out {
                        self.shared.metrics.conn_timeouts[kind].inc();
                        conn.close();
                    }
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.close();
                    break;
                }
            };
            conn.outbox.touch();
            if inbuf.is_empty() {
                frame_started = Some(Instant::now());
            }
            inbuf.extend_from_slice(&chunk[..n]);
            let used = self.admit_frames(&inbuf);
            self.run_selections();
            self.hand_off();
            let Some(used) = used else {
                break;
            };
            if used > 0 {
                inbuf.drain(..used);
                frame_started = (!inbuf.is_empty()).then(Instant::now);
            }
        }
        conn.outbox.update(|s| s.input_done = true);
    }

    /// Admits every complete frame at the front of `inbuf` and returns
    /// the bytes they took. `None` after an oversized declaration, which
    /// ends reading: a stream cannot be resynchronised past a frame the
    /// server refused to buffer.
    fn admit_frames(&mut self, inbuf: &[u8]) -> Option<usize> {
        let mut at = 0;
        while inbuf.len() - at >= 4 {
            let header = inbuf[at..at + 4].try_into().expect("four header bytes");
            let declared = u32::from_le_bytes(header);
            if declared > self.shared.config.max_frame {
                self.shared.metrics.frames_too_large.inc();
                self.reply(0, &ResponseBody::FrameTooLarge { declared });
                return None;
            }
            let end = at + 4 + declared as usize;
            if inbuf.len() < end {
                break;
            }
            self.handle_frame(&inbuf[at + 4..end]);
            at = end;
        }
        Some(at)
    }

    /// Encodes a reply for the next hand-off.
    fn reply(&mut self, request_id: u64, body: &ResponseBody) {
        encode_response_into(&mut self.frames, request_id, body);
    }

    /// A 429 now, with the model's guess at when the `ahead` requests
    /// before a retry will have cleared.
    fn shed(&mut self, id: u64, body: &WireRequestBody, reason: ShedReason, ahead: usize) {
        self.shared.metrics.shed[reason as usize].inc();
        let (estimate, from_history) = self.shared.estimate(body);
        let retry_after_ms = retry_after_ms(estimate, ahead as u64);
        let shed = ResponseBody::Shed {
            retry_after_ms,
            reason,
            from_history,
        };
        self.reply(id, &shed);
    }

    /// Encodes the reply to an admitted request for the next hand-off.
    fn answer(&mut self, job: &Job, body: &ResponseBody) {
        let waited = job.received.elapsed().as_nanos() as u64;
        self.shared.metrics.e2e.record(waited);
        self.reply(job.request_id, body);
        self.answered += 1;
    }

    /// Hands the encoded replies to the outbox and, when no one writes
    /// yet, writes everything pending itself.
    fn hand_off(&mut self) {
        let answered = std::mem::take(&mut self.answered);
        if self.conn.outbox.hand_off(&mut self.frames, answered) {
            self.conn.write_claimed(self.shared, &mut self.frames);
        }
        // Settled once their replies are in the outbox, as a worker's are.
        self.shared.inflight.fetch_sub(answered, Ordering::AcqRel);
    }

    /// Answers the read's selections in arrival order, each run of at
    /// most `batch_max` through one batch call.
    fn run_selections(&mut self) {
        let jobs = std::mem::take(&mut self.selections);
        let batch_max = self.shared.config.batch_max.max(1);
        let mut rest = &jobs[..];
        while let Some(first) = rest.first() {
            let n = rest
                .iter()
                .take(batch_max)
                .take_while(|job| run_key(&job.body) == run_key(&first.body))
                .count();
            self.run_batch(&rest[..n]);
            rest = &rest[n..];
        }
        self.selections = jobs;
        self.selections.clear();
    }

    /// One run: a selection whose deadline passed before the run began
    /// answers without touching the engine, so its partial work is zero
    /// by construction; the rest share one descent.
    fn run_batch(&mut self, run: &[Job]) {
        let metrics = &self.shared.metrics;
        let started = Instant::now();
        metrics.batch_size.record(run.len() as u64);
        let mut live = std::mem::take(&mut self.live);
        for (i, job) in run.iter().enumerate() {
            let waited = started.duration_since(job.received).as_nanos() as u64;
            metrics.queue_wait.record(waited);
            if job.cancel.is_cancelled() {
                let expired = ResponseBody::DeadlineExceeded {
                    elapsed_ms: job.cancel.elapsed().as_millis() as u64,
                    partial_candidates: 0,
                };
                self.answer(job, &expired);
                continue;
            }
            live.push(i);
            match job.body.to_request() {
                Some(Request::Point { point, .. }) => self.points.push(point),
                Some(Request::Window { window, .. }) => self.windows.push(window),
                _ => unreachable!("a run holds points or windows"),
            }
        }
        if !live.is_empty() {
            let engine = &self.shared.engine;
            let (_, target) = run_key(&run[0].body);
            let dataset = engine
                .dataset(target)
                .expect("admission checked the dataset");
            let responses = if self.points.is_empty() {
                engine.window_query_batch(&dataset, &self.windows)
            } else {
                engine.point_query_batch(&dataset, &self.points)
            };
            for (&i, response) in live.iter().zip(&responses) {
                self.answer(&run[i], &selection_body(response));
            }
        }
        live.clear();
        self.live = live;
        self.points.clear();
        self.windows.clear();
    }

    /// Admission: every path out of this function is an explicit wire
    /// response, an enqueued join or a selection for this read's runs.
    fn handle_frame(&mut self, body: &[u8]) {
        let shared = self.shared;
        let reg = shared.engine.metrics();
        let request = match decode_request(body) {
            Ok(request) => request,
            Err(message) => {
                shared.metrics.frames_malformed.inc();
                return self.reply(0, &ResponseBody::BadRequest { message });
            }
        };
        let id = request.request_id;
        if shared.draining() {
            shared.metrics.draining_responses.inc();
            return self.reply(id, &ResponseBody::Draining);
        }
        if matches!(request.body, WireRequestBody::Metrics) {
            return self.reply(id, &ResponseBody::Text(reg.render_prometheus()));
        }
        // Validate dataset ids before the request costs anything.
        if let Some(unknown) = shared.unknown_dataset(&request.body) {
            return self.reply(id, &ResponseBody::UnknownDataset { id: unknown });
        }
        let cap = shared.config.conn_inflight_cap;
        if let Err(inflight_here) = self.conn.outbox.admit(cap) {
            return self.shed(id, &request.body, ShedReason::ConnCap, inflight_here);
        }
        let cancel = if request.deadline_ms > 0 {
            CancelToken::with_deadline(Duration::from_millis(u64::from(request.deadline_ms)))
        } else {
            CancelToken::new()
        };
        let kind = request.kind_label();
        let job = Job {
            reply: self.conn.outbox.clone(),
            request_id: id,
            body: request.body,
            cancel,
            received: Instant::now(),
        };
        // Counted before the push: a worker may answer the job at once.
        shared.inflight.fetch_add(1, Ordering::AcqRel);
        if let Some(key) = QueueKey::for_body(&job.body) {
            if let Err((job, waiting)) = shared.queues.try_push(key, job) {
                self.answered += 1;
                return self.shed(id, &job.body, ShedReason::QueueFull, waiting);
            }
            shared.publish_depth();
        } else {
            self.selections.push(job);
        }
        // Resolved on a kind's first admitted request: the family has no
        // samples before traffic, and the exposition says so.
        let admitted = self
            .admitted
            .entry(kind)
            .or_insert_with(|| reg.counter("msj_serve_requests_total", &[("kind", kind)]));
        admitted.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::{decode_response, encode_request, WireRequest};
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
        body.to_request().expect("an engine request")
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

    /// Reads `(request_id, frame)` pairs off a raw socket until EOF.
    fn frames_until_eof(stream: &mut TcpStream) -> Vec<(u64, Vec<u8>)> {
        let mut bytes = Vec::new();
        stream.read_to_end(&mut bytes).expect("read to EOF");
        let mut frames = Vec::new();
        let mut rest = &bytes[..];
        while rest.len() >= 4 {
            let len = 4 + u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
            let (request_id, _) = decode_response(&rest[4..len]).expect("a whole frame");
            frames.push((request_id, rest[..len].to_vec()));
            rest = &rest[len..];
        }
        assert!(rest.is_empty(), "a truncated frame before EOF");
        frames
    }

    /// A client that half-closes after pipelining still gets every
    /// reply: EOF on the read side stops reading, and the connection
    /// closes only once its admitted requests are answered and written.
    #[test]
    fn half_closed_connection_still_gets_every_reply() {
        let (engine, a, b) = engine_with_datasets();
        let server = start(engine.clone(), ServeConfig::default());
        let mut raw = TcpStream::connect(server.addr()).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let requests = [
            WireRequest::join(1, a, b),
            WireRequest::point(2, a, 0.4, 0.6),
            WireRequest::metrics(3),
        ];
        for request in &requests {
            raw.write_all(&encode_request(request)).expect("send");
        }
        raw.shutdown(Shutdown::Write).expect("half-close");
        let mut replies = frames_until_eof(&mut raw);
        replies.sort_by_key(|(id, _)| *id);
        assert_eq!(replies.len(), 3, "a half-closed connection lost replies");
        for (request, (id, frame)) in requests.iter().zip(&replies) {
            assert_eq!(*id, request.request_id);
            let body = match request.body {
                // A scrape is live text: its frame must be the encoding
                // of what it carries.
                WireRequestBody::Metrics => {
                    let (_, body) = decode_response(&frame[4..]).expect("decodes");
                    assert!(matches!(body, ResponseBody::Text(_)), "{body:?}");
                    body
                }
                ref body => response_body_for(&engine.submit(to_request(body))),
            };
            assert_eq!(*frame, encode_response(*id, &body), "reply {id}");
        }
        server.shutdown();
        assert!(server.join().clean);
    }

    /// One pipelined burst mixing every engine request: the reader
    /// answers and writes the selections while the writer sends the
    /// workers' join replies, and every frame arrives whole and equal to
    /// the encoding of the same request submitted in-process.
    #[test]
    fn a_pipelined_mixed_burst_is_answered_whole_by_reader_and_writer() {
        let (engine, a, b) = engine_with_datasets();
        let config = ServeConfig {
            conn_inflight_cap: 1024,
            ..ServeConfig::default()
        };
        let server = start(engine.clone(), config);
        let mut raw = TcpStream::connect(server.addr()).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let requests: Vec<WireRequest> = (0..480)
            .map(|id| {
                let t = (id * 37 % 1000) as f64;
                match id % 24 {
                    7 => WireRequest::join(id, a, b),
                    19 => WireRequest::self_join(id, b),
                    k if k % 5 == 0 => WireRequest::window(id, b, [t, t, t + 150.0, t + 90.0]),
                    k if k % 5 == 3 => WireRequest::point(id, b, t, 1000.0 - t),
                    _ => WireRequest::point(id, a, t, t / 2.0),
                }
            })
            .collect();
        let burst: Vec<u8> = requests.iter().flat_map(encode_request).collect();
        raw.write_all(&burst).expect("send");
        raw.shutdown(Shutdown::Write).expect("half-close");
        let mut replies = frames_until_eof(&mut raw);
        replies.sort_by_key(|(id, _)| *id);
        assert_eq!(replies.len(), requests.len(), "replies lost or repeated");
        for (request, (id, frame)) in requests.iter().zip(&replies) {
            assert_eq!(*id, request.request_id);
            let body = response_body_for(&engine.submit(to_request(&request.body)));
            assert_eq!(*frame, encode_response(*id, &body), "reply {id}");
        }
        let ids = |body: &ResponseBody| match body {
            ResponseBody::Selection { ids, .. } => ids.len(),
            _ => 0,
        };
        let found: usize = replies
            .iter()
            .map(|(_, frame)| ids(&decode_response(&frame[4..]).unwrap().1))
            .sum();
        assert!(found > 0, "every selection of the burst came back empty");
        server.shutdown();
        assert!(server.join().clean);
    }

    /// A read's selections run in arrival order, each run of at most
    /// `batch_max` same-kind probes of one dataset through one batch
    /// call: 3 points, 2 windows, then 11 points under a cap of 4 run as
    /// 3, 2, 4, 4 and 3.
    #[test]
    fn a_reads_selections_run_in_capped_same_kind_runs() {
        let (engine, a, _) = engine_with_datasets();
        let config = ServeConfig {
            batch_max: 4,
            ..ServeConfig::default()
        };
        let server = start(engine.clone(), config);
        let mut client = Client::connect(server.addr()).expect("connect");
        let requests: Vec<WireRequest> = (0..16)
            .map(|id| match id {
                3 | 4 => WireRequest::window(id, a, [100.0, 100.0, 400.0, 400.0]),
                _ => WireRequest::point(id, a, 500.0, 500.0),
            })
            .collect();
        let burst: Vec<u8> = requests.iter().flat_map(encode_request).collect();
        client.send_raw(&burst).expect("send");
        for _ in &requests {
            let reply = client.recv().expect("reply");
            assert!(reply.body.is_ok(), "{:?}", reply.body);
        }
        let runs = engine.metrics().histogram("msj_serve_batch_size", &[]);
        assert_eq!((runs.count(), runs.sum()), (5, 16));
        server.shutdown();
        server.join();
    }

    /// A selection whose deadline passed before its run answers
    /// `DeadlineExceeded` without touching the engine. The probe comes
    /// first in one write, and the 200 metrics scrapes behind it, each
    /// rendered as the read is admitted, hold its run back well past
    /// its 1 ms.
    #[test]
    fn a_selection_expired_before_its_run_answers_deadline_exceeded() {
        let (engine, a, _) = engine_with_datasets();
        let server = start(engine, ServeConfig::default());
        let mut client = Client::connect(server.addr()).expect("connect");
        let probe = WireRequest::point(1, a, 500.0, 500.0).with_deadline_ms(1);
        let mut burst = encode_request(&probe);
        for id in 2..=200 {
            burst.extend(encode_request(&WireRequest::metrics(id)));
        }
        client.send_raw(&burst).expect("send");
        let mut expired = None;
        for _ in 1..=200 {
            let reply = client.recv().expect("reply");
            if reply.request_id == 1 {
                expired = Some(reply.body);
            }
        }
        match expired.expect("the probe was answered") {
            ResponseBody::DeadlineExceeded {
                partial_candidates, ..
            } => assert_eq!(partial_candidates, 0),
            other => panic!("an expired probe answered {other:?}"),
        }
        server.shutdown();
        server.join();
    }

    /// A pipelined burst over the per-connection cap sheds the excess
    /// `ConnCap` with a retry hint, though selections never queue.
    #[test]
    fn pipelined_points_over_the_connection_cap_shed_with_a_retry_hint() {
        let (engine, a, _) = engine_with_datasets();
        let config = ServeConfig {
            conn_inflight_cap: 4,
            ..ServeConfig::default()
        };
        let server = start(engine.clone(), config);
        let mut client = Client::connect(server.addr()).expect("connect");
        let burst: Vec<u8> = (0..64)
            .flat_map(|id| encode_request(&WireRequest::point(id, a, 400.0, 600.0)))
            .collect();
        client.send_raw(&burst).expect("send");
        let (mut answered, mut shed) = (0, 0);
        for _ in 0..64 {
            match client.recv().expect("reply").body {
                ResponseBody::Shed {
                    reason: ShedReason::ConnCap,
                    retry_after_ms,
                    ..
                } => {
                    assert!(retry_after_ms >= 1);
                    shed += 1;
                }
                body => {
                    assert!(body.is_ok(), "{body:?}");
                    answered += 1;
                }
            }
        }
        assert!(shed > 0, "a cap of 4 never shed under 64 pipelined points");
        assert!(answered >= 4, "only {answered} points answered");
        let conn_cap = "msj_request_shed_total{reason=\"conn_cap\"}";
        assert_eq!(engine.metrics().snapshot().counter(conn_cap), shed);
        server.shutdown();
        server.join();
    }

    /// One connection that streams probes and never reads its replies is
    /// pushed back by TCP: the server stops reading it instead of
    /// buffering, and a second connection is served meanwhile. The 1 s
    /// bound, under a 5 s write timeout, also pins that no worker blocks
    /// on the stalled socket.
    #[test]
    fn a_client_that_never_reads_is_pushed_back_and_starves_no_one() {
        let (engine, a, _) = engine_with_datasets();
        let server = start(engine, ServeConfig::default());
        let mut hog = TcpStream::connect(server.addr()).expect("connect");
        hog.set_write_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let probes: Vec<u8> = (0..4096)
            .flat_map(|id| encode_request(&WireRequest::point(id, a, 0.5, 0.5)))
            .collect();
        let blocked = |e: &io::Error| {
            matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            )
        };
        let mut at = 0;
        let mut stream_for = |span: Duration| {
            let until = Instant::now() + span;
            while Instant::now() < until {
                match hog.write(&probes[at..]) {
                    Ok(n) => at = (at + n) % probes.len(),
                    Err(ref e) if blocked(e) => return true,
                    Err(e) => panic!("hog connection failed: {e}"),
                }
            }
            false
        };
        stream_for(Duration::from_millis(1500));

        let started = Instant::now();
        let mut client =
            Client::connect_with_timeout(server.addr(), Duration::from_secs(1)).expect("connect");
        for id in 0..20 {
            let reply = client
                .call(&WireRequest::point(id, a, 0.4, 0.6))
                .expect("a second connection is served beside the hog");
            assert!(reply.body.is_ok(), "{:?}", reply.body);
        }
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "20 calls took {took:?}");
        assert!(
            stream_for(Duration::from_secs(2)),
            "the server kept reading a client that never reads"
        );
        drop(hog);
        server.shutdown();
        server.join();
    }

    fn timed_out(engine: &SpatialEngine, kind: &str) -> u64 {
        let key = format!("msj_conn_timeouts_total{{kind=\"{kind}\"}}");
        engine.metrics().snapshot().counter(&key)
    }

    /// Reads until the server closes the connection; panics after 10 s.
    fn closed_by_server(stream: &mut TcpStream) {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut sink = Vec::new();
        match stream.read_to_end(&mut sink) {
            Ok(_) => {}
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::ConnectionReset, "{e}"),
        }
    }

    #[test]
    fn a_stalled_frame_is_closed_by_the_read_timeout() {
        let (engine, _, _) = engine_with_datasets();
        let config = ServeConfig {
            read_timeout: Duration::from_millis(200),
            ..ServeConfig::default()
        };
        let server = start(engine.clone(), config);
        let mut raw = TcpStream::connect(server.addr()).expect("connect");
        raw.write_all(&[9, 0, 0]).expect("three header bytes");
        closed_by_server(&mut raw);
        assert_eq!(timed_out(&engine, "read"), 1);
        assert_eq!(timed_out(&engine, "idle"), 0);
        server.shutdown();
        server.join();
    }

    #[test]
    fn a_silent_connection_is_closed_by_the_idle_timeout() {
        let (engine, _, _) = engine_with_datasets();
        let config = ServeConfig {
            idle_timeout: Duration::from_millis(300),
            ..ServeConfig::default()
        };
        let server = start(engine.clone(), config);
        let mut raw = TcpStream::connect(server.addr()).expect("connect");
        closed_by_server(&mut raw);
        assert_eq!(timed_out(&engine, "idle"), 1);
        assert_eq!(timed_out(&engine, "read"), 0);
        server.shutdown();
        server.join();
    }

    #[test]
    fn a_client_that_never_reads_is_closed_by_the_write_timeout() {
        let (engine, _, _) = engine_with_datasets();
        let config = ServeConfig {
            write_timeout: Duration::from_millis(300),
            ..ServeConfig::default()
        };
        let server = start(engine.clone(), config);
        let mut raw = TcpStream::connect(server.addr()).expect("connect");
        raw.set_write_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        // Paced, so each scrape is answered soon after it is sent.
        let scrapes = encode_request(&WireRequest::metrics(1)).repeat(16);
        let (mut at, until) = (0, Instant::now() + Duration::from_secs(20));
        while timed_out(&engine, "write") == 0 {
            assert!(Instant::now() < until, "the write timeout never fired");
            match raw.write(&scrapes[at..]) {
                Ok(n) => at = (at + n) % scrapes.len(),
                Err(ref e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => break,
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(timed_out(&engine, "write"), 1);
        closed_by_server(&mut raw);
        server.shutdown();
        server.join();
    }

    /// Blocks until the writer (`writer`) or the reader is parked on the
    /// outbox; panics after 5 s.
    fn until_parked(outbox: &Outbox, writer: bool) {
        let until = Instant::now() + Duration::from_secs(5);
        loop {
            let s = outbox.lock();
            if (writer && s.writer_parked) || (!writer && s.reader_parked) {
                return;
            }
            drop(s);
            assert!(Instant::now() < until, "the thread never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Runs `wait` on a thread of its own, returning a receiver of its
    /// result.
    fn parked_on<T: Send + 'static>(
        outbox: &Arc<Outbox>,
        wait: impl FnOnce(&Outbox) -> T + Send + 'static,
    ) -> std::sync::mpsc::Receiver<T> {
        let (tx, rx) = std::sync::mpsc::channel();
        let outbox = outbox.clone();
        std::thread::spawn(move || tx.send(wait(&outbox)));
        rx
    }

    const WOKEN: Duration = Duration::from_secs(5);

    /// A reply the reader writes itself, claimed and released while the
    /// writer is parked, leaves the writer unsignalled; a worker's push
    /// signals it once, and it then holds the frame.
    #[test]
    fn the_outbox_wakes_the_writer_only_when_it_can_act() {
        let outbox = Arc::new(Outbox::new());
        outbox.admit(8).expect("room");
        outbox.admit(8).expect("room");
        let writer = parked_on(&outbox, |o| {
            let mut out = Vec::new();
            (o.take(&mut out), out)
        });
        until_parked(&outbox, true);
        let mut frames = encode_response(1, &ResponseBody::Draining);
        assert!(outbox.hand_off(&mut frames, 1), "the reader claims");
        outbox.wrote(frames.len());
        assert!(
            outbox.lock().writer_parked,
            "the reader's own reply woke the writer"
        );
        let frame = encode_response(2, &ResponseBody::Draining);
        outbox.push(&frame);
        let (claimed, out) = writer.recv_timeout(WOKEN).expect("a push was lost");
        assert!(claimed);
        assert_eq!(out, frame);
    }

    /// Freed room after a full outbox, `input_done` with nothing in
    /// flight, and a close each wake the thread that waits on them.
    #[test]
    fn room_input_done_and_close_wake_the_thread_that_waits() {
        // Room: the reader waits on a full outbox until its claim is freed.
        let outbox = Arc::new(Outbox::new());
        outbox.admit(1).expect("room");
        outbox.push(&vec![0; OUTBOX_BYTES]);
        let mut claimed = Vec::new();
        assert!(outbox.take(&mut claimed));
        let reader = parked_on(&outbox, Outbox::wait_for_room);
        until_parked(&outbox, false);
        outbox.wrote(claimed.len());
        assert!(reader.recv_timeout(WOKEN).expect("freed room was lost"));

        // The end of input: nothing in flight, so the writer ends.
        let outbox = Arc::new(Outbox::new());
        let writer = parked_on(&outbox, |o| o.take(&mut Vec::new()));
        until_parked(&outbox, true);
        outbox.update(|s| s.input_done = true);
        assert!(!writer.recv_timeout(WOKEN).expect("input_done was lost"));

        // Close: both threads, parked at once, end.
        let outbox = Arc::new(Outbox::new());
        outbox.admit(1).expect("room");
        outbox.push(&vec![0; OUTBOX_BYTES]);
        assert!(outbox.take(&mut Vec::new()));
        let writer = parked_on(&outbox, |o| o.take(&mut Vec::new()));
        let reader = parked_on(&outbox, Outbox::wait_for_room);
        until_parked(&outbox, true);
        until_parked(&outbox, false);
        outbox.close();
        assert!(!writer
            .recv_timeout(WOKEN)
            .expect("close was lost on the writer"));
        assert!(!reader
            .recv_timeout(WOKEN)
            .expect("close was lost on the reader"));
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
