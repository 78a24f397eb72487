//! The length-prefixed wire protocol and the engine→wire mapping.
//!
//! Every frame is `[u32 len][body]`, little-endian, where `len` counts
//! the bytes after the length field itself.
//!
//! **Request body:** `[u64 request_id][u32 deadline_ms][u8 kind][payload]`
//! — `deadline_ms == 0` means no deadline; a nonzero value arms the
//! engine's cooperative [`msj_core::CancelToken`] the moment the frame
//! is admitted, so queue wait counts against the budget. Point and
//! window coordinates must be finite; a NaN or ∞ fails decoding.
//!
//! **Response body:** `[u64 request_id][u8 status][payload]`.
//!
//! The `Ok` payload carries the *deterministic* projection of an engine
//! response: result ids/pairs, filter accounting and exact-geometry
//! operation counts. It deliberately excludes wall-clock nanoseconds —
//! they describe the serving instance's momentary state, not the query's
//! answer, and leaving them out is what makes the protocol's headline
//! guarantee testable: a completed response is **byte-identical** however
//! the request was scheduled, batched, or retried. Instance-local
//! measurement stays observable through the engine's metrics registry and
//! traces.

use msj_core::{EngineError, JoinResponse, Request, Response, SelectionResponse};
use msj_exact::OpCounts;
use msj_geom::{Point, Rect};

/// Default cap on the size of one *request* frame body. Requests are
/// tiny (tens of bytes); anything larger is a confused or hostile
/// client and is rejected with [`WireStatus::FrameTooLarge`] before the
/// server buffers it.
pub const MAX_REQUEST_FRAME: u32 = 64 * 1024;

/// Cap a client enforces on *response* frames (joins can legitimately
/// carry large pair sets).
pub const MAX_RESPONSE_FRAME: u32 = 64 * 1024 * 1024;

/// Request kinds on the wire.
pub const KIND_JOIN: u8 = 1;
pub const KIND_SELF_JOIN: u8 = 2;
pub const KIND_POINT: u8 = 3;
pub const KIND_WINDOW: u8 = 4;
pub const KIND_METRICS: u8 = 5;

/// One request as it travels on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed verbatim on the response.
    pub request_id: u64,
    /// Client-supplied deadline in milliseconds; `0` = none.
    pub deadline_ms: u32,
    pub body: WireRequestBody,
}

/// The request payload variants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireRequestBody {
    /// Intersection join of two registered datasets.
    Join { a: u32, b: u32 },
    /// Intersection self-join of one dataset.
    SelfJoin { dataset: u32 },
    /// Point selection.
    Point { dataset: u32, x: f64, y: f64 },
    /// Window selection (`bounds = [xmin, ymin, xmax, ymax]`).
    Window { dataset: u32, bounds: [f64; 4] },
    /// Prometheus-style metrics exposition of the serving engine.
    Metrics,
}

impl WireRequest {
    /// A join request (no deadline).
    pub fn join(request_id: u64, a: u32, b: u32) -> Self {
        WireRequest {
            request_id,
            deadline_ms: 0,
            body: WireRequestBody::Join { a, b },
        }
    }

    /// A self-join request (no deadline).
    pub fn self_join(request_id: u64, dataset: u32) -> Self {
        WireRequest {
            request_id,
            deadline_ms: 0,
            body: WireRequestBody::SelfJoin { dataset },
        }
    }

    /// A point-selection request (no deadline).
    pub fn point(request_id: u64, dataset: u32, x: f64, y: f64) -> Self {
        WireRequest {
            request_id,
            deadline_ms: 0,
            body: WireRequestBody::Point { dataset, x, y },
        }
    }

    /// A window-selection request (no deadline).
    pub fn window(request_id: u64, dataset: u32, bounds: [f64; 4]) -> Self {
        WireRequest {
            request_id,
            deadline_ms: 0,
            body: WireRequestBody::Window { dataset, bounds },
        }
    }

    /// A metrics-exposition request.
    pub fn metrics(request_id: u64) -> Self {
        WireRequest {
            request_id,
            deadline_ms: 0,
            body: WireRequestBody::Metrics,
        }
    }

    /// Attaches a client deadline in milliseconds.
    pub fn with_deadline_ms(mut self, deadline_ms: u32) -> Self {
        self.deadline_ms = deadline_ms;
        self
    }

    /// The request-kind label used for metrics.
    pub fn kind_label(&self) -> &'static str {
        match self.body {
            WireRequestBody::Join { .. } => "join",
            WireRequestBody::SelfJoin { .. } => "self_join",
            WireRequestBody::Point { .. } => "point",
            WireRequestBody::Window { .. } => "window",
            WireRequestBody::Metrics => "metrics",
        }
    }
}

impl WireRequestBody {
    /// The engine request this body asks for, with the engine's default
    /// execution; `None` for `Metrics`, which the server answers itself.
    pub fn to_request(&self) -> Option<Request> {
        Some(match *self {
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
            WireRequestBody::Metrics => return None,
        })
    }
}

/// Response status byte. The numeric values are the wire protocol —
/// append-only, never reordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WireStatus {
    /// Completed answer; payload carries the deterministic projection.
    Ok = 0,
    /// 429-style load shed: the request was **not** executed; retry
    /// after the carried hint.
    Shed = 1,
    /// 503-style: the request outlived its deadline; payload carries the
    /// partial-work accounting.
    DeadlineExceeded = 2,
    /// The server is draining; the request was not accepted.
    Draining = 3,
    /// The request was cancelled (e.g. drain-deadline expiry cancelled
    /// in-flight work); payload carries partial-work accounting.
    Cancelled = 4,
    /// The request names a dataset the engine never registered.
    UnknownDataset = 5,
    /// A worker panicked mid-run; the engine stays serviceable.
    WorkerPanicked = 6,
    // 7 is retired and never reused: older clients read it as a
    // raster-verification refusal.
    /// The frame could not be parsed.
    BadRequest = 8,
    /// The declared frame length exceeds the server's cap.
    FrameTooLarge = 9,
    /// An error the protocol has no dedicated status for (a new engine
    /// error variant lands here rather than hanging the connection).
    Internal = 10,
}

impl WireStatus {
    /// Parses a status byte.
    pub fn from_u8(value: u8) -> Option<WireStatus> {
        Some(match value {
            0 => WireStatus::Ok,
            1 => WireStatus::Shed,
            2 => WireStatus::DeadlineExceeded,
            3 => WireStatus::Draining,
            4 => WireStatus::Cancelled,
            5 => WireStatus::UnknownDataset,
            6 => WireStatus::WorkerPanicked,
            8 => WireStatus::BadRequest,
            9 => WireStatus::FrameTooLarge,
            10 => WireStatus::Internal,
            _ => return None,
        })
    }
}

/// Why a request was shed (carried in the [`ResponseBody::Shed`]
/// payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ShedReason {
    /// The target queue is at its bound.
    QueueFull = 0,
    /// The §5 admission control refused the modeled cost.
    Admission = 1,
    /// The connection is at its in-flight cap.
    ConnCap = 2,
}

impl ShedReason {
    /// Parses a reason byte.
    pub fn from_u8(value: u8) -> Option<ShedReason> {
        Some(match value {
            0 => ShedReason::QueueFull,
            1 => ShedReason::Admission,
            2 => ShedReason::ConnCap,
            _ => return None,
        })
    }

    /// The stable `reason` label of `msj_request_shed_total`.
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::Admission => "admission",
            ShedReason::ConnCap => "conn_cap",
        }
    }
}

/// The deterministic join accounting carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JoinWireStats {
    pub candidates: u64,
    pub raster_hits: u64,
    pub raster_drops: u64,
    pub raster_inconclusive: u64,
    pub filter_false_hits: u64,
    pub filter_hits_progressive: u64,
    pub filter_hits_false_area: u64,
    pub exact_tests: u64,
    pub exact_hits: u64,
    pub result_pairs: u64,
}

/// The deterministic selection accounting carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SelectionWireStats {
    pub candidates: u64,
    pub filter_false_hits: u64,
    pub filter_hits: u64,
    pub exact_tests: u64,
}

/// A decoded response payload.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Completed join.
    Join {
        pairs: Vec<(u32, u32)>,
        stats: JoinWireStats,
        ops: OpCounts,
    },
    /// Completed selection.
    Selection {
        ids: Vec<u32>,
        stats: SelectionWireStats,
        ops: OpCounts,
    },
    /// Completed text answer (metrics exposition).
    Text(String),
    Shed {
        retry_after_ms: u64,
        reason: ShedReason,
        /// Whether the §5 estimate behind `retry_after_ms` came from
        /// observed run history (`true`) or the a-priori model.
        from_history: bool,
    },
    DeadlineExceeded {
        elapsed_ms: u64,
        partial_candidates: u64,
    },
    Draining,
    Cancelled {
        partial_candidates: u64,
    },
    UnknownDataset {
        id: u32,
    },
    WorkerPanicked {
        worker: u32,
        message: String,
    },
    BadRequest {
        message: String,
    },
    FrameTooLarge {
        declared: u32,
    },
    Internal {
        message: String,
    },
}

impl ResponseBody {
    /// The status byte this payload travels under.
    pub fn status(&self) -> WireStatus {
        match self {
            ResponseBody::Join { .. } | ResponseBody::Selection { .. } | ResponseBody::Text(_) => {
                WireStatus::Ok
            }
            ResponseBody::Shed { .. } => WireStatus::Shed,
            ResponseBody::DeadlineExceeded { .. } => WireStatus::DeadlineExceeded,
            ResponseBody::Draining => WireStatus::Draining,
            ResponseBody::Cancelled { .. } => WireStatus::Cancelled,
            ResponseBody::UnknownDataset { .. } => WireStatus::UnknownDataset,
            ResponseBody::WorkerPanicked { .. } => WireStatus::WorkerPanicked,
            ResponseBody::BadRequest { .. } => WireStatus::BadRequest,
            ResponseBody::FrameTooLarge { .. } => WireStatus::FrameTooLarge,
            ResponseBody::Internal { .. } => WireStatus::Internal,
        }
    }

    /// Whether this payload is a completed answer (vs. an explicit
    /// refusal or failure).
    pub fn is_ok(&self) -> bool {
        self.status() == WireStatus::Ok
    }
}

// ---------------------------------------------------------------------
// Encoding helpers
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_ops(out: &mut Vec<u8>, ops: &OpCounts) {
    for v in [
        ops.edge_intersection,
        ops.edge_line,
        ops.position,
        ops.edge_rect,
        ops.rect_rect,
        ops.trapezoid,
        ops.pip_performed,
        ops.pip_skipped,
    ] {
        put_u64(out, v);
    }
}

/// Reserves a frame's length prefix at the end of `out` and returns
/// where the frame starts; [`end_frame`] fills the prefix in.
fn begin_frame(out: &mut Vec<u8>) -> usize {
    out.extend_from_slice(&[0; 4]);
    out.len() - 4
}

/// Writes the length of the frame begun at `at` into its prefix.
fn end_frame(out: &mut [u8], at: usize) {
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// A bounds-checked little-endian reader over one frame body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "truncated frame: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A point or window coordinate: a finite `f64`. NaN and ∞ are
    /// refused here, so they never reach the engine's predicates.
    fn coord(&mut self) -> Result<f64, String> {
        let v = f64::from_le_bytes(self.take(8)?.try_into().unwrap());
        if v.is_finite() {
            Ok(v)
        } else {
            Err(format!("non-finite coordinate {v}"))
        }
    }

    /// A `u64` entry count for `entry_size`-byte entries, refused when
    /// the rest of the frame cannot hold that many — checked before the
    /// caller reserves anything, so a hostile count cannot allocate.
    fn count(&mut self, entry_size: usize) -> Result<usize, String> {
        let n = self.u64()?;
        let room = (self.buf.len() - self.pos) / entry_size;
        if n > room as u64 {
            return Err(format!(
                "count {n} exceeds the {room} entries left in the frame"
            ));
        }
        Ok(n as usize)
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid utf-8 in frame".to_string())
    }

    fn ops(&mut self) -> Result<OpCounts, String> {
        Ok(OpCounts {
            edge_intersection: self.u64()?,
            edge_line: self.u64()?,
            position: self.u64()?,
            edge_rect: self.u64()?,
            rect_rect: self.u64()?,
            trapezoid: self.u64()?,
            pip_performed: self.u64()?,
            pip_skipped: self.u64()?,
        })
    }

    fn finish(self) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} trailing bytes after frame payload",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

/// Encodes a request into a complete frame (length prefix included).
pub fn encode_request(req: &WireRequest) -> Vec<u8> {
    let mut frame = Vec::with_capacity(64);
    encode_request_into(&mut frame, req);
    frame
}

/// Appends a request's complete frame to `frame`.
pub(crate) fn encode_request_into(frame: &mut Vec<u8>, req: &WireRequest) {
    let at = begin_frame(frame);
    put_u64(frame, req.request_id);
    put_u32(frame, req.deadline_ms);
    match req.body {
        WireRequestBody::Join { a, b } => {
            frame.push(KIND_JOIN);
            put_u32(frame, a);
            put_u32(frame, b);
        }
        WireRequestBody::SelfJoin { dataset } => {
            frame.push(KIND_SELF_JOIN);
            put_u32(frame, dataset);
        }
        WireRequestBody::Point { dataset, x, y } => {
            frame.push(KIND_POINT);
            put_u32(frame, dataset);
            put_f64(frame, x);
            put_f64(frame, y);
        }
        WireRequestBody::Window { dataset, bounds } => {
            frame.push(KIND_WINDOW);
            put_u32(frame, dataset);
            for v in bounds {
                put_f64(frame, v);
            }
        }
        WireRequestBody::Metrics => frame.push(KIND_METRICS),
    }
    end_frame(frame, at);
}

/// Decodes one request frame body (the bytes after the length prefix).
pub fn decode_request(body: &[u8]) -> Result<WireRequest, String> {
    let mut r = Reader::new(body);
    let request_id = r.u64()?;
    let deadline_ms = r.u32()?;
    let kind = r.u8()?;
    let body = match kind {
        KIND_JOIN => WireRequestBody::Join {
            a: r.u32()?,
            b: r.u32()?,
        },
        KIND_SELF_JOIN => WireRequestBody::SelfJoin { dataset: r.u32()? },
        KIND_POINT => WireRequestBody::Point {
            dataset: r.u32()?,
            x: r.coord()?,
            y: r.coord()?,
        },
        KIND_WINDOW => WireRequestBody::Window {
            dataset: r.u32()?,
            bounds: [r.coord()?, r.coord()?, r.coord()?, r.coord()?],
        },
        KIND_METRICS => WireRequestBody::Metrics,
        other => return Err(format!("unknown request kind {other}")),
    };
    r.finish()?;
    Ok(WireRequest {
        request_id,
        deadline_ms,
        body,
    })
}

/// Encodes a response into a complete frame (length prefix included).
pub fn encode_response(request_id: u64, body: &ResponseBody) -> Vec<u8> {
    let mut frame = Vec::with_capacity(64);
    encode_response_into(&mut frame, request_id, body);
    frame
}

/// Appends a response's complete frame to `out`.
pub(crate) fn encode_response_into(out: &mut Vec<u8>, request_id: u64, body: &ResponseBody) {
    let at = begin_frame(out);
    put_u64(out, request_id);
    out.push(body.status() as u8);
    match body {
        ResponseBody::Join { pairs, stats, ops } => {
            out.push(0); // shape: join
            put_u64(out, pairs.len() as u64);
            for &(a, b) in pairs {
                put_u32(out, a);
                put_u32(out, b);
            }
            for v in [
                stats.candidates,
                stats.raster_hits,
                stats.raster_drops,
                stats.raster_inconclusive,
                stats.filter_false_hits,
                stats.filter_hits_progressive,
                stats.filter_hits_false_area,
                stats.exact_tests,
                stats.exact_hits,
                stats.result_pairs,
            ] {
                put_u64(out, v);
            }
            put_ops(out, ops);
        }
        ResponseBody::Selection { ids, stats, ops } => {
            out.push(1); // shape: selection
            put_u64(out, ids.len() as u64);
            for &id in ids {
                put_u32(out, id);
            }
            for v in [
                stats.candidates,
                stats.filter_false_hits,
                stats.filter_hits,
                stats.exact_tests,
            ] {
                put_u64(out, v);
            }
            put_ops(out, ops);
        }
        ResponseBody::Text(text) => {
            out.push(2); // shape: text
            put_str(out, text);
        }
        ResponseBody::Shed {
            retry_after_ms,
            reason,
            from_history,
        } => {
            put_u64(out, *retry_after_ms);
            out.push(*reason as u8);
            out.push(u8::from(*from_history));
        }
        ResponseBody::DeadlineExceeded {
            elapsed_ms,
            partial_candidates,
        } => {
            put_u64(out, *elapsed_ms);
            put_u64(out, *partial_candidates);
        }
        ResponseBody::Draining => {}
        ResponseBody::Cancelled { partial_candidates } => {
            put_u64(out, *partial_candidates);
        }
        ResponseBody::UnknownDataset { id } => put_u32(out, *id),
        ResponseBody::WorkerPanicked { worker, message } => {
            put_u32(out, *worker);
            put_str(out, message);
        }
        ResponseBody::BadRequest { message } => put_str(out, message),
        ResponseBody::FrameTooLarge { declared } => put_u32(out, *declared),
        ResponseBody::Internal { message } => put_str(out, message),
    }
    end_frame(out, at);
}

/// Decodes one response frame body (the bytes after the length prefix).
pub fn decode_response(body: &[u8]) -> Result<(u64, ResponseBody), String> {
    let mut r = Reader::new(body);
    let request_id = r.u64()?;
    let status = WireStatus::from_u8(r.u8()?).ok_or_else(|| "unknown status byte".to_string())?;
    let parsed = match status {
        WireStatus::Ok => match r.u8()? {
            0 => {
                let n = r.count(8)?;
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    pairs.push((r.u32()?, r.u32()?));
                }
                let stats = JoinWireStats {
                    candidates: r.u64()?,
                    raster_hits: r.u64()?,
                    raster_drops: r.u64()?,
                    raster_inconclusive: r.u64()?,
                    filter_false_hits: r.u64()?,
                    filter_hits_progressive: r.u64()?,
                    filter_hits_false_area: r.u64()?,
                    exact_tests: r.u64()?,
                    exact_hits: r.u64()?,
                    result_pairs: r.u64()?,
                };
                let ops = r.ops()?;
                ResponseBody::Join { pairs, stats, ops }
            }
            1 => {
                let n = r.count(4)?;
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(r.u32()?);
                }
                let stats = SelectionWireStats {
                    candidates: r.u64()?,
                    filter_false_hits: r.u64()?,
                    filter_hits: r.u64()?,
                    exact_tests: r.u64()?,
                };
                let ops = r.ops()?;
                ResponseBody::Selection { ids, stats, ops }
            }
            2 => ResponseBody::Text(r.str()?),
            other => return Err(format!("unknown ok-shape byte {other}")),
        },
        WireStatus::Shed => ResponseBody::Shed {
            retry_after_ms: r.u64()?,
            reason: ShedReason::from_u8(r.u8()?)
                .ok_or_else(|| "unknown shed reason".to_string())?,
            from_history: r.u8()? != 0,
        },
        WireStatus::DeadlineExceeded => ResponseBody::DeadlineExceeded {
            elapsed_ms: r.u64()?,
            partial_candidates: r.u64()?,
        },
        WireStatus::Draining => ResponseBody::Draining,
        WireStatus::Cancelled => ResponseBody::Cancelled {
            partial_candidates: r.u64()?,
        },
        WireStatus::UnknownDataset => ResponseBody::UnknownDataset { id: r.u32()? },
        WireStatus::WorkerPanicked => ResponseBody::WorkerPanicked {
            worker: r.u32()?,
            message: r.str()?,
        },
        WireStatus::BadRequest => ResponseBody::BadRequest { message: r.str()? },
        WireStatus::FrameTooLarge => ResponseBody::FrameTooLarge { declared: r.u32()? },
        WireStatus::Internal => ResponseBody::Internal { message: r.str()? },
    };
    r.finish()?;
    Ok((request_id, parsed))
}

// ---------------------------------------------------------------------
// Engine → wire mapping
// ---------------------------------------------------------------------

/// The exhaustive [`EngineError::kind`] → [`WireStatus`] table. `None`
/// for a kind this protocol version does not know — the server then
/// answers [`WireStatus::Internal`] (an explicit response, never a hung
/// connection), and the completeness test over
/// [`EngineError::ALL_KINDS`] fails until the table learns the variant.
pub fn wire_status_for_kind(kind: &str) -> Option<WireStatus> {
    Some(match kind {
        "unknown_dataset" => WireStatus::UnknownDataset,
        "admission_denied" => WireStatus::Shed,
        "deadline_exceeded" => WireStatus::DeadlineExceeded,
        "cancelled" => WireStatus::Cancelled,
        "worker_panicked" => WireStatus::WorkerPanicked,
        _ => return None,
    })
}

/// The retry-after hint derived from a §5 cost estimate: the modeled
/// seconds of one request, multiplied by how many requests sit ahead of
/// the retry (the queue the client would re-enter), clamped to
/// `[1 ms, 60 s]`.
pub fn retry_after_ms(estimated_s: f64, pending_ahead: u64) -> u64 {
    let per = (estimated_s * 1000.0).ceil().max(1.0) as u64;
    per.saturating_mul(pending_ahead + 1).clamp(1, 60_000)
}

/// The deterministic wire projection of a completed join.
pub fn join_body(resp: &JoinResponse) -> ResponseBody {
    ResponseBody::Join {
        pairs: resp.pairs.clone(),
        stats: JoinWireStats {
            candidates: resp.stats.mbr_join.candidates,
            raster_hits: resp.stats.raster_hits,
            raster_drops: resp.stats.raster_drops,
            raster_inconclusive: resp.stats.raster_inconclusive,
            filter_false_hits: resp.stats.filter_false_hits,
            filter_hits_progressive: resp.stats.filter_hits_progressive,
            filter_hits_false_area: resp.stats.filter_hits_false_area,
            exact_tests: resp.stats.exact_tests,
            exact_hits: resp.stats.exact_hits,
            result_pairs: resp.stats.result_pairs,
        },
        ops: resp.stats.exact_ops,
    }
}

/// The deterministic wire projection of a completed selection.
pub fn selection_body(resp: &SelectionResponse) -> ResponseBody {
    ResponseBody::Selection {
        ids: resp.ids.clone(),
        stats: SelectionWireStats {
            candidates: resp.stats.candidates,
            filter_false_hits: 0, // the engine runs no conservative test
            filter_hits: resp.stats.filter_hits,
            exact_tests: resp.stats.exact_tests,
        },
        ops: resp.exact_ops,
    }
}

/// The canonical engine-result → wire-payload mapping — the byte-identity
/// anchor: tests encode an in-process [`msj_core::SpatialEngine::submit`]
/// result through this function and compare the frames a live server
/// produced against it.
pub fn response_body_for(result: &Result<Response, EngineError>) -> ResponseBody {
    match result {
        Ok(Response::Join(resp)) => join_body(resp),
        Ok(Response::Selection(resp)) => selection_body(resp),
        Err(err) => error_body(err),
    }
}

/// Maps an [`EngineError`] onto its wire payload. Every *known* kind
/// maps per [`wire_status_for_kind`]; an unknown future variant becomes
/// an explicit [`ResponseBody::Internal`] so it can never hang a
/// connection.
pub fn error_body(err: &EngineError) -> ResponseBody {
    match err {
        EngineError::UnknownDataset(id) => ResponseBody::UnknownDataset { id: *id },
        EngineError::AdmissionDenied {
            estimated_s,
            from_history,
            ..
        } => ResponseBody::Shed {
            retry_after_ms: retry_after_ms(*estimated_s, 0),
            reason: ShedReason::Admission,
            from_history: *from_history,
        },
        EngineError::DeadlineExceeded {
            elapsed,
            partial_candidates,
        } => ResponseBody::DeadlineExceeded {
            elapsed_ms: elapsed.as_millis() as u64,
            partial_candidates: *partial_candidates,
        },
        EngineError::Cancelled { partial_candidates } => ResponseBody::Cancelled {
            partial_candidates: *partial_candidates,
        },
        EngineError::WorkerPanicked { worker, message } => ResponseBody::WorkerPanicked {
            worker: *worker as u32,
            message: message.clone(),
        },
        // #[non_exhaustive] forward-compatibility seam: a variant this
        // protocol version does not know still gets an explicit,
        // decodable response. The ALL_KINDS completeness test fails
        // until the mapping above (and the status table) learn it.
        other => ResponseBody::Internal {
            message: format!("{}: {other}", other.kind()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn roundtrip_request(req: WireRequest) {
        let frame = encode_request(&req);
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len + 4, frame.len());
        let decoded = decode_request(&frame[4..]).expect("decodes");
        assert_eq!(decoded, req);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(WireRequest::join(1, 0, 1).with_deadline_ms(250));
        roundtrip_request(WireRequest::self_join(u64::MAX, 7));
        roundtrip_request(WireRequest::point(2, 3, 1.5, -2.5));
        roundtrip_request(WireRequest::window(3, 4, [0.0, 1.0, 2.0, 3.0]));
        roundtrip_request(WireRequest::metrics(9));
    }

    #[test]
    fn responses_roundtrip() {
        let bodies = vec![
            ResponseBody::Join {
                pairs: vec![(1, 2), (3, 4)],
                stats: JoinWireStats {
                    candidates: 10,
                    exact_tests: 3,
                    result_pairs: 2,
                    ..JoinWireStats::default()
                },
                ops: OpCounts {
                    edge_intersection: 5,
                    ..OpCounts::default()
                },
            },
            ResponseBody::Selection {
                ids: vec![4, 7, 9],
                stats: SelectionWireStats {
                    candidates: 5,
                    filter_false_hits: 1,
                    filter_hits: 2,
                    exact_tests: 2,
                },
                ops: OpCounts::default(),
            },
            ResponseBody::Text("msj_queue_depth 0\n".to_string()),
            ResponseBody::Shed {
                retry_after_ms: 125,
                reason: ShedReason::QueueFull,
                from_history: true,
            },
            ResponseBody::DeadlineExceeded {
                elapsed_ms: 40,
                partial_candidates: 17,
            },
            ResponseBody::Draining,
            ResponseBody::Cancelled {
                partial_candidates: 3,
            },
            ResponseBody::UnknownDataset { id: 42 },
            ResponseBody::WorkerPanicked {
                worker: 1,
                message: "boom".into(),
            },
            ResponseBody::BadRequest {
                message: "unknown request kind 99".into(),
            },
            ResponseBody::FrameTooLarge { declared: 1 << 30 },
            ResponseBody::Internal {
                message: "novel".into(),
            },
        ];
        for body in bodies {
            let frame = encode_response(77, &body);
            let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
            assert_eq!(len + 4, frame.len());
            let (id, decoded) = decode_response(&frame[4..]).expect("decodes");
            assert_eq!(id, 77);
            assert_eq!(decoded, body, "roundtrip of {body:?}");
        }
    }

    #[test]
    fn truncated_and_trailing_bytes_are_rejected() {
        let frame = encode_response(1, &ResponseBody::Draining);
        assert!(decode_response(&frame[4..frame.len() - 1]).is_err() || frame.len() == 13);
        let mut padded = frame[4..].to_vec();
        padded.push(0);
        assert!(decode_response(&padded).is_err());
        assert!(decode_request(&[1, 2, 3]).is_err());
    }

    /// A response body (no length prefix): request id, status `Ok`,
    /// `shape`, then a declared entry count and `tail` bytes.
    fn ok_body_declaring(shape: u8, count: u64, tail: usize) -> Vec<u8> {
        let mut body = Vec::new();
        put_u64(&mut body, 5);
        body.push(WireStatus::Ok as u8);
        body.push(shape);
        put_u64(&mut body, count);
        body.resize(body.len() + tail, 0);
        body
    }

    /// A count the frame cannot hold is refused before anything is
    /// reserved: reserving 2⁴⁰ pairs or ids for a 30-byte frame would
    /// abort the client through allocation failure or capacity overflow.
    #[test]
    fn hostile_counts_are_refused_before_reserving() {
        for shape in [0u8, 1] {
            for count in [1u64 << 40, u64::MAX, u64::MAX / 4, 1 << 61] {
                let body = ok_body_declaring(shape, count, 12);
                assert!(
                    decode_response(&body).is_err(),
                    "shape {shape} count {count}"
                );
            }
        }
        // One entry more than the bytes left can hold: still refused.
        let join_tail = 3 * 8 + 10 * 8 + 8 * 8; // 3 pairs + stats + ops
        assert!(decode_response(&ok_body_declaring(0, 3, join_tail)).is_ok());
        let room = join_tail as u64 / 8;
        assert!(decode_response(&ok_body_declaring(0, room + 1, join_tail)).is_err());
    }

    /// The `hostile_bytes` property of the store, on the wire: every
    /// truncation and every single-byte flip of a valid join frame and a
    /// valid selection frame decodes to an error or to a body that
    /// re-encodes to exactly the bytes it came from — never a panic,
    /// never a silently different answer.
    #[test]
    fn truncated_and_flipped_frames_error_or_roundtrip() {
        let frames = [
            encode_response(
                9,
                &ResponseBody::Join {
                    pairs: vec![(1, 2), (3, 4), (u32::MAX, 0)],
                    stats: JoinWireStats {
                        candidates: 10,
                        exact_tests: 3,
                        result_pairs: 3,
                        ..JoinWireStats::default()
                    },
                    ops: OpCounts {
                        trapezoid: 7,
                        ..OpCounts::default()
                    },
                },
            ),
            encode_response(
                10,
                &ResponseBody::Selection {
                    ids: vec![4, 7, 9, 12],
                    stats: SelectionWireStats {
                        candidates: 6,
                        filter_false_hits: 1,
                        filter_hits: 2,
                        exact_tests: 3,
                    },
                    ops: OpCounts::default(),
                },
            ),
        ];
        let check = |body: &[u8]| {
            if let Ok((id, decoded)) = decode_response(body) {
                assert_eq!(
                    &encode_response(id, &decoded)[4..],
                    body,
                    "{decoded:?} decoded from bytes it does not re-encode to"
                );
            }
        };
        for frame in &frames {
            let body = &frame[4..];
            for len in 0..body.len() {
                assert!(
                    decode_response(&body[..len]).is_err(),
                    "prefix of {len} bytes"
                );
            }
            for at in 0..body.len() {
                for mask in [0x01u8, 0x80, 0xff] {
                    let mut flipped = body.to_vec();
                    flipped[at] ^= mask;
                    check(&flipped);
                }
            }
        }
    }

    /// The raw coordinate fields of a point or window request body
    /// (request id, deadline, kind and dataset id come first).
    fn coordinates(body: &[u8]) -> Vec<f64> {
        let fields = match body.get(12) {
            Some(&KIND_POINT) => 2,
            Some(&KIND_WINDOW) => 4,
            _ => 0,
        };
        (0..fields)
            .filter_map(|i| body.get(17 + 8 * i..25 + 8 * i))
            .map(|bytes| f64::from_le_bytes(bytes.try_into().unwrap()))
            .collect()
    }

    /// The response sweep's property on the request side: every
    /// truncation and every single-byte flip of each request kind decodes
    /// to an error or to a request that re-encodes to exactly the flipped
    /// bytes, and a flip that makes a coordinate NaN or ∞ always errors.
    #[test]
    fn truncated_and_flipped_requests_error_or_roundtrip() {
        // 2^1008 and 1.5 · 2^1008: flipping the low bit of the top byte
        // turns them into +∞ and NaN.
        let to_inf = f64::from_bits(0x7EF0 << 48);
        let to_nan = f64::from_bits(0x7EF8 << 48);
        let requests = [
            WireRequest::join(1, 2, 3).with_deadline_ms(250),
            WireRequest::self_join(u64::MAX, 7),
            WireRequest::point(2, 3, to_inf, -2.5),
            WireRequest::window(3, 4, [0.0, to_nan, 2.0, 3.0]),
            WireRequest::metrics(9),
        ];
        let mut non_finite = 0;
        for request in &requests {
            let frame = encode_request(request);
            let body = &frame[4..];
            for len in 0..body.len() {
                assert!(
                    decode_request(&body[..len]).is_err(),
                    "{request:?}: prefix of {len} bytes"
                );
            }
            for at in 0..body.len() {
                for mask in [0x01u8, 0x80, 0xff] {
                    let mut flipped = body.to_vec();
                    flipped[at] ^= mask;
                    let decoded = decode_request(&flipped);
                    if coordinates(&flipped).iter().any(|v| !v.is_finite()) {
                        non_finite += 1;
                        assert!(decoded.is_err(), "non-finite coordinate in {decoded:?}");
                    } else if let Ok(decoded) = decoded {
                        assert_eq!(
                            &encode_request(&decoded)[4..],
                            &flipped[..],
                            "{decoded:?} decoded from bytes it does not re-encode to"
                        );
                    }
                }
            }
        }
        assert!(non_finite > 0, "no flip produced a non-finite coordinate");
    }

    /// Satellite: the mapping table must know **every** `EngineError`
    /// kind. A new `#[non_exhaustive]` variant fails here (its kind is
    /// in `ALL_KINDS`, the table returns `None`) until it is mapped —
    /// it cannot silently become a connection hang.
    #[test]
    fn every_engine_error_kind_is_mapped_to_a_wire_status() {
        for kind in EngineError::ALL_KINDS {
            assert!(
                wire_status_for_kind(kind).is_some(),
                "EngineError kind {kind:?} has no wire-status mapping; \
                 extend wire_status_for_kind and error_body"
            );
        }
        // And the value-level mapping agrees with the table on every
        // constructible variant.
        let samples = vec![
            EngineError::UnknownDataset(3),
            EngineError::AdmissionDenied {
                estimated_s: 1.25,
                limit_s: 0.5,
                from_history: true,
            },
            EngineError::DeadlineExceeded {
                elapsed: Duration::from_millis(30),
                partial_candidates: 11,
            },
            EngineError::Cancelled {
                partial_candidates: 2,
            },
            EngineError::WorkerPanicked {
                worker: 0,
                message: "boom".into(),
            },
        ];
        assert_eq!(samples.len(), EngineError::ALL_KINDS.len());
        for err in samples {
            let body = error_body(&err);
            assert_eq!(
                Some(body.status()),
                wire_status_for_kind(err.kind()),
                "error_body and wire_status_for_kind disagree on {err:?}"
            );
        }
    }

    #[test]
    fn admission_denied_maps_to_shed_with_estimate_derived_retry_after() {
        let err = EngineError::AdmissionDenied {
            estimated_s: 0.125,
            limit_s: 0.01,
            from_history: true,
        };
        match error_body(&err) {
            ResponseBody::Shed {
                retry_after_ms: ms,
                reason,
                from_history,
            } => {
                assert_eq!(ms, 125);
                assert_eq!(reason, ShedReason::Admission);
                assert!(from_history);
            }
            other => panic!("expected Shed, got {other:?}"),
        }
    }

    #[test]
    fn retry_after_scales_with_queue_depth_and_clamps() {
        assert_eq!(retry_after_ms(0.0, 0), 1);
        assert_eq!(retry_after_ms(0.010, 0), 10);
        assert_eq!(retry_after_ms(0.010, 4), 50);
        assert_eq!(retry_after_ms(120.0, 0), 60_000);
        assert_eq!(retry_after_ms(f64::INFINITY, 3), 60_000);
    }
}
