//! # msj-fault — deterministic fault injection for the join engine
//!
//! The engine's failure story is only trustworthy if failures can be
//! *manufactured on demand, deterministically*: the chaos suite replays
//! the same seed and must see the same fault at the same site. This crate
//! is the seed-driven fault plan shared by the execution engine
//! (`msj-core`) and the chaos tests — vendored, dependency-free, and
//! zero-cost when disabled (every injection hook is one branch on a
//! `Copy` field).
//!
//! ## The model
//!
//! A [`FaultConfig`] is a *plan* ([`FaultKind`]) plus a *seed*. The plan
//! names what goes wrong; the seed picks **where** — which candidate
//! batch boundary the fault lands on, via a splitmix64 derivation over a
//! small spread ([`BATCH_SPREAD`]) — so sweeping seeds sweeps the
//! injection site without changing any other input. Batch boundaries,
//! not worker identities, anchor the derivation: under the fused
//! fan-out, *which* worker consumes a given chunk is scheduler-dependent
//! (a starved worker may never see one), while the global batch stream
//! always arrives. Per run, the engine arms a [`FaultSession`] and polls
//! it from the existing span boundaries:
//!
//! * [`FaultSession::on_batch`] — called by each consumer sink once per
//!   candidate batch (the Step-2/Step-3 span boundary). Returns the
//!   [`FaultAction`] to take: panic, stall, cancel, or proceed.
//! * [`FaultSession::corrupt_store`] — consulted at the persistent
//!   store's load seam; a hit flips one seed-derived byte of the named
//!   section so the corruption travels through the real checksum path.
//!
//! The session records the first site that fired ([`FaultSession::fired`])
//! so the engine can turn every injected fault into a trace event and a
//! metrics increment.
//!
//! ## Environment knobs
//!
//! [`FaultConfig::from_env`] reads:
//!
//! * `MSJ_FAULT_PLAN` — `worker_panic`, `slow_worker:<millis>`,
//!   `cancel_at_batch:<n>`, or
//!   `store_corrupt:<section>` (a persistent-store section name such as
//!   `tree` or `raster_a`); unset or unparsable means *disabled*.
//! * `MSJ_FAULT_SEED` — decimal `u64`, defaults to `0`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// What the fault plan injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker consuming the seed-selected candidate batch panics.
    WorkerPanic,
    /// The worker consuming the seed-selected candidate batch stalls
    /// `millis` — a straggler, not a failure.
    SlowWorker {
        /// Stall duration in milliseconds.
        millis: u32,
    },
    /// The request's cancel token fires when the `batch`-th candidate
    /// batch (0-based, counted across all workers) is consumed.
    CancelAtBatch {
        /// Global 0-based batch index at which cancellation fires.
        batch: u32,
    },
    /// One byte of the named persistent-store section flips at the load
    /// seam (seed-deterministic index), so the corruption flows through
    /// the store's real checksum-verification path and the engine's
    /// rebuild of the artifact.
    StoreCorrupt {
        /// Which section of the segment file the flip lands in.
        section: StoreSection,
    },
    /// **Wire:** the connection is reset (closed with nothing written)
    /// just before the seed-selected response frame would go out.
    ConnReset,
    /// **Wire:** only a prefix of the seed-selected response frame is
    /// written before the connection closes — the client sees a
    /// truncated frame, never a corrupted complete one.
    PartialWrite,
    /// **Wire:** the server stalls `millis` before writing the selected
    /// response — a slow-drain client/socket, not a failure. The stall
    /// runs in that connection's writer and delays only that connection.
    SlowClient {
        /// Stall duration in milliseconds.
        millis: u32,
    },
    /// **Wire:** the selected response is computed, then silently
    /// discarded and the connection closed — the client must treat the
    /// EOF as request-failed, never as an empty result.
    DropBeforeReply,
}

/// The persistent-store section a [`FaultKind::StoreCorrupt`] plan
/// targets. Mirrors `msj-store`'s section set by *name* (this crate
/// stays dependency-free); the engine maps between the two at the load
/// seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreSection {
    Relation,
    Tree,
    Conservative,
    Progressive,
    TrStar,
    RasterA,
    RasterB,
}

impl StoreSection {
    /// Every section, in segment-table order.
    pub const ALL: [StoreSection; 7] = [
        StoreSection::Relation,
        StoreSection::Tree,
        StoreSection::Conservative,
        StoreSection::Progressive,
        StoreSection::TrStar,
        StoreSection::RasterA,
        StoreSection::RasterB,
    ];

    /// The stable name used in fault plans and store metric labels.
    pub fn name(self) -> &'static str {
        match self {
            StoreSection::Relation => "relation",
            StoreSection::Tree => "tree",
            StoreSection::Conservative => "conservative",
            StoreSection::Progressive => "progressive",
            StoreSection::TrStar => "trstar",
            StoreSection::RasterA => "raster_a",
            StoreSection::RasterB => "raster_b",
        }
    }

    /// Parses a section name (the `store_corrupt:<section>` suffix).
    pub fn parse(text: &str) -> Option<Self> {
        StoreSection::ALL.into_iter().find(|s| s.name() == text)
    }
}

impl FaultKind {
    /// The stable site name used for metrics labels and trace events.
    pub fn site(&self) -> &'static str {
        match self {
            FaultKind::WorkerPanic => "worker_panic",
            FaultKind::SlowWorker { .. } => "slow_worker",
            FaultKind::CancelAtBatch { .. } => "cancel_at_batch",
            FaultKind::StoreCorrupt { .. } => "store_corrupt",
            FaultKind::ConnReset => "conn_reset",
            FaultKind::PartialWrite => "partial_write",
            FaultKind::SlowClient { .. } => "slow_client",
            FaultKind::DropBeforeReply => "drop_before_reply",
        }
    }

    /// Whether this kind injects at the wire (a serving front's
    /// response-write path) rather than inside the execution engine.
    pub fn is_wire(&self) -> bool {
        matches!(
            self,
            FaultKind::ConnReset
                | FaultKind::PartialWrite
                | FaultKind::SlowClient { .. }
                | FaultKind::DropBeforeReply
        )
    }
}

/// The engine-facing fault plan: a [`FaultKind`] plus the seed that
/// derives the injection site. `Copy` so it rides on `JoinConfig`
/// unchanged; [`FaultConfig::disabled`] (the default) is the zero-cost
/// no-op plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultConfig {
    /// Derives which worker a worker-targeted fault lands on.
    pub seed: u64,
    /// The plan; `None` disables injection entirely.
    pub kind: Option<FaultKind>,
}

impl FaultConfig {
    /// No injection — the default, and the production configuration.
    pub const fn disabled() -> Self {
        FaultConfig {
            seed: 0,
            kind: None,
        }
    }

    /// A seeded plan.
    pub const fn seeded(seed: u64, kind: FaultKind) -> Self {
        FaultConfig {
            seed,
            kind: Some(kind),
        }
    }

    /// Whether any fault is armed.
    pub const fn enabled(&self) -> bool {
        self.kind.is_some()
    }

    /// Reads `MSJ_FAULT_PLAN` / `MSJ_FAULT_SEED`; unset or unparsable
    /// plan means [`disabled`](Self::disabled).
    pub fn from_env() -> Self {
        let seed = std::env::var("MSJ_FAULT_SEED")
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
            .unwrap_or(0);
        let kind = std::env::var("MSJ_FAULT_PLAN")
            .ok()
            .and_then(|s| parse_plan(&s));
        FaultConfig { seed, kind }
    }
}

/// Parses a `MSJ_FAULT_PLAN` value; `None` when unrecognized.
pub fn parse_plan(text: &str) -> Option<FaultKind> {
    let text = text.trim();
    if let Some(rest) = text.strip_prefix("slow_worker:") {
        return rest
            .parse::<u32>()
            .ok()
            .map(|millis| FaultKind::SlowWorker { millis });
    }
    if let Some(rest) = text.strip_prefix("cancel_at_batch:") {
        return rest
            .parse::<u32>()
            .ok()
            .map(|batch| FaultKind::CancelAtBatch { batch });
    }
    if let Some(rest) = text.strip_prefix("slow_client:") {
        return rest
            .parse::<u32>()
            .ok()
            .map(|millis| FaultKind::SlowClient { millis });
    }
    if let Some(rest) = text.strip_prefix("store_corrupt:") {
        return StoreSection::parse(rest).map(|section| FaultKind::StoreCorrupt { section });
    }
    match text {
        "worker_panic" => Some(FaultKind::WorkerPanic),
        "conn_reset" => Some(FaultKind::ConnReset),
        "partial_write" => Some(FaultKind::PartialWrite),
        "drop_before_reply" => Some(FaultKind::DropBeforeReply),
        _ => None,
    }
}

/// What an injection hook tells its caller to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault here — continue.
    Proceed,
    /// Panic with [`FaultSession::panic_message`] — the injected worker
    /// failure.
    Panic,
    /// Stall this long, then continue — the injected straggler.
    Sleep(Duration),
    /// Cancel the request's token, then continue draining.
    Cancel,
}

/// What the wire-level injection hook ([`FaultSession::on_response`])
/// tells the serving front to do with the response it is about to write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireAction {
    /// No fault on this response — write it normally.
    Proceed,
    /// Close the connection without writing anything.
    ConnReset,
    /// Write a strict prefix of the frame, then close the connection.
    PartialWrite,
    /// Stall this long, then write the response normally. The stall runs
    /// in one connection's writer and delays only that connection.
    SlowThenProceed(Duration),
    /// Discard the computed response and close the connection.
    DropBeforeReply,
}

/// How far into the batch stream a seed-targeted fault can land: the
/// derived batch index is `splitmix64(seed) % BATCH_SPREAD`. Kept small
/// so any run with at least this many candidate batches is guaranteed to
/// fire the plan.
pub const BATCH_SPREAD: u64 = 4;

/// splitmix64 — the one-instruction-deep seed mixer (Steele et al.),
/// vendored so the crate stays dependency-free.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// One run's armed fault state: the per-run counters that make "first
/// batch", "`n`-th batch" well-defined, plus the fired-site latch the
/// engine reads back for observability.
#[derive(Debug)]
pub struct FaultSession {
    config: FaultConfig,
    /// Global batch counter across all workers (drives `CancelAtBatch`).
    batches: AtomicU64,
    /// One-shot latch: worker-targeted faults fire exactly once per run.
    fired: AtomicBool,
}

impl FaultSession {
    /// Arms `config` for one run.
    pub fn new(config: FaultConfig) -> Self {
        FaultSession {
            config,
            batches: AtomicU64::new(0),
            fired: AtomicBool::new(false),
        }
    }

    /// A permanently inert session.
    pub fn inert() -> Self {
        FaultSession::new(FaultConfig::disabled())
    }

    /// Whether any fault is armed (the zero-cost fast-path check).
    #[inline]
    pub fn armed(&self) -> bool {
        self.config.enabled()
    }

    /// The armed plan's seed.
    pub fn seed(&self) -> u64 {
        self.config.seed
    }

    /// The 0-based global batch index a seed-targeted fault lands on:
    /// the first batch at or after it fires the plan. Chaos
    /// configurations keep `batch_pairs` small enough that every run
    /// sees at least [`BATCH_SPREAD`] batches, so the fault is
    /// guaranteed to fire.
    pub fn target_batch(&self) -> u64 {
        splitmix64(self.config.seed) % BATCH_SPREAD
    }

    /// The per-batch injection hook, called by each consumer sink once
    /// per candidate batch with its 0-based `worker` index and the run's
    /// total worker count (reported in the panic site, not used for
    /// targeting). One branch when disabled.
    #[inline]
    pub fn on_batch(&self, worker: usize, workers: usize) -> FaultAction {
        let Some(kind) = self.config.kind else {
            return FaultAction::Proceed;
        };
        self.on_batch_armed(kind, worker, workers)
    }

    #[cold]
    fn on_batch_armed(&self, kind: FaultKind, _worker: usize, _workers: usize) -> FaultAction {
        match kind {
            FaultKind::WorkerPanic => {
                let seen = self.batches.fetch_add(1, Ordering::Relaxed);
                if seen >= self.target_batch() && self.latch() {
                    FaultAction::Panic
                } else {
                    FaultAction::Proceed
                }
            }
            FaultKind::SlowWorker { millis } => {
                let seen = self.batches.fetch_add(1, Ordering::Relaxed);
                if seen >= self.target_batch() && self.latch() {
                    FaultAction::Sleep(Duration::from_millis(u64::from(millis)))
                } else {
                    FaultAction::Proceed
                }
            }
            FaultKind::CancelAtBatch { batch } => {
                let seen = self.batches.fetch_add(1, Ordering::Relaxed);
                if seen >= u64::from(batch) && self.latch() {
                    FaultAction::Cancel
                } else {
                    FaultAction::Proceed
                }
            }
            // Store corruption and the wire kinds fire at their own
            // sites, not at batch boundaries.
            FaultKind::StoreCorrupt { .. }
            | FaultKind::ConnReset
            | FaultKind::PartialWrite
            | FaultKind::SlowClient { .. }
            | FaultKind::DropBeforeReply => FaultAction::Proceed,
        }
    }

    /// The wire-level injection hook, called by the serving front once
    /// per response it is about to write. Counts responses exactly like
    /// [`on_batch`](FaultSession::on_batch) counts batches: the
    /// seed-derived [`target_batch`](FaultSession::target_batch)-th
    /// response (or the first one after it) fires the plan, once per
    /// session. Engine-side kinds always proceed here.
    #[inline]
    pub fn on_response(&self) -> WireAction {
        let Some(kind) = self.config.kind else {
            return WireAction::Proceed;
        };
        if !kind.is_wire() {
            return WireAction::Proceed;
        }
        self.on_response_armed(kind)
    }

    #[cold]
    fn on_response_armed(&self, kind: FaultKind) -> WireAction {
        let seen = self.batches.fetch_add(1, Ordering::Relaxed);
        if seen < self.target_batch() || !self.latch() {
            return WireAction::Proceed;
        }
        match kind {
            FaultKind::ConnReset => WireAction::ConnReset,
            FaultKind::PartialWrite => WireAction::PartialWrite,
            FaultKind::SlowClient { millis } => {
                WireAction::SlowThenProceed(Duration::from_millis(u64::from(millis)))
            }
            FaultKind::DropBeforeReply => WireAction::DropBeforeReply,
            _ => WireAction::Proceed,
        }
    }

    /// Whether the named persistent-store section should be corrupted on
    /// this load (consulted at the store's read seam, once per session).
    /// Returns the seed, which the caller uses to derive the flipped
    /// byte's index — keeping the *where* of the corruption as
    /// deterministic as every other fault site.
    #[inline]
    pub fn corrupt_store(&self, section: &str) -> Option<u64> {
        match self.config.kind {
            Some(FaultKind::StoreCorrupt { section: target })
                if target.name() == section && self.latch() =>
            {
                Some(self.config.seed)
            }
            _ => None,
        }
    }

    /// The site that fired this run, if any — the engine turns this into
    /// a trace event and a `msj_fault_injected_total{site}` increment.
    pub fn fired(&self) -> Option<&'static str> {
        if self.fired.load(Ordering::Acquire) {
            self.config.kind.map(|k| k.site())
        } else {
            None
        }
    }

    /// The message worker-panic injections unwind with.
    pub fn panic_message(&self) -> String {
        format!("injected fault: worker_panic (seed {})", self.config.seed)
    }

    /// Latches the one-shot flag; `true` for the caller that won.
    fn latch(&self) -> bool {
        !self.fired.swap(true, Ordering::AcqRel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_session_always_proceeds() {
        let s = FaultSession::inert();
        assert!(!s.armed());
        for w in 0..8 {
            assert_eq!(s.on_batch(w, 8), FaultAction::Proceed);
        }
        assert_eq!(s.corrupt_store("tree"), None);
        assert_eq!(s.fired(), None);
    }

    #[test]
    fn worker_panic_fires_once_at_the_seeded_batch() {
        let s = FaultSession::new(FaultConfig::seeded(42, FaultKind::WorkerPanic));
        let target = s.target_batch();
        assert!(target < BATCH_SPREAD);
        let mut fired_at = None;
        for batch in 0..(BATCH_SPREAD * 3) {
            match s.on_batch((batch % 4) as usize, 4) {
                FaultAction::Panic => {
                    assert_eq!(fired_at.replace(batch), None, "one-shot");
                    assert_eq!(batch, target, "fires at the derived batch");
                }
                FaultAction::Proceed => {}
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert_eq!(fired_at, Some(target));
        assert_eq!(s.fired(), Some("worker_panic"));
    }

    #[test]
    fn target_batch_is_seed_deterministic_and_bounded() {
        let a = FaultSession::new(FaultConfig::seeded(7, FaultKind::WorkerPanic));
        let b = FaultSession::new(FaultConfig::seeded(7, FaultKind::WorkerPanic));
        assert_eq!(a.target_batch(), b.target_batch());
        for seed in 0..64 {
            let s = FaultSession::new(FaultConfig::seeded(seed, FaultKind::WorkerPanic));
            assert!(s.target_batch() < BATCH_SPREAD);
        }
    }

    #[test]
    fn cancel_at_batch_counts_globally() {
        let s = FaultSession::new(FaultConfig::seeded(
            1,
            FaultKind::CancelAtBatch { batch: 2 },
        ));
        assert_eq!(s.on_batch(0, 1), FaultAction::Proceed);
        assert_eq!(s.on_batch(0, 1), FaultAction::Proceed);
        assert_eq!(s.on_batch(0, 1), FaultAction::Cancel);
        assert_eq!(s.on_batch(0, 1), FaultAction::Proceed, "one-shot");
        assert_eq!(s.fired(), Some("cancel_at_batch"));
    }

    #[test]
    fn slow_worker_reports_the_configured_stall() {
        let s = FaultSession::new(FaultConfig::seeded(3, FaultKind::SlowWorker { millis: 25 }));
        let mut stalls = 0;
        for _ in 0..(BATCH_SPREAD * 2) {
            match s.on_batch(0, 1) {
                FaultAction::Sleep(d) => {
                    assert_eq!(d, Duration::from_millis(25));
                    stalls += 1;
                }
                FaultAction::Proceed => {}
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert_eq!(stalls, 1, "one-shot");
    }

    #[test]
    fn store_corrupt_fires_once_for_the_named_section_only() {
        let s = FaultSession::new(FaultConfig::seeded(
            13,
            FaultKind::StoreCorrupt {
                section: StoreSection::RasterA,
            },
        ));
        assert_eq!(s.corrupt_store("tree"), None, "other sections untouched");
        assert_eq!(s.fired(), None, "a miss must not consume the plan");
        assert_eq!(s.corrupt_store("raster_a"), Some(13));
        assert_eq!(s.corrupt_store("raster_a"), None, "one-shot");
        assert_eq!(s.fired(), Some("store_corrupt"));
        assert_eq!(s.on_batch(0, 1), FaultAction::Proceed);
    }

    #[test]
    fn plan_parsing_covers_every_kind_and_rejects_noise() {
        assert_eq!(parse_plan("worker_panic"), Some(FaultKind::WorkerPanic));
        assert_eq!(
            parse_plan("slow_worker:15"),
            Some(FaultKind::SlowWorker { millis: 15 })
        );
        assert_eq!(
            parse_plan(" cancel_at_batch:3 "),
            Some(FaultKind::CancelAtBatch { batch: 3 })
        );
        assert_eq!(parse_plan("conn_reset"), Some(FaultKind::ConnReset));
        assert_eq!(parse_plan("partial_write"), Some(FaultKind::PartialWrite));
        assert_eq!(
            parse_plan("slow_client:40"),
            Some(FaultKind::SlowClient { millis: 40 })
        );
        assert_eq!(
            parse_plan("drop_before_reply"),
            Some(FaultKind::DropBeforeReply)
        );
        for section in StoreSection::ALL {
            assert_eq!(
                parse_plan(&format!("store_corrupt:{}", section.name())),
                Some(FaultKind::StoreCorrupt { section })
            );
        }
        assert_eq!(parse_plan("slow_worker:"), None);
        assert_eq!(parse_plan("slow_client:"), None);
        assert_eq!(parse_plan("store_corrupt:"), None);
        assert_eq!(parse_plan("store_corrupt:bogus"), None);
        assert_eq!(parse_plan("unplugged"), None);
        assert_eq!(parse_plan(""), None);
    }

    #[test]
    fn config_roundtrips_site_names() {
        for (kind, site) in [
            (FaultKind::WorkerPanic, "worker_panic"),
            (FaultKind::SlowWorker { millis: 1 }, "slow_worker"),
            (FaultKind::CancelAtBatch { batch: 0 }, "cancel_at_batch"),
            (
                FaultKind::StoreCorrupt {
                    section: StoreSection::Tree,
                },
                "store_corrupt",
            ),
            (FaultKind::ConnReset, "conn_reset"),
            (FaultKind::PartialWrite, "partial_write"),
            (FaultKind::SlowClient { millis: 1 }, "slow_client"),
            (FaultKind::DropBeforeReply, "drop_before_reply"),
        ] {
            assert_eq!(kind.site(), site);
            assert_eq!(
                kind.is_wire(),
                matches!(
                    site,
                    "conn_reset" | "partial_write" | "slow_client" | "drop_before_reply"
                )
            );
        }
    }

    #[test]
    fn wire_faults_fire_once_at_the_seeded_response() {
        for (kind, expect) in [
            (FaultKind::ConnReset, WireAction::ConnReset),
            (FaultKind::PartialWrite, WireAction::PartialWrite),
            (
                FaultKind::SlowClient { millis: 7 },
                WireAction::SlowThenProceed(Duration::from_millis(7)),
            ),
            (FaultKind::DropBeforeReply, WireAction::DropBeforeReply),
        ] {
            let s = FaultSession::new(FaultConfig::seeded(11, kind));
            let target = s.target_batch();
            let mut fired_at = None;
            for response in 0..(BATCH_SPREAD * 3) {
                match s.on_response() {
                    WireAction::Proceed => {}
                    action => {
                        assert_eq!(action, expect);
                        assert_eq!(fired_at.replace(response), None, "one-shot");
                        assert_eq!(response, target, "fires at the derived response");
                    }
                }
            }
            assert_eq!(fired_at, Some(target));
            assert_eq!(s.fired(), Some(kind.site()));
        }
    }

    #[test]
    fn wire_faults_never_fire_at_batch_boundaries_and_vice_versa() {
        let wire = FaultSession::new(FaultConfig::seeded(3, FaultKind::ConnReset));
        for _ in 0..(BATCH_SPREAD * 2) {
            assert_eq!(wire.on_batch(0, 1), FaultAction::Proceed);
        }
        assert_eq!(wire.fired(), None, "batch hook must not consume the plan");
        let engine = FaultSession::new(FaultConfig::seeded(3, FaultKind::WorkerPanic));
        for _ in 0..(BATCH_SPREAD * 2) {
            assert_eq!(engine.on_response(), WireAction::Proceed);
        }
        assert_eq!(engine.fired(), None, "wire hook must not consume the plan");
    }
}
