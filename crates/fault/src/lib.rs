//! # msj-fault — deterministic fault injection for the join engine
//!
//! The engine's failure story is only trustworthy if failures can be
//! *manufactured on demand, deterministically*: the chaos suite replays
//! the same seed and must see the same fault at the same site. This crate
//! is the seed-driven fault plan shared by the execution engine
//! (`msj-core`) and the chaos tests — vendored, and zero-cost when
//! disabled (every injection hook is one branch on a
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
//!   [`msj_store::Section`] so the corruption travels through the real
//!   checksum path.
//!
//! A plan fires at most once across every session armed from it:
//! [`FaultSession::rearm`] gives each run, store load or wire connection
//! set its own counters but the one latch, so a run that starts while
//! another is inside an injected stall cannot fire the plan again. Each
//! session records whether it was the one that fired
//! ([`FaultSession::fired`]) so the engine can turn every injected fault
//! into a trace event and a metrics increment.
//!
//! A plan is armed in code only — `msj_core::EngineConfig::fault` — and
//! no environment variable arms one.

use msj_store::Section;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
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
        section: Section,
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
/// derives the injection site. `Copy` so it rides on the engine's
/// configuration; [`FaultConfig::disabled`] (the default) is the zero-cost
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

/// splitmix64 — the one-instruction-deep seed mixer (Steele et al.).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// One run's armed fault state: the per-run counters that make "first
/// batch", "`n`-th batch" well-defined, the plan's latch it shares with
/// every session [`rearm`](FaultSession::rearm)ed from it, and whether
/// this session fired, which the engine reads back for observability.
#[derive(Debug)]
pub struct FaultSession {
    config: FaultConfig,
    /// Global batch counter across all workers (drives `CancelAtBatch`).
    batches: AtomicU64,
    /// The plan's one-shot latch, shared by every session armed from it:
    /// the first hook to swap it fires the plan, once across all of them.
    latch: Arc<AtomicBool>,
    /// Whether this session's hook was the one that swapped the latch.
    fired: AtomicBool,
}

impl FaultSession {
    /// Arms `config` with a latch of its own.
    pub fn new(config: FaultConfig) -> Self {
        FaultSession {
            config,
            batches: AtomicU64::new(0),
            latch: Arc::new(AtomicBool::new(false)),
            fired: AtomicBool::new(false),
        }
    }

    /// A session of the same plan for one more run, store load or
    /// serving front: counters of its own, this session's latch. Inert
    /// once the plan has fired.
    pub fn rearm(&self) -> FaultSession {
        if self.latch.load(Ordering::Acquire) {
            return FaultSession::inert();
        }
        FaultSession {
            latch: self.latch.clone(),
            ..FaultSession::new(self.config)
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

    /// Whether `section` should be corrupted on this load (consulted at
    /// the store's read seam). Returns the seed, which the caller uses to
    /// derive the flipped byte's index — keeping the *where* of the
    /// corruption as deterministic as every other fault site.
    #[inline]
    pub fn corrupt_store(&self, section: Section) -> Option<u64> {
        match self.config.kind {
            Some(FaultKind::StoreCorrupt { section: target })
                if target == section && self.latch() =>
            {
                Some(self.config.seed)
            }
            _ => None,
        }
    }

    /// The site this session fired, if it won the plan's latch — the
    /// engine turns this into a trace event and a
    /// `msj_fault_injected_total{site}` increment.
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

    /// Swaps the plan's latch; `true` for the one caller that won it.
    fn latch(&self) -> bool {
        let won = !self.latch.swap(true, Ordering::AcqRel);
        if won {
            self.fired.store(true, Ordering::Release);
        }
        won
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
        assert_eq!(s.corrupt_store(Section::Tree), None);
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
                section: Section::RasterA,
            },
        ));
        assert_eq!(
            s.corrupt_store(Section::Tree),
            None,
            "other sections untouched"
        );
        assert_eq!(s.fired(), None, "a miss must not consume the plan");
        assert_eq!(s.corrupt_store(Section::RasterA), Some(13));
        assert_eq!(s.corrupt_store(Section::RasterA), None, "one-shot");
        assert_eq!(s.fired(), Some("store_corrupt"));
        assert_eq!(s.on_batch(0, 1), FaultAction::Proceed);
    }

    #[test]
    fn rearmed_sessions_share_one_latch() {
        let plan = FaultSession::new(FaultConfig::seeded(
            5,
            FaultKind::CancelAtBatch { batch: 0 },
        ));
        let (first, second) = (plan.rearm(), plan.rearm());
        assert_eq!(second.on_batch(0, 1), FaultAction::Cancel);
        assert_eq!(
            first.on_batch(0, 1),
            FaultAction::Proceed,
            "spent by the other"
        );
        assert_eq!(
            (first.fired(), second.fired()),
            (None, Some("cancel_at_batch"))
        );
        assert!(!plan.rearm().armed(), "a spent plan arms inert sessions");
    }

    #[test]
    fn config_roundtrips_site_names() {
        for (kind, site) in [
            (FaultKind::WorkerPanic, "worker_panic"),
            (FaultKind::SlowWorker { millis: 1 }, "slow_worker"),
            (FaultKind::CancelAtBatch { batch: 0 }, "cancel_at_batch"),
            (
                FaultKind::StoreCorrupt {
                    section: Section::Tree,
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
