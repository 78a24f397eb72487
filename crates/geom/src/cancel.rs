//! Cooperative cancellation shared by every join path.
//!
//! A [`CancelToken`] is a cheaply clonable handle over one shared flag
//! plus an optional wall-clock deadline. Producers and sinks poll it at
//! *batch* boundaries — a partition tile, a traversal chunk, one
//! `batch_pairs` classification run — so an over-deadline join stops
//! within one batch of work rather than running to completion. The token
//! lives here, in the lowest common dependency, because both Step-1
//! backends (`msj-sam`, `msj-partition`) and the execution engine
//! (`msj-core`) poll the same token.
//!
//! Polling is a single relaxed atomic load when no deadline is armed;
//! with a deadline the poll also compares `Instant::now()` against the
//! precomputed expiry and latches the flag on first expiry, so later
//! polls are back to the one load.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a cancelled token was cancelled: an explicit [`CancelToken::cancel`]
/// call, or an armed deadline that expired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called.
    Explicit,
    /// The armed deadline elapsed before the work finished.
    DeadlineExpired,
}

#[derive(Debug)]
struct Shared {
    cancelled: AtomicBool,
    /// Set (once) when the cancellation came from deadline expiry rather
    /// than an explicit `cancel()` call.
    expired: AtomicBool,
    /// Wall-clock instant the token was created — failure reporting
    /// measures elapsed time against this.
    started: Instant,
    deadline: Option<Instant>,
}

/// A shared cancellation handle: one atomic flag plus an optional
/// deadline. Clones observe the same state.
#[derive(Debug, Clone)]
pub struct CancelToken {
    shared: Arc<Shared>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A fresh token with no deadline; cancels only via [`cancel`](Self::cancel).
    pub fn new() -> Self {
        CancelToken {
            shared: Arc::new(Shared {
                cancelled: AtomicBool::new(false),
                expired: AtomicBool::new(false),
                started: Instant::now(),
                deadline: None,
            }),
        }
    }

    /// A fresh token whose deadline is `timeout` from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        let now = Instant::now();
        CancelToken {
            shared: Arc::new(Shared {
                cancelled: AtomicBool::new(false),
                expired: AtomicBool::new(false),
                started: now,
                deadline: Some(now + timeout),
            }),
        }
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.shared.cancelled.store(true, Ordering::Release);
    }

    /// Polls the token: `true` once cancellation was requested or the
    /// deadline expired. This is the batch-boundary check — one relaxed
    /// load on the fast path.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        if self.shared.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(deadline) = self.shared.deadline {
            if Instant::now() >= deadline {
                // Latch, so subsequent polls skip the clock read and the
                // reason is distinguishable from an explicit cancel.
                self.shared.expired.store(true, Ordering::Relaxed);
                self.shared.cancelled.store(true, Ordering::Release);
                return true;
            }
        }
        false
    }

    /// Why the token is cancelled, or `None` while it is live. Call after
    /// [`is_cancelled`](Self::is_cancelled) returned `true`.
    pub fn reason(&self) -> Option<CancelReason> {
        if !self.shared.cancelled.load(Ordering::Acquire) {
            return None;
        }
        if self.shared.expired.load(Ordering::Relaxed) {
            Some(CancelReason::DeadlineExpired)
        } else {
            Some(CancelReason::Explicit)
        }
    }

    /// Wall-clock time since the token was created.
    pub fn elapsed(&self) -> Duration {
        self.shared.started.elapsed()
    }

    /// The armed deadline's remaining budget, if any (zero once expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.shared
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert_eq!(token.reason(), None);
        assert_eq!(token.remaining(), None);
    }

    #[test]
    fn explicit_cancel_is_visible_to_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        token.cancel();
        assert!(clone.is_cancelled());
        assert_eq!(clone.reason(), Some(CancelReason::Explicit));
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let token = CancelToken::with_deadline(Duration::ZERO);
        assert_eq!(token.remaining(), Some(Duration::ZERO));
        assert!(token.is_cancelled());
        assert_eq!(token.reason(), Some(CancelReason::DeadlineExpired));
    }

    #[test]
    fn generous_deadline_stays_live() {
        let token = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!token.is_cancelled());
        assert!(token.remaining().expect("deadline armed") > Duration::from_secs(3000));
    }

    #[test]
    fn explicit_cancel_wins_over_pending_deadline() {
        let token = CancelToken::with_deadline(Duration::from_secs(3600));
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(token.reason(), Some(CancelReason::Explicit));
    }
}
