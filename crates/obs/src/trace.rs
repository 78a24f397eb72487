//! Opt-in per-request traces, retained in a bounded ring.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Step-by-step wall-clock breakdown of one traced request
/// (nanoseconds; selections leave steps they do not run at zero).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSteps {
    pub step0_nanos: u64,
    pub step1_nanos: u64,
    pub step2_nanos: u64,
    pub step2a_nanos: u64,
    pub step3_nanos: u64,
}

/// One traced request: identity, outcome sizes, latency and the step
/// breakdown. No wall-clock timestamps — the `seq` number orders traces
/// within one engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Monotonic per-engine sequence number (registration order).
    pub seq: u64,
    /// Request kind (`"join"`, `"self_join"`, `"point"`, `"window"`).
    pub kind: &'static str,
    /// The dataset ids involved (`(id, id)` for selections).
    pub datasets: (u32, u32),
    /// Whether admission let the request run (`false` = shed; the
    /// remaining fields are then zero).
    pub admitted: bool,
    /// §5 modeled cost (seconds) the request was admitted/refused under
    /// (0 for selections).
    pub estimated_s: f64,
    /// End-to-end request latency.
    pub latency_nanos: u64,
    /// Step-1 candidates inspected.
    pub candidates: u64,
    /// Result rows (pairs or selected objects).
    pub results: u64,
    /// Kernel dispatch path the request's batched loops ran on
    /// (`"scalar"` / `"avx2"`), chosen once per engine.
    pub dispatch: &'static str,
    pub steps: TraceSteps,
}

/// A bounded ring of the most recent [`Trace`]s. Capacity 0 disables
/// tracing entirely ([`push`](TraceRing::push) is then a no-op).
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    seq: AtomicU64,
    ring: Mutex<VecDeque<Trace>>,
}

impl TraceRing {
    /// A ring retaining the `capacity` most recent traces.
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            capacity,
            seq: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Whether traces are retained at all.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Maximum retained traces.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The next trace sequence number (monotonic, shared across
    /// threads).
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Retains `trace`, evicting the oldest beyond capacity.
    pub fn push(&self, trace: Trace) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// The retained traces, oldest first.
    pub fn recent(&self) -> Vec<Trace> {
        self.ring
            .lock()
            .expect("trace ring poisoned")
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(seq: u64) -> Trace {
        Trace {
            seq,
            kind: "join",
            datasets: (0, 1),
            admitted: true,
            estimated_s: 0.5,
            latency_nanos: 100 + seq,
            candidates: 10,
            results: 5,
            dispatch: "scalar",
            steps: TraceSteps::default(),
        }
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let ring = TraceRing::new(3);
        assert!(ring.enabled());
        for _ in 0..5 {
            let seq = ring.next_seq();
            ring.push(trace(seq));
        }
        let recent = ring.recent();
        assert_eq!(recent.len(), 3);
        let seqs: Vec<u64> = recent.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_disables_tracing() {
        let ring = TraceRing::new(0);
        assert!(!ring.enabled());
        ring.push(trace(0));
        assert!(ring.recent().is_empty());
    }
}
