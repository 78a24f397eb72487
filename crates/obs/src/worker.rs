//! Per-run worker telemetry: how many pairs and batches Step 1 produced,
//! and how many each Steps-2–3 sink consumed.

use std::sync::atomic::{AtomicU64, Ordering};

/// Which side of the candidate stream a lane instruments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneRole {
    /// Producer side: Step 1 *emitting* candidate batches, counted once
    /// by the executor where they leave the backend.
    Backend,
    /// Consumer side: a sink that *receives* candidate batches and runs
    /// Steps 2–3 on them.
    Consumer,
}

impl LaneRole {
    /// The role's label (`"backend"` / `"consumer"`).
    pub fn as_str(self) -> &'static str {
        match self {
            LaneRole::Backend => "backend",
            LaneRole::Consumer => "consumer",
        }
    }
}

/// One lane's counters: candidate pairs handled, batches flushed, and
/// the largest batch seen. All relaxed atomics — a lane is shared by
/// reference into a worker's hot loop.
#[derive(Debug, Default)]
pub struct WorkerLane {
    pairs: AtomicU64,
    batches: AtomicU64,
    peak_buffered: AtomicU64,
}

impl WorkerLane {
    /// Counts one batch of `n` pairs: pairs, batches and the peak.
    #[inline]
    pub fn record_batch(&self, n: u64) {
        self.pairs.fetch_add(n, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.peak_buffered.fetch_max(n, Ordering::Relaxed);
    }

    fn snapshot(&self, role: LaneRole, worker: usize) -> WorkerLaneSnapshot {
        WorkerLaneSnapshot {
            role,
            worker,
            pairs: self.pairs.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            peak_buffered: self.peak_buffered.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one [`WorkerLane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerLaneSnapshot {
    pub role: LaneRole,
    /// Lane index within its role group (0 for the one producer lane;
    /// the sink's worker index for consumer lanes).
    pub worker: usize,
    pub pairs: u64,
    pub batches: u64,
    pub peak_buffered: u64,
}

/// Telemetry of one join run: one producer lane for Step 1 and one lane
/// per Steps-2–3 sink. Create one per run, count into it, then
/// [`snapshot`](WorkerTelemetry::snapshot) after the run.
#[derive(Debug)]
pub struct WorkerTelemetry {
    producer: WorkerLane,
    consumers: Vec<WorkerLane>,
}

impl WorkerTelemetry {
    /// Telemetry for `sinks` consumer lanes (clamped to ≥ 1).
    pub fn new(sinks: usize) -> Self {
        WorkerTelemetry {
            producer: WorkerLane::default(),
            consumers: (0..sinks.max(1)).map(|_| WorkerLane::default()).collect(),
        }
    }

    /// The Step-1 producer's lane.
    pub fn producer(&self) -> &WorkerLane {
        &self.producer
    }

    /// Sink `w`'s lane (wrapping beyond the sized count, so an
    /// over-subscribed pool never panics).
    pub fn consumer(&self, w: usize) -> &WorkerLane {
        &self.consumers[w % self.consumers.len()]
    }

    /// All lanes (the producer first, then the consumers), idle ones
    /// included.
    pub fn snapshot(&self) -> Vec<WorkerLaneSnapshot> {
        std::iter::once(self.producer.snapshot(LaneRole::Backend, 0))
            .chain(
                self.consumers
                    .iter()
                    .enumerate()
                    .map(|(i, lane)| lane.snapshot(LaneRole::Consumer, i)),
            )
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_count_per_role_and_worker() {
        let t = WorkerTelemetry::new(2);
        t.producer().record_batch(10);
        t.producer().record_batch(30);
        t.consumer(1).record_batch(7);
        t.consumer(2).record_batch(1); // wraps onto lane 0
        let snap = t.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].role, LaneRole::Backend);
        assert_eq!(
            (snap[0].pairs, snap[0].batches, snap[0].peak_buffered),
            (40, 2, 30)
        );
        assert_eq!(snap[1].role, LaneRole::Consumer);
        assert_eq!((snap[1].worker, snap[1].pairs), (0, 1));
        assert_eq!(
            (snap[2].worker, snap[2].pairs, snap[2].peak_buffered),
            (1, 7, 7)
        );
        assert_eq!(LaneRole::Consumer.as_str(), "consumer");
    }

    #[test]
    fn consumer_lanes_count_from_many_threads() {
        let t = WorkerTelemetry::new(3);
        std::thread::scope(|scope| {
            for w in 0..3 {
                let t = &t;
                scope.spawn(move || t.consumer(w).record_batch(100));
            }
        });
        let consumers = &t.snapshot()[1..];
        assert!(consumers.iter().all(|l| l.pairs == 100 && l.batches == 1));
    }

    #[test]
    fn zero_sinks_clamp_to_one_lane() {
        let t = WorkerTelemetry::new(0);
        t.consumer(0).record_batch(1);
        assert_eq!(t.snapshot().len(), 2);
    }
}
