//! Execution plumbing shared by every join path: the [`PairSink`] a
//! Step-1 producer delivers candidate batches into, its caller-side
//! batching adapter, the structured worker-panic payload and the one
//! thread-count resolution helper.
//!
//! A producer runs on one thread and delivers into one sink; scheduling
//! the downstream steps over threads is the consumer's business (the
//! execution engine in `msj-core` runs the geometric filter and the exact
//! step either inside the sink or on a worker pool it feeds from there).

use crate::object::ObjectId;
use std::any::Any;

/// The structured payload a worker thread's panic is re-raised with
/// (a partition tile worker, a Steps-2–3 sink): which worker, and the
/// panic message it died with. The execution engine (`msj-core`) catches
/// this at the join boundary and converts it into a structured
/// `WorkerPanicked` error, so a panic in one worker fails *the request*,
/// not the engine.
#[derive(Debug)]
pub struct WorkerPanic {
    /// 0-based index of the worker thread that panicked.
    pub worker: usize,
    /// The panic payload rendered as text (see [`panic_message`]).
    pub message: String,
}

/// Renders a caught panic payload as text: `&str` and `String` payloads
/// (what `panic!` produces) pass through; anything else gets a
/// placeholder. Also unwraps an already-structured [`WorkerPanic`] so
/// nested catch/re-raise layers don't stack placeholders.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(wp) = payload.downcast_ref::<WorkerPanic>() {
        wp.message.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Resolves a requested worker-thread count: `0` means "use the machine's
/// available parallelism". Shared by both thread settings (the fused
/// engine's sinks, the partitioned sweep's tiles) so the resolution rule
/// cannot drift between them.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Where a Step-1 producer delivers its candidate pairs, one at a time or
/// in batches. Not `Sync` — the producing thread owns the sink
/// exclusively, so implementations need no per-pair synchronization.
pub trait PairSink {
    /// Delivers one candidate pair `(id_a, id_b)`.
    fn pair(&mut self, id_a: ObjectId, id_b: ObjectId);

    /// Delivers a run of candidate pairs at once, in stream order.
    ///
    /// Semantically identical to calling [`pair`](PairSink::pair) for each
    /// element (that is the default implementation); producers batch at
    /// natural boundaries (a partition tile, a traversal chunk) so
    /// consumers can amortize per-pair costs — one virtual dispatch per
    /// batch, and batch-wide classification in the fused engine
    /// (`msj-core`'s `classify_batch`).
    fn consume_batch(&mut self, pairs: &[(ObjectId, ObjectId)]) {
        for &(id_a, id_b) in pairs {
            self.pair(id_a, id_b);
        }
    }
}

/// Every closure is a sink.
impl<F: FnMut(ObjectId, ObjectId)> PairSink for F {
    fn pair(&mut self, id_a: ObjectId, id_b: ObjectId) {
        self(id_a, id_b)
    }
}

/// A caller-side batching adapter: buffers pairs into a fixed-capacity
/// vector and forwards full buffers through
/// [`PairSink::consume_batch`] — the producer-side half of the batched
/// protocol. Producers create one per worker, feed it per-pair, call
/// [`flush`](PairBatchBuffer::flush) at natural boundaries (tile / chunk
/// ends), and let `Drop` flush whatever remains.
///
/// Pair order is preserved exactly; only the granularity of sink calls
/// changes.
pub struct PairBatchBuffer<'a, 'b> {
    sink: &'a mut (dyn PairSink + 'b),
    buf: Vec<(ObjectId, ObjectId)>,
    capacity: usize,
}

impl<'a, 'b> PairBatchBuffer<'a, 'b> {
    /// A buffer of `capacity` pairs (clamped to at least 1) over `sink`.
    pub fn new(sink: &'a mut (dyn PairSink + 'b), capacity: usize) -> Self {
        let capacity = capacity.max(1);
        PairBatchBuffer {
            sink,
            buf: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Buffers one pair, forwarding the batch when the buffer fills.
    #[inline]
    pub fn pair(&mut self, id_a: ObjectId, id_b: ObjectId) {
        self.buf.push((id_a, id_b));
        if self.buf.len() == self.capacity {
            self.flush();
        }
    }

    /// Forwards the buffered pairs (if any) to the sink.
    pub fn flush(&mut self) {
        if !self.buf.is_empty() {
            self.sink.consume_batch(&self.buf);
            self.buf.clear();
        }
    }
}

impl Drop for PairBatchBuffer<'_, '_> {
    fn drop(&mut self) {
        // Never re-enter the sink while this thread is unwinding: the
        // sink is what panicked, and a second panic would abort the
        // process. A cancelled/panicked worker's buffered pairs are
        // discarded with the run.
        if !std::thread::panicking() {
            self.flush();
        }
    }
}

/// The buffer is itself a sink, so producers written against
/// `&mut dyn PairSink` can be batched by interposition.
impl PairSink for PairBatchBuffer<'_, '_> {
    fn pair(&mut self, id_a: ObjectId, id_b: ObjectId) {
        PairBatchBuffer::pair(self, id_a, id_b);
    }

    fn consume_batch(&mut self, pairs: &[(ObjectId, ObjectId)]) {
        // Already-batched input passes through; flush first so the
        // stream order is preserved.
        self.flush();
        self.sink.consume_batch(pairs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_threads_maps_zero_to_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn batch_buffer_preserves_order_and_flushes_on_drop() {
        struct Recording {
            pairs: Vec<(ObjectId, ObjectId)>,
            batches: Vec<usize>,
        }
        impl PairSink for Recording {
            fn pair(&mut self, a: ObjectId, b: ObjectId) {
                self.pairs.push((a, b));
            }
            fn consume_batch(&mut self, pairs: &[(ObjectId, ObjectId)]) {
                self.batches.push(pairs.len());
                self.pairs.extend_from_slice(pairs);
            }
        }
        let mut sink = Recording {
            pairs: Vec::new(),
            batches: Vec::new(),
        };
        {
            let mut buffer = PairBatchBuffer::new(&mut sink, 3);
            for i in 0..7u32 {
                buffer.pair(i, i + 100);
            }
            buffer.flush();
            buffer.pair(7, 107);
            // The trailing pair flushes on drop.
        }
        let expect: Vec<(ObjectId, ObjectId)> = (0..8u32).map(|i| (i, i + 100)).collect();
        assert_eq!(sink.pairs, expect);
        assert_eq!(sink.batches, vec![3, 3, 1, 1]);
    }

    #[test]
    fn default_consume_batch_forwards_per_pair() {
        let mut got = Vec::new();
        let mut push = |a: ObjectId, b: ObjectId| got.push((a, b));
        PairSink::consume_batch(&mut push, &[(1, 2), (3, 4)]);
        assert_eq!(got, vec![(1, 2), (3, 4)]);
    }

    #[test]
    fn zero_capacity_batch_buffer_is_clamped() {
        let mut got = Vec::new();
        {
            let mut sink = |a: ObjectId, b: ObjectId| got.push((a, b));
            let mut buffer = PairBatchBuffer::new(&mut sink, 0);
            buffer.pair(9, 9);
        }
        assert_eq!(got, vec![(9, 9)]);
    }
}
