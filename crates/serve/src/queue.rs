//! Bounded per-dataset-pair request queues with round-robin dispatch
//! and same-kind batch draining.
//!
//! Each join pair and each selection target gets its own bounded queue;
//! one saturated pair therefore sheds **its own** traffic while other
//! datasets keep flowing. Workers pop whole same-kind runs of selection
//! probes in one call — that run becomes a single shared-descent batch
//! through the engine, which is where the front's
//! throughput-beyond-per-query-serving comes from.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use msj_geom::CancelToken;

use crate::protocol::WireRequestBody;
use crate::server::Outbox;

/// Which bounded queue a request routes to. Join keys are normalized
/// (`a <= b`) so `Join(1, 2)` and `Join(2, 1)` share a bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueKey {
    Join(u32, u32),
    Select(u32),
}

impl QueueKey {
    /// The queue a request body routes to.
    pub fn for_body(body: &WireRequestBody) -> Option<QueueKey> {
        Some(match *body {
            WireRequestBody::Join { a, b } => QueueKey::Join(a.min(b), a.max(b)),
            WireRequestBody::SelfJoin { dataset } => QueueKey::Join(dataset, dataset),
            WireRequestBody::Point { dataset, .. } | WireRequestBody::Window { dataset, .. } => {
                QueueKey::Select(dataset)
            }
            WireRequestBody::Metrics => return None,
        })
    }
}

/// One admitted request waiting for (or held by) a worker.
#[derive(Debug)]
pub struct Job {
    /// The outbox of the connection the response goes back to.
    pub reply: Arc<Outbox>,
    pub request_id: u64,
    pub body: WireRequestBody,
    /// The engine's cancellation/deadline token, armed at admission so
    /// queue wait counts against a client deadline.
    pub cancel: CancelToken,
    /// When the frame was admitted (queue-wait measurement anchor).
    pub received: Instant,
}

#[derive(Default)]
struct Inner {
    queues: HashMap<QueueKey, VecDeque<Job>>,
    /// Round-robin rotation of keys with pending work; each key appears
    /// at most once.
    ready: VecDeque<QueueKey>,
    join_depth: usize,
    select_depth: usize,
    closed: bool,
}

impl Inner {
    fn bump(&mut self, key: &QueueKey, delta: isize) {
        let slot = match key {
            QueueKey::Join(..) => &mut self.join_depth,
            QueueKey::Select(..) => &mut self.select_depth,
        };
        *slot = slot.checked_add_signed(delta).expect("depth underflow");
    }
}

/// The bounded queue set shared between the connection readers
/// (producers) and the worker pool (consumers).
pub struct QueueSet {
    inner: Mutex<Inner>,
    cond: Condvar,
    bound: usize,
    batch_max: usize,
}

impl QueueSet {
    /// A queue set where every per-key queue holds at most `bound` jobs
    /// and a popped selection batch holds at most `batch_max`.
    pub fn new(bound: usize, batch_max: usize) -> Self {
        QueueSet {
            inner: Mutex::new(Inner::default()),
            cond: Condvar::new(),
            bound: bound.max(1),
            batch_max: batch_max.max(1),
        }
    }

    /// Enqueues `job` under `key`. `Err(job)` hands the job back when
    /// its queue is at the bound or the set is closed — the caller sheds
    /// it on the wire.
    pub fn try_push(&self, key: QueueKey, job: Job) -> Result<(), Job> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        if inner.closed {
            return Err(job);
        }
        let queue = inner.queues.entry(key).or_default();
        if queue.len() >= self.bound {
            return Err(job);
        }
        let was_empty = queue.is_empty();
        queue.push_back(job);
        inner.bump(&key, 1);
        if was_empty {
            inner.ready.push_back(key);
        }
        drop(inner);
        self.cond.notify_one();
        Ok(())
    }

    /// How many jobs wait under `key` right now.
    pub fn pending_for(&self, key: QueueKey) -> usize {
        let inner = self.inner.lock().expect("queue lock poisoned");
        inner.queues.get(&key).map_or(0, VecDeque::len)
    }

    /// Current depths `(join, selection)` for the depth gauges.
    pub fn depths(&self) -> (usize, usize) {
        let inner = self.inner.lock().expect("queue lock poisoned");
        (inner.join_depth, inner.select_depth)
    }

    /// Whether no job is queued anywhere.
    pub fn is_empty(&self) -> bool {
        let inner = self.inner.lock().expect("queue lock poisoned");
        inner.join_depth + inner.select_depth == 0
    }

    /// Blocks for work; fills `out` with the next dispatch unit and
    /// returns its key. Selection keys yield the longest same-kind run
    /// from the queue front (up to the batch cap) — that run becomes one
    /// shared engine descent. Join keys yield a single job. Returns
    /// `None` once the set is closed **and** fully drained.
    pub fn pop_batch(&self, out: &mut Vec<Job>) -> Option<QueueKey> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        loop {
            if let Some(key) = inner.ready.pop_front() {
                let batch_max = self.batch_max;
                let queue = inner.queues.get_mut(&key).expect("ready key has queue");
                let take = match key {
                    QueueKey::Join(..) => 1,
                    QueueKey::Select(..) => {
                        let first = discriminant(&queue[0].body);
                        queue
                            .iter()
                            .take(batch_max)
                            .take_while(|job| discriminant(&job.body) == first)
                            .count()
                    }
                };
                for _ in 0..take {
                    out.push(queue.pop_front().expect("counted job present"));
                }
                if !queue.is_empty() {
                    inner.ready.push_back(key);
                }
                inner.bump(&key, -(take as isize));
                return Some(key);
            }
            if inner.closed {
                return None;
            }
            inner = self.cond.wait(inner).expect("queue lock poisoned");
        }
    }

    /// Empties every queue, returning the abandoned jobs (drain-deadline
    /// path: each gets an explicit `Draining` response, never a silent
    /// drop).
    pub fn drain_all(&self) -> Vec<Job> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        let mut jobs = Vec::new();
        for (_, queue) in inner.queues.iter_mut() {
            jobs.extend(queue.drain(..));
        }
        inner.ready.clear();
        inner.join_depth = 0;
        inner.select_depth = 0;
        jobs
    }

    /// Closes the set: pushes start failing, and blocked workers return
    /// `None` once the remaining jobs drain.
    pub fn close(&self) {
        self.inner.lock().expect("queue lock poisoned").closed = true;
        self.cond.notify_all();
    }
}

fn discriminant(body: &WireRequestBody) -> u8 {
    match body {
        WireRequestBody::Join { .. } => 0,
        WireRequestBody::SelfJoin { .. } => 1,
        WireRequestBody::Point { .. } => 2,
        WireRequestBody::Window { .. } => 3,
        WireRequestBody::Metrics => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(request_id: u64, body: WireRequestBody) -> Job {
        Job {
            reply: Arc::new(Outbox::new()),
            request_id,
            body,
            cancel: CancelToken::new(),
            received: Instant::now(),
        }
    }

    fn point(dataset: u32) -> WireRequestBody {
        WireRequestBody::Point {
            dataset,
            x: 0.0,
            y: 0.0,
        }
    }

    fn window(dataset: u32) -> WireRequestBody {
        WireRequestBody::Window {
            dataset,
            bounds: [0.0, 0.0, 1.0, 1.0],
        }
    }

    #[test]
    fn keys_normalize_join_order_and_route_selections_by_dataset() {
        assert_eq!(
            QueueKey::for_body(&WireRequestBody::Join { a: 2, b: 1 }),
            Some(QueueKey::Join(1, 2))
        );
        assert_eq!(
            QueueKey::for_body(&WireRequestBody::SelfJoin { dataset: 3 }),
            Some(QueueKey::Join(3, 3))
        );
        assert_eq!(QueueKey::for_body(&point(5)), Some(QueueKey::Select(5)));
        assert_eq!(QueueKey::for_body(&window(5)), Some(QueueKey::Select(5)));
        assert_eq!(QueueKey::for_body(&WireRequestBody::Metrics), None);
    }

    #[test]
    fn bound_is_enforced_per_key() {
        let set = QueueSet::new(2, 8);
        let key = QueueKey::Select(1);
        assert!(set.try_push(key, job(1, point(1))).is_ok());
        assert!(set.try_push(key, job(2, point(1))).is_ok());
        let rejected = set.try_push(key, job(3, point(1))).unwrap_err();
        assert_eq!(rejected.request_id, 3);
        // Another key still has capacity.
        assert!(set.try_push(QueueKey::Select(2), job(4, point(2))).is_ok());
        assert_eq!(set.depths(), (0, 3));
    }

    #[test]
    fn selection_batches_are_contiguous_same_kind_runs() {
        let set = QueueSet::new(16, 8);
        let key = QueueKey::Select(1);
        for i in 0..3 {
            set.try_push(key, job(i, point(1))).unwrap();
        }
        for i in 3..5 {
            set.try_push(key, job(i, window(1))).unwrap();
        }
        set.try_push(key, job(5, point(1))).unwrap();

        let mut batch = Vec::new();
        assert_eq!(set.pop_batch(&mut batch), Some(key));
        assert_eq!(batch.len(), 3);
        assert!(batch
            .iter()
            .all(|j| matches!(j.body, WireRequestBody::Point { .. })));

        batch.clear();
        assert_eq!(set.pop_batch(&mut batch), Some(key));
        assert_eq!(batch.len(), 2);
        assert!(batch
            .iter()
            .all(|j| matches!(j.body, WireRequestBody::Window { .. })));

        batch.clear();
        assert_eq!(set.pop_batch(&mut batch), Some(key));
        assert_eq!(batch.len(), 1);
        assert!(set.is_empty());
    }

    #[test]
    fn batch_cap_limits_a_long_run() {
        let set = QueueSet::new(64, 4);
        for i in 0..10 {
            set.try_push(QueueKey::Select(1), job(i, point(1))).unwrap();
        }
        let mut batch = Vec::new();
        set.pop_batch(&mut batch);
        assert_eq!(batch.len(), 4);
    }

    #[test]
    fn dispatch_round_robins_between_keys() {
        let set = QueueSet::new(16, 8);
        set.try_push(
            QueueKey::Join(0, 1),
            job(1, WireRequestBody::Join { a: 0, b: 1 }),
        )
        .unwrap();
        set.try_push(
            QueueKey::Join(0, 1),
            job(2, WireRequestBody::Join { a: 0, b: 1 }),
        )
        .unwrap();
        set.try_push(QueueKey::Select(2), job(3, point(2))).unwrap();

        let mut order = Vec::new();
        let mut batch = Vec::new();
        while !set.is_empty() {
            batch.clear();
            order.push(set.pop_batch(&mut batch).unwrap());
        }
        // The second join waits until the selection key had its turn.
        assert_eq!(
            order,
            vec![
                QueueKey::Join(0, 1),
                QueueKey::Select(2),
                QueueKey::Join(0, 1)
            ]
        );
    }

    #[test]
    fn close_unblocks_waiting_workers_and_rejects_pushes() {
        let set = Arc::new(QueueSet::new(4, 4));
        let waiter = {
            let set = set.clone();
            std::thread::spawn(move || {
                let mut batch = Vec::new();
                set.pop_batch(&mut batch)
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        set.close();
        assert_eq!(waiter.join().unwrap(), None);
        assert!(set.try_push(QueueKey::Select(1), job(1, point(1))).is_err());
    }

    #[test]
    fn drain_all_returns_every_abandoned_job() {
        let set = QueueSet::new(8, 4);
        set.try_push(QueueKey::Select(1), job(1, point(1))).unwrap();
        set.try_push(
            QueueKey::Join(0, 1),
            job(2, WireRequestBody::Join { a: 0, b: 1 }),
        )
        .unwrap();
        let jobs = set.drain_all();
        assert_eq!(jobs.len(), 2);
        assert!(set.is_empty());
        assert_eq!(set.depths(), (0, 0));
    }
}
