//! Bounded per-dataset-pair join queues with round-robin dispatch.
//!
//! Each join pair gets its own bounded queue; one saturated pair
//! therefore sheds **its own** traffic while other pairs keep flowing.
//! Selections never wait here: a connection's reader answers them
//! itself, bounded by the per-connection in-flight cap and TCP
//! push-back.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use msj_geom::CancelToken;

use crate::protocol::WireRequestBody;
use crate::server::Outbox;

/// The join queue a request routes to, by its dataset pair, normalized
/// (`a <= b`) so a join of 1 with 2 and one of 2 with 1 share a bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueueKey(u32, u32);

impl QueueKey {
    /// The queue a join or self-join routes to; `None` for any other
    /// request.
    pub fn for_body(body: &WireRequestBody) -> Option<QueueKey> {
        match *body {
            WireRequestBody::Join { a, b } => Some(QueueKey(a.min(b), a.max(b))),
            WireRequestBody::SelfJoin { dataset } => Some(QueueKey(dataset, dataset)),
            _ => None,
        }
    }
}

/// One admitted request: a queued join, or a selection its reader runs.
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
    depth: usize,
    closed: bool,
}

/// The bounded queue set shared between the connection readers
/// (producers) and the worker pool (consumers).
pub struct QueueSet {
    inner: Mutex<Inner>,
    cond: Condvar,
    bound: usize,
}

impl QueueSet {
    /// A queue set where every per-key queue holds at most `bound` jobs.
    pub fn new(bound: usize) -> Self {
        QueueSet {
            inner: Mutex::new(Inner::default()),
            cond: Condvar::new(),
            bound: bound.max(1),
        }
    }

    /// Enqueues `job` under `key`. When its queue is at the bound or the
    /// set is closed, `Err` hands the job back with how many jobs wait
    /// under `key` — the caller sheds it on the wire.
    pub fn try_push(&self, key: QueueKey, job: Job) -> Result<(), (Job, usize)> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        let closed = inner.closed;
        let queue = inner.queues.entry(key).or_default();
        if closed || queue.len() >= self.bound {
            return Err((job, queue.len()));
        }
        let was_empty = queue.is_empty();
        queue.push_back(job);
        inner.depth += 1;
        if was_empty {
            inner.ready.push_back(key);
        }
        drop(inner);
        self.cond.notify_one();
        Ok(())
    }

    /// How many jobs wait in all queues, for the depth gauge.
    pub fn depth(&self) -> usize {
        self.inner.lock().expect("queue lock poisoned").depth
    }

    /// Blocks for work and returns the front job of the next key in
    /// rotation. Returns `None` once the set is closed **and** fully
    /// drained.
    pub fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        loop {
            if let Some(key) = inner.ready.pop_front() {
                let queue = inner.queues.get_mut(&key).expect("ready key has queue");
                let job = queue.pop_front().expect("ready key has a job");
                if !queue.is_empty() {
                    inner.ready.push_back(key);
                }
                inner.depth -= 1;
                return Some(job);
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
        inner.depth = 0;
        jobs
    }

    /// Closes the set: pushes start failing, and blocked workers return
    /// `None` once the remaining jobs drain.
    pub fn close(&self) {
        self.inner.lock().expect("queue lock poisoned").closed = true;
        self.cond.notify_all();
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

    fn join(a: u32, b: u32) -> WireRequestBody {
        WireRequestBody::Join { a, b }
    }

    #[test]
    fn keys_normalize_join_order_and_refuse_selections() {
        assert_eq!(QueueKey::for_body(&join(2, 1)), Some(QueueKey(1, 2)));
        assert_eq!(
            QueueKey::for_body(&WireRequestBody::SelfJoin { dataset: 3 }),
            Some(QueueKey(3, 3))
        );
        let point = WireRequestBody::Point {
            dataset: 5,
            x: 0.0,
            y: 0.0,
        };
        assert_eq!(QueueKey::for_body(&point), None);
        assert_eq!(QueueKey::for_body(&WireRequestBody::Metrics), None);
    }

    #[test]
    fn bound_is_enforced_per_key() {
        let set = QueueSet::new(2);
        let key = QueueKey(0, 1);
        assert!(set.try_push(key, job(1, join(0, 1))).is_ok());
        assert!(set.try_push(key, job(2, join(1, 0))).is_ok());
        let (rejected, waiting) = set.try_push(key, job(3, join(0, 1))).unwrap_err();
        assert_eq!((rejected.request_id, waiting), (3, 2));
        // Another key still has capacity.
        assert!(set.try_push(QueueKey(2, 2), job(4, join(2, 2))).is_ok());
        assert_eq!(set.depth(), 3);
    }

    #[test]
    fn dispatch_round_robins_between_keys() {
        let set = QueueSet::new(16);
        set.try_push(QueueKey(0, 1), job(1, join(0, 1))).unwrap();
        set.try_push(QueueKey(0, 1), job(2, join(0, 1))).unwrap();
        set.try_push(QueueKey(2, 2), job(3, join(2, 2))).unwrap();

        let mut order = Vec::new();
        while set.depth() > 0 {
            order.push(set.pop().unwrap().request_id);
        }
        // The second join of the first pair waits until the other pair
        // had its turn.
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn close_unblocks_waiting_workers_and_rejects_pushes() {
        let set = Arc::new(QueueSet::new(4));
        let waiter = {
            let set = set.clone();
            std::thread::spawn(move || set.pop().map(|job| job.request_id))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        set.close();
        assert_eq!(waiter.join().unwrap(), None);
        assert!(set.try_push(QueueKey(0, 1), job(1, join(0, 1))).is_err());
    }

    #[test]
    fn drain_all_returns_every_abandoned_job() {
        let set = QueueSet::new(8);
        set.try_push(QueueKey(0, 1), job(1, join(0, 1))).unwrap();
        set.try_push(QueueKey(3, 3), job(2, join(3, 3))).unwrap();
        let jobs = set.drain_all();
        assert_eq!(jobs.len(), 2);
        assert_eq!(set.depth(), 0);
    }
}
