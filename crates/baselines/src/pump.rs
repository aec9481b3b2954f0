//! The paper's discarded first communication design, kept as an ablation
//! baseline (§3.3.1).
//!
//! Before settling on the Disruptor-style shared ring, VARAN used a separate
//! shared queue per follower with the coordinator acting as an *event pump*:
//! it read events from the leader's queue and dispatched a copy into every
//! follower's queue.  That works at low system-call rates but the pump quickly
//! becomes a bottleneck.  The `ablation_event_pump` benchmark compares this
//! design against the Disruptor ring (`varan_ring::RingBuffer`).

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// A bounded multi-producer/multi-consumer FIFO queue used by the event-pump
/// baseline.
///
/// Unlike the Disruptor ring this queue requires a lock on every operation,
/// and the pump must copy each event once per follower.
pub struct PumpQueue<T> {
    inner: Arc<QueueInner<T>>,
}

struct QueueInner<T> {
    capacity: usize,
    queue: Mutex<VecDeque<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Clone for PumpQueue<T> {
    fn clone(&self) -> Self {
        PumpQueue {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> fmt::Debug for PumpQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PumpQueue")
            .field("capacity", &self.inner.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl<T> PumpQueue<T> {
    /// Creates a queue holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        PumpQueue {
            inner: Arc::new(QueueInner {
                capacity,
                queue: Mutex::new(VecDeque::with_capacity(capacity)),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
            }),
        }
    }

    /// Number of events currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// Returns `true` if no events are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `value`, blocking while the queue is full.
    pub fn push(&self, value: T) {
        let mut queue = self.inner.queue.lock();
        while queue.len() >= self.inner.capacity {
            self.inner.not_full.wait(&mut queue);
        }
        queue.push_back(value);
        self.inner.not_empty.notify_one();
    }

    /// Dequeues the oldest event, blocking while the queue is empty.
    pub fn pop(&self) -> T {
        let mut queue = self.inner.queue.lock();
        while queue.is_empty() {
            self.inner.not_empty.wait(&mut queue);
        }
        let value = queue.pop_front().expect("queue is non-empty");
        self.inner.not_full.notify_one();
        value
    }

    /// Dequeues the oldest event without blocking.
    pub fn try_pop(&self) -> Option<T> {
        let mut queue = self.inner.queue.lock();
        let value = queue.pop_front();
        if value.is_some() {
            self.inner.not_full.notify_one();
        }
        value
    }

    /// Dequeues up to `max` events into `out` under a single lock
    /// acquisition, returning how many were appended.  The batched
    /// counterpart of [`PumpQueue::try_pop`], so the pump baseline pays one
    /// lock per burst rather than one per event.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut queue = self.inner.queue.lock();
        let take = queue.len().min(max);
        out.reserve(take);
        for _ in 0..take {
            out.push(queue.pop_front().expect("len checked"));
        }
        if take > 0 {
            self.inner.not_full.notify_all();
        }
        take
    }

    /// Enqueues every value in `values` under as few lock acquisitions as
    /// possible, blocking whenever the queue is full.
    pub fn push_slice(&self, values: &[T])
    where
        T: Clone,
    {
        let mut queue = self.inner.queue.lock();
        for value in values {
            while queue.len() >= self.inner.capacity {
                self.inner.not_full.wait(&mut queue);
            }
            queue.push_back(value.clone());
            self.inner.not_empty.notify_one();
        }
    }

    /// Dequeues the oldest event, giving up after `timeout`.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now() + timeout;
        let mut queue = self.inner.queue.lock();
        while queue.is_empty() {
            let remaining = deadline.checked_duration_since(Instant::now())?;
            if self
                .inner
                .not_empty
                .wait_for(&mut queue, remaining)
                .timed_out()
                && queue.is_empty()
            {
                return None;
            }
        }
        let value = queue.pop_front();
        if value.is_some() {
            self.inner.not_full.notify_one();
        }
        value
    }
}

/// The central event pump: reads events from the leader's queue and dispatches
/// a copy into every follower queue.
#[derive(Debug)]
pub struct EventPump<T> {
    leader: PumpQueue<T>,
    followers: Vec<PumpQueue<T>>,
    dispatched: u64,
}

impl<T: Clone> EventPump<T> {
    /// Creates a pump connecting `leader` to `followers`.
    #[must_use]
    pub fn new(leader: PumpQueue<T>, followers: Vec<PumpQueue<T>>) -> Self {
        EventPump {
            leader,
            followers,
            dispatched: 0,
        }
    }

    /// The leader-side queue the pump drains.
    #[must_use]
    pub fn leader_queue(&self) -> &PumpQueue<T> {
        &self.leader
    }

    /// The follower-side queues the pump fills.
    #[must_use]
    pub fn follower_queues(&self) -> &[PumpQueue<T>] {
        &self.followers
    }

    /// Number of events dispatched so far.
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Moves at most one event from the leader queue to every follower queue.
    ///
    /// Returns `true` if an event was dispatched.
    pub fn pump_once(&mut self) -> bool {
        match self.leader.try_pop() {
            Some(event) => {
                for follower in &self.followers {
                    follower.push(event.clone());
                }
                self.dispatched += 1;
                true
            }
            None => false,
        }
    }

    /// Drains the leader queue until it is empty, returning the number of
    /// events dispatched.  Works in batches: one lock on the leader queue
    /// per burst and one lock per follower queue per burst, instead of one
    /// of each per event.
    pub fn pump_until_empty(&mut self) -> u64 {
        let mut moved = 0;
        let mut batch = Vec::new();
        loop {
            batch.clear();
            if self.leader.pop_batch(&mut batch, usize::MAX) == 0 {
                return moved;
            }
            for follower in &self.followers {
                follower.push_slice(&batch);
            }
            let n = batch.len() as u64;
            self.dispatched += n;
            moved += n;
        }
    }

    /// Pumps exactly `count` events, blocking for each one.
    pub fn pump_exact(&mut self, count: u64) {
        for _ in 0..count {
            let event = self.leader.pop();
            for follower in &self.followers {
                follower.push(event.clone());
            }
            self.dispatched += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_is_fifo() {
        let queue = PumpQueue::new(4);
        queue.push(1);
        queue.push(2);
        queue.push(3);
        assert_eq!(queue.pop(), 1);
        assert_eq!(queue.pop(), 2);
        assert_eq!(queue.pop(), 3);
        assert!(queue.try_pop().is_none());
    }

    #[test]
    fn pop_timeout_times_out() {
        let queue: PumpQueue<u32> = PumpQueue::new(1);
        assert!(queue.pop_timeout(Duration::from_millis(5)).is_none());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = PumpQueue::<u32>::new(0);
    }

    #[test]
    fn push_blocks_until_space() {
        let queue = PumpQueue::new(1);
        queue.push(1u32);
        let writer = queue.clone();
        let handle = std::thread::spawn(move || writer.push(2));
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(queue.pop(), 1);
        handle.join().unwrap();
        assert_eq!(queue.pop(), 2);
    }

    #[test]
    fn pump_copies_to_every_follower() {
        let leader = PumpQueue::new(16);
        let followers: Vec<PumpQueue<u64>> = (0..3).map(|_| PumpQueue::new(16)).collect();
        let mut pump = EventPump::new(leader.clone(), followers.clone());
        for i in 0..5 {
            leader.push(i);
        }
        assert_eq!(pump.pump_until_empty(), 5);
        assert_eq!(pump.dispatched(), 5);
        for follower in &followers {
            let mut ids = Vec::new();
            while let Some(id) = follower.try_pop() {
                ids.push(id);
            }
            assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn pop_batch_and_push_slice_round_trip() {
        let queue = PumpQueue::new(8);
        queue.push_slice(&[1u32, 2, 3, 4, 5]);
        let mut out = Vec::new();
        assert_eq!(queue.pop_batch(&mut out, 3), 3);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(queue.pop_batch(&mut out, usize::MAX), 2);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        assert_eq!(queue.pop_batch(&mut out, usize::MAX), 0);
    }

    #[test]
    fn push_slice_blocks_until_space() {
        let queue = PumpQueue::new(2);
        let writer = queue.clone();
        let handle = std::thread::spawn(move || writer.push_slice(&[1u32, 2, 3, 4]));
        let mut seen = Vec::new();
        while seen.len() < 4 {
            if let Some(v) = queue.pop_timeout(Duration::from_secs(5)) {
                seen.push(v);
            }
        }
        handle.join().unwrap();
        assert_eq!(seen, vec![1, 2, 3, 4]);
    }

    #[test]
    fn pump_exact_blocks_for_events() {
        let leader = PumpQueue::new(4);
        let follower = PumpQueue::new(4);
        let mut pump = EventPump::new(leader.clone(), vec![follower.clone()]);
        let handle = std::thread::spawn(move || pump.pump_exact(1));
        std::thread::sleep(Duration::from_millis(10));
        leader.push(7u32);
        handle.join().unwrap();
        assert_eq!(follower.pop(), 7);
    }
}
