//! A bounded MPMC queue with backpressure, built on
//! [`std::sync::Mutex`] + [`std::sync::Condvar`].
//!
//! Admission control is the point: [`Queue::push`] never blocks — a full
//! queue returns the item to the caller, which answers `429`. Consumers
//! block in [`Queue::pop_blocking`] (connection workers popping accepted
//! streams, or the batcher popping the first job of a batch) and the
//! batcher additionally gathers batch company with
//! [`Queue::collect_matching`], which waits out the batching deadline.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Why a push was refused; carries the item back to the caller.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue was at capacity (backpressure → `429`).
    Full(T),
    /// The queue was closed (shutdown → `503`).
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The bounded queue.
pub struct Queue<T> {
    inner: Mutex<Inner<T>>,
    cond: Condvar,
    capacity: usize,
}

impl<T> Queue<T> {
    /// A queue admitting at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> Self {
        Queue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Non-blocking admission; a full or closed queue refuses and hands
    /// the item back.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`Queue::close`].
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_front(item);
        // Items live front-to-back newest-to-oldest so consumers pop
        // the oldest from the back — FIFO.
        self.cond.notify_one();
        Ok(())
    }

    /// Blocks until an item is available (FIFO) or the queue is closed
    /// *and* drained, returning `None` only in the latter case — close
    /// is graceful: queued work is still handed out.
    pub fn pop_blocking(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = inner.items.pop_back() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.cond.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Gathers up to `max` items matching `pred` (FIFO among matches,
    /// non-matching items stay queued in order), waiting until
    /// `deadline` for more to arrive while fewer than `enough` are
    /// collected. Every scan takes all queued matches up to `max`, so a
    /// backlog leaves in one call even when `enough` is smaller. Returns
    /// early once `enough` (capped at `max`) matches are collected or
    /// the queue closes; `enough == 0` never waits.
    pub fn collect_matching(
        &self,
        deadline: Instant,
        enough: usize,
        max: usize,
        pred: impl Fn(&T) -> bool,
    ) -> Vec<T> {
        let mut collected = Vec::new();
        if max == 0 {
            return collected;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            // Scan oldest → newest, stealing matches.
            let mut kept = VecDeque::with_capacity(inner.items.len());
            while let Some(item) = inner.items.pop_back() {
                if collected.len() < max && pred(&item) {
                    collected.push(item);
                } else {
                    kept.push_front(item);
                }
            }
            inner.items = kept;
            if collected.len() >= enough.min(max) || inner.closed {
                return collected;
            }
            let now = Instant::now();
            if now >= deadline {
                return collected;
            }
            let (guard, _) = self
                .cond
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
    }

    /// Removes and returns every queued item matching `pred` (in FIFO
    /// order among matches), without waiting. Survivors keep their
    /// exact relative order — this is the shedding primitive: the
    /// batcher drains deadline-expired jobs with it and answers them
    /// `504`, and the jobs it leaves behind are dispatched in the same
    /// order they would have been without the shed.
    pub fn drain_matching(&self, pred: impl Fn(&T) -> bool) -> Vec<T> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut drained = Vec::new();
        let mut kept = VecDeque::with_capacity(inner.items.len());
        // Scan oldest → newest (pop from the back).
        while let Some(item) = inner.items.pop_back() {
            if pred(&item) {
                drained.push(item);
            } else {
                kept.push_front(item);
            }
        }
        inner.items = kept;
        drained
    }

    /// Counts queued items matching `pred`, without removing anything —
    /// the admission-quota primitive (a point-in-time census; callers
    /// racing a concurrent push may briefly over- or under-count by the
    /// in-flight item, which is fine for a soft quota).
    pub fn count_matching(&self, pred: impl Fn(&T) -> bool) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .items
            .iter()
            .filter(|item| pred(item))
            .count()
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .items
            .len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: pushes fail from now on, consumers drain what
    /// is left and then see `None`.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.closed = true;
        self.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_order_and_backpressure() {
        let q = Queue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        match q.push(3) {
            Err(PushError::Full(3)) => {}
            other => panic!("expected Full(3), got {other:?}"),
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_blocking(), Some(1));
        assert_eq!(q.pop_blocking(), Some(2));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = Queue::new(4);
        q.push("a").unwrap();
        q.close();
        match q.push("b") {
            Err(PushError::Closed("b")) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
        assert_eq!(q.pop_blocking(), Some("a"));
        assert_eq!(q.pop_blocking(), None);
    }

    #[test]
    fn collect_matching_filters_and_preserves_the_rest() {
        let q = Queue::new(8);
        for item in [1, 2, 3, 4, 5, 6] {
            q.push(item).unwrap();
        }
        let evens = q.collect_matching(Instant::now(), 2, 2, |x| x % 2 == 0);
        assert_eq!(evens, vec![2, 4]);
        // Others stay in FIFO order (6 was beyond max).
        assert_eq!(q.pop_blocking(), Some(1));
        assert_eq!(q.pop_blocking(), Some(3));
        assert_eq!(q.pop_blocking(), Some(5));
        assert_eq!(q.pop_blocking(), Some(6));
    }

    #[test]
    fn collect_matching_waits_for_late_arrivals() {
        let q = Arc::new(Queue::new(8));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                q.push(7).unwrap();
            })
        };
        let got = q.collect_matching(Instant::now() + Duration::from_millis(500), 1, 1, |_| true);
        assert_eq!(got, vec![7]);
        producer.join().unwrap();
    }

    #[test]
    fn collect_matching_respects_deadline() {
        let q: Queue<i32> = Queue::new(4);
        let start = Instant::now();
        let got = q.collect_matching(start + Duration::from_millis(40), 3, 3, |_| true);
        assert!(got.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(40));
    }

    #[test]
    fn collect_matching_stops_waiting_at_enough_but_takes_the_backlog() {
        let q = Queue::new(8);
        for item in [1, 2, 3, 4, 5] {
            q.push(item).unwrap();
        }
        // `enough` 1 is met by the first scan, which still takes every
        // queued match up to `max` — and returns without waiting out the
        // far deadline.
        let start = Instant::now();
        let far = start + Duration::from_secs(10);
        assert_eq!(q.collect_matching(far, 1, 3, |_| true), vec![1, 2, 3]);
        assert_eq!(q.collect_matching(far, 0, 8, |_| true), vec![4, 5]);
        // `enough` 0 on an empty queue returns at once, too.
        assert!(q.collect_matching(far, 0, 8, |_| true).is_empty());
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn drain_matching_takes_matches_and_keeps_survivor_order() {
        let q = Queue::new(8);
        for item in [1, 2, 3, 4, 5, 6] {
            q.push(item).unwrap();
        }
        let evens = q.drain_matching(|x| x % 2 == 0);
        assert_eq!(evens, vec![2, 4, 6]);
        assert_eq!(q.pop_blocking(), Some(1));
        assert_eq!(q.pop_blocking(), Some(3));
        assert_eq!(q.pop_blocking(), Some(5));
        assert!(q.is_empty());
        assert!(q.drain_matching(|_| true).is_empty());
    }

    #[test]
    fn count_matching_is_a_nondestructive_census() {
        let q = Queue::new(8);
        for item in [1, 2, 3, 4, 5] {
            q.push(item).unwrap();
        }
        assert_eq!(q.count_matching(|x| x % 2 == 0), 2);
        assert_eq!(q.len(), 5, "counting removes nothing");
        assert_eq!(q.pop_blocking(), Some(1), "order untouched");
    }

    #[test]
    fn blocked_pop_wakes_on_push_and_close() {
        let q = Arc::new(Queue::new(2));
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || (q.pop_blocking(), q.pop_blocking()))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.push(9).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        let (first, second) = popper.join().unwrap();
        assert_eq!(first, Some(9));
        assert_eq!(second, None);
    }
}
