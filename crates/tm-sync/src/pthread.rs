//! The `Pthreads` baseline: a bounded buffer protected by a mutex and two
//! condition variables, with no transactions anywhere.
//!
//! This is the starting point the paper transactionalizes; keeping it here
//! (a) provides the baseline series in Figures 2.3–2.8 and (b) anchors the
//! correctness tests (both buffers must transfer exactly the same multiset of
//! elements).

use tm_core::lock::{Condvar, Mutex};

/// Internal state guarded by the mutex.
#[derive(Debug)]
struct State {
    buf: Vec<u64>,
    cap: usize,
    nextprod: usize,
    nextcons: usize,
    count: usize,
}

/// A mutex-and-condvar bounded buffer.
#[derive(Debug)]
pub struct PthreadBuffer {
    state: Mutex<State>,
    notempty: Condvar,
    notfull: Condvar,
}

impl PthreadBuffer {
    /// Creates a buffer with capacity `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "buffer capacity must be positive");
        PthreadBuffer {
            state: Mutex::new(State {
                buf: vec![0; cap],
                cap,
                nextprod: 0,
                nextcons: 0,
                count: 0,
            }),
            notempty: Condvar::new(),
            notfull: Condvar::new(),
        }
    }

    /// Fills the buffer with `n` elements (mirrors
    /// [`crate::buffer::TmBoundedBuffer::prefill`]).
    pub fn prefill(&self, n: usize) {
        let mut s = self.state.lock();
        assert!(n <= s.cap);
        for i in 0..n {
            s.buf[i] = i as u64 + 1;
        }
        s.count = n;
        s.nextprod = n % s.cap;
        s.nextcons = 0;
    }

    /// Blocking produce: waits while the buffer is full, then inserts and
    /// signals one consumer.
    pub fn produce(&self, x: u64) {
        let mut s = self.state.lock();
        while s.count == s.cap {
            self.notfull.wait(&mut s);
        }
        let np = s.nextprod;
        s.buf[np] = x;
        s.nextprod = (np + 1) % s.cap;
        s.count += 1;
        drop(s);
        self.notempty.notify_one();
    }

    /// Blocking consume: waits while the buffer is empty, then removes the
    /// oldest element and signals one producer.
    pub fn consume(&self) -> u64 {
        let mut s = self.state.lock();
        while s.count == 0 {
            self.notempty.wait(&mut s);
        }
        let nc = s.nextcons;
        let x = s.buf[nc];
        s.nextcons = (nc + 1) % s.cap;
        s.count -= 1;
        drop(s);
        self.notfull.notify_one();
        x
    }

    /// Non-blocking consume; returns `None` if the buffer is empty.
    pub fn try_consume(&self) -> Option<u64> {
        let mut s = self.state.lock();
        if s.count == 0 {
            return None;
        }
        let nc = s.nextcons;
        let x = s.buf[nc];
        s.nextcons = (nc + 1) % s.cap;
        s.count -= 1;
        drop(s);
        self.notfull.notify_one();
        Some(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_threaded() {
        let b = PthreadBuffer::new(4);
        for i in 1..=4 {
            b.produce(i);
        }
        for i in 1..=4 {
            assert_eq!(b.consume(), i);
        }
        assert_eq!(b.try_consume(), None);
    }

    #[test]
    fn prefill_matches_tm_buffer_convention() {
        let b = PthreadBuffer::new(8);
        b.prefill(4);
        assert_eq!(b.consume(), 1);
        assert_eq!(b.consume(), 2);
        assert_eq!(b.try_consume(), Some(3));
        assert_eq!(b.try_consume(), Some(4));
        assert_eq!(b.try_consume(), None);
    }

    #[test]
    fn producers_and_consumers_transfer_everything() {
        let b = Arc::new(PthreadBuffer::new(4));
        let total = 2000u64;
        let producers = 2;
        let consumers = 2;
        let per_producer = total / producers;
        let per_consumer = total / consumers;
        let mut handles = Vec::new();
        for p in 0..producers {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_producer {
                    b.produce(p * per_producer + i + 1);
                }
                0u64
            }));
        }
        for _ in 0..consumers {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                (0..per_consumer).map(|_| b.consume()).sum::<u64>()
            }));
        }
        let sum: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(sum, total * (total + 1) / 2);
        assert_eq!(b.try_consume(), None);
    }
}
