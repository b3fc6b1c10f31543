//! A counting semaphore used to park and wake descheduled threads.
//!
//! The paper parks every thread on a semaphore of its own (`sem.wait()` /
//! `sem.signal()`, Algorithms 1 and 4), and so does this crate: each
//! [`crate::thread::ThreadCtx`] owns one (`park`), which every sleep of that
//! thread reuses.  Posting before the waiter blocks must not lose the
//! wake-up, which a plain condition variable would; a counting semaphore has
//! exactly the required memory.
//!
//! A post notifies the condition variable only while some thread is blocked
//! on it.  A waker that shares a CPU with its sleeper usually posts before
//! the sleeper blocks (the sleeper yields to it first), and notifying then
//! would be a futex-wake system call that finds nobody: the permit alone is
//! the hand-off, and the sleeper's `wait` takes it without blocking.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// The stored permits and the threads blocked waiting for one, kept under
/// one mutex so a post knows whether anyone needs the notification.
#[derive(Debug, Default)]
struct State {
    permits: u64,
    blocked: u64,
}

/// A counting semaphore built from a mutex and a condition variable.
#[derive(Debug, Default)]
pub struct Semaphore {
    state: Mutex<State>,
    cv: Condvar,
}

impl Semaphore {
    /// Creates a semaphore with an initial count of zero.
    pub fn new() -> Self {
        Semaphore::default()
    }

    /// Blocks until the count is positive, then decrements it.
    pub fn wait(&self) {
        let mut state = self.state.lock().unwrap();
        if state.permits == 0 {
            state.blocked += 1;
            state = self.cv.wait_while(state, |s| s.permits == 0).unwrap();
            state.blocked -= 1;
        }
        state.permits -= 1;
    }

    /// Like [`Semaphore::wait`], but gives up after `timeout`.
    ///
    /// Returns `true` if a permit was consumed.  Used defensively by stress
    /// tests so a lost-wake-up bug fails the test instead of hanging it.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let mut state = self.state.lock().unwrap();
        if state.permits == 0 {
            state.blocked += 1;
            state = self
                .cv
                .wait_timeout_while(state, timeout, |s| s.permits == 0)
                .unwrap()
                .0;
            state.blocked -= 1;
            if state.permits == 0 {
                return false;
            }
        }
        state.permits -= 1;
        true
    }

    /// Like [`Semaphore::wait`], but gives up once `deadline` passes.
    ///
    /// Returns `true` if a permit was consumed.  This is the sleeping side
    /// of timed descheduling (`deschedule_until`): the sleeper bounds its
    /// own block, so timeout delivery never depends on another thread
    /// polling the timer wheel.  A deadline already in the past degrades to
    /// [`Semaphore::try_wait`].
    pub fn wait_deadline(&self, deadline: Instant) -> bool {
        let now = Instant::now();
        if deadline <= now {
            return self.try_wait();
        }
        self.wait_timeout(deadline - now)
    }

    /// Increments the count and wakes one blocked waiter, if any (the
    /// paper's `sem.signal()`).
    pub fn post(&self) {
        let mut state = self.state.lock().unwrap();
        state.permits += 1;
        let blocked = state.blocked > 0;
        drop(state);
        if blocked {
            self.cv.notify_one();
        }
    }

    /// Consumes a permit without blocking, if one is available.
    pub fn try_wait(&self) -> bool {
        let mut state = self.state.lock().unwrap();
        if state.permits > 0 {
            state.permits -= 1;
            true
        } else {
            false
        }
    }

    /// Current number of stored permits (for tests).
    pub fn permits(&self) -> u64 {
        self.state.lock().unwrap().permits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn blocked(s: &Semaphore) -> u64 {
        s.state.lock().unwrap().blocked
    }

    #[test]
    fn post_then_wait_does_not_block() {
        let s = Semaphore::new();
        s.post();
        assert_eq!((s.permits(), blocked(&s)), (1, 0), "nobody to notify");
        s.wait();
        assert_eq!((s.permits(), blocked(&s)), (0, 0), "taken without blocking");
    }

    #[test]
    fn an_expired_wait_timeout_leaves_no_blocked_count_behind() {
        let s = Arc::new(Semaphore::new());
        assert!(!s.wait_timeout(Duration::from_millis(10)));
        assert_eq!(blocked(&s), 0);
        // A later blocked wait on another thread is still woken by one post.
        let s2 = Arc::clone(&s);
        let waiter = std::thread::spawn(move || s2.wait());
        while blocked(&s) == 0 {
            std::thread::yield_now();
        }
        s.post();
        waiter.join().unwrap();
        assert_eq!((s.permits(), blocked(&s)), (0, 0));
    }

    #[test]
    fn try_wait_only_succeeds_with_permit() {
        let s = Semaphore::new();
        assert!(!s.try_wait());
        s.post();
        assert!(s.try_wait());
        assert!(!s.try_wait());
    }

    #[test]
    fn wait_timeout_expires_without_post() {
        let s = Semaphore::new();
        assert!(!s.wait_timeout(Duration::from_millis(20)));
    }

    #[test]
    fn wait_timeout_consumes_posted_permit() {
        let s = Semaphore::new();
        s.post();
        assert!(s.wait_timeout(Duration::from_millis(20)));
        assert_eq!(s.permits(), 0);
    }

    #[test]
    fn wait_deadline_expires_and_consumes_like_wait_timeout() {
        let s = Semaphore::new();
        assert!(!s.wait_deadline(Instant::now() + Duration::from_millis(10)));
        s.post();
        assert!(s.wait_deadline(Instant::now() + Duration::from_millis(10)));
        assert_eq!(s.permits(), 0);
        // A deadline already in the past is a non-blocking try_wait.
        assert!(!s.wait_deadline(Instant::now() - Duration::from_millis(1)));
        s.post();
        assert!(s.wait_deadline(Instant::now()));
    }

    #[test]
    fn permits_accumulate() {
        let s = Semaphore::new();
        s.post();
        s.post();
        s.post();
        assert_eq!(s.permits(), 3);
        s.wait();
        s.wait();
        assert_eq!(s.permits(), 1);
    }

    #[test]
    fn wakes_a_blocked_thread() {
        let s = Arc::new(Semaphore::new());
        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || {
            s2.wait();
            42
        });
        // Give the waiter time to block, then wake it.
        std::thread::sleep(Duration::from_millis(10));
        s.post();
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn many_posts_wake_many_waiters() {
        let s = Arc::new(Semaphore::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                s.wait_timeout(Duration::from_secs(5))
            }));
        }
        for _ in 0..4 {
            s.post();
        }
        for h in handles {
            assert!(h.join().unwrap());
        }
    }
}
