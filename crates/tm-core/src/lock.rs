//! Non-poisoning mutex, reader–writer lock and condition variable.
//!
//! Thin wrappers over `std::sync` exposing the `parking_lot`-style API the
//! rest of the workspace uses (`lock()` returning a guard directly, and
//! `Condvar::wait(&mut guard)`).  The build environment has no access to
//! crates.io, so instead of depending on `parking_lot` we provide the same
//! ergonomics here: poisoning is deliberately swallowed — a panic while
//! holding one of these locks only ever happens in tests, where the
//! panicking test already reports the failure.

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

/// A mutual-exclusion lock whose `lock` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

/// RAII guard for [`Mutex`].
#[derive(Debug)]
pub struct MutexGuard<'a, T>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// Creates a mutex protecting `value`.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard present outside wait")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard present outside wait")
    }
}

/// A condition variable compatible with [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Creates a new condition variable.
    pub fn new() -> Self {
        Condvar::default()
    }

    /// Atomically releases the guard's lock and blocks until notified; the
    /// lock is re-acquired before returning (the guard stays valid).
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard present outside wait");
        let inner = self.0.wait(inner).unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(inner);
    }

    /// Wakes one blocked waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every blocked waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// A reader–writer lock whose `read`/`write` return guards directly.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

/// Shared-access RAII guard for [`RwLock`].
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T>(std::sync::RwLockReadGuard<'a, T>);

/// Exclusive-access RAII guard for [`RwLock`].
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T>(std::sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    /// Creates a reader–writer lock protecting `value`.
    pub fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(PoisonError::into_inner))
    }
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_guards_exclusive_access() {
        let m = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    *m.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 4000);
    }

    #[test]
    fn condvar_wait_and_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut ready = lock.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
            42
        });
        std::thread::sleep(Duration::from_millis(10));
        let (lock, cv) = &*pair;
        *lock.lock() = true;
        cv.notify_one();
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn rwlock_allows_concurrent_readers() {
        let l = RwLock::new(7);
        let a = l.read();
        let b = l.read();
        assert_eq!((*a, *b), (7, 7));
        drop((a, b));
        *l.write() = 9;
        assert_eq!(*l.read(), 9);
    }
}
