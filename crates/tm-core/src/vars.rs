//! Typed views over heap words: [`TmVar`] and [`TmArray`].
//!
//! The runtimes operate on raw 64-bit words; data structures want typed
//! fields.  A [`TmVar<T>`] is a single word interpreted as `T`, and a
//! [`TmArray<T>`] is a contiguous run of words.  Both expose transactional
//! accessors (taking `&mut dyn Tx`) and direct accessors for
//! non-transactional setup and verification code.

use std::marker::PhantomData;
use std::sync::Arc;

use crate::addr::Addr;
use crate::ctl::TxResult;
use crate::system::TmSystem;
use crate::tx::Tx;

/// Values that fit into a single heap word.
pub trait TmValue: Copy {
    /// Encodes the value as a word.
    fn into_word(self) -> u64;
    /// Decodes the value from a word.
    fn from_word(word: u64) -> Self;
}

impl TmValue for u64 {
    fn into_word(self) -> u64 {
        self
    }
    fn from_word(word: u64) -> Self {
        word
    }
}

impl TmValue for u32 {
    fn into_word(self) -> u64 {
        self as u64
    }
    fn from_word(word: u64) -> Self {
        word as u32
    }
}

impl TmValue for usize {
    fn into_word(self) -> u64 {
        self as u64
    }
    fn from_word(word: u64) -> Self {
        word as usize
    }
}

impl TmValue for i64 {
    fn into_word(self) -> u64 {
        self as u64
    }
    fn from_word(word: u64) -> Self {
        word as i64
    }
}

impl TmValue for i32 {
    fn into_word(self) -> u64 {
        self as u32 as u64
    }
    fn from_word(word: u64) -> Self {
        word as u32 as i32
    }
}

impl TmValue for bool {
    fn into_word(self) -> u64 {
        self as u64
    }
    fn from_word(word: u64) -> Self {
        word != 0
    }
}

impl TmValue for Addr {
    fn into_word(self) -> u64 {
        self.0 as u64
    }
    fn from_word(word: u64) -> Self {
        Addr(word as usize)
    }
}

/// A single transactional variable of type `T`, occupying one heap word.
#[derive(Debug)]
pub struct TmVar<T: TmValue> {
    addr: Addr,
    _marker: PhantomData<T>,
}

// The variable itself is just an address; sharing it across threads is safe.
impl<T: TmValue> Clone for TmVar<T> {
    fn clone(&self) -> Self {
        TmVar {
            addr: self.addr,
            _marker: PhantomData,
        }
    }
}

impl<T: TmValue> TmVar<T> {
    /// Allocates a new variable in `system`'s heap with the given initial
    /// value (non-transactional; used during setup).
    ///
    /// # Panics
    ///
    /// Panics if the heap is exhausted.
    pub fn alloc(system: &Arc<TmSystem>, init: T) -> Self {
        let addr = system.heap.alloc(1).expect("transactional heap exhausted");
        system.heap.store(addr, init.into_word());
        TmVar {
            addr,
            _marker: PhantomData,
        }
    }

    /// Wraps an existing heap word.
    pub fn from_addr(addr: Addr) -> Self {
        TmVar {
            addr,
            _marker: PhantomData,
        }
    }

    /// The underlying word address (usable with `Await`).
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Transactionally reads the variable.
    pub fn get(&self, tx: &mut dyn Tx) -> TxResult<T> {
        Ok(T::from_word(tx.read(self.addr)?))
    }

    /// Transactionally writes the variable.
    pub fn set(&self, tx: &mut dyn Tx, value: T) -> TxResult<()> {
        tx.write(self.addr, value.into_word())
    }

    /// Reads the variable with the read-for-write optimisation (the caller
    /// intends to write it in the same transaction).
    pub fn get_for_update(&self, tx: &mut dyn Tx) -> TxResult<T> {
        Ok(T::from_word(tx.read_for_write(self.addr)?))
    }

    /// Transactionally updates the variable with `f`, returning the previous
    /// value.
    pub fn update<F: FnOnce(T) -> T>(&self, tx: &mut dyn Tx, f: F) -> TxResult<T> {
        let old = self.get_for_update(tx)?;
        self.set(tx, f(old))?;
        Ok(old)
    }

    /// Non-transactional read (setup / verification only).
    pub fn load_direct(&self, system: &TmSystem) -> T {
        T::from_word(system.heap.load(self.addr))
    }

    /// Non-transactional write (setup only).
    pub fn store_direct(&self, system: &TmSystem, value: T) {
        system.heap.store(self.addr, value.into_word());
    }
}

/// A fixed-length array of transactional values.
#[derive(Debug)]
pub struct TmArray<T: TmValue> {
    base: Addr,
    len: usize,
    _marker: PhantomData<T>,
}

impl<T: TmValue> Clone for TmArray<T> {
    fn clone(&self) -> Self {
        TmArray {
            base: self.base,
            len: self.len,
            _marker: PhantomData,
        }
    }
}

impl<T: TmValue> TmArray<T> {
    /// Allocates an array of `len` elements, all initialised to `init`.
    ///
    /// # Panics
    ///
    /// Panics if the heap is exhausted or `len` is zero.
    pub fn alloc(system: &Arc<TmSystem>, len: usize, init: T) -> Self {
        assert!(len > 0, "TmArray length must be positive");
        let base = system
            .heap
            .alloc(len)
            .expect("transactional heap exhausted");
        for i in 0..len {
            system.heap.store(base.offset(i), init.into_word());
        }
        TmArray {
            base,
            len,
            _marker: PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the array has zero length (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Address of element `i` (usable with `Await`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn addr_of(&self, i: usize) -> Addr {
        assert!(
            i < self.len,
            "TmArray index {i} out of bounds ({})",
            self.len
        );
        self.base.offset(i)
    }

    /// Transactionally reads element `i`.
    pub fn get(&self, tx: &mut dyn Tx, i: usize) -> TxResult<T> {
        Ok(T::from_word(tx.read(self.addr_of(i))?))
    }

    /// Transactionally writes element `i`.
    pub fn set(&self, tx: &mut dyn Tx, i: usize, value: T) -> TxResult<()> {
        tx.write(self.addr_of(i), value.into_word())
    }

    /// Non-transactional read of element `i` (setup / verification only).
    pub fn load_direct(&self, system: &TmSystem, i: usize) -> T {
        T::from_word(system.heap.load(self.addr_of(i)))
    }

    /// Non-transactional write of element `i` (setup only).
    pub fn store_direct(&self, system: &TmSystem, i: usize, value: T) {
        system.heap.store(self.addr_of(i), value.into_word());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TmConfig;
    use crate::tx::DirectTx;

    #[test]
    fn word_encoding_round_trips() {
        assert_eq!(u64::from_word(17u64.into_word()), 17);
        assert_eq!(i64::from_word((-5i64).into_word()), -5);
        assert_eq!(i32::from_word((-5i32).into_word()), -5);
        assert_eq!(u32::from_word(7u32.into_word()), 7);
        assert_eq!(usize::from_word(123usize.into_word()), 123);
        assert!(bool::from_word(true.into_word()));
        assert!(!bool::from_word(false.into_word()));
        assert_eq!(Addr::from_word(Addr(9).into_word()), Addr(9));
    }

    #[test]
    fn tmvar_get_set_update() {
        let system = TmSystem::new(TmConfig::small());
        let v = TmVar::<u64>::alloc(&system, 10);
        let mut tx = DirectTx::new(&system);
        assert_eq!(v.get(&mut tx).unwrap(), 10);
        v.set(&mut tx, 20).unwrap();
        assert_eq!(v.get(&mut tx).unwrap(), 20);
        let old = v.update(&mut tx, |x| x + 5).unwrap();
        assert_eq!(old, 20);
        assert_eq!(v.load_direct(&system), 25);
    }

    #[test]
    fn tmvar_direct_access() {
        let system = TmSystem::new(TmConfig::small());
        let v = TmVar::<i64>::alloc(&system, -1);
        assert_eq!(v.load_direct(&system), -1);
        v.store_direct(&system, 7);
        assert_eq!(v.load_direct(&system), 7);
    }

    #[test]
    fn tmarray_indexing_and_bounds() {
        let system = TmSystem::new(TmConfig::small());
        let a = TmArray::<u64>::alloc(&system, 8, 3);
        assert_eq!(a.len(), 8);
        assert!(!a.is_empty());
        let mut tx = DirectTx::new(&system);
        for i in 0..8 {
            assert_eq!(a.get(&mut tx, i).unwrap(), 3);
        }
        a.set(&mut tx, 5, 99).unwrap();
        assert_eq!(a.load_direct(&system, 5), 99);
        assert_eq!(a.load_direct(&system, 4), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn tmarray_out_of_bounds_panics() {
        let system = TmSystem::new(TmConfig::small());
        let a = TmArray::<u64>::alloc(&system, 4, 0);
        let _ = a.addr_of(4);
    }

    #[test]
    fn distinct_vars_get_distinct_addresses() {
        let system = TmSystem::new(TmConfig::small());
        let a = TmVar::<u64>::alloc(&system, 0);
        let b = TmVar::<u64>::alloc(&system, 0);
        assert_ne!(a.addr(), b.addr());
    }
}
