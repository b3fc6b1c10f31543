//! Cache-line padding for contended per-core state.
//!
//! A single `AtomicU64` that two cores write concurrently costs a coherence
//! round-trip per write even when the *logical* data is disjoint, as long as
//! the two words share a cache line ("false sharing").  [`CachePadded`]
//! rounds a value's size and alignment up to one cache line so adjacent
//! array elements — orec stripes, waiter-registry shard heads, per-thread
//! epoch slots, statistics counters — can never share a line.
//!
//! The padding constant follows the hardware: 64 bytes on x86-64 and most
//! other targets, 128 bytes on aarch64 (Apple silicon and several ARM server
//! parts prefetch line *pairs*, so 128-byte spacing is what actually stops
//! the ping-pong there).
//!
//! The module also holds the one way to build a large all-zero table,
//! `zeroed_slice`: padding is for the small contended cells above, while a
//! big table of plain words should cost nothing until it is used.

use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicU16, AtomicU64};

/// The padding granularity in bytes on this target.
#[cfg(target_arch = "aarch64")]
pub const CACHE_LINE_BYTES: usize = 128;
/// The padding granularity in bytes on this target.
#[cfg(not(target_arch = "aarch64"))]
pub const CACHE_LINE_BYTES: usize = 64;

/// A `T` padded and aligned to a full cache line.
///
/// Dereferences to `T`, so wrapping an atomic in `CachePadded` changes the
/// memory layout and nothing else: `&padded.fetch_add(..)` and friends keep
/// working through auto-deref.
#[cfg_attr(target_arch = "aarch64", repr(align(128)))]
#[cfg_attr(not(target_arch = "aarch64"), repr(align(64)))]
#[derive(Default)]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in a line-sized, line-aligned cell.
    #[inline]
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwraps the padded value.
    #[inline]
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render as the inner value: the padding is a layout detail and only
        // adds noise to `TmSystem`/`TxStats` debug dumps.
        self.value.fmt(f)
    }
}

impl<T: Clone> Clone for CachePadded<T> {
    fn clone(&self) -> Self {
        CachePadded::new(self.value.clone())
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

/// A type for which the all-zero byte pattern is a valid value: the one a
/// fresh table slot must hold.
///
/// # Safety
///
/// Every byte of an implementor may be zero, and that value must be the
/// slot's initial state.
pub(crate) unsafe trait Zeroable {}

// SAFETY: an atomic integer has its integer's representation; all-zero is 0.
unsafe impl Zeroable for AtomicU64 {}
// SAFETY: as above.
unsafe impl Zeroable for AtomicU16 {}

/// A boxed slice of `n` all-zero `T`s from one zeroed allocation.
///
/// The tables built here (heap words, owner tags, orecs, directory lines)
/// have alignment at most 16, which the system allocator serves with
/// `calloc`: a large request comes straight from fresh zero pages, so a table
/// costs neither time nor resident memory until a thread first touches a
/// page of it.  Writing the zeros with `(0..n).map(..).collect()` touches
/// every page up front unless the optimiser happens to fold the loop.
pub(crate) fn zeroed_slice<T: Zeroable>(n: usize) -> Box<[T]> {
    let layout = Layout::array::<T>(n).expect("table size overflows isize");
    // SAFETY: a non-empty layout is what `alloc_zeroed` requires, and a null
    // result never reaches `from_raw`; an empty one gets the dangling pointer
    // `Box` uses for zero-sized allocations.  Either way the pointer is valid
    // for `n` `T`s allocated by the global allocator with `layout`, which is
    // what `Box<[T]>` frees with, and every one of them is initialised,
    // because all-zero is a valid `T` (`Zeroable`).
    unsafe {
        let data = if layout.size() == 0 {
            NonNull::<T>::dangling().as_ptr()
        } else {
            let data = alloc_zeroed(layout).cast::<T>();
            if data.is_null() {
                handle_alloc_error(layout);
            }
            data
        };
        Box::from_raw(ptr::slice_from_raw_parts_mut(data, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn alignment_and_size_are_a_full_line() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), CACHE_LINE_BYTES);
        assert_eq!(std::mem::size_of::<CachePadded<u8>>(), CACHE_LINE_BYTES);
        assert_eq!(
            std::mem::align_of::<CachePadded<AtomicU64>>(),
            CACHE_LINE_BYTES
        );
        // A value larger than one line still rounds up to whole lines.
        assert_eq!(
            std::mem::size_of::<CachePadded<[u8; 100]>>() % CACHE_LINE_BYTES,
            0
        );
    }

    #[test]
    fn array_elements_never_share_a_line() {
        let arr: [CachePadded<AtomicU64>; 4] = Default::default();
        for pair in arr.windows(2) {
            let a = &*pair[0] as *const AtomicU64 as usize;
            let b = &*pair[1] as *const AtomicU64 as usize;
            assert!(b - a >= CACHE_LINE_BYTES);
            assert_eq!(a % CACHE_LINE_BYTES, 0, "each element is line-aligned");
        }
    }

    #[test]
    fn deref_passes_through() {
        let c = CachePadded::new(AtomicU64::new(7));
        c.fetch_add(1, Ordering::Relaxed);
        assert_eq!(c.load(Ordering::Relaxed), 8);
        assert_eq!(CachePadded::new(5u64).into_inner(), 5);
        let mut m = CachePadded::new(3u64);
        *m += 1;
        assert_eq!(*m, 4);
    }

    #[test]
    fn zeroed_slices_hold_zeros_and_are_writable() {
        let words = zeroed_slice::<AtomicU64>(1 << 14);
        assert_eq!(words.len(), 1 << 14);
        assert!(words.iter().all(|w| w.load(Ordering::Relaxed) == 0));
        words[77].store(5, Ordering::Relaxed);
        assert_eq!(words[77].load(Ordering::Relaxed), 5);
        let tags = zeroed_slice::<AtomicU16>(3);
        assert!(tags.iter().all(|t| t.load(Ordering::Relaxed) == 0));
        assert!(zeroed_slice::<AtomicU64>(0).is_empty());
    }
}
