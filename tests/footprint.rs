//! What building a system costs in memory it touches.
//!
//! A fresh `TmSystem` holds an 8 MiB word heap, its owner tags and the orec
//! table, and a hardware runtime adds its directory's line table.  Each is
//! one zeroed allocation with alignment at most 16, which the system
//! allocator serves from fresh zero pages (`calloc`), so none is written
//! until a thread uses it.  A counting global allocator checks the
//! requests, per thread, so other tests in this binary do not count:
//! everything else a build asks for stays small, no large table is
//! requested with an alignment that forces the allocator to zero it page by
//! page, and the heap itself did go through the zeroed path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tm_repro::prelude::*;

struct Counting;

thread_local! {
    /// Bytes requested through `alloc` and `realloc`.
    static WRITTEN: Cell<usize> = const { Cell::new(0) };
    /// Bytes requested through `alloc_zeroed`.
    static ZEROED: Cell<usize> = const { Cell::new(0) };
    /// Largest alignment of an `alloc_zeroed` request of `BIG` bytes or more.
    static BIG_ZEROED_ALIGN: Cell<usize> = const { Cell::new(0) };
}

/// A table this large must cost nothing until it is used.
const BIG: usize = 64 << 10;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only additions are updates of `const`-initialised, destructor-free
// thread-locals, which themselves never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        WRITTEN.with(|n| n.set(n.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ZEROED.with(|n| n.set(n.get() + layout.size()));
        if layout.size() >= BIG {
            BIG_ZEROED_ALIGN.with(|a| a.set(a.get().max(layout.align())));
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        WRITTEN.with(|n| n.set(n.get() + new_size));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What this thread requested while running `f`.
#[derive(Debug)]
struct Requests {
    written: usize,
    zeroed: usize,
    big_zeroed_align: usize,
}

fn requests_in<T>(f: impl FnOnce() -> T) -> Requests {
    let (written, zeroed) = (WRITTEN.with(Cell::get), ZEROED.with(Cell::get));
    BIG_ZEROED_ALIGN.with(|a| a.set(0));
    let built = f();
    let requests = Requests {
        written: WRITTEN.with(Cell::get) - written,
        zeroed: ZEROED.with(Cell::get) - zeroed,
        big_zeroed_align: BIG_ZEROED_ALIGN.with(Cell::get),
    };
    drop(built);
    requests
}

/// Everything but the zeroed tables; today about 110 KiB, most of it the
/// epoch table's padded slots.
const WRITTEN_BUDGET: usize = 256 << 10;

fn assert_within_budget(what: &str, requests: Requests) {
    assert!(
        requests.written < WRITTEN_BUDGET,
        "{what}: {requests:?} — a large table went through `alloc`"
    );
    assert!(
        requests.big_zeroed_align <= 16,
        "{what}: {requests:?} — a large zeroed table is over-aligned, so the \
         allocator zeroes it page by page"
    );
    let heap_bytes = TmConfig::default().heap_words * 8;
    assert!(
        requests.zeroed >= heap_bytes,
        "{what}: {requests:?} — the heap did not go through `alloc_zeroed`"
    );
}

#[test]
fn a_default_system_and_its_first_thread_touch_only_small_tables() {
    let requests = requests_in(|| {
        let system = TmSystem::new(TmConfig::default());
        let th = system.register_thread();
        (system, th)
    });
    assert_within_budget("TmSystem::new + register_thread", requests);
}

#[test]
fn every_runtime_builds_within_the_budget() {
    for kind in RuntimeKind::ALL {
        let requests = requests_in(|| kind.build(TmConfig::default()));
        assert_within_budget(&kind.to_string(), requests);
    }
}
