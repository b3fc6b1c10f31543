//! Timed waits: `consume_timeout` on the bounded buffer.
//!
//! A consumer that refuses to stall forever: it drains a bounded buffer
//! with per-operation deadlines, rides out a slow producer's stalls as
//! timeouts, and gives up cleanly once the producer is done.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example timeouts
//! ```

use std::sync::Arc;
use std::time::Duration;

use tm_repro::prelude::*;

fn main() {
    let rt = RuntimeKind::EagerStm.build(TmConfig::small());
    let system = Arc::clone(rt.system());
    let buf = TmBoundedBuffer::new(&system, 4);

    // A deliberately slow producer: 12 items with a stall every 4.
    let (rt2, system2, buf2) = (rt.clone(), Arc::clone(&system), Arc::clone(&buf));
    let producer = std::thread::spawn(move || {
        let th = system2.register_thread();
        for item in 1..=12u64 {
            if item % 4 == 1 {
                std::thread::sleep(Duration::from_millis(40));
            }
            rt2.atomically(&th, |tx| buf2.produce(Mechanism::Retry, tx, item));
        }
    });

    // The lossy consumer: each wait is bounded by 10ms.  `None` means the
    // deadline fired — the paper's unbounded `retry` would have slept
    // through the stall instead.
    let th = system.register_thread();
    let mut got = Vec::new();
    let mut timeouts = 0u32;
    while got.len() < 12 {
        match rt.atomically(&th, |tx| {
            buf.consume_timeout(Mechanism::Retry, tx, Duration::from_millis(10))
        }) {
            Some(v) => got.push(v),
            None => timeouts += 1,
        }
    }
    producer.join().unwrap();
    println!("consumed {:?}", got);
    println!("deadlines fired {timeouts} times while the producer stalled");

    let stats = system.stats();
    println!(
        "runtime counted {} timeout-ended sleeps, {} wake-ups, {} timer ticks",
        stats.wake_timeouts, stats.wakeups, stats.timer_ticks
    );
}
