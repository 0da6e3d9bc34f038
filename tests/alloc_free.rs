//! The FR-FCFS controller's steady state allocates nothing: once its
//! queues have reached their capacity, enqueueing, ticking through
//! `tick_into` (quiet ticks, issuing ticks, refresh windows) and taking
//! the quiet-tick bound touch no heap. A counting global allocator,
//! armed on the test's own thread only, pins that at zero.

use fsmc::core::domain::{DomainId, PartitionPolicy};
use fsmc::core::sched::baseline::BaselineScheduler;
use fsmc::core::sched::{Completion, MemoryController};
use fsmc::core::txn::{Transaction, TxnId};
use fsmc::dram::geometry::LineAddr;
use fsmc::dram::{Geometry, TimingParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if ARMED.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counter
// beside it touches no allocated memory and allocates nothing (the
// thread-local is a const-initialised `Cell<bool>` without a destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Drives `mc` for `cycles` from `*cycle`: one arrival attempt per cycle
/// from a fixed pseudo-random stream (a quarter writes, row-hit walks
/// broken by random jumps), refused when the queues are full. `out`
/// is the caller's completion buffer, reused across calls.
fn drive(
    mc: &mut BaselineScheduler,
    out: &mut Vec<Completion>,
    (state, cycle): (&mut u64, &mut u64),
    cycles: u64,
) -> usize {
    let geom = Geometry::paper_default();
    let mut done = 0;
    for _ in 0..cycles {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let r = *state >> 16;
        let domain = DomainId((r % 8) as u8);
        let local = LineAddr(if r >> 3 & 7 == 0 { r >> 8 & 0xfffff } else { *cycle / 4 });
        if mc.can_accept(domain) {
            let loc = PartitionPolicy::None.map(&geom, domain, local);
            let id = TxnId(*cycle);
            let txn = if r >> 6 & 3 == 0 {
                Transaction::write(id, domain, loc, *cycle)
            } else {
                Transaction::read(id, domain, loc, *cycle).with_local_addr(local)
            };
            mc.enqueue(txn).unwrap();
        }
        mc.tick_into(*cycle, out);
        let _ = mc.next_event(*cycle);
        done += out.len();
        out.clear();
        *cycle += 1;
    }
    done
}

#[test]
fn frfcfs_steady_state_ticks_allocate_nothing() {
    for prefetch in [false, true] {
        let mut mc = BaselineScheduler::new(
            Geometry::paper_default(),
            TimingParams::ddr3_1600(),
            8,
            prefetch,
        );
        let (mut state, mut cycle) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
        let mut out = Vec::with_capacity(4);
        // Warm-up: fills the read queue to capacity, runs the write queue
        // through drain cycles and crosses refresh windows, so every
        // buffer has reached its steady-state size.
        drive(&mut mc, &mut out, (&mut state, &mut cycle), 30_000);
        ALLOCATIONS.store(0, Ordering::Relaxed);
        ARMED.with(|a| a.set(true));
        let done = drive(&mut mc, &mut out, (&mut state, &mut cycle), 30_000);
        ARMED.with(|a| a.set(false));
        assert!(done > 1_000, "prefetch {prefetch}: only {done} completions; not a loaded run");
        assert_eq!(
            ALLOCATIONS.load(Ordering::Relaxed),
            0,
            "prefetch {prefetch}: steady-state ticks allocated"
        );
    }
}
