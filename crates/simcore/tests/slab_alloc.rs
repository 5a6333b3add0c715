//! Allocation-counting harness for the slab arena: proves both halves of
//! its growth contract — geometric growth at new peaks, nothing below
//! them — with a counting global allocator rather than by inspecting
//! `allocated_nodes()` and `growths()` alone.
//!
//! The library crate forbids `unsafe`; this integration test is its own
//! crate, so the `GlobalAlloc` shim lives here. The same pattern backs the
//! whole-engine regression test at the workspace root
//! (`tests/alloc_regression.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hawk_simcore::{BatchPool, EntrySlab};

/// Counts every allocation (alloc, alloc_zeroed, realloc) made through the
/// global allocator. Deallocations are free and not counted.
struct CountingAllocator;

// Per-thread counter (const-init TLS: no lazy allocation on first touch),
// so the test harness running other tests in parallel cannot leak their
// allocations into a measured window.
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Warm-then-measure: after the arena has seen its peak population, an
/// arbitrary push/pop/unlink churn performs zero heap allocations.
#[test]
fn slab_churn_is_allocation_free_after_warm_up() {
    const LISTS: usize = 64;
    const PEAK: usize = 32;
    let mut slab: EntrySlab<u64> = EntrySlab::new(LISTS);

    // Warm-up: take every list to its peak and drain it again.
    for list in 0..LISTS {
        for v in 0..PEAK as u64 {
            slab.push_back(list, v);
        }
    }
    for list in 0..LISTS {
        while slab.pop_front(list).is_some() {}
    }

    let before = allocations();
    // Steady state: heavy churn below the peak, including mid-list
    // unlinks (the steal pattern).
    let mut x = 1u64;
    for round in 0..1_000u64 {
        for list in 0..LISTS {
            for _ in 0..8 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(round);
                slab.push_back(list, x);
            }
            // Unlink the second entry (head successor), then pop the rest.
            let head = slab.head(list).expect("list is non-empty");
            if let Some(second) = slab.next(head) {
                slab.unlink_run(list, Some(head), second, 1, drop);
            }
            while slab.pop_front(list).is_some() {}
        }
    }
    assert_eq!(
        allocations() - before,
        0,
        "slab churn allocated on the steady-state path"
    );
    assert!(slab.check_invariants());
}

/// The growth half of the contract: `n` pushes from empty cost at most
/// `⌈log2 n⌉ + 1` allocations — every one of them counted by `growths()`
/// — and once the peak is reached, none, however the population moves
/// below it. A reserved floor takes its share off the front.
#[test]
fn slab_grows_geometrically_to_its_peak_and_never_below_it() {
    for n in [1usize, 2, 3, 1_000, 4_097, 100_000] {
        let log2_ceil = n.next_power_of_two().trailing_zeros() as u64;
        let mut slab: EntrySlab<u64> = EntrySlab::new(4);

        let before = allocations();
        for v in 0..n {
            slab.push_back(v % 4, v as u64);
        }
        let grown = allocations() - before;
        assert!(
            grown <= log2_ceil + 1,
            "{n} pushes from empty allocated {grown} times"
        );
        assert_eq!(u64::from(slab.growths()), grown);
        assert_eq!(slab.allocated_nodes(), n);

        // Drain and refill to the same peak, twice: recycled nodes only.
        let before = allocations();
        for _ in 0..2 {
            for list in 0..4 {
                while slab.pop_front(list).is_some() {}
            }
            for v in 0..n {
                slab.push_back(v % 4, v as u64);
            }
        }
        assert_eq!(allocations() - before, 0, "allocated below the peak");
        assert_eq!(
            (u64::from(slab.growths()), slab.allocated_nodes()),
            (grown, n)
        );

        // The same pushes over a floor of n / 2: only the doublings past it.
        let mut floored: EntrySlab<u64> = EntrySlab::with_node_capacity(4, n / 2);
        let before = allocations();
        for v in 0..n {
            floored.push_back(v % 4, v as u64);
        }
        let grown = allocations() - before;
        assert!(
            grown <= 2,
            "{n} pushes over a floor of {} allocated {grown} times",
            n / 2
        );
        assert_eq!(u64::from(floored.growths()), grown);
    }
}

/// The batch pool's put/take cycle allocates nothing once its slots have
/// warmed to the peak batch size and in-flight count, and nor does its
/// swapping cycle, where the vectors themselves circulate between the
/// sender's buffer and the slots.
#[test]
fn batch_pool_cycle_is_allocation_free_after_warm_up() {
    let mut pool: BatchPool<u64> = BatchPool::new();
    let mut buf: Vec<u64> = Vec::with_capacity(32);

    // Warm-up: two batches in flight at the peak size.
    buf.extend(0..32);
    let a = pool.put(&mut buf);
    buf.extend(0..32);
    let b = pool.put(&mut buf);
    pool.take_into(a, &mut buf);
    pool.take_into(b, &mut buf);
    buf.clear();

    let before = allocations();
    for round in 0..10_000u64 {
        buf.extend(round..round + 24);
        let h1 = pool.put(&mut buf);
        buf.extend(round..round + 8);
        let h2 = pool.put(&mut buf);
        pool.take_into(h1, &mut buf);
        pool.take_into(h2, &mut buf);
        buf.clear();
    }
    assert_eq!(
        allocations() - before,
        0,
        "batch pool allocated on the steady-state path"
    );

    // Two batches in flight again, by swapping: every vector in
    // circulation (the buffer's and the two slots') has held a full batch
    // once the warm-up rounds are over.
    let mut swapping: BatchPool<u64> = BatchPool::new();
    let mut cycle = |buf: &mut Vec<u64>, round: u64| {
        buf.extend(round..round + 32);
        let h1 = swapping.put_swap(buf);
        buf.extend(round..round + 32);
        let h2 = swapping.put_swap(buf);
        swapping.take_swap(h1, buf);
        swapping.take_swap(h2, buf);
        buf.clear();
    };
    for round in 0..4 {
        cycle(&mut buf, round);
    }
    let before = allocations();
    for round in 0..10_000u64 {
        cycle(&mut buf, round);
    }
    assert_eq!(
        allocations() - before,
        0,
        "swapping batch pool allocated on the steady-state path"
    );
}
