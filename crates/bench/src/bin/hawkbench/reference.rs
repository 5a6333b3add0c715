//! The calibration kernel: a fixed piece of work whose speed tells how fast
//! the machine is *right now*.
//!
//! The box the benchmark was defined on shares its two cores with other
//! tenants, and its speed drifts by 15–25 % over minutes while staying
//! within ±3 % inside one run (README, "Measured noise"). No estimator over
//! the repeats of one run removes a drift slower than the run. So every
//! timed repeat is bracketed by two runs of this kernel, and the host times
//! of the end-to-end metrics are reported *calibrated*: scaled by
//! [`NOMINAL_S`] over the kernel's time around that repeat, which reads as
//! seconds on the defining box in its nominal state. The raw wall-clock is
//! printed next to each.
//!
//! The kernel is shaped like the simulator's inner loop — pop the earliest
//! entry of a binary heap, follow one dependent load into a table far larger
//! than the caches, push an entry back — so contention for the memory
//! system slows both alike. It calls nothing of the repository: a change to
//! the system under test cannot move it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one [`Reference::run`] takes on the defining box (2-core shared
/// Xeon, 2.1 GHz) in its nominal state. A constant of the benchmark: it
/// only fixes the scale of the calibrated seconds.
pub const NOMINAL_S: f64 = 0.30;

/// 64 MiB of `u32`: beyond the last-level cache, like a cell's working set.
const TABLE_WORDS: usize = 16 << 20;
/// Pending entries, the order of a 15,000-node cell's future-event list.
const HEAP_LEN: usize = 1 << 16;
const OPS: usize = 1_000_000;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// One thread's heap and position in the table.
struct Lane {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    state: u64,
    cursor: u32,
}

impl Lane {
    fn new(index: usize, heap_len: usize) -> Lane {
        let mut state = 0x9E37_79B9_7F4A_7C15 ^ (index as u64 + 1);
        let mut heap = BinaryHeap::with_capacity(heap_len + 1);
        for i in 0..heap_len {
            heap.push(Reverse((xorshift(&mut state) >> 20, i as u32)));
        }
        Lane {
            heap,
            state,
            cursor: index as u32,
        }
    }

    fn run(&mut self, table: &[u32], ops: usize) {
        let mut cursor = self.cursor;
        for _ in 0..ops {
            let Reverse((key, payload)) = self.heap.pop().expect("the heap never drains");
            cursor = table[(cursor ^ payload) as usize % table.len()];
            let delay = (xorshift(&mut self.state) >> 44) + 1;
            self.heap.push(Reverse((key + delay, cursor)));
        }
        self.cursor = black_box(cursor);
    }
}

pub struct Reference {
    /// One random cycle through every index, shared read-only by the lanes.
    table: Vec<u32>,
    lanes: Vec<Lane>,
    ops: usize,
}

impl Reference {
    /// A kernel that can keep up to `threads` cores busy at once.
    pub fn new(threads: usize) -> Reference {
        Reference::sized(threads, TABLE_WORDS, HEAP_LEN, OPS)
    }

    /// A sixteenth of the work on a sixteenth of the table, for `--quick`:
    /// the same code path in milliseconds. Its table fits the caches, so
    /// what it calibrates is not comparable — as nothing `--quick` prints is.
    pub fn quick(threads: usize) -> Reference {
        Reference::sized(threads, TABLE_WORDS / 16, HEAP_LEN, OPS / 16)
    }

    fn sized(threads: usize, table_words: usize, heap_len: usize, ops: usize) -> Reference {
        // Sattolo's shuffle: a single cycle, so the chase never settles
        // into a short loop that fits a cache.
        let mut state = 0x2545_F491_4F6C_DD1D;
        let mut table: Vec<u32> = (0..table_words as u32).collect();
        for i in (1..table_words).rev() {
            let j = (xorshift(&mut state) % i as u64) as usize;
            table.swap(i, j);
        }
        Reference {
            table,
            lanes: (0..threads.max(1))
                .map(|i| Lane::new(i, heap_len))
                .collect(),
            ops,
        }
    }

    /// Runs the fixed work on `threads` lanes at once — as many as the
    /// stretch it calibrates computes on, so a stolen core slows both —
    /// and returns the wall seconds until the last lane finished.
    ///
    /// # Panics
    ///
    /// Panics if the kernel was built for fewer threads.
    pub fn run(&mut self, threads: usize) -> f64 {
        let (table, ops) = (&self.table[..], self.ops);
        let start = Instant::now();
        match &mut self.lanes[..threads] {
            [lane] => lane.run(table, ops),
            lanes => std::thread::scope(|scope| {
                for lane in lanes {
                    scope.spawn(move || lane.run(table, ops));
                }
            }),
        }
        start.elapsed().as_secs_f64()
    }

    /// `wall_s` as the defining box in its nominal state would have read
    /// it, given this kernel's seconds just before and just after.
    pub fn calibrate(&self, wall_s: f64, before_s: f64, after_s: f64) -> f64 {
        let nominal_s = NOMINAL_S * self.ops as f64 / OPS as f64;
        wall_s * nominal_s / ((before_s + after_s) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_keeps_its_heap() {
        let run = |threads| {
            let mut reference = Reference::sized(threads, 1 << 10, 64, 5_000);
            assert!(reference.run(threads) > 0.0);
            assert!(reference.run(threads) > 0.0);
            reference
                .lanes
                .iter()
                .map(|lane| (lane.cursor, lane.heap.len()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        let two = run(2);
        assert_eq!(two.len(), 2);
        assert_eq!(two, run(2));
        assert!(two.iter().all(|&(_, len)| len == 64));
        // Lane 0 does the same work whether or not a second lane runs.
        assert_eq!(two[0], run(1)[0]);
    }

    #[test]
    fn the_table_is_one_cycle() {
        let reference = Reference::sized(1, 257, 4, 1);
        let (mut at, mut steps) = (0u32, 0);
        loop {
            at = reference.table[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, 257);
    }

    #[test]
    fn calibration_scales_by_the_kernels_speed() {
        let full = Reference::sized(1, 16, 4, OPS);
        // The kernel at its nominal time: the wall-clock stands.
        assert_eq!(full.calibrate(2.0, NOMINAL_S, NOMINAL_S), 2.0);
        // A machine running 25 % slow: the cell is credited for it.
        let slow = NOMINAL_S * 1.25;
        assert!((full.calibrate(2.5, slow, slow) - 2.0).abs() < 1e-12);
        // A kernel of a tenth of the work is nominal at a tenth of the time.
        let tenth = Reference::sized(1, 16, 4, OPS / 10);
        assert!((tenth.calibrate(2.0, NOMINAL_S / 10.0, NOMINAL_S / 10.0) - 2.0).abs() < 1e-12);
    }
}
