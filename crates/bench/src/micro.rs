//! The cases of the `event_queue` and `steal_scan` micro-benches:
//! `benches/event_queue.rs` and `benches/steal_scan.rs` time them through
//! criterion (`cargo bench -p hawk-bench --bench event_queue`). The
//! repository benchmark measures the same two costs at each workload's own
//! population, as hawkbench's per-layer `simcore.engine_ns_per_event` and
//! `cluster.steal_scan_ns`.

use hawk_cluster::steal::eligible_group;
use hawk_cluster::{QueueEntry, QueueSlab, Server, TaskSpec};
use hawk_simcore::{EventQueue, SimDuration, SimRng, SimTime};
use hawk_workload::{JobClass, JobId};

/// One micro-bench case: `run` does `elements` units of work per call and
/// returns a value derived from all of it (an optimization barrier for the
/// caller to `black_box`).
pub struct Case {
    /// `function/parameter`, as criterion prints it.
    pub name: String,
    /// Units of work per `run` call: the per-unit cost is the call's time
    /// over this.
    pub elements: u64,
    /// The timed body.
    pub run: Box<dyn FnMut() -> u64>,
}

/// Future-event-list throughput — the simulator's hot loop is dominated
/// by event-queue pushes and pops — at 1k / 10k / 100k pending events:
/// `push_then_drain` fills the wheel with uniformly random times and
/// empties it; `steady_state` is the interleaved push/pop pattern at
/// constant size. One element is one event through the queue.
pub fn event_queue_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for n in [1_000usize, 10_000, 100_000] {
        let mut rng = SimRng::seed_from_u64(1);
        let times: Vec<SimTime> = (0..n)
            .map(|_| SimTime::from_micros(rng.gen_range(0, 1_000_000_000)))
            .collect();
        cases.push(Case {
            name: format!("push_then_drain/{n}"),
            elements: n as u64,
            run: Box::new(move || {
                let mut q = EventQueue::with_capacity(n);
                for (i, &t) in times.iter().enumerate() {
                    q.push(t, i as u32);
                }
                let mut last = SimTime::ZERO;
                while let Some((t, _)) = q.pop() {
                    debug_assert!(t >= last);
                    last = t;
                }
                last.as_micros()
            }),
        });
        let mut rng = SimRng::seed_from_u64(2);
        cases.push(Case {
            name: format!("steady_state/{n}"),
            elements: n as u64,
            run: Box::new(move || {
                let mut q = EventQueue::with_capacity(n);
                for i in 0..n {
                    q.push(SimTime::from_micros(rng.gen_range(0, 1 << 30)), i as u32);
                }
                let mut acc = 0u64;
                for _ in 0..n {
                    let (t, _) = q.pop().expect("non-empty");
                    acc = acc.wrapping_add(t.as_micros());
                    q.push(t + SimDuration::from_micros(rng.gen_range(1, 1_000)), 0);
                }
                acc
            }),
        });
    }
    cases
}

fn entry(long: bool, id: u32) -> QueueEntry {
    if long {
        QueueEntry::Task(task(id, 20_000, JobClass::Long))
    } else {
        QueueEntry::Probe {
            job: JobId(id),
            class: JobClass::Short,
        }
    }
}

fn task(id: u32, secs: u64, class: JobClass) -> TaskSpec {
    TaskSpec {
        job: JobId(id),
        duration: SimDuration::from_secs(secs),
        estimate: SimDuration::from_secs(secs),
        class,
        task: 0,
        attempt: 0,
    }
}

/// The Figure 3 victim-queue steal scan (§3.6) over queues of 8 / 64 / 512
/// entries: `mixed_queue` walks a busy server executing a long task with
/// 30 % long entries in random order; `all_short_fast_path` is a short slot
/// over an all-short queue, which the queued-long counter rejects in O(1).
/// One element is one scan.
pub fn steal_scan_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for len in [8usize, 64, 512] {
        let mut rng = SimRng::seed_from_u64(7);
        let mut q = QueueSlab::new(1);
        let mut s = Server::default();
        s.enqueue(&mut q, 0, entry(true, 0)); // occupies the slot (a long task)
        for i in 0..len {
            s.enqueue(&mut q, 0, entry(rng.chance(0.3), i as u32 + 1));
        }
        cases.push(scan_case(format!("mixed_queue/{len}"), q, s));

        let mut q = QueueSlab::new(1);
        let mut s = Server::default();
        s.enqueue(&mut q, 0, entry(false, 0));
        // Bind the probe so the slot is Running(short).
        s.on_bind_response(&mut q, 0, Some(task(0, 1, JobClass::Short)));
        for i in 0..len {
            s.enqueue(&mut q, 0, entry(false, i as u32 + 1));
        }
        cases.push(scan_case(format!("all_short_fast_path/{len}"), q, s));
    }
    cases
}

fn scan_case(name: String, queues: QueueSlab, victim: Server) -> Case {
    Case {
        name,
        elements: 1,
        run: Box::new(move || {
            eligible_group(std::hint::black_box(&victim), &queues, 0)
                .map_or(0, |(_, len)| len as u64)
        }),
    }
}
