//! Work stealing mechanics, close up (§3.6 / Figure 3).
//!
//! Drives the cluster substrate directly — no trace, no driver — to show
//! exactly which queue entries the randomized stealing scan selects in
//! each of the paper's Figure 3 cases.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example steal_rescue
//! ```

use hawk::cluster::steal::eligible_group;
use hawk::cluster::{QueueEntry, QueueSlab, Server, Slot, TaskSpec};
use hawk::prelude::*;

fn long_task(job: u32) -> QueueEntry {
    QueueEntry::Task(TaskSpec {
        job: JobId(job),
        duration: SimDuration::from_secs(20_000),
        estimate: SimDuration::from_secs(20_000),
        class: JobClass::Long,
        task: 0,
        attempt: 0,
    })
}

fn short_task(job: u32, secs: u64) -> QueueEntry {
    QueueEntry::Task(TaskSpec {
        job: JobId(job),
        duration: SimDuration::from_secs(secs),
        estimate: SimDuration::from_secs(secs),
        class: JobClass::Short,
        task: 0,
        attempt: 0,
    })
}

fn short_probe(job: u32) -> QueueEntry {
    QueueEntry::Probe {
        job: JobId(job),
        class: JobClass::Short,
    }
}

fn describe(queue: impl Iterator<Item = QueueEntry>) -> String {
    queue
        .map(|e| match e {
            QueueEntry::Probe { job, .. } => format!("S{}", job.0),
            QueueEntry::Task(t) if t.class.is_long() => format!("L{}", t.job.0),
            QueueEntry::Task(t) => format!("S{}", t.job.0),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn show_case(title: &str, server: &Server, queues: &QueueSlab, list: usize) {
    let running = match server.slot() {
        Slot::Running(t) if t.class.is_long() => format!("L{}", t.job.0),
        Slot::Running(t) => format!("S{}", t.job.0),
        _ => "-".into(),
    };
    println!("{title}");
    println!(
        "  executing: [{running}]   queue: [{}]",
        describe(queues.iter(list))
    );
    match eligible_group(server, queues, list) {
        Some((start, len)) => {
            let victims: Vec<String> = queues
                .iter(list)
                .skip(start)
                .take(len)
                .map(|e| format!("S{}", e.job().0))
                .collect();
            println!(
                "  stolen:    {} (queue positions {start}..{})",
                victims.join(" "),
                start + len
            );
        }
        None => println!("  stolen:    nothing eligible"),
    }
    println!();
}

fn main() {
    println!("Figure 3: which short tasks does an idle server steal?\n");

    // One shared arena backs every queue in this walkthrough, exactly as
    // a cluster's servers share one slab.
    let mut queues = QueueSlab::new(3);

    // Case a: the victim is executing a SHORT task. The first consecutive
    // group of short entries after the first long entry is stolen.
    let mut a = Server::default();
    a.enqueue(&mut queues, 0, short_task(100, 50));
    for e in [
        short_probe(1),
        long_task(2),
        short_probe(3),
        short_probe(4),
        long_task(5),
        short_probe(6),
    ] {
        a.enqueue(&mut queues, 0, e);
    }
    show_case("case a) executing a short task:", &a, &queues, 0);

    // Case b: the victim is executing a LONG task. Even though it has made
    // progress, it will still delay everything queued; the head shorts are
    // stolen.
    let mut b = Server::default();
    b.enqueue(&mut queues, 1, long_task(200));
    for e in [short_probe(1), short_probe(2), long_task(3), short_probe(4)] {
        b.enqueue(&mut queues, 1, e);
    }
    show_case("case b) executing a long task:", &b, &queues, 1);

    // No long task anywhere: nothing to rescue from.
    let mut c = Server::default();
    c.enqueue(&mut queues, 2, short_task(300, 10));
    for e in [short_probe(1), short_probe(2)] {
        c.enqueue(&mut queues, 2, e);
    }
    show_case(
        "all-short server (no head-of-line blocking):",
        &c,
        &queues,
        2,
    );

    // End-to-end: a cluster where stealing moves the group to an idle
    // server and the short job escapes a 20,000 s wait.
    println!("end-to-end transfer:");
    let mut cluster = Cluster::new(4, 0.25);
    cluster.enqueue(ServerId(0), long_task(1));
    cluster.enqueue(ServerId(0), short_probe(10));
    cluster.enqueue(ServerId(0), short_probe(11));
    println!(
        "  server 0 queue before steal: [{}]",
        describe(cluster.queue(ServerId(0)))
    );
    let mut loot = Vec::new();
    cluster.steal_into(ServerId(0), &mut loot);
    println!("  idle server 3 steals {} entries", loot.len());
    cluster.give_stolen_drain(ServerId(3), &mut loot);
    println!(
        "  server 0 queue after:  [{}]   server 3 queue: [{}] (+1 probe binding)",
        describe(cluster.queue(ServerId(0))),
        describe(cluster.queue(ServerId(3))),
    );
}
