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

fn describe(server: &Server, queues: &QueueSlab) -> String {
    server
        .queue(queues)
        .map(|e| match e {
            QueueEntry::Probe { job, .. } => format!("S{}", job.0),
            QueueEntry::Task(t) if t.class.is_long() => format!("L{}", t.job.0),
            QueueEntry::Task(t) => format!("S{}", t.job.0),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn show_case(title: &str, server: &Server, queues: &QueueSlab) {
    let running = match server.slot() {
        Slot::Running(t) if t.class.is_long() => format!("L{}", t.job.0),
        Slot::Running(t) => format!("S{}", t.job.0),
        _ => "-".into(),
    };
    println!("{title}");
    println!(
        "  executing: [{running}]   queue: [{}]",
        describe(server, queues)
    );
    match eligible_group(server, queues) {
        Some((start, len)) => {
            let victims: Vec<String> = server
                .queue(queues)
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
    let mut a = Server::new(ServerId(0));
    a.enqueue(&mut queues, short_task(100, 50));
    for e in [
        short_probe(1),
        long_task(2),
        short_probe(3),
        short_probe(4),
        long_task(5),
        short_probe(6),
    ] {
        a.enqueue(&mut queues, e);
    }
    show_case("case a) executing a short task:", &a, &queues);

    // Case b: the victim is executing a LONG task. Even though it has made
    // progress, it will still delay everything queued; the head shorts are
    // stolen.
    let mut b = Server::new(ServerId(1));
    b.enqueue(&mut queues, long_task(200));
    for e in [short_probe(1), short_probe(2), long_task(3), short_probe(4)] {
        b.enqueue(&mut queues, e);
    }
    show_case("case b) executing a long task:", &b, &queues);

    // No long task anywhere: nothing to rescue from.
    let mut c = Server::new(ServerId(2));
    c.enqueue(&mut queues, short_task(300, 10));
    for e in [short_probe(1), short_probe(2)] {
        c.enqueue(&mut queues, e);
    }
    show_case("all-short server (no head-of-line blocking):", &c, &queues);

    // End-to-end: a cluster where stealing moves the group to an idle
    // server and the short job escapes a 20,000 s wait.
    println!("end-to-end transfer:");
    let mut cluster = Cluster::new(4, 0.25);
    cluster.enqueue(ServerId(0), long_task(1));
    cluster.enqueue(ServerId(0), short_probe(10));
    cluster.enqueue(ServerId(0), short_probe(11));
    println!(
        "  server 0 queue before steal: [{}]",
        describe(cluster.server(ServerId(0)), cluster.queues())
    );
    let mut loot = Vec::new();
    let granularity = StealGranularity::FirstBlockedGroup;
    let mut rng = SimRng::seed_from_u64(1);
    cluster.steal_from_with_into(ServerId(0), granularity, &mut rng, &mut loot);
    println!("  idle server 3 steals {} entries", loot.len());
    cluster.give_stolen_drain(ServerId(3), &mut loot);
    println!(
        "  server 0 queue after:  [{}]   server 3 queue: [{}] (+1 probe binding)",
        describe(cluster.server(ServerId(0)), cluster.queues()),
        describe(cluster.server(ServerId(3)), cluster.queues()),
    );
}
