//! Property tests for the cluster's incremental indexes.
//!
//! Random legal operation sequences (enqueues, binds, finishes, steals at
//! every granularity, server failures and revivals) must leave every
//! index — steal-candidate bitmap, liveness, running count — exactly
//! equal to a from-scratch recomputation, and the O(1) query surface must
//! agree with the brute-force answers. The candidate bitmap in particular may never say
//! "no" about a victim a steal scan would find a group on.

use proptest::prelude::*;

use hawk_cluster::steal::{self, StealGranularity};
use hawk_cluster::{Cluster, QueueEntry, ServerId, TaskSpec};
use hawk_simcore::{SimDuration, SimRng};
use hawk_workload::{JobClass, JobId};

fn spec(job: u32, class: JobClass) -> TaskSpec {
    TaskSpec {
        job: JobId(job),
        duration: SimDuration::from_secs(10),
        estimate: SimDuration::from_secs(10),
        class,
        task: 0,
        attempt: 0,
    }
}

/// Applies one generated op, keeping the sequence legal (bind responses
/// only to binding servers, finishes only to running servers, nothing
/// enqueued on a down server).
fn apply_op(cluster: &mut Cluster, op: (u8, u8, u8, u8), job: &mut u32, rng: &mut SimRng) {
    let (kind, server_pick, class_bit, flavor) = op;
    let nodes = cluster.len();
    let id = ServerId(server_pick as u32 % nodes as u32);
    let class = if class_bit % 2 == 0 {
        JobClass::Short
    } else {
        JobClass::Long
    };
    *job += 1;
    match kind % 6 {
        0 if cluster.is_down(id) => {}
        0 => {
            let entry = if flavor % 2 == 0 {
                QueueEntry::Probe {
                    job: JobId(*job),
                    class,
                }
            } else {
                QueueEntry::Task(spec(*job, class))
            };
            cluster.enqueue(id, entry);
        }
        1 => {
            if cluster.server(id).is_awaiting_bind() {
                let task = (flavor % 2 == 0).then(|| spec(*job, class));
                cluster.on_bind_response(id, task);
            }
        }
        2 => {
            if cluster.server(id).is_running() {
                cluster.on_task_finish(id);
            }
        }
        3 => {
            let granularity = [
                StealGranularity::FirstBlockedGroup,
                StealGranularity::RandomBlockedEntry,
                StealGranularity::AllBlockedShorts,
            ][flavor as usize % 3];
            let eligible = has_stealable(cluster, id);
            let mut stolen = Vec::new();
            cluster.steal_from_with_into(id, granularity, rng, &mut stolen);
            assert_eq!(eligible, !stolen.is_empty(), "{granularity:?}");
            // Hand the group to some other live server, like the driver
            // does (thieves are idle, hence in service).
            let thief = ServerId(rng.index(nodes) as u32);
            if !stolen.is_empty() && !cluster.is_down(thief) {
                cluster.give_stolen_drain(thief, &mut stolen);
            }
        }
        4 => {
            cluster.fail_server(id, &mut Vec::new());
        }
        _ => {
            cluster.revive_server(id);
        }
    }
}

/// True if `victim` currently has a non-empty eligible steal group.
fn has_stealable(cluster: &Cluster, victim: ServerId) -> bool {
    steal::eligible_group(cluster.server(victim), cluster.queues(), victim.index()).is_some()
}

/// The property the steal path leans on: a clear candidate bit is exact.
/// Whatever a scan of `victim` would find, at any granularity, the index
/// must have said "maybe".
fn candidate_index_never_hides_a_group(cluster: &Cluster) -> bool {
    (0..cluster.len())
        .map(|i| ServerId(i as u32))
        .all(|v| !has_stealable(cluster, v) || cluster.is_steal_candidate(v))
}

/// Brute-force recomputation of every indexed quantity: per server its
/// depth, whether it holds long work and whether it is a steal candidate.
/// Down servers are in no index.
fn brute_force(cluster: &Cluster) -> (Vec<usize>, Vec<bool>, Vec<bool>) {
    let mut depths = Vec::new();
    let mut longs = Vec::new();
    let mut candidates = Vec::new();
    for i in 0..cluster.len() {
        let id = ServerId(i as u32);
        let server = cluster.server(id);
        let live = !server.is_down();
        let depth = server.queue_len() + usize::from(!server.is_free());
        let queued_long = cluster.queue(id).any(|e| e.is_long());
        let queued_short = cluster.queue(id).any(|e| e.is_short());
        let holds_long = queued_long
            || matches!(
                server.slot(),
                hawk_cluster::Slot::Running(s) if s.class.is_long()
            )
            || matches!(
                server.slot(),
                hawk_cluster::Slot::AwaitingBind { class, .. } if class.is_long()
            );
        depths.push(depth);
        longs.push(live && holds_long);
        candidates.push(live && holds_long && queued_short);
    }
    (depths, longs, candidates)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any legal op sequence, the O(1) index queries equal the
    /// brute-force answers and `check_invariants` holds.
    #[test]
    fn indexes_match_brute_force(
        nodes in 1usize..24,
        short_fraction in 0u8..5,
        ops in proptest::collection::vec((0u8..12, 0u8..24, 0u8..2, 0u8..6), 1..120),
        seed in 0u64..1 << 32,
    ) {
        let fraction = f64::from(short_fraction) / 8.0;
        let mut cluster = Cluster::new(nodes, fraction);
        let mut rng = SimRng::seed_from_u64(seed);
        let mut job = 0u32;
        for op in ops {
            apply_op(&mut cluster, op, &mut job, &mut rng);
            prop_assert_eq!(cluster.check_invariants(), Ok(()), "index drift after an op");
            prop_assert!(candidate_index_never_hides_a_group(&cluster));
        }
        let (depths, longs, candidates) = brute_force(&cluster);
        prop_assert_eq!(
            cluster.steal_candidate_count(),
            candidates.iter().filter(|&&c| c).count()
        );
        for i in 0..nodes {
            let id = ServerId(i as u32);
            prop_assert_eq!(cluster.queue_depth(id), depths[i]);
            prop_assert_eq!(cluster.holds_long_work(id), longs[i]);
            prop_assert_eq!(cluster.is_steal_candidate(id), candidates[i]);
        }
    }
}
