//! Property tests for the cluster's incremental indexes.
//!
//! Random legal operation sequences (enqueues, binds, finishes, steals at
//! every granularity, server failures and revivals) must leave every
//! index — free-server list, per-partition queue-depth histograms,
//! steal-candidate bitmap, running count — exactly equal to a from-scratch
//! recomputation, and the O(1) query surface must agree with the
//! brute-force answers. The candidate bitmap in particular may never say
//! "no" about a victim a steal scan would find a group on.

use proptest::prelude::*;

use hawk_cluster::steal::StealGranularity;
use hawk_cluster::{Cluster, DepthHistogram, QueueEntry, ServerId, TaskSpec};
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
            let eligible = cluster.has_stealable(id);
            let stolen = cluster.steal_from_with(id, granularity, rng);
            assert_eq!(eligible, !stolen.is_empty(), "{granularity:?}");
            // Hand the group to some other live server, like the driver
            // does (thieves are idle, hence in service).
            let thief = ServerId(rng.index(nodes) as u32);
            if !stolen.is_empty() && !cluster.is_down(thief) {
                cluster.give_stolen(thief, stolen);
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

/// The property the steal path leans on: a clear candidate bit is exact.
/// Whatever a scan of `victim` would find, at any granularity, the index
/// must have said "maybe".
fn candidate_index_never_hides_a_group(cluster: &Cluster) -> bool {
    (0..cluster.len())
        .map(|i| ServerId(i as u32))
        .all(|v| !cluster.has_stealable(v) || cluster.is_steal_candidate(v))
}

/// Brute-force recomputation of every indexed quantity: free servers,
/// free general servers, then per server its depth, whether it holds long
/// work and whether it is a steal candidate. Down servers are in no index.
fn brute_force(cluster: &Cluster) -> (usize, usize, Vec<usize>, Vec<bool>, Vec<bool>) {
    let partition = cluster.partition();
    let mut free = 0;
    let mut free_general = 0;
    let mut depths = Vec::new();
    let mut longs = Vec::new();
    let mut candidates = Vec::new();
    for i in 0..cluster.len() {
        let id = ServerId(i as u32);
        let server = cluster.server(id);
        let live = !server.is_down();
        let depth = server.queue_len() + usize::from(!server.is_free());
        let queued_long = server.queue(cluster.queues()).any(|e| e.is_long());
        let queued_short = server.queue(cluster.queues()).any(|e| e.is_short());
        let holds_long = queued_long
            || matches!(
                server.slot(),
                hawk_cluster::Slot::Running(s) if s.class.is_long()
            )
            || matches!(
                server.slot(),
                hawk_cluster::Slot::AwaitingBind { class, .. } if class.is_long()
            );
        free += usize::from(live && server.is_free());
        free_general += usize::from(live && server.is_free() && partition.in_general(id));
        depths.push(depth);
        longs.push(live && holds_long);
        candidates.push(live && holds_long && queued_short);
    }
    (free, free_general, depths, longs, candidates)
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
            prop_assert!(cluster.check_invariants(), "index drift after an op");
            prop_assert!(candidate_index_never_hides_a_group(&cluster));
        }
        let (free, free_general, depths, longs, candidates) = brute_force(&cluster);
        prop_assert_eq!(cluster.free_count(), free);
        prop_assert_eq!(cluster.free_count_general(), free_general);
        prop_assert_eq!(cluster.free_count_short(), free - free_general);
        prop_assert_eq!(
            cluster.steal_candidate_count(),
            candidates.iter().filter(|&&c| c).count()
        );
        prop_assert_eq!(cluster.free_servers().count(), free);
        for i in 0..nodes {
            let id = ServerId(i as u32);
            let live = !cluster.is_down(id);
            prop_assert_eq!(cluster.queue_depth(id), depths[i]);
            prop_assert_eq!(cluster.holds_long_work(id), longs[i]);
            prop_assert_eq!(cluster.is_steal_candidate(id), candidates[i]);
            prop_assert_eq!(cluster.is_free(id), live && depths[i] == 0);
        }
        // The histograms agree with per-depth counts, partition by
        // partition, with deep queues pooling in the clamp bucket.
        let partition = cluster.partition();
        for d in 0..=DepthHistogram::MAX_TRACKED {
            let count = |general: bool| {
                (0..nodes)
                    .filter(|&i| partition.in_general(ServerId(i as u32)) == general)
                    .filter(|&i| !cluster.is_down(ServerId(i as u32)))
                    .filter(|&i| {
                        let b = depths[i].min(DepthHistogram::MAX_TRACKED);
                        b == d
                    })
                    .count()
            };
            prop_assert_eq!(cluster.depth_histogram_general().count_at(d), count(true));
            prop_assert_eq!(cluster.depth_histogram_short().count_at(d), count(false));
        }
    }

    /// The min-depth query tracks the true minimum over each partition.
    #[test]
    fn min_depth_tracks_minimum(
        nodes in 2usize..16,
        ops in proptest::collection::vec((0u8..8, 0u8..16, 0u8..2, 0u8..4), 1..60),
    ) {
        let mut cluster = Cluster::new(nodes, 0.25);
        let mut rng = SimRng::seed_from_u64(7);
        let mut job = 0u32;
        for op in ops {
            apply_op(&mut cluster, op, &mut job, &mut rng);
        }
        let partition = cluster.partition();
        let min_of = |general: bool| {
            (0..nodes)
                .map(|i| ServerId(i as u32))
                .filter(|&id| partition.in_general(id) == general && !cluster.is_down(id))
                .map(|id| cluster.queue_depth(id).min(DepthHistogram::MAX_TRACKED))
                .min()
        };
        prop_assert_eq!(cluster.depth_histogram_general().min_depth(), min_of(true));
        prop_assert_eq!(cluster.depth_histogram_short().min_depth(), min_of(false));
    }
}
