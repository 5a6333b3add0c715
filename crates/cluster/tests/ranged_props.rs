//! Differential property tests for owned-range clusters.
//!
//! A [`Cluster::ranged`] cluster stores servers for its owned id range
//! only and knows every other server by membership alone, as idle at
//! depth 0. That sentinel must be indistinguishable, through every public
//! read, from what a sharded core used to hold instead: a full-size
//! cluster that only ever enqueues on the same range. The same generated
//! op sequence — enqueue, bind, cancel, finish, steal at each granularity
//! on owned ids; `fail_server` / `revive_server` on any id — drives both,
//! and after every op every read agrees and both pass `check_invariants`.

use std::ops::Range;

use proptest::prelude::*;

use hawk_cluster::steal::StealGranularity;
use hawk_cluster::{scale_duration, Cluster, QueueEntry, ServerId, TaskSpec};
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

/// Applies one generated op, keeping the sequence legal for a sharded
/// core: work only on owned, in-service servers (bind responses only to
/// binding servers, finishes only to running ones), lifecycle events on
/// any id of the cluster.
fn apply_op(
    cluster: &mut Cluster,
    owned: &Range<u32>,
    op: (u8, u8, u8, u8),
    job: u32,
    rng: &mut SimRng,
) {
    let (kind, pick, class_bit, flavor) = op;
    // (An empty range has no owned server: its work ops are skipped.)
    let own = |pick: u32| ServerId(owned.start + pick % owned.len().max(1) as u32);
    let id = own(pick.into());
    let class = if class_bit % 2 == 0 {
        JobClass::Short
    } else {
        JobClass::Long
    };
    match kind % 6 {
        4 => {
            let any = ServerId(u32::from(pick) % cluster.len() as u32);
            let mut drained = Vec::new();
            cluster.fail_server(any, &mut drained);
            assert!(owned.contains(&any.0) || drained.is_empty());
        }
        5 => {
            cluster.revive_server(ServerId(u32::from(pick) % cluster.len() as u32));
        }
        _ if owned.is_empty() => {}
        0 if cluster.is_down(id) => {}
        0 => {
            let entry = if flavor % 2 == 0 {
                QueueEntry::Probe {
                    job: JobId(job),
                    class,
                }
            } else {
                QueueEntry::Task(spec(job, class))
            };
            cluster.enqueue(id, entry);
        }
        1 => {
            if cluster.server(id).is_awaiting_bind() {
                let task = (flavor % 2 == 0).then(|| spec(job, class));
                cluster.on_bind_response(id, task);
            }
        }
        2 => {
            if cluster.server(id).is_running() {
                cluster.on_task_finish(id);
            }
        }
        _ => {
            let granularity = [
                StealGranularity::FirstBlockedGroup,
                StealGranularity::RandomBlockedEntry,
                StealGranularity::AllBlockedShorts,
            ][flavor as usize % 3];
            let mut stolen = Vec::new();
            cluster.steal_from_with_into(id, granularity, rng, &mut stolen);
            let thief = own(rng.index(owned.len()) as u32);
            if !stolen.is_empty() && !cluster.is_down(thief) {
                cluster.give_stolen_drain(thief, &mut stolen);
            }
        }
    }
}

/// Every public read that does not hand out a `Server`, flattened into
/// one comparable value.
fn reads(cluster: &Cluster) -> impl PartialEq + std::fmt::Debug {
    let ids = || (0..cluster.len() as u32).map(ServerId);
    (
        (
            cluster.len(),
            cluster.partition(),
            cluster.live_ids().to_vec(),
            cluster.live_count(),
            cluster.live_count_general(),
            cluster.live_count_short(),
            cluster.down_count(),
        ),
        (
            cluster.steal_candidate_count(),
            cluster.running_count(),
            cluster.down_running_count(),
            cluster.utilization().to_bits(),
        ),
        ids()
            .map(|id| {
                (
                    cluster.is_down(id),
                    cluster.queue_depth(id),
                    cluster.holds_long_work(id),
                    cluster.is_steal_candidate(id),
                )
            })
            .collect::<Vec<_>>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ranged_cluster_reads_like_a_full_cluster_enqueued_on_the_same_range(
        nodes in 1usize..24,
        range_picks in (0usize..24, 0usize..25),
        short_fraction in 0u8..5,
        ops in proptest::collection::vec((0u8..12, 0u8..24, 0u8..2, 0u8..6), 1..120),
        seed in 0u64..1 << 32,
    ) {
        // Any sub-range, the empty and the full one included.
        let start = range_picks.0 % nodes;
        let owned = start as u32..(start + range_picks.1 % (nodes - start + 1)) as u32;
        let fraction = f64::from(short_fraction) / 8.0;
        let mut ranged = Cluster::ranged(nodes, fraction, owned.clone(), None);
        let mut full = Cluster::new(nodes, fraction);
        let mut rngs = (SimRng::seed_from_u64(seed), SimRng::seed_from_u64(seed));
        for (job, op) in ops.into_iter().enumerate() {
            apply_op(&mut ranged, &owned, op, job as u32, &mut rngs.0);
            apply_op(&mut full, &owned, op, job as u32, &mut rngs.1);
            prop_assert_eq!(ranged.check_invariants(), Ok(()), "ranged, after {:?}", op);
            prop_assert_eq!(full.check_invariants(), Ok(()), "full, after {:?}", op);
            prop_assert_eq!(reads(&ranged), reads(&full), "after {:?}", op);
        }
        // The stored state is the same state, under the same global ids.
        for id in owned.clone().map(ServerId) {
            let (a, b) = (ranged.server(id), full.server(id));
            prop_assert_eq!((a.slot(), a.stat()), (b.slot(), b.stat()));
            prop_assert_eq!(
                ranged.queue(id).collect::<Vec<_>>(),
                full.queue(id).collect::<Vec<_>>()
            );
        }
    }
}

/// Speed factors are indexed by global id, whatever the range.
#[test]
fn ranged_cluster_takes_its_slice_of_the_speed_vector() {
    let speeds: Vec<f64> = (1..=10).map(f64::from).collect();
    let cluster = Cluster::ranged(10, 0.2, 4..7, Some(&speeds));
    let d = SimDuration::from_secs(600);
    for id in 4..7 {
        let occupancy = scale_duration(d, f64::from(id + 1));
        assert_eq!(cluster.occupancy(ServerId(id), d), occupancy);
    }
    cluster.check_invariants().unwrap();
}

/// There is no state to hand out for a server outside the owned range.
#[test]
#[should_panic]
fn server_outside_the_owned_range_panics() {
    Cluster::ranged(10, 0.0, 4..7, None).server(ServerId(7));
}
