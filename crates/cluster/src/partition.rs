//! Cluster partitioning: the reserved short partition (§3.4).
//!
//! Hawk reserves a small portion of the servers to run exclusively short
//! tasks. Long tasks are scheduled only on the remaining *general*
//! partition; short tasks may run anywhere. The partition is sized from
//! the workload's long-job task-seconds share (e.g. 17 % short partition
//! for the Google trace, §4.1).
//!
//! Servers `[0, general_count)` form the general partition and
//! `[general_count, total)` the short partition; contiguity makes uniform
//! sampling within either side O(1).

use serde::{Deserialize, Serialize};

use crate::server::ServerId;

/// The split of a cluster into general and short-reserved servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    total: u32,
    general: u32,
}

impl Partition {
    /// Splits `total` servers, reserving `short_fraction` of them
    /// (rounded) for short tasks.
    ///
    /// A fraction of 0 disables the reservation (the "Hawk w/o partition"
    /// ablation and the Sparrow/centralized baselines). The general
    /// partition always keeps at least one server unless `short_fraction`
    /// is exactly 1.0.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero or `short_fraction` is outside `[0, 1]`.
    pub fn new(total: usize, short_fraction: f64) -> Self {
        assert!(total > 0, "cluster must have at least one server");
        assert!(
            (0.0..=1.0).contains(&short_fraction),
            "short fraction {short_fraction} outside [0, 1]"
        );
        let total = u32::try_from(total).expect("cluster size fits u32");
        let mut short = (total as f64 * short_fraction).round() as u32;
        if short >= total && short_fraction < 1.0 {
            short = total - 1;
        }
        Partition {
            total,
            general: total - short,
        }
    }

    /// Total number of servers.
    pub fn total(&self) -> usize {
        self.total as usize
    }

    /// Number of servers in the general partition.
    pub fn general_count(&self) -> usize {
        self.general as usize
    }

    /// Number of servers reserved for short tasks.
    pub fn short_count(&self) -> usize {
        (self.total - self.general) as usize
    }

    /// True if `server` belongs to the general partition (may run long
    /// tasks, and is the only legal steal victim, §3.6).
    pub fn in_general(&self, server: ServerId) -> bool {
        server.0 < self.general
    }

    /// True if `server` is reserved for short tasks.
    pub fn in_short_reserved(&self, server: ServerId) -> bool {
        server.0 >= self.general && server.0 < self.total
    }

    /// All servers, as an id range helper.
    pub fn all(&self) -> impl Iterator<Item = ServerId> {
        (0..self.total).map(ServerId)
    }

    /// The general-partition servers.
    pub fn general_servers(&self) -> impl Iterator<Item = ServerId> {
        (0..self.general).map(ServerId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn google_17_percent_split() {
        let p = Partition::new(15_000, 0.17);
        assert_eq!(p.total(), 15_000);
        assert_eq!(p.short_count(), 2_550);
        assert_eq!(p.general_count(), 12_450);
        assert!(p.in_general(ServerId(0)));
        assert!(p.in_general(ServerId(12_449)));
        assert!(p.in_short_reserved(ServerId(12_450)));
        assert!(p.in_short_reserved(ServerId(14_999)));
    }

    #[test]
    fn zero_fraction_means_no_reservation() {
        let p = Partition::new(100, 0.0);
        assert_eq!(p.general_count(), 100);
        assert_eq!(p.short_count(), 0);
        assert!(p.all().all(|s| p.in_general(s)));
    }

    #[test]
    fn rounding_keeps_general_nonempty() {
        let p = Partition::new(2, 0.9);
        assert!(p.general_count() >= 1);
        assert_eq!(p.total(), 2);
    }

    #[test]
    fn full_fraction_reserves_everything() {
        let p = Partition::new(10, 1.0);
        assert_eq!(p.general_count(), 0);
        assert_eq!(p.short_count(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_total_rejected() {
        Partition::new(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_fraction_rejected() {
        Partition::new(10, 1.5);
    }

    #[test]
    fn iterators_cover_partitions() {
        let p = Partition::new(10, 0.3);
        assert_eq!(p.all().count(), 10);
        assert_eq!(p.general_servers().count(), 7);
        assert!(p.general_servers().all(|s| p.in_general(s)));
    }
}
