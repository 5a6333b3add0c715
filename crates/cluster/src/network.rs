//! The network model.
//!
//! The paper's simulator assumes a constant 0.5 ms network delay for every
//! message (probes, task requests/responses, task placements), with
//! scheduling decisions and steal transfers themselves free (§4.1). This
//! module centralizes those constants so experiments can vary them.
//!
//! [`NetworkModel`] is the *parameter block* of that flat model; the
//! `hawk-net` crate's `Topology` trait generalizes it to placement- and
//! load-aware delays (fat trees, per-link contention), with
//! `TopologySpec::Constant(NetworkModel)` as the exact embedding of this
//! model — the driver and the prototype router charge every message
//! through that seam, and a `Constant` run is bit-identical to the
//! historical scalar plumbing.

use hawk_simcore::SimDuration;
use serde::{Deserialize, Serialize};

/// Constant-delay network parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// One-way message delay (paper default: 0.5 ms).
    pub delay: SimDuration,
    /// Delay applied to transferring stolen entries between queues (paper
    /// default: zero — "the task stealing \[does\] not incur additional
    /// costs").
    pub steal_transfer_delay: SimDuration,
}

impl NetworkModel {
    /// The paper's configuration: 0.5 ms messages, free stealing.
    pub fn paper_default() -> Self {
        NetworkModel {
            delay: SimDuration::from_micros(500),
            steal_transfer_delay: SimDuration::ZERO,
        }
    }

    /// An idealized zero-delay network (useful in unit tests, where it
    /// makes event timing exact).
    pub fn zero() -> Self {
        NetworkModel {
            delay: SimDuration::ZERO,
            steal_transfer_delay: SimDuration::ZERO,
        }
    }

    /// One-way delay.
    pub fn one_way(&self) -> SimDuration {
        self.delay
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_half_millisecond() {
        let n = NetworkModel::paper_default();
        assert_eq!(n.one_way(), SimDuration::from_micros(500));
        assert_eq!(n.steal_transfer_delay, SimDuration::ZERO);
    }

    #[test]
    fn zero_network() {
        let n = NetworkModel::zero();
        assert_eq!(n.one_way(), SimDuration::ZERO);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(NetworkModel::default(), NetworkModel::paper_default());
    }
}
