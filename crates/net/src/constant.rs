//! The flat constant-delay model: the paper's §4.1 network.

use hawk_cluster::NetworkModel;
use hawk_simcore::{SimDuration, SimTime};

use crate::{Endpoint, NetworkStats, Topology};

/// Placement-blind constant delay: every message costs
/// [`NetworkModel::one_way`], every steal transfer costs
/// [`NetworkModel::steal_transfer_delay`](NetworkModel), regardless of
/// endpoints or load.
///
/// This is the pre-topology engine expressed through the [`Topology`]
/// seam; the golden-digest suites pin that the two are bit-identical.
/// Because the model has no placement, it classifies nothing:
/// [`NetworkStats`] stays all-zero (link classes are a placement-aware
/// concept).
#[derive(Debug, Clone, Copy)]
pub struct Constant {
    model: NetworkModel,
}

impl Constant {
    /// Wraps a [`NetworkModel`].
    pub fn new(model: NetworkModel) -> Self {
        Constant { model }
    }

    /// The wrapped model.
    pub fn model(&self) -> NetworkModel {
        self.model
    }
}

impl Topology for Constant {
    fn delay(&mut self, _now: SimTime, _src: Endpoint, _dst: Endpoint) -> SimDuration {
        self.model.one_way()
    }

    fn steal_transfer(
        &mut self,
        _now: SimTime,
        _victim: Endpoint,
        _thief: Endpoint,
    ) -> SimDuration {
        self.model.steal_transfer_delay
    }

    fn stats(&self) -> NetworkStats {
        NetworkStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawk_cluster::ServerId;

    #[test]
    fn delay_is_one_way_for_every_endpoint_pair() {
        let model = NetworkModel::paper_default();
        let mut t = Constant::new(model);
        let endpoints = [
            Endpoint::Server(ServerId(0)),
            Endpoint::Server(ServerId(17)),
            Endpoint::Scheduler(3),
            Endpoint::Central,
        ];
        for &a in &endpoints {
            for &b in &endpoints {
                assert_eq!(t.delay(SimTime::ZERO, a, b), model.one_way());
                assert_eq!(
                    t.delay(SimTime::from_secs(100), a, b),
                    model.one_way(),
                    "constant delay must ignore time"
                );
            }
        }
    }

    #[test]
    fn steal_transfer_is_models_and_uncounted() {
        let model = NetworkModel {
            delay: SimDuration::from_micros(500),
            steal_transfer_delay: SimDuration::from_micros(250),
        };
        let mut t = Constant::new(model);
        let d = t.steal_transfer(
            SimTime::ZERO,
            Endpoint::Server(ServerId(0)),
            Endpoint::Server(ServerId(1)),
        );
        assert_eq!(d, SimDuration::from_micros(250));
        assert_eq!(t.stats(), NetworkStats::default());
    }
}
