//! Multi-layer monitoring: one monitor per boundary, combined by a vote.
//!
//! The paper's §III-A notes that "extensions such as configuring to
//! multi-layer monitoring … are straightforward"; this module provides
//! that configuration. Each member monitor watches its own boundary (and
//! possibly its own neuron subset); an operational input is checked
//! against all of them and the verdicts are combined by a [`Vote`].
//! Build one with [`MonitorSpec::multi_layer`](crate::MonitorSpec::multi_layer)
//! and query it through
//! [`ComposedMonitor::MultiLayer`](crate::ComposedMonitor::MultiLayer).

use crate::builder::AnyMonitor;
use serde::{Deserialize, Serialize};

/// How per-layer verdicts combine into one decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Vote {
    /// Warn if *any* member warns (most sensitive; unions the evidence).
    Any,
    /// Warn only if *all* members warn (most conservative).
    All,
    /// Warn if at least `k` members warn.
    AtLeast(usize),
}

impl Vote {
    /// Whether `warnings` warning members out of `members` warn overall.
    pub(crate) fn decide(self, warnings: usize, members: usize) -> bool {
        match self {
            Vote::Any => warnings > 0,
            Vote::All => warnings == members,
            Vote::AtLeast(k) => warnings >= k,
        }
    }
}

/// Monitors over several boundaries of the same network, combined by a
/// vote: the payload of
/// [`ComposedMonitor::MultiLayer`](crate::ComposedMonitor::MultiLayer),
/// which answers its queries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiLayerMonitor {
    members: Vec<AnyMonitor>,
    vote: Vote,
}

impl MultiLayerMonitor {
    /// Combines member monitors under the given vote.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or an `AtLeast(k)` vote demands more
    /// members than exist.
    pub fn new(members: Vec<AnyMonitor>, vote: Vote) -> Self {
        assert!(
            !members.is_empty(),
            "multi-layer monitor needs at least one member"
        );
        if let Vote::AtLeast(k) = vote {
            assert!(
                k >= 1 && k <= members.len(),
                "AtLeast({k}) with {} members",
                members.len()
            );
        }
        Self { members, vote }
    }

    /// Number of member monitors.
    pub fn num_members(&self) -> usize {
        self.members.len()
    }

    /// The voting rule.
    pub fn vote(&self) -> Vote {
        self.vote
    }

    /// The member monitors in order.
    pub fn members(&self) -> &[AnyMonitor] {
        &self.members
    }

    /// Mutable access to the member monitors (source reattachment and
    /// `&mut` absorption paths).
    pub(crate) fn members_mut(&mut self) -> &mut [AnyMonitor] {
        &mut self.members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MonitorKind;
    use crate::monitor::Monitor;
    use crate::spec::{ComposedMonitor, MonitorSpec};
    use napmon_nn::{Activation, LayerSpec, Network};
    use napmon_tensor::Prng;

    fn setup() -> (Network, Vec<Vec<f64>>) {
        let net = Network::seeded(
            71,
            3,
            &[
                LayerSpec::dense(8, Activation::Relu),
                LayerSpec::dense(4, Activation::Relu),
                LayerSpec::dense(2, Activation::Identity),
            ],
        );
        let mut rng = Prng::seed(72);
        let data = (0..48).map(|_| rng.uniform_vec(3, -0.5, 0.5)).collect();
        (net, data)
    }

    fn min_max(net: &Network, layer: usize, data: &[Vec<f64>]) -> AnyMonitor {
        match MonitorSpec::new(layer, MonitorKind::min_max())
            .build(net, data)
            .unwrap()
        {
            ComposedMonitor::Single(m) => m,
            other => panic!("single spec built {other}"),
        }
    }

    fn multi(net: &Network, data: &[Vec<f64>], vote: Vote) -> ComposedMonitor {
        let members = vec![min_max(net, 2, data), min_max(net, 4, data)];
        ComposedMonitor::MultiLayer(MultiLayerMonitor::new(members, vote))
    }

    fn warns(m: &ComposedMonitor, net: &Network, x: &[f64]) -> bool {
        m.verdict(net, x).unwrap().warning
    }

    #[test]
    fn training_data_never_warns_under_any_vote() {
        let (net, data) = setup();
        for vote in [Vote::Any, Vote::All, Vote::AtLeast(1), Vote::AtLeast(2)] {
            let mm = multi(&net, &data, vote);
            for x in &data {
                assert!(!warns(&mm, &net, x), "{vote:?}");
            }
        }
    }

    #[test]
    fn far_input_warns_and_any_is_most_sensitive() {
        let (net, data) = setup();
        let any = multi(&net, &data, Vote::Any);
        let all = multi(&net, &data, Vote::All);
        let far = vec![100.0, -100.0, 100.0];
        assert!(warns(&any, &net, &far));
        // ANY warns whenever ALL warns.
        let mut rng = Prng::seed(73);
        for _ in 0..100 {
            let probe = rng.uniform_vec(3, -3.0, 3.0);
            if warns(&all, &net, &probe) {
                assert!(warns(&any, &net, &probe));
            }
        }
    }

    #[test]
    fn at_least_interpolates_between_any_and_all() {
        let (net, data) = setup();
        let any = multi(&net, &data, Vote::Any);
        let two = multi(&net, &data, Vote::AtLeast(2));
        let all = multi(&net, &data, Vote::All);
        let mut rng = Prng::seed(74);
        for _ in 0..100 {
            let probe = rng.uniform_vec(3, -3.0, 3.0);
            let (a, t, l) = (
                warns(&any, &net, &probe),
                warns(&two, &net, &probe),
                warns(&all, &net, &probe),
            );
            // With two members AtLeast(2) == All, and All implies Any.
            assert_eq!(t, l);
            if l {
                assert!(a);
            }
        }
    }

    #[test]
    fn verdict_collects_member_evidence() {
        let (net, data) = setup();
        let mm = multi(&net, &data, Vote::Any);
        let v = mm.verdict(&net, &[100.0, -100.0, 100.0]).unwrap();
        assert!(v.warning);
        assert!(!v.violations.is_empty());
    }

    #[test]
    fn wrong_dimension_is_an_error() {
        let (net, data) = setup();
        let mm = multi(&net, &data, Vote::Any);
        assert!(mm.verdict(&net, &[1.0]).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_members_panic() {
        MultiLayerMonitor::new(vec![], Vote::Any);
    }

    #[test]
    fn serde_round_trip() {
        let (net, data) = setup();
        let mm = multi(&net, &data, Vote::AtLeast(1));
        let json = serde_json::to_string(mm.as_multi_layer().unwrap()).unwrap();
        let back = ComposedMonitor::MultiLayer(serde_json::from_str(&json).unwrap());
        let mut rng = Prng::seed(75);
        for _ in 0..50 {
            let probe = rng.uniform_vec(3, -2.0, 2.0);
            assert_eq!(warns(&mm, &net, &probe), warns(&back, &net, &probe));
        }
    }
}
