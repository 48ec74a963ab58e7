//! Per-class monitors: one abstraction per output class.
//!
//! The DATE 2019 on-off monitor keeps a separate pattern set per output
//! class and, in operation, checks the observed pattern against the set of
//! the class the network *predicts*. This wrapper provides that dispatch
//! for any monitor family. Build one with
//! [`MonitorSpec::per_class`](crate::MonitorSpec::per_class) and query it
//! through [`ComposedMonitor::PerClass`](crate::ComposedMonitor::PerClass).

use crate::builder::AnyMonitor;
use crate::error::MonitorError;
use serde::{Deserialize, Serialize};

/// One monitor per class, the payload of
/// [`ComposedMonitor::PerClass`](crate::ComposedMonitor::PerClass), whose
/// queries dispatch on the predicted class.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerClassMonitor {
    monitors: Vec<AnyMonitor>,
}

impl PerClassMonitor {
    /// Wraps per-class monitors (index = class).
    ///
    /// # Panics
    ///
    /// Panics if `monitors` is empty.
    pub fn new(monitors: Vec<AnyMonitor>) -> Self {
        assert!(
            !monitors.is_empty(),
            "per-class monitor needs at least one class"
        );
        Self { monitors }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.monitors.len()
    }

    /// The monitor of one class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn class_monitor(&self, class: usize) -> &AnyMonitor {
        &self.monitors[class]
    }

    /// Mutable access to the per-class monitors (source reattachment and
    /// `&mut` absorption paths).
    pub(crate) fn monitors_mut(&mut self) -> &mut [AnyMonitor] {
        &mut self.monitors
    }

    /// The index of the monitor serving `class`, or a typed error when the
    /// network predicts a class with no monitor.
    pub(crate) fn checked_class(&self, class: usize) -> Result<usize, MonitorError> {
        if class < self.monitors.len() {
            Ok(class)
        } else {
            Err(MonitorError::InvalidConfig(format!(
                "predicted class {class} has no monitor ({} classes)",
                self.monitors.len()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MonitorKind;
    use crate::monitor::Monitor;
    use crate::spec::{ComposedMonitor, MonitorSpec};
    use napmon_nn::{Activation, LayerSpec, Network};

    fn setup() -> (Network, ComposedMonitor, Vec<Vec<f64>>) {
        let net = Network::seeded(
            61,
            2,
            &[
                LayerSpec::dense(6, Activation::Relu),
                LayerSpec::dense(2, Activation::Identity),
            ],
        );
        // Synthesize inputs until both classes appear.
        let mut data = Vec::new();
        for i in 0..64 {
            let x = vec![(i as f64 / 32.0) - 1.0, ((i * 7 % 64) as f64 / 32.0) - 1.0];
            data.push(x);
        }
        let labels: Vec<usize> = data.iter().map(|x| net.predict_class(x)).collect();
        assert!(
            labels.contains(&0) && labels.contains(&1),
            "need both classes"
        );
        let pc = MonitorSpec::new(2, MonitorKind::min_max())
            .per_class(2)
            .build_with_labels(&net, &data, &labels)
            .unwrap();
        (net, pc, data)
    }

    #[test]
    fn training_inputs_do_not_warn() {
        let (net, pc, data) = setup();
        for x in &data {
            assert!(!pc.verdict(&net, x).unwrap().warning);
        }
    }

    #[test]
    fn num_classes_and_access() {
        let (_, pc, _) = setup();
        let pc = pc.as_per_class().unwrap();
        assert_eq!(pc.num_classes(), 2);
        assert!(pc.class_monitor(0).as_min_max().is_some());
    }

    #[test]
    fn wrong_input_dimension_errors() {
        let (net, pc, _) = setup();
        assert!(pc.verdict(&net, &[1.0]).is_err());
    }

    #[test]
    fn far_inputs_warn() {
        let (net, pc, _) = setup();
        assert!(pc.verdict(&net, &[100.0, -100.0]).unwrap().warning);
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_class_list_panics() {
        PerClassMonitor::new(vec![]);
    }
}
