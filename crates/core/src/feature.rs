//! Feature extraction: which boundary and which neurons a monitor watches.

use crate::error::MonitorError;
use napmon_absint::BoxBounds;
use napmon_nn::{ForwardScratch, Network};
use serde::{Deserialize, Serialize};

/// Selects the monitored feature vector: the values of boundary `layer`
/// (the paper's `G^k`), optionally restricted to a neuron subset.
///
/// Monitoring a subset is the paper's "selecting a subset of neurons to be
/// monitored" extension; `None` monitors the whole layer.
///
/// ```
/// use napmon_core::FeatureExtractor;
/// use napmon_nn::{Activation, LayerSpec, Network};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = Network::seeded(1, 3, &[LayerSpec::dense(6, Activation::Relu)]);
/// let fx = FeatureExtractor::new(&net, 2)?; // boundary after the ReLU
/// assert_eq!(fx.dim(), 6);
/// let f = fx.features(&net, &[0.1, 0.2, 0.3])?;
/// assert_eq!(f.len(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureExtractor {
    layer: usize,
    layer_dim: usize,
    neurons: Option<Vec<usize>>,
}

impl FeatureExtractor {
    /// Monitors all neurons of boundary `layer` of `net`.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::InvalidConfig`] if `layer` is not a valid
    /// boundary (`1..=net.num_layers()`; boundary 0 would monitor the raw
    /// input, which the paper rules out for image-sized inputs).
    pub fn new(net: &Network, layer: usize) -> Result<Self, MonitorError> {
        if layer == 0 || layer > net.num_layers() {
            return Err(MonitorError::InvalidConfig(format!(
                "monitored boundary {layer} out of range 1..={}",
                net.num_layers()
            )));
        }
        Ok(Self {
            layer,
            layer_dim: net.dim_at(layer),
            neurons: None,
        })
    }

    /// Restricts monitoring to the given neuron indices (deduplicated,
    /// kept in the given order).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::InvalidConfig`] if the subset is empty or an
    /// index is out of range.
    pub fn with_neurons(mut self, neurons: Vec<usize>) -> Result<Self, MonitorError> {
        if neurons.is_empty() {
            return Err(MonitorError::InvalidConfig("neuron subset is empty".into()));
        }
        let mut seen = std::collections::HashSet::new();
        let mut unique = Vec::with_capacity(neurons.len());
        for n in neurons {
            if n >= self.layer_dim {
                return Err(MonitorError::InvalidConfig(format!(
                    "neuron {n} out of range for layer width {}",
                    self.layer_dim
                )));
            }
            if seen.insert(n) {
                unique.push(n);
            }
        }
        self.neurons = Some(unique);
        Ok(self)
    }

    /// The monitored boundary index `k`.
    pub fn layer(&self) -> usize {
        self.layer
    }

    /// Number of monitored neurons.
    pub fn dim(&self) -> usize {
        self.neurons.as_ref().map_or(self.layer_dim, Vec::len)
    }

    /// Width of the monitored boundary before subsetting.
    pub fn layer_dim(&self) -> usize {
        self.layer_dim
    }

    /// The monitored neuron indices, if a subset is configured.
    pub fn neurons(&self) -> Option<&[usize]> {
        self.neurons.as_deref()
    }

    /// Projects a full layer vector onto the monitored neurons.
    ///
    /// # Panics
    ///
    /// Panics if `full.len() != self.layer_dim()`.
    pub fn project(&self, full: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.project_into(full, &mut out);
        out
    }

    /// Projects a full layer vector into a reused output buffer.
    ///
    /// # Panics
    ///
    /// Panics if `full.len() != self.layer_dim()`.
    pub fn project_into(&self, full: &[f64], out: &mut Vec<f64>) {
        assert_eq!(full.len(), self.layer_dim, "project: layer width mismatch");
        out.clear();
        match &self.neurons {
            None => out.extend_from_slice(full),
            Some(idx) => out.extend(idx.iter().map(|&i| full[i])),
        }
    }

    /// Projects full-layer bounds onto the monitored neurons.
    ///
    /// # Panics
    ///
    /// Panics if `bounds.dim() != self.layer_dim()`.
    pub fn project_bounds(&self, bounds: &BoxBounds) -> BoxBounds {
        assert_eq!(
            bounds.dim(),
            self.layer_dim,
            "project_bounds: layer width mismatch"
        );
        match &self.neurons {
            None => bounds.clone(),
            Some(idx) => BoxBounds::new(
                idx.iter().map(|&i| bounds.lo()[i]).collect(),
                idx.iter().map(|&i| bounds.hi()[i]).collect(),
            ),
        }
    }

    /// Computes the monitored feature vector `G^k(input)` (projected).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] if `input` does not match
    /// the network input dimension and [`MonitorError::NonFinite`] if it
    /// holds a NaN or infinite value, or if the forward pass overflows
    /// into one at a monitored neuron.
    pub fn features(&self, net: &Network, input: &[f64]) -> Result<Vec<f64>, MonitorError> {
        check_input(net, input, &"feature extraction input")?;
        self.project_checked(&net.forward_prefix(input, self.layer))
    }

    /// Computes `G^k(input)` (projected) into a reused output buffer via
    /// reused forward-pass buffers — the allocation-free query path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FeatureExtractor::features`].
    pub fn features_into(
        &self,
        net: &Network,
        input: &[f64],
        forward: &mut ForwardScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), MonitorError> {
        check_input(net, input, &"feature extraction input")?;
        let full = net.forward_prefix_into(input, self.layer, forward);
        self.project_checked_into(full, out)
    }

    /// [`FeatureExtractor::project`] that refuses a non-finite feature: a
    /// finite input can still overflow in the forward pass, and a NaN or
    /// infinite feature has no abstraction a monitor could answer from.
    pub(crate) fn project_checked(&self, full: &[f64]) -> Result<Vec<f64>, MonitorError> {
        let mut out = Vec::new();
        self.project_checked_into(full, &mut out)?;
        Ok(out)
    }

    /// [`FeatureExtractor::project_into`] with the check of
    /// [`FeatureExtractor::project_checked`].
    pub(crate) fn project_checked_into(
        &self,
        full: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), MonitorError> {
        self.project_into(full, out);
        match out.iter().position(|v| !v.is_finite()) {
            None => Ok(()),
            Some(position) => Err(MonitorError::NonFinite {
                context: format!("the features at boundary {}", self.layer),
                position,
                value: out[position],
            }),
        }
    }
}

/// The one check every query, absorb and build path runs on a network
/// input: it must have the network's input width and hold only finite
/// values. `context` names the input in the error and is only formatted
/// on refusal.
pub(crate) fn check_input(
    net: &Network,
    input: &[f64],
    context: &dyn std::fmt::Display,
) -> Result<(), MonitorError> {
    if input.len() != net.input_dim() {
        return Err(MonitorError::DimensionMismatch {
            context: context.to_string(),
            expected: net.input_dim(),
            actual: input.len(),
        });
    }
    match input.iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(position) => Err(MonitorError::NonFinite {
            context: context.to_string(),
            position,
            value: input[position],
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use napmon_nn::{Activation, LayerSpec};

    fn net() -> Network {
        Network::seeded(
            3,
            4,
            &[
                LayerSpec::dense(6, Activation::Relu),
                LayerSpec::dense(2, Activation::Identity),
            ],
        )
    }

    #[test]
    fn new_validates_boundary() {
        let net = net();
        assert!(FeatureExtractor::new(&net, 0).is_err());
        assert!(FeatureExtractor::new(&net, 4).is_err());
        assert!(FeatureExtractor::new(&net, 3).is_ok());
    }

    #[test]
    fn full_layer_features_match_prefix() {
        let net = net();
        let fx = FeatureExtractor::new(&net, 2).unwrap();
        let x = [0.1, 0.2, 0.3, 0.4];
        assert_eq!(fx.features(&net, &x).unwrap(), net.forward_prefix(&x, 2));
    }

    #[test]
    fn subset_projects_in_order_and_dedups() {
        let net = net();
        let fx = FeatureExtractor::new(&net, 2)
            .unwrap()
            .with_neurons(vec![5, 0, 5, 2])
            .unwrap();
        assert_eq!(fx.dim(), 3);
        let full: Vec<f64> = (0..6).map(|i| i as f64).collect();
        assert_eq!(fx.project(&full), vec![5.0, 0.0, 2.0]);
    }

    #[test]
    fn subset_validation() {
        let net = net();
        let fx = FeatureExtractor::new(&net, 2).unwrap();
        assert!(fx.clone().with_neurons(vec![]).is_err());
        assert!(fx.clone().with_neurons(vec![6]).is_err());
        assert!(fx.with_neurons(vec![0, 5]).is_ok());
    }

    #[test]
    fn project_bounds_selects_dimensions() {
        let net = net();
        let fx = FeatureExtractor::new(&net, 2)
            .unwrap()
            .with_neurons(vec![1, 3])
            .unwrap();
        let b = BoxBounds::new(
            (0..6).map(|i| i as f64).collect(),
            (0..6).map(|i| i as f64 + 0.5).collect(),
        );
        let p = fx.project_bounds(&b);
        assert_eq!(p.lo(), &[1.0, 3.0]);
        assert_eq!(p.hi(), &[1.5, 3.5]);
    }

    #[test]
    fn non_finite_input_is_refused_at_its_position() {
        let net = net();
        let fx = FeatureExtractor::new(&net, 1).unwrap();
        for (position, value) in [(0, f64::NAN), (3, f64::INFINITY), (1, f64::NEG_INFINITY)] {
            let mut input = vec![0.5; 4];
            input[position] = value;
            let err = fx.features(&net, &input).unwrap_err();
            assert!(
                matches!(err, MonitorError::NonFinite { position: p, .. } if p == position),
                "{err}"
            );
            assert!(err.to_string().contains(&format!("position {position}")));
            let mut out = Vec::new();
            let refused = fx.features_into(&net, &input, &mut ForwardScratch::default(), &mut out);
            assert!(matches!(refused, Err(MonitorError::NonFinite { .. })));
        }
    }

    #[test]
    fn wrong_input_dim_is_reported() {
        let net = net();
        let fx = FeatureExtractor::new(&net, 1).unwrap();
        let err = fx.features(&net, &[1.0]).unwrap_err();
        assert!(matches!(err, MonitorError::DimensionMismatch { .. }));
    }
}
