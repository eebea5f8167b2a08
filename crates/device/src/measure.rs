//! The synthetic measurement campaign.
//!
//! §IV.C: "For each layer's type, different combinations of both layer
//! parameters and input/output feature map sizes are evaluated and used to
//! construct datasets for training the prediction models." This module
//! builds exactly those datasets: a grid of layer configurations per class,
//! each "measured" by evaluating the analytic ground truth and applying
//! seeded log-normal noise (profiling jitter).

use crate::features::{layer_features, LayerClass};
use crate::ground_truth::GroundTruthModel;
use crate::profile::DeviceProfile;
use crate::LayerPerformanceModel;
use lens_nn::{Layer, LayerAnalysis, LayerKind, TensorShape};
use lens_num::dist;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One "measured" layer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Layer class the sample belongs to.
    pub class: LayerClass,
    /// Feature vector (class-specific layout).
    pub features: Vec<f64>,
    /// Measured latency in ms (noisy).
    pub latency_ms: f64,
    /// Measured power in mW (noisy).
    pub power_mw: f64,
    /// Noise-free latency, for validation reporting.
    pub true_latency_ms: f64,
    /// Noise-free power, for validation reporting.
    pub true_power_mw: f64,
}

/// A full measurement campaign over one device profile.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementCampaign {
    measurements: Vec<Measurement>,
}

impl MeasurementCampaign {
    /// Runs the default grid with the given measurement-noise level
    /// (log-std of the multiplicative noise; 0.05 ≈ ±5 %).
    ///
    /// # Panics
    ///
    /// Panics if `noise_sigma` is negative.
    pub fn run(profile: &DeviceProfile, noise_sigma: f64, seed: u64) -> Self {
        assert!(noise_sigma >= 0.0, "noise_sigma must be non-negative");
        let mut rng = StdRng::seed_from_u64(seed);
        let truth = GroundTruthModel::new(profile.clone());
        let mut measurements = Vec::new();
        for ctx in Self::grid() {
            let true_latency = truth.layer_latency(&ctx).get();
            let true_power = truth.layer_power(&ctx).get();
            if true_latency == 0.0 {
                continue;
            }
            measurements.push(Measurement {
                class: LayerClass::of(&ctx.kind),
                features: layer_features(&ctx),
                latency_ms: true_latency * dist::multiplicative_noise(&mut rng, noise_sigma),
                power_mw: true_power * dist::multiplicative_noise(&mut rng, noise_sigma),
                true_latency_ms: true_latency,
                true_power_mw: true_power,
            });
        }
        MeasurementCampaign { measurements }
    }

    /// All measurements.
    pub fn measurements(&self) -> &[Measurement] {
        &self.measurements
    }

    /// Measurements of one class.
    pub fn of_class(&self, class: LayerClass) -> Vec<&Measurement> {
        self.measurements
            .iter()
            .filter(|m| m.class == class)
            .collect()
    }

    /// Builds a synthetic `LayerAnalysis` for a standalone layer on a given
    /// input — the "bench harness" equivalent of profiling one layer in
    /// isolation.
    pub(crate) fn analyze_single(layer: &Layer, input: TensorShape) -> Option<LayerAnalysis> {
        let output = layer.output_shape(&input).ok()?;
        Some(LayerAnalysis {
            index: 0,
            name: layer.name().to_string(),
            kind: layer.kind().clone(),
            input_shape: input,
            output_shape: output,
            output_bytes: output.size_bytes(lens_nn::DType::F32),
            macs: layer.macs(&input),
            params: layer.params(&input),
        })
    }

    /// The measurement grid: layer parameter combinations spanning (and
    /// exceeding) the Fig 4 search space and AlexNet.
    fn grid() -> Vec<LayerAnalysis> {
        let mut out = Vec::new();
        // Convolutions.
        for &spatial in &[7u32, 13, 14, 28, 56, 112, 224] {
            for &in_ch in &[3u32, 24, 64, 128, 256, 384, 512] {
                for &out_ch in &[24u32, 64, 128, 256, 384, 512] {
                    for &kernel in &[3u32, 5, 7, 11] {
                        if kernel > spatial {
                            continue;
                        }
                        let stride = if kernel == 11 { 4 } else { 1 };
                        for &groups in &[1u32, 2] {
                            if in_ch % groups != 0 || out_ch % groups != 0 {
                                continue;
                            }
                            let layer = Layer::new(
                                "bench-conv",
                                LayerKind::Conv2d {
                                    out_channels: out_ch,
                                    kernel,
                                    stride,
                                    padding: kernel / 2,
                                    groups,
                                    activation: lens_nn::Activation::Relu,
                                    batch_norm: true,
                                    local_response_norm: false,
                                },
                            );
                            if let Some(ctx) = Self::analyze_single(
                                &layer,
                                TensorShape::new(in_ch, spatial, spatial),
                            ) {
                                out.push(ctx);
                            }
                        }
                    }
                }
            }
        }
        // Pooling.
        for &spatial in &[4u32, 8, 14, 28, 56, 112, 224] {
            for &ch in &[24u32, 64, 128, 256, 512] {
                for &(kernel, stride) in &[(2u32, 2u32), (3, 2)] {
                    if kernel > spatial {
                        continue;
                    }
                    let layer = Layer::new("bench-pool", LayerKind::MaxPool2d { kernel, stride });
                    if let Some(ctx) =
                        Self::analyze_single(&layer, TensorShape::new(ch, spatial, spatial))
                    {
                        out.push(ctx);
                    }
                }
            }
        }
        // Dense.
        for &in_f in &[256u32, 512, 1024, 2048, 4096, 8192, 9216, 12544, 25088] {
            for &out_f in &[10u32, 256, 512, 1024, 2048, 4096, 8192] {
                let layer = Layer::dense("bench-dense", out_f);
                if let Some(ctx) = Self::analyze_single(&layer, TensorShape::flat(in_f)) {
                    out.push(ctx);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_covers_all_modeled_classes() {
        let campaign = MeasurementCampaign::run(&DeviceProfile::jetson_tx2_gpu(), 0.05, 1);
        for class in LayerClass::modeled() {
            let n = campaign.of_class(class).len();
            assert!(n >= 50, "class {class} has only {n} samples");
        }
    }

    #[test]
    fn campaign_is_deterministic_per_seed() {
        let p = DeviceProfile::jetson_tx2_gpu();
        let a = MeasurementCampaign::run(&p, 0.05, 7);
        let b = MeasurementCampaign::run(&p, 0.05, 7);
        assert_eq!(a, b);
        let c = MeasurementCampaign::run(&p, 0.05, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_noise_measures_truth_exactly() {
        let campaign = MeasurementCampaign::run(&DeviceProfile::jetson_tx2_cpu(), 0.0, 1);
        for m in campaign.measurements() {
            assert!((m.latency_ms - m.true_latency_ms).abs() < 1e-12);
            assert!((m.power_mw - m.true_power_mw).abs() < 1e-12);
        }
    }

    #[test]
    fn noise_perturbs_but_stays_positive() {
        let campaign = MeasurementCampaign::run(&DeviceProfile::jetson_tx2_gpu(), 0.1, 2);
        let mut any_different = false;
        for m in campaign.measurements() {
            assert!(m.latency_ms > 0.0);
            assert!(m.power_mw > 0.0);
            if (m.latency_ms - m.true_latency_ms).abs() > 1e-9 {
                any_different = true;
            }
        }
        assert!(any_different);
    }

    #[test]
    fn features_are_present_for_every_measurement() {
        let campaign = MeasurementCampaign::run(&DeviceProfile::jetson_tx2_gpu(), 0.05, 3);
        for m in campaign.measurements() {
            assert_eq!(m.features.len(), m.class.feature_width());
        }
    }
}
