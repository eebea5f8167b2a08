//! The analytic ground-truth performance model (simulated testbed).
//!
//! A roofline-style model: each layer's latency is the maximum of its
//! compute time (`2·MACs / throughput`) and its memory time (bytes moved at
//! an effective bandwidth), plus a fixed launch overhead. Convolutions on
//! the TX2 are compute-bound; large dense layers are memory-bound on their
//! weight streaming — which is exactly why AlexNet's three FC layers, with
//! 94 % of the weights, take about half the total latency (Fig 1).
//!
//! Power is a per-class constant from the [`DeviceProfile`], emulating the
//! rail-level power states the INA3221 sensor reports.

use crate::features::LayerClass;
use crate::profile::DeviceProfile;
use crate::LayerPerformanceModel;
use lens_nn::units::{Millis, Milliwatts};
use lens_nn::{LayerAnalysis, LayerKind};

/// The analytic model, parameterized by a [`DeviceProfile`].
///
/// [`DeviceProfile`] implements [`LayerPerformanceModel`] by delegating to
/// this type, so most callers can pass the profile directly.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruthModel {
    profile: DeviceProfile,
}

impl GroundTruthModel {
    /// Wraps a device profile.
    pub fn new(profile: DeviceProfile) -> Self {
        GroundTruthModel { profile }
    }

    /// Compute time in ms: `2·MACs / (GFLOP/s)`.
    fn compute_ms(&self, macs: u64, gflops: f64) -> f64 {
        2.0 * macs as f64 / (gflops * 1e6)
    }

    /// Memory time in ms: `bytes / (GB/s)`.
    fn memory_ms(&self, bytes: f64, gbps: f64) -> f64 {
        bytes / (gbps * 1e6)
    }
}

impl LayerPerformanceModel for GroundTruthModel {
    fn layer_latency(&self, layer: &LayerAnalysis) -> Millis {
        let p = &self.profile;
        let ms = match &layer.kind {
            LayerKind::Conv2d { .. } => {
                let compute = self.compute_ms(layer.macs, p.conv_gflops());
                // Activation traffic: inputs + outputs at f32, weights once.
                let bytes = 4.0
                    * (layer.input_shape.num_elements()
                        + layer.output_shape.num_elements()
                        + layer.params) as f64;
                let memory = self.memory_ms(bytes, p.activation_gbps());
                compute.max(memory) + p.layer_overhead_ms()
            }
            LayerKind::MaxPool2d { .. } | LayerKind::AvgPool2d { .. } => {
                let bytes = 4.0
                    * (layer.input_shape.num_elements() + layer.output_shape.num_elements()) as f64;
                self.memory_ms(bytes, p.activation_gbps()) + p.layer_overhead_ms()
            }
            LayerKind::Dense { .. } => {
                let compute = self.compute_ms(layer.macs, p.conv_gflops());
                // Dense layers stream their weight matrix once per inference
                // (GEMV): weights dominate, activations are negligible but
                // included.
                let bytes = 4.0
                    * (layer.params
                        + layer.input_shape.num_elements()
                        + layer.output_shape.num_elements()) as f64;
                let memory = self.memory_ms(bytes, p.dense_gbps());
                compute.max(memory) + p.layer_overhead_ms()
            }
            LayerKind::Flatten | LayerKind::Dropout { .. } => 0.0,
        };
        Millis::new(ms)
    }

    fn layer_power(&self, layer: &LayerAnalysis) -> Milliwatts {
        let p = &self.profile;
        match LayerClass::of(&layer.kind) {
            LayerClass::Conv => p.conv_power(),
            LayerClass::Dense => p.dense_power(),
            LayerClass::Pool => p.pool_power(),
            LayerClass::Free => Milliwatts::ZERO,
        }
    }
}

impl LayerPerformanceModel for DeviceProfile {
    fn layer_latency(&self, layer: &LayerAnalysis) -> Millis {
        GroundTruthModel::new(self.clone()).layer_latency(layer)
    }

    fn layer_power(&self, layer: &LayerAnalysis) -> Milliwatts {
        GroundTruthModel::new(self.clone()).layer_power(layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile_network;
    use lens_nn::zoo;

    /// The central Fig 1 claim: on the TX2 GPU, AlexNet's three FC layers
    /// take roughly half the total execution time.
    #[test]
    fn fig1_fc_layers_about_half_of_alexnet_latency() {
        let gpu = DeviceProfile::jetson_tx2_gpu();
        let a = zoo::alexnet().analyze().unwrap();
        let perf = profile_network(&a, &gpu);
        let share = perf.latency_share(|n| n.starts_with("fc"));
        assert!(
            (0.40..0.60).contains(&share),
            "FC latency share {share:.3} should be ~0.5"
        );
    }

    /// Calibration anchor: AlexNet totals on both TX2 configurations land in
    /// the windows derived from Table I (see DESIGN.md substitution #1).
    #[test]
    fn alexnet_calibration_windows() {
        let a = zoo::alexnet().analyze().unwrap();

        let gpu = profile_network(&a, &DeviceProfile::jetson_tx2_gpu());
        let gpu_total = gpu.total_latency().get();
        assert!(
            (40.0..55.0).contains(&gpu_total),
            "GPU AlexNet total {gpu_total} ms"
        );
        let gpu_energy = gpu.total_energy().get();
        assert!(
            (227.0..277.0).contains(&gpu_energy),
            "GPU AlexNet energy {gpu_energy} mJ must sit in the Table I window"
        );

        let cpu = profile_network(&a, &DeviceProfile::jetson_tx2_cpu());
        let cpu_total = cpu.total_latency().get();
        assert!(
            (200.0..260.0).contains(&cpu_total),
            "CPU AlexNet total {cpu_total} ms"
        );
        // Conv-part energy (through pool5) must exceed 555 mJ so All-Cloud
        // wins at 7.5 Mbps; FC-part energy must exceed 672 mJ so Pool5 beats
        // All-Edge at 0.7 Mbps.
        let pool5 = a.layer("pool5").unwrap().index;
        let conv_energy = cpu.energy_through(pool5).get();
        let fc_energy = cpu.total_energy().get() - conv_energy;
        assert!(conv_energy > 555.0, "CPU conv-part energy {conv_energy} mJ");
        assert!(fc_energy > 672.0, "CPU fc-part energy {fc_energy} mJ");
    }

    #[test]
    fn conv_layers_are_compute_bound_dense_memory_bound_on_gpu() {
        let gpu = GroundTruthModel::new(DeviceProfile::jetson_tx2_gpu());
        let a = zoo::alexnet().analyze().unwrap();
        let conv1 = a.layer("conv1").unwrap();
        // conv1: 105.4M MACs at 60 GFLOP/s ≈ 3.51 ms + overhead.
        let t = gpu.layer_latency(conv1).get();
        assert!((3.3..4.0).contains(&t), "conv1 latency {t}");
        // fc6: 151 MB of weights at 11 GB/s ≈ 13.7 ms.
        let fc6 = a.layer("fc6").unwrap();
        let t = gpu.layer_latency(fc6).get();
        assert!((13.0..15.0).contains(&t), "fc6 latency {t}");
    }

    #[test]
    fn free_layers_cost_nothing() {
        let gpu = GroundTruthModel::new(DeviceProfile::jetson_tx2_gpu());
        let a = zoo::alexnet().analyze().unwrap();
        let flat = a.layer("flatten").unwrap();
        assert_eq!(gpu.layer_latency(flat), Millis::ZERO);
        assert_eq!(gpu.layer_power(flat), Milliwatts::ZERO);
    }

    #[test]
    fn cpu_slower_than_gpu_per_layer() {
        let gpu = GroundTruthModel::new(DeviceProfile::jetson_tx2_gpu());
        let cpu = GroundTruthModel::new(DeviceProfile::jetson_tx2_cpu());
        let a = zoo::alexnet().analyze().unwrap();
        for l in a.layers() {
            if l.macs > 0 {
                assert!(
                    cpu.layer_latency(l) > gpu.layer_latency(l),
                    "layer {}",
                    l.name
                );
            }
        }
    }
}
