//! Device profiles: the calibrated constants of the simulated testbed.
//!
//! A [`DeviceProfile`] parameterizes the analytic ground-truth model with
//! seven numbers: three effective throughputs, a per-layer launch overhead
//! and three per-class power draws. The two Jetson TX2 profiles are
//! *calibrated*, not measured: their values are chosen so that the AlexNet
//! motivational analysis of §II reproduces — FC layers ≈ 50 % of latency
//! (Fig 1), every crossover of Fig 2, and all twelve deployment-preference
//! cells of Table I. The calibration is enforced by tests in this crate and
//! in `tests/calibration.rs`.

use lens_nn::units::Milliwatts;
use std::fmt;

/// Calibrated performance/power constants for one compute configuration of
/// an edge device.
///
/// # Examples
///
/// ```
/// use lens_device::DeviceProfile;
///
/// let gpu = DeviceProfile::jetson_tx2_gpu();
/// let cpu = DeviceProfile::jetson_tx2_cpu();
/// assert!(gpu.conv_gflops() > cpu.conv_gflops());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    name: String,
    conv_gflops: f64,
    dense_gbps: f64,
    activation_gbps: f64,
    layer_overhead_ms: f64,
    conv_power_mw: f64,
    dense_power_mw: f64,
    pool_power_mw: f64,
}

impl DeviceProfile {
    /// Jetson TX2 running inference on its 256-core Pascal GPU.
    ///
    /// Effective (not peak) rates for an unoptimized Caffe-like runtime:
    /// ~60 GFLOP/s sustained on convolutions, ~11 GB/s effective weight
    /// streaming for GEMV-shaped dense layers.
    pub fn jetson_tx2_gpu() -> Self {
        DeviceProfile {
            name: "jetson-tx2-gpu".into(),
            conv_gflops: 60.0,
            dense_gbps: 11.0,
            activation_gbps: 20.0,
            layer_overhead_ms: 0.15,
            conv_power_mw: 5300.0,
            dense_power_mw: 5300.0,
            pool_power_mw: 3000.0,
        }
    }

    /// Jetson TX2 running inference on its ARM CPU complex.
    pub fn jetson_tx2_cpu() -> Self {
        DeviceProfile {
            name: "jetson-tx2-cpu".into(),
            conv_gflops: 13.0,
            dense_gbps: 1.9,
            activation_gbps: 4.0,
            layer_overhead_ms: 0.2,
            conv_power_mw: 5500.0,
            dense_power_mw: 6000.0,
            pool_power_mw: 2500.0,
        }
    }

    /// Builds a custom profile.
    ///
    /// # Panics
    ///
    /// Panics if any throughput or power is non-positive/non-finite, or the
    /// overhead is negative.
    #[allow(clippy::too_many_arguments)]
    pub fn custom(
        name: impl Into<String>,
        conv_gflops: f64,
        dense_gbps: f64,
        activation_gbps: f64,
        layer_overhead_ms: f64,
        conv_power_mw: f64,
        dense_power_mw: f64,
        pool_power_mw: f64,
    ) -> Self {
        for (what, v) in [
            ("conv_gflops", conv_gflops),
            ("dense_gbps", dense_gbps),
            ("activation_gbps", activation_gbps),
            ("conv_power_mw", conv_power_mw),
            ("dense_power_mw", dense_power_mw),
            ("pool_power_mw", pool_power_mw),
        ] {
            assert!(v.is_finite() && v > 0.0, "{what} must be positive, got {v}");
        }
        assert!(
            layer_overhead_ms.is_finite() && layer_overhead_ms >= 0.0,
            "layer_overhead_ms must be non-negative"
        );
        DeviceProfile {
            name: name.into(),
            conv_gflops,
            dense_gbps,
            activation_gbps,
            layer_overhead_ms,
            conv_power_mw,
            dense_power_mw,
            pool_power_mw,
        }
    }

    /// Profile name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sustained convolution throughput, GFLOP/s.
    pub fn conv_gflops(&self) -> f64 {
        self.conv_gflops
    }

    /// Effective weight-streaming bandwidth for dense layers, GB/s.
    pub fn dense_gbps(&self) -> f64 {
        self.dense_gbps
    }

    /// Effective activation-traffic bandwidth (pooling etc.), GB/s.
    pub fn activation_gbps(&self) -> f64 {
        self.activation_gbps
    }

    /// Fixed per-layer launch/dispatch overhead, ms.
    pub fn layer_overhead_ms(&self) -> f64 {
        self.layer_overhead_ms
    }

    /// Power draw while executing convolutions.
    pub fn conv_power(&self) -> Milliwatts {
        Milliwatts::new(self.conv_power_mw)
    }

    /// Power draw while executing dense layers.
    pub fn dense_power(&self) -> Milliwatts {
        Milliwatts::new(self.dense_power_mw)
    }

    /// Power draw while executing pooling / data-movement layers.
    pub fn pool_power(&self) -> Milliwatts {
        Milliwatts::new(self.pool_power_mw)
    }
}

impl fmt::Display for DeviceProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: conv {} GFLOP/s, dense {} GB/s, act {} GB/s",
            self.name, self.conv_gflops, self.dense_gbps, self.activation_gbps
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_is_faster_than_cpu_everywhere() {
        let gpu = DeviceProfile::jetson_tx2_gpu();
        let cpu = DeviceProfile::jetson_tx2_cpu();
        assert!(gpu.conv_gflops() > cpu.conv_gflops());
        assert!(gpu.dense_gbps() > cpu.dense_gbps());
        assert!(gpu.activation_gbps() > cpu.activation_gbps());
    }

    #[test]
    fn custom_profile_validates() {
        let p = DeviceProfile::custom("x", 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0);
        assert_eq!(p.name(), "x");
    }

    #[test]
    #[should_panic(expected = "conv_gflops must be positive")]
    fn custom_profile_rejects_zero_throughput() {
        DeviceProfile::custom("x", 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0);
    }

    #[test]
    fn display_mentions_name() {
        assert!(format!("{}", DeviceProfile::jetson_tx2_gpu()).contains("jetson-tx2-gpu"));
    }
}
