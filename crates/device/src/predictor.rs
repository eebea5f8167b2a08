//! The fitted per-layer-type performance predictors — Algorithm 1's
//! `L_Predict` and `P_Predict`.
//!
//! "Once trained, the prediction models can be directly called within LENS
//! to estimate the per-layer performance" (§IV.C). The LENS search never
//! sees the ground truth; it sees these ridge regressions, trained on the
//! noisy measurement campaign, and the gap between the two is quantified by
//! [`PerformancePredictor::report`].

use crate::features::{layer_features, LayerClass};
use crate::measure::MeasurementCampaign;
use crate::profile::DeviceProfile;
use crate::{DeviceError, LayerPerformanceModel};
use lens_nn::units::{Millis, Milliwatts};
use lens_nn::LayerAnalysis;
use lens_num::ridge::RidgeRegression;
use lens_num::stats;
use std::collections::BTreeMap;
use std::fmt;

/// Regression-quality metrics for one layer class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassReport {
    /// Number of training measurements.
    pub samples: usize,
    /// R² of latency predictions against the noise-free truth.
    pub latency_r2: f64,
    /// MAPE (%) of latency predictions against the noise-free truth.
    pub latency_mape: f64,
    /// R² of power predictions against the noise-free truth.
    pub power_r2: f64,
    /// MAPE (%) of power predictions against the noise-free truth.
    pub power_mape: f64,
}

/// Quality report over all modeled classes.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorReport {
    classes: Vec<(LayerClass, ClassReport)>,
}

impl PredictorReport {
    /// Per-class metrics.
    pub fn classes(&self) -> &[(LayerClass, ClassReport)] {
        &self.classes
    }

    /// The worst latency R² across classes — a single-number health check.
    pub fn worst_latency_r2(&self) -> f64 {
        self.classes
            .iter()
            .map(|(_, r)| r.latency_r2)
            .fold(f64::INFINITY, f64::min)
    }
}

impl fmt::Display for PredictorReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<8} {:>8} {:>12} {:>12} {:>12} {:>12}",
            "class", "samples", "lat R2", "lat MAPE%", "pow R2", "pow MAPE%"
        )?;
        for (class, r) in &self.classes {
            writeln!(
                f,
                "{:<8} {:>8} {:>12.4} {:>12.2} {:>12.4} {:>12.2}",
                class.to_string(),
                r.samples,
                r.latency_r2,
                r.latency_mape,
                r.power_r2,
                r.power_mape
            )?;
        }
        Ok(())
    }
}

#[derive(Debug, Clone, PartialEq)]
struct ClassModels {
    latency: RidgeRegression,
    power: RidgeRegression,
}

/// Per-layer-type ridge predictors for latency and power.
///
/// # Examples
///
/// ```
/// use lens_device::{DeviceProfile, PerformancePredictor, LayerPerformanceModel};
/// use lens_nn::zoo;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let gpu = DeviceProfile::jetson_tx2_gpu();
/// let predictor = PerformancePredictor::train(&gpu, 0.05, 42)?;
/// let a = zoo::alexnet().analyze()?;
/// let fc6 = a.layer("fc6").expect("alexnet has fc6");
/// let latency = predictor.layer_latency(fc6);
/// assert!(latency.get() > 5.0); // fc6 is a heavy, memory-bound layer
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PerformancePredictor {
    models: BTreeMap<LayerClass, ClassModels>,
    report: PredictorReport,
}

impl PerformancePredictor {
    /// Runs a measurement campaign on the profile and fits the per-class
    /// models. `noise_sigma` is the campaign's measurement noise; `seed`
    /// makes the whole pipeline reproducible.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError`] if a class has no measurements or a fit
    /// fails.
    pub fn train(
        profile: &DeviceProfile,
        noise_sigma: f64,
        seed: u64,
    ) -> Result<Self, DeviceError> {
        let campaign = MeasurementCampaign::run(profile, noise_sigma, seed);
        Self::from_campaign(&campaign)
    }

    /// Fits the models from an existing campaign.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError`] if a class has no measurements or a fit
    /// fails.
    pub fn from_campaign(campaign: &MeasurementCampaign) -> Result<Self, DeviceError> {
        let mut models = BTreeMap::new();
        let mut classes = Vec::new();
        for class in LayerClass::modeled() {
            let samples = campaign.of_class(class);
            if samples.is_empty() {
                return Err(DeviceError::NoMeasurements(class));
            }
            let xs: Vec<&[f64]> = samples.iter().map(|m| m.features.as_slice()).collect();
            let lat: Vec<f64> = samples.iter().map(|m| m.latency_ms).collect();
            let pow: Vec<f64> = samples.iter().map(|m| m.power_mw).collect();
            let [latency, power] = RidgeRegression::fit_all(&xs, [&lat, &pow], 1e-4)?;

            // Validate against the noise-free truth.
            let lat_pred: Vec<f64> = xs.iter().map(|x| latency.predict(x)).collect();
            let pow_pred: Vec<f64> = xs.iter().map(|x| power.predict(x)).collect();
            let lat_true: Vec<f64> = samples.iter().map(|m| m.true_latency_ms).collect();
            let pow_true: Vec<f64> = samples.iter().map(|m| m.true_power_mw).collect();
            classes.push((
                class,
                ClassReport {
                    samples: samples.len(),
                    latency_r2: stats::r_squared(&lat_pred, &lat_true)?,
                    latency_mape: stats::mape(&lat_pred, &lat_true)?,
                    power_r2: stats::r_squared(&pow_pred, &pow_true)?,
                    power_mape: stats::mape(&pow_pred, &pow_true)?,
                },
            ));
            models.insert(class, ClassModels { latency, power });
        }
        Ok(PerformancePredictor {
            models,
            report: PredictorReport { classes },
        })
    }

    /// The training-quality report (predictions vs noise-free truth).
    pub fn report(&self) -> &PredictorReport {
        &self.report
    }
}

impl LayerPerformanceModel for PerformancePredictor {
    fn layer_latency(&self, layer: &LayerAnalysis) -> Millis {
        let class = LayerClass::of(&layer.kind);
        if class == LayerClass::Free {
            return Millis::ZERO;
        }
        match self.models.get(&class) {
            // Ridge can mildly undershoot near the origin; clamp at zero.
            Some(m) => Millis::new(m.latency.predict(&layer_features(layer)).max(0.0)),
            None => Millis::ZERO,
        }
    }

    fn layer_power(&self, layer: &LayerAnalysis) -> Milliwatts {
        let class = LayerClass::of(&layer.kind);
        if class == LayerClass::Free {
            return Milliwatts::ZERO;
        }
        match self.models.get(&class) {
            Some(m) => Milliwatts::new(m.power.predict(&layer_features(layer)).max(0.0)),
            None => Milliwatts::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile_network;
    use lens_nn::zoo;

    #[test]
    fn predictors_track_ground_truth_closely() {
        let gpu = DeviceProfile::jetson_tx2_gpu();
        let pred = PerformancePredictor::train(&gpu, 0.05, 42).unwrap();
        let report = pred.report();
        assert!(
            report.worst_latency_r2() > 0.95,
            "latency R2 too low:\n{report}"
        );
        for (_, r) in report.classes() {
            assert!(r.power_mape < 10.0, "power MAPE {:.2}", r.power_mape);
        }
    }

    #[test]
    fn predicted_alexnet_total_close_to_truth() {
        let gpu = DeviceProfile::jetson_tx2_gpu();
        let pred = PerformancePredictor::train(&gpu, 0.05, 42).unwrap();
        let a = zoo::alexnet().analyze().unwrap();
        let truth = profile_network(&a, &gpu);
        let predicted = profile_network(&a, &pred);
        let rel = (predicted.total_latency().get() - truth.total_latency().get()).abs()
            / truth.total_latency().get();
        assert!(rel < 0.20, "relative total-latency error {rel:.3}");
        let rel_e = (predicted.total_energy().get() - truth.total_energy().get()).abs()
            / truth.total_energy().get();
        assert!(rel_e < 0.20, "relative total-energy error {rel_e:.3}");
    }

    #[test]
    fn training_is_deterministic() {
        let cpu = DeviceProfile::jetson_tx2_cpu();
        let a = PerformancePredictor::train(&cpu, 0.05, 9).unwrap();
        let b = PerformancePredictor::train(&cpu, 0.05, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn free_layers_predict_zero() {
        let gpu = DeviceProfile::jetson_tx2_gpu();
        let pred = PerformancePredictor::train(&gpu, 0.05, 1).unwrap();
        let a = zoo::alexnet().analyze().unwrap();
        let flat = a.layer("flatten").unwrap();
        assert_eq!(pred.layer_latency(flat), Millis::ZERO);
        assert_eq!(pred.layer_power(flat), Milliwatts::ZERO);
    }

    #[test]
    fn report_displays_all_classes() {
        let gpu = DeviceProfile::jetson_tx2_gpu();
        let pred = PerformancePredictor::train(&gpu, 0.05, 1).unwrap();
        let text = format!("{}", pred.report());
        for class in ["conv", "pool", "dense"] {
            assert!(text.contains(class), "report missing {class}:\n{text}");
        }
    }
}
