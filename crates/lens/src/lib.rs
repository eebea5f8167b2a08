//! **LENS** — Layer Distribution Enabled Neural Architecture Search in
//! Edge-Cloud Hierarchies.
//!
//! A from-scratch Rust reproduction of Odema et al., DAC 2021
//! (arXiv:2107.09309). This facade crate re-exports the whole workspace
//! under one roof:
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | the LENS methodology: Algorithm 1 objectives, Algorithm 2 MOBO search, the Traditional baseline, reports |
//! | [`nn`] | DNN representation, shape/MAC analysis, AlexNet & VGG16 |
//! | [`space`] | the Fig 4 VGG16-derived search space behind a generic `SearchSpace` trait |
//! | [`device`] | simulated Jetson TX2 testbed + per-layer performance predictors |
//! | [`wireless`] | Eq. 3–6 communication costs, LTE/WiFi/3G power models, regions, traces |
//! | [`gp`] | Gaussian-process MOBO (Dragonfly stand-in) |
//! | [`pareto`] | dominance, frontiers, coverage metrics, hypervolume |
//! | [`accuracy`] | CIFAR-10 error surrogate + real MLP and CNN trainers |
//! | [`runtime`] | deployment options, `t_u` thresholds, trace-driven Fig 8 simulator |
//! | [`fleet`] | sharded discrete-event fleet simulator: device populations vs a finite shared cloud |
//! | [`telemetry`] | deterministic observability: sim-time flight recorder, fixed-point metrics timelines, engine profiling |
//! | [`num`] | packed Cholesky factor, ridge regression, distributions |
//!
//! # Quickstart
//!
//! ```
//! use lens::prelude::*;
//!
//! # fn main() -> Result<(), lens::core::LensError> {
//! // Design-time inputs: wireless technology + expected conditions.
//! let lens = Lens::builder()
//!     .technology(WirelessTechnology::Wifi)
//!     .expected_throughput(Mbps::new(3.0))
//!     .iterations(4)        // the paper runs 300
//!     .initial_samples(4)
//!     .seed(42)
//!     .build()?;
//! let outcome = lens.search()?;
//! for candidate in outcome.pareto_candidates() {
//!     println!("{} -> {}", candidate.encoding, candidate.objectives);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use lens_accuracy as accuracy;
pub use lens_core as core;
pub use lens_device as device;
pub use lens_fleet as fleet;
pub use lens_gp as gp;
pub use lens_nn as nn;
pub use lens_num as num;
pub use lens_pareto as pareto;
pub use lens_runtime as runtime;
pub use lens_space as space;
pub use lens_telemetry as telemetry;
pub use lens_wireless as wireless;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use lens_accuracy::{AccuracyEstimator, SurrogateAccuracy, TrainedAccuracy};
    pub use lens_core::{
        CriteriaCounts, FrontierComparison, Lens, LensError, Objectives, PartitionPolicy,
        SearchConfig, SearchOutcome,
    };
    pub use lens_device::{
        profile_network, DeviceProfile, LayerPerformanceModel, PerformancePredictor,
    };
    pub use lens_fleet::{
        AdmissionPolicy, ArrivalModel, Autoscaler, BackendConfig, BackendReport, BatchPolicy,
        CloudServing, CloudSimFidelity, DispatchPolicy, FailoverPolicy, FleetEngine, FleetPolicy,
        FleetReport, FleetScenario, OffloadRequest, PipelineSpec, QueueDiscipline, RegionMicrosim,
        RegionServing, RegionShare, ReplayMode, ScalerState, ScalingSignal, TailSummary,
        WorkloadCurve, MAX_PIPELINE_DEPTH,
    };
    pub use lens_nn::units::{Bytes, Mbps, Millijoules, Millis, Milliwatts};
    pub use lens_nn::{zoo, Network, NetworkBuilder, TensorShape};
    pub use lens_pareto::ParetoFront;
    pub use lens_runtime::{
        DeploymentKind, DeploymentPlanner, DominanceMap, Metric, RuntimeSimulator,
        ThroughputTracker,
    };
    pub use lens_space::{
        Architecture, Encoding, SearchSpace, StageBoundary, StageSegment, StageTier, StagedPlan,
        VggSpace,
    };
    pub use lens_telemetry::{
        BarrierPhase, EngineProfile, FlightRecorder, MetricsRegistry, RunTelemetry,
        TelemetryConfig, TraceEvent,
    };
    pub use lens_wireless::{
        GaussMarkov, Region, ThroughputTrace, TraceGenerator, TransferModel, WirelessLink,
        WirelessTechnology,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_key_types() {
        use crate::prelude::*;
        // Type-level smoke test: these names must resolve.
        let _tech: WirelessTechnology = WirelessTechnology::Wifi;
        let _space: VggSpace = VggSpace::for_cifar10();
        let _tracker = ThroughputTracker::last_sample();
        let _ = Lens::builder();
        let _ = FleetScenario::builder();
        let _mode: ReplayMode = ReplayMode::Auto;
        let _ = TelemetryConfig::default();
    }
}
