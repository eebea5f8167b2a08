//! Declarative fleet-scenario descriptions.
//!
//! A [`FleetScenario`] pins down everything a run needs — population size,
//! the Table I regional mix, the wireless-technology mix, the arrival
//! model, the per-region cloud serving tier (backends, batching, admission
//! control, failover), the switching policy, and the seed — so that two
//! engines given the same scenario produce the same [`crate::FleetReport`]
//! (see the crate-level determinism contract).

use crate::cloud::{CloudServing, CloudSimFidelity, MAX_SPAN_US};
use crate::pipeline::{PipelinePricing, PipelineSpec};
use crate::FleetError;
use lens_device::DeviceProfile;
use lens_nn::units::{Mbps, Millis};
use lens_nn::Network;
use lens_runtime::{DeploymentKind, Metric};
use lens_telemetry::TelemetryConfig;
use lens_wireless::{Region, WirelessTechnology};

/// One region's share of the population, with its wireless-technology mix.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionShare {
    /// The region profile (expected uplink rate).
    pub region: Region,
    /// Relative population weight (normalized across the scenario).
    pub weight: f64,
    /// Relative technology shares within the region (normalized).
    pub technologies: Vec<(WirelessTechnology, f64)>,
}

impl RegionShare {
    /// A region share with the given weight and a default technology mix
    /// of 60% LTE / 25% WiFi / 15% 3G.
    pub fn new(region: Region, weight: f64) -> Self {
        RegionShare {
            region,
            weight,
            technologies: vec![
                (WirelessTechnology::Lte, 0.60),
                (WirelessTechnology::Wifi, 0.25),
                (WirelessTechnology::ThreeG, 0.15),
            ],
        }
    }
}

/// When devices issue inference requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// Every device infers once per `period`, with a seeded per-device
    /// phase offset so the fleet does not fire in lockstep.
    Periodic {
        /// Inter-inference period.
        period: Millis,
    },
    /// Poisson arrivals: exponentially distributed inter-arrival times
    /// with the given mean, drawn from a per-device seeded stream.
    Poisson {
        /// Mean inter-arrival time.
        mean_interarrival: Millis,
    },
}

impl ArrivalModel {
    pub(crate) fn mean_period_ms(&self) -> f64 {
        match self {
            ArrivalModel::Periodic { period } => period.get(),
            ArrivalModel::Poisson { mean_interarrival } => mean_interarrival.get(),
        }
    }
}

/// Fixed-point scale of [`WorkloadCurve`] multipliers: `1_000_000`
/// micro-units = full offload intent.
pub const CURVE_FP_SCALE: i64 = 1_000_000;

/// A deterministic, piecewise-constant workload curve: fixed-point
/// offload-intent multipliers keyed to simulation time.
///
/// Each phase is `(start_us, multiplier_fp)` with multipliers in
/// `[0, CURVE_FP_SCALE]` micro-units (`1_000_000` = every offload-capable
/// request actually offloads, `250_000` = a quarter of them do; the rest
/// run the device's local-only option). Devices evaluate the curve at each
/// request's arrival time through their own seeded hash streams, so the
/// modulation is a pure function of `(device, time)` — independent of
/// shard count and epoch length, which is what keeps the bit-identity
/// contract intact.
///
/// Evaluation is integer-only (binary search over phase starts plus a
/// fixed-point multiplier): no float accumulates across epochs, and
/// `lens-analyzer`'s float-accumulation rule audits this module to keep it
/// that way.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadCurve {
    /// `(start_us, multiplier_fp)` phases, strictly increasing starts,
    /// first start 0.
    phases: Vec<(u64, i64)>,
    /// Per-region time shift (µs): region `r` sees the curve delayed by
    /// `r · region_offset_us` — the "regional wave" that rolls a load
    /// front across the scenario's regions in mix order.
    region_offset_us: u64,
}

impl WorkloadCurve {
    /// A curve from explicit fixed-point phases (validated at scenario
    /// build): `(start_us, multiplier_fp)` with the first start at 0,
    /// strictly increasing starts, and multipliers in
    /// `[0, CURVE_FP_SCALE]`.
    pub fn from_phases_fp(phases: Vec<(u64, i64)>) -> Self {
        WorkloadCurve {
            phases,
            region_offset_us: 0,
        }
    }

    /// Shifts the curve later by `offset` per region index (the regional
    /// wave). Region 0 sees the curve as-is, region `r` sees it delayed
    /// by `r · offset`.
    pub fn with_region_offset(mut self, offset: Millis) -> Self {
        self.region_offset_us = (offset.get() * 1000.0).round() as u64;
        self
    }

    /// The canonical diurnal profile: eight equal phases over `period`
    /// tracing a day's ramp — night troughs at 1/8 intent, a morning
    /// climb, the full-intent afternoon peak, and an evening fall-off
    /// (the single-run replacement for the hour-by-hour sweep
    /// `examples/autoscale_cost.rs` used to hand-roll).
    pub fn diurnal(period: Millis) -> Self {
        let period_us = (period.get() * 1000.0).round() as u64;
        let hours: [i64; 8] = [
            125_000, 125_000, 250_000, 500_000, 750_000, 1_000_000, 500_000, 250_000,
        ];
        let phases = hours
            .iter()
            .enumerate()
            .map(|(i, &m)| (i as u64 * (period_us / 8), m))
            .collect();
        WorkloadCurve::from_phases_fp(phases)
    }

    /// The canonical flash crowd: baseline 30% intent, full intent from
    /// `start` for `duration`, then back to baseline — the curve
    /// `examples/flash_crowd.rs` drives the closed loop with.
    pub fn flash_crowd(start: Millis, duration: Millis) -> Self {
        // The casts and the sum saturate; `validate` rejects any start
        // past the µs clock.
        let start_us = (start.get() * 1000.0).round() as u64;
        let end_us = start_us.saturating_add((duration.get() * 1000.0).round() as u64);
        WorkloadCurve::from_phases_fp(vec![
            (0, 300_000),
            (start_us, CURVE_FP_SCALE),
            (end_us, 300_000),
        ])
    }

    /// The canonical regional wave: quiet 25% intent, a full-intent pulse
    /// of `duration` starting at `duration` (so region 0's pulse is not
    /// clipped at time 0), delayed by `region_offset` per region index —
    /// the load front rolls across regions in mix order.
    pub fn regional_wave(duration: Millis, region_offset: Millis) -> Self {
        let duration_us = (duration.get() * 1000.0).round() as u64;
        WorkloadCurve::from_phases_fp(vec![
            (0, 250_000),
            (duration_us, CURVE_FP_SCALE),
            (duration_us.saturating_mul(2), 250_000),
        ])
        .with_region_offset(region_offset)
    }

    /// The phases as configured (`(start_us, multiplier_fp)`).
    pub fn phases(&self) -> &[(u64, i64)] {
        &self.phases
    }

    /// The phase index active at `time_us` for `region` — pure integer
    /// binary search over the (region-shifted) phase starts, so the same
    /// `(curve, time, region)` always lands in the same phase no matter
    /// how the run is sharded or how long its epochs are.
    pub fn phase_index(&self, time_us: u64, region: usize) -> usize {
        // A shift past the µs clock saturates: that region's curve has
        // not started yet.
        let shift_us = (region as u64).saturating_mul(self.region_offset_us);
        let local = time_us.saturating_sub(shift_us);
        match self
            .phases
            .binary_search_by_key(&local, |&(start, _)| start)
        {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        }
    }

    /// The offload-intent multiplier (micro-units) at `time_us` for
    /// `region`.
    pub fn multiplier_fp(&self, time_us: u64, region: usize) -> i64 {
        self.phases[self.phase_index(time_us, region)].1
    }

    /// Validates the curve's invariants.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the curve has no phases, does
    /// not start at time 0, has a phase start above 2^53 µs or
    /// non-increasing phase starts, carries a multiplier outside
    /// `[0, CURVE_FP_SCALE]`, or has a per-region offset above 2^53 µs.
    pub fn validate(&self) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err("workload curve needs at least one phase".to_string());
        }
        if self.phases[0].0 != 0 {
            return Err("workload curve must start at time 0".to_string());
        }
        // Checked before the ordering: the canonical curves saturate their
        // starts at `u64::MAX`, where two of them can tie.
        if self.phases.iter().any(|&(start, _)| start > MAX_SPAN_US) {
            return Err("workload curve phase starts must be at most 2^53 µs".to_string());
        }
        if self.phases.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err("workload curve phase starts must be strictly increasing".to_string());
        }
        if self
            .phases
            .iter()
            .any(|&(_, m)| !(0..=CURVE_FP_SCALE).contains(&m))
        {
            return Err(format!(
                "workload curve multipliers must be in [0, {CURVE_FP_SCALE}] micro-units"
            ));
        }
        if self.region_offset_us > MAX_SPAN_US {
            return Err("workload curve region offset must be at most 2^53 µs".to_string());
        }
        Ok(())
    }
}

/// How the engine replays regions at the epoch barrier.
///
/// Regions are independent between the shard step and the signal
/// publish, so the barrier can fan them out over scoped worker threads
/// and merge the results in fixed region order. The report, telemetry,
/// and digests are bit-identical across all three modes — the knob only
/// changes wall-clock time (and exists so tests can pin that claim).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayMode {
    /// Parallel when the host has more than one core and the scenario
    /// more than one region; sequential otherwise.
    #[default]
    Auto,
    /// Always fan regions out over scoped worker threads (still
    /// sequential for a single-region scenario, which has nothing to
    /// fan out).
    Parallel,
    /// Always replay regions on the barrier thread, in region order.
    Sequential,
}

/// How each device chooses its deployment option per inference.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetPolicy {
    /// Every device always uses the option with this kind (per-cohort
    /// resolved; the scenario fails to build if a cohort lacks it).
    Fixed(DeploymentKind),
    /// Track throughput and re-select the dominant option from the
    /// design-time dominance map before every inference (Fig 5).
    Dynamic,
    /// Like [`FleetPolicy::Dynamic`], but additionally charges the
    /// region's current cloud-queue wait to every offloaded option when
    /// selecting on latency — devices route around a congested cloud.
    DynamicCongestionAware,
}

/// A complete, validated fleet-run description. Build via
/// [`FleetScenario::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScenario {
    pub(crate) population: usize,
    pub(crate) regions: Vec<RegionShare>,
    pub(crate) horizon: Millis,
    pub(crate) trace_interval: Millis,
    pub(crate) arrival: ArrivalModel,
    pub(crate) serving: CloudServing,
    pub(crate) fidelity: CloudSimFidelity,
    pub(crate) policy: FleetPolicy,
    pub(crate) metric: Metric,
    pub(crate) tracker_alpha: f64,
    pub(crate) seed: u64,
    pub(crate) shards: usize,
    pub(crate) network: Network,
    pub(crate) device_profile: DeviceProfile,
    pub(crate) telemetry: TelemetryConfig,
    pub(crate) workload: Option<WorkloadCurve>,
    pub(crate) tail_deadline: Option<Millis>,
    pub(crate) replay: ReplayMode,
    pub(crate) pipeline: Option<PipelineSpec>,
}

impl FleetScenario {
    /// Starts a builder with the defaults: 10 000 devices across the
    /// paper's Table I regions, 1-hour horizon, 60 s trace interval,
    /// periodic 60 s arrivals, a single unbatched 64-slot / 8 ms FIFO
    /// cloud backend per region with open admission, dynamic switching on
    /// energy, last-sample tracking, AlexNet on the Jetson TX2 CPU, seed
    /// 0, one shard.
    pub fn builder() -> FleetScenarioBuilder {
        FleetScenarioBuilder::default()
    }

    /// Population size.
    pub fn population(&self) -> usize {
        self.population
    }

    /// The regional mix.
    pub fn regions(&self) -> &[RegionShare] {
        &self.regions
    }

    /// Region names, in mix order (the order of
    /// [`crate::FleetReport::regions`]).
    pub fn region_names(&self) -> Vec<String> {
        self.regions
            .iter()
            .map(|r| r.region.name().to_string())
            .collect()
    }

    /// Simulated wall-clock horizon.
    pub fn horizon(&self) -> Millis {
        self.horizon
    }

    /// The per-device trace sampling interval (also the epoch length).
    pub fn trace_interval(&self) -> Millis {
        self.trace_interval
    }

    /// The arrival model.
    pub fn arrival(&self) -> ArrivalModel {
        self.arrival
    }

    /// The cloud serving tier each region hosts.
    pub fn serving(&self) -> &CloudServing {
        &self.serving
    }

    /// Which cloud model the run uses (fluid epochs or per-request
    /// microsimulation).
    pub fn fidelity(&self) -> CloudSimFidelity {
        self.fidelity
    }

    /// The switching policy.
    pub fn policy(&self) -> &FleetPolicy {
        &self.policy
    }

    /// The metric the policy optimizes.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The scenario seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of engine shards (worker threads).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The deployed network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The edge-device hardware profile.
    pub fn device_profile(&self) -> &DeviceProfile {
        &self.device_profile
    }

    /// The flight-recorder configuration used by
    /// [`crate::FleetEngine::run_traced`].
    pub fn telemetry(&self) -> &TelemetryConfig {
        &self.telemetry
    }

    /// The time-varying workload curve, if the scenario has one (`None` =
    /// constant full offload intent, the historical behavior).
    pub fn workload(&self) -> Option<&WorkloadCurve> {
        self.workload.as_ref()
    }

    /// The per-request tail deadline budget, if set: when a region's
    /// published epoch p99 ([`crate::RegionSignal::p99_ms`]) exceeds this,
    /// devices retreat offload-bound requests to their local-only option
    /// (re-probing on a deterministic hash-spread fraction so the tier's
    /// recovery is still observed).
    pub fn tail_deadline(&self) -> Option<Millis> {
        self.tail_deadline
    }

    /// How the barrier replays regions (parallel fan-out or sequential
    /// sweep — bit-identical either way).
    pub fn replay(&self) -> ReplayMode {
        self.replay
    }

    /// The staged split-inference pipeline, if configured (`None` =
    /// every offload is a single monolithic request, the historical
    /// behavior; a depth-1 spec is equivalent).
    pub fn pipeline(&self) -> Option<&PipelineSpec> {
        self.pipeline.as_ref()
    }

    /// The staged pipeline when it actually stages work: `Some` only
    /// for depth > 1, so every pipeline code path in the engine gates
    /// on one check and a depth-1 spec is *structurally* the monolithic
    /// path (the equivalence `tests/split_pipeline.rs` pins).
    pub(crate) fn staged_pipeline(&self) -> Option<&PipelineSpec> {
        self.pipeline.as_ref().filter(|p| p.is_staged())
    }

    /// Transfer prices for the scenario's staged pipeline, if it has one
    /// that actually stages work (depth > 1): integer microseconds per
    /// `(origin region, boundary)`, from each region's Table I uplink.
    pub(crate) fn pipeline_pricing(&self) -> Option<PipelinePricing> {
        self.staged_pipeline().map(|spec| {
            let uplinks: Vec<Mbps> = self
                .regions
                .iter()
                .map(|share| share.region.uplink())
                .collect();
            PipelinePricing::new(spec, &uplinks)
        })
    }

    /// Expected number of inference events the whole fleet generates.
    pub fn expected_events(&self) -> u64 {
        let per_device = self.horizon.get() / self.arrival.mean_period_ms();
        (self.population as f64 * per_device) as u64
    }
}

/// Builder for [`FleetScenario`]: the scenario under construction, every
/// field at a sensible default until a setter replaces it.
#[derive(Debug, Clone)]
pub struct FleetScenarioBuilder {
    scenario: FleetScenario,
}

impl Default for FleetScenarioBuilder {
    fn default() -> Self {
        // Table I regions; weights are rough population shares for a
        // three-region fleet rather than anything the paper prescribes.
        let regions = vec![
            RegionShare::new(Region::new("S. Korea", Mbps::new(16.1)), 0.3),
            RegionShare::new(Region::new("USA", Mbps::new(7.5)), 0.5),
            RegionShare::new(Region::new("Afghanistan", Mbps::new(0.7)), 0.2),
        ];
        FleetScenarioBuilder {
            scenario: FleetScenario {
                population: 10_000,
                regions,
                horizon: Millis::new(3_600_000.0),
                trace_interval: Millis::new(60_000.0),
                arrival: ArrivalModel::Periodic {
                    period: Millis::new(60_000.0),
                },
                serving: CloudServing::single(64, 8.0),
                fidelity: CloudSimFidelity::Fluid,
                policy: FleetPolicy::Dynamic,
                metric: Metric::Energy,
                tracker_alpha: 1.0,
                seed: 0,
                shards: 1,
                network: lens_nn::zoo::alexnet(),
                device_profile: DeviceProfile::jetson_tx2_cpu(),
                telemetry: TelemetryConfig::default(),
                workload: None,
                tail_deadline: None,
                replay: ReplayMode::Auto,
                pipeline: None,
            },
        }
    }
}

impl FleetScenarioBuilder {
    /// Sets the number of device sessions.
    pub fn population(mut self, population: usize) -> Self {
        self.scenario.population = population;
        self
    }

    /// Replaces the regional mix.
    pub fn regions(mut self, regions: Vec<RegionShare>) -> Self {
        self.scenario.regions = regions;
        self
    }

    /// Sets the simulated horizon.
    pub fn horizon(mut self, horizon: Millis) -> Self {
        self.scenario.horizon = horizon;
        self
    }

    /// Sets the trace-sample interval (= epoch length).
    pub fn trace_interval(mut self, interval: Millis) -> Self {
        self.scenario.trace_interval = interval;
        self
    }

    /// Sets the arrival model.
    pub fn arrival(mut self, arrival: ArrivalModel) -> Self {
        self.scenario.arrival = arrival;
        self
    }

    /// Sets the full per-region serving tier: heterogeneous batched
    /// backends (optionally priced and autoscaled), queue discipline,
    /// dispatch policy (least-work-left or cost-aware), admission
    /// control, and failover — or [`CloudServing::single`] for one
    /// unbatched backend. Every field and the cross-field constraints —
    /// including autoscaler bounds and price/energy sanity — are checked
    /// by [`CloudServing::validate`] at [`build`](FleetScenarioBuilder::build).
    pub fn serving(mut self, serving: CloudServing) -> Self {
        self.scenario.serving = serving;
        self
    }

    /// Sets the cloud simulation fidelity: [`CloudSimFidelity::Fluid`]
    /// (epoch-barrier fluid queues, the default) or
    /// [`CloudSimFidelity::PerRequest`] (discrete per-request
    /// microsimulation with exact tail-latency reporting). A staged
    /// [`pipeline`](FleetScenarioBuilder::pipeline) needs `PerRequest`.
    pub fn fidelity(mut self, fidelity: CloudSimFidelity) -> Self {
        self.scenario.fidelity = fidelity;
        self
    }

    /// Sets the switching policy.
    pub fn policy(mut self, policy: FleetPolicy) -> Self {
        self.scenario.policy = policy;
        self
    }

    /// Sets the metric the policy optimizes.
    pub fn metric(mut self, metric: Metric) -> Self {
        self.scenario.metric = metric;
        self
    }

    /// Sets the throughput-tracker EWMA factor (1 = last-sample).
    pub fn tracker_alpha(mut self, alpha: f64) -> Self {
        self.scenario.tracker_alpha = alpha;
        self
    }

    /// Sets the scenario seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Sets the shard (worker-thread) count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.scenario.shards = shards;
        self
    }

    /// Sets the deployed network (default: AlexNet).
    pub fn network(mut self, network: Network) -> Self {
        self.scenario.network = network;
        self
    }

    /// Sets the edge-device hardware profile.
    pub fn device_profile(mut self, profile: DeviceProfile) -> Self {
        self.scenario.device_profile = profile;
        self
    }

    /// Sets the flight-recorder configuration for traced runs.
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.scenario.telemetry = telemetry;
        self
    }

    /// Attaches a time-varying [`WorkloadCurve`] that modulates per-device
    /// offload intent over the run (validated at
    /// [`build`](FleetScenarioBuilder::build)).
    pub fn workload(mut self, curve: WorkloadCurve) -> Self {
        self.scenario.workload = Some(curve);
        self
    }

    /// Sets the per-request tail deadline budget: devices retreat to their
    /// local-only option while the published epoch p99 exceeds it.
    pub fn tail_deadline(mut self, deadline: Millis) -> Self {
        self.scenario.tail_deadline = Some(deadline);
        self
    }

    /// Attaches a staged split-inference [`PipelineSpec`]: every
    /// offloaded inference becomes `depth` chained stage requests, with
    /// each boundary's activation transfer priced on the origin
    /// region's uplink (validated at
    /// [`build`](FleetScenarioBuilder::build)). Only the per-request
    /// microsim chains stages, so a spec of depth ≥ 2 fails the build
    /// unless the fidelity is [`CloudSimFidelity::PerRequest`]. A spec
    /// with no boundaries (depth 1) is accepted in both fidelities and
    /// behaves exactly like no pipeline at all.
    pub fn pipeline(mut self, pipeline: PipelineSpec) -> Self {
        self.scenario.pipeline = Some(pipeline);
        self
    }

    /// Sets how the barrier replays regions. The default,
    /// [`ReplayMode::Auto`], fans regions out over scoped worker threads
    /// when the host has more than one core; results are bit-identical
    /// in every mode, so this is purely a wall-clock knob.
    pub fn replay(mut self, replay: ReplayMode) -> Self {
        self.scenario.replay = replay;
        self
    }

    /// Validates and builds the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidScenario`] when the description is
    /// contradictory (zero population, empty/non-positive mixes, duplicate
    /// region names, a duration outside the microsecond clock,
    /// out-of-range tracker alpha, more shards than devices, a staged
    /// pipeline under [`CloudSimFidelity::Fluid`], …).
    pub fn build(self) -> Result<FleetScenario, FleetError> {
        let invalid = |why: &str| Err(FleetError::InvalidScenario(why.to_string()));
        let s = &self.scenario;
        if s.population == 0 {
            return invalid("population must be positive");
        }
        if s.regions.is_empty() {
            return invalid("at least one region is required");
        }
        for (i, share) in s.regions.iter().enumerate() {
            // Reports and metric series are keyed by region name.
            let name = share.region.name();
            if s.regions[..i].iter().any(|o| o.region.name() == name) {
                return invalid(&format!(
                    "duplicate region name {name:?} in the regional mix"
                ));
            }
            if !(share.weight.is_finite() && share.weight > 0.0) {
                return invalid("region weights must be positive and finite");
            }
            if share.technologies.is_empty() {
                return invalid("every region needs at least one technology");
            }
            if share
                .technologies
                .iter()
                .any(|(_, w)| !(w.is_finite() && *w > 0.0))
            {
                return invalid("technology shares must be positive and finite");
            }
        }
        // The engine runs on an integer-microsecond clock. `Millis`
        // already rejects NaN/∞/negative at construction, but zero and
        // sub-microsecond durations are representable and would round to
        // 0 µs inside the engine's checked ms→µs cast — collapsing the
        // event clock (and dividing by zero at the epoch barrier) — and
        // durations past 2^53 µs would saturate it.
        for (what, ms) in [
            ("horizon", s.horizon.get()),
            ("trace interval", s.trace_interval.get()),
            ("arrival period", s.arrival.mean_period_ms()),
        ] {
            let us = (ms * 1000.0).round();
            if us < 1.0 {
                return invalid(&format!("{what} must be at least one microsecond"));
            }
            if us > MAX_SPAN_US as f64 {
                return invalid(&format!("{what} must be at most 2^53 µs"));
            }
        }
        if !(s.tracker_alpha > 0.0 && s.tracker_alpha <= 1.0) {
            return invalid("tracker alpha must be in (0, 1]");
        }
        if s.shards == 0 {
            return invalid("at least one shard is required");
        }
        if s.shards > s.population {
            return invalid("more shards than devices");
        }
        if let Err(why) = s.serving.validate() {
            return invalid(&why);
        }
        if let Err(why) = s.telemetry.validate() {
            return invalid(&why);
        }
        if let Some(curve) = &s.workload {
            if let Err(why) = curve.validate() {
                return invalid(&why);
            }
        }
        if let Some(deadline) = s.tail_deadline {
            if !(deadline.get().is_finite() && deadline.get() > 0.0) {
                return invalid("tail deadline must be positive and finite");
            }
        }
        if let Some(pipeline) = &s.pipeline {
            if let Err(why) = pipeline.validate() {
                return invalid(&why);
            }
        }
        // A chained stage arrives one hop after its predecessor
        // completes, so a request's summed hops must fit the µs clock.
        let pricing = s.pipeline_pricing();
        if pricing.is_some_and(|p| p.max_total_us() > MAX_SPAN_US) {
            return invalid("pipeline transfers must sum to at most 2^53 µs on every uplink");
        }
        if s.fidelity == CloudSimFidelity::Fluid && s.staged_pipeline().is_some() {
            return invalid(
                "a staged pipeline (depth ≥ 2) needs CloudSimFidelity::PerRequest; \
                 the fluid tier serves monolithic offloads only",
            );
        }
        Ok(self.scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::{AdmissionPolicy, BackendConfig, FailoverPolicy};

    #[test]
    fn serving_builder_accepts_multi_backend_tiers() {
        let serving = CloudServing::new(vec![
            BackendConfig::new("gpu", 2, 32.0, 1.0).with_batching(32, 50.0),
            BackendConfig::new("cpu", 8, 12.0, 6.0).with_batching(4, 20.0),
        ])
        .with_admission(AdmissionPolicy::Deadline {
            max_wait_ms: 2000.0,
        })
        .with_failover(FailoverPolicy::SiblingRegion { penalty_ms: 60.0 });
        let s = FleetScenario::builder()
            .serving(serving.clone())
            .build()
            .unwrap();
        assert_eq!(s.serving(), &serving);
        assert_eq!(s.serving().backends.len(), 2);
    }

    #[test]
    fn invalid_serving_tier_is_rejected_at_build() {
        let err = FleetScenario::builder()
            .serving(CloudServing::new(vec![]))
            .build()
            .unwrap_err();
        match err {
            FleetError::InvalidScenario(why) => assert!(why.contains("backend"), "{why}"),
            other => panic!("expected InvalidScenario, got {other:?}"),
        }
    }

    /// Corrupts a valid batched tier through its public fields and
    /// asserts the scenario build rejects it, naming the field.
    fn assert_tier_rejected(corrupt: impl FnOnce(&mut CloudServing), needle: &str) {
        let mut serving = CloudServing::new(vec![
            BackendConfig::new("gpu", 2, 32.0, 1.0).with_batching(8, 20.0)
        ]);
        corrupt(&mut serving);
        match FleetScenario::builder().serving(serving).build() {
            Err(FleetError::InvalidScenario(why)) => {
                assert!(why.contains(needle), "{why} should mention {needle}")
            }
            other => panic!("expected InvalidScenario({needle}), got {other:?}"),
        }
    }

    #[test]
    fn zero_slot_backend_is_rejected_at_build() {
        assert_tier_rejected(|s| s.backends[0].slots = 0, "at least one slot");
    }

    #[test]
    fn bad_base_service_ms_is_rejected_at_build() {
        for bad in [f64::NAN, -10.0, f64::INFINITY] {
            assert_tier_rejected(|s| s.backends[0].base_service_ms = bad, "base_service_ms");
        }
    }

    #[test]
    fn bad_per_item_ms_is_rejected_at_build() {
        for bad in [f64::NAN, -1.0] {
            assert_tier_rejected(|s| s.backends[0].per_item_ms = bad, "per_item_ms");
        }
        assert_tier_rejected(
            |s| {
                s.backends[0].base_service_ms = 0.0;
                s.backends[0].per_item_ms = 0.0;
            },
            "single-item service time",
        );
    }

    #[test]
    fn zero_max_batch_is_rejected_at_build() {
        assert_tier_rejected(|s| s.backends[0].batching.max_batch = 0, "max_batch");
    }

    #[test]
    fn bad_linger_ms_is_rejected_at_build() {
        for bad in [f64::NAN, -5.0, 1e300] {
            assert_tier_rejected(|s| s.backends[0].batching.linger_ms = bad, "linger_ms");
        }
    }

    #[test]
    fn bad_high_fraction_is_rejected_at_build() {
        use crate::cloud::QueueDiscipline;
        for bad in [f64::NAN, 3.0, -0.1] {
            assert_tier_rejected(
                |s| s.discipline = QueueDiscipline::Priority { high_fraction: bad },
                "high_fraction",
            );
        }
    }

    #[test]
    fn clock_overflowing_batch_service_is_rejected_at_build() {
        // Finite in ms, yet past the µs clock: outright, or only once the
        // batcher fills all eight items.
        for (base, per_item) in [(1e300, 1.0), (32.0, 2e12)] {
            assert_tier_rejected(
                |s| {
                    s.backends[0].base_service_ms = base;
                    s.backends[0].per_item_ms = per_item;
                },
                "full-batch service time",
            );
        }
    }

    #[test]
    fn autoscaled_cost_aware_tier_round_trips_through_the_builder() {
        use crate::cloud::{Autoscaler, DispatchPolicy, ScalingSignal};
        let serving = CloudServing::new(vec![BackendConfig::new("gpu", 2, 32.0, 1.0)
            .with_batching(32, 50.0)
            .with_price(4.0)
            .with_energy(2.0)
            .with_autoscaler(
                Autoscaler::new(ScalingSignal::Utilization, 0.7, 0.3, 1, 8).with_step(2),
            )])
        .with_dispatch(DispatchPolicy::CostAware);
        let s = FleetScenario::builder()
            .serving(serving.clone())
            .build()
            .unwrap();
        assert_eq!(s.serving(), &serving);
        assert_eq!(s.serving().dispatch, DispatchPolicy::CostAware);
        assert!(s.serving().backends[0].autoscaler.is_some());
    }

    #[test]
    fn invalid_autoscaler_and_prices_are_rejected_at_build() {
        use crate::cloud::{Autoscaler, ScalingSignal};
        // Initial slots outside the autoscaler's bounds…
        let outside = CloudServing::new(vec![BackendConfig::new("gpu", 16, 32.0, 1.0)
            .with_autoscaler(Autoscaler::new(ScalingSignal::QueueDepth, 8.0, 0.5, 1, 8))]);
        let err = FleetScenario::builder()
            .serving(outside)
            .build()
            .unwrap_err();
        match err {
            FleetError::InvalidScenario(why) => assert!(why.contains("outside"), "{why}"),
            other => panic!("expected InvalidScenario, got {other:?}"),
        }
        // …and a non-finite price both fail the scenario build.
        let priced = CloudServing::new(vec![
            BackendConfig::new("gpu", 2, 32.0, 1.0).with_price(f64::INFINITY)
        ]);
        let err = FleetScenario::builder()
            .serving(priced)
            .build()
            .unwrap_err();
        match err {
            FleetError::InvalidScenario(why) => assert!(why.contains("price"), "{why}"),
            other => panic!("expected InvalidScenario, got {other:?}"),
        }
    }

    #[test]
    fn defaults_build() {
        let s = FleetScenario::builder().build().unwrap();
        assert_eq!(s.population(), 10_000);
        assert_eq!(s.regions().len(), 3);
        assert_eq!(s.region_names()[1], "USA");
        assert_eq!(s.shards(), 1);
        assert_eq!(s.expected_events(), 600_000);
        assert_eq!(s.fidelity(), CloudSimFidelity::Fluid);
    }

    #[test]
    fn fidelity_knob_selects_per_request() {
        let s = FleetScenario::builder()
            .fidelity(CloudSimFidelity::PerRequest)
            .build()
            .unwrap();
        assert_eq!(s.fidelity(), CloudSimFidelity::PerRequest);
    }

    #[test]
    fn invalid_scenarios_rejected() {
        let cases: Vec<(&str, FleetScenarioBuilder)> = vec![
            ("population", FleetScenario::builder().population(0)),
            ("region", FleetScenario::builder().regions(vec![])),
            (
                "horizon",
                FleetScenario::builder().horizon(Millis::new(0.0)),
            ),
            (
                "trace interval",
                FleetScenario::builder().trace_interval(Millis::new(0.0004)),
            ),
            (
                "arrival period",
                FleetScenario::builder().arrival(ArrivalModel::Periodic {
                    period: Millis::new(0.0004),
                }),
            ),
            ("shard", FleetScenario::builder().shards(0)),
            (
                "shards than devices",
                FleetScenario::builder().population(2).shards(3),
            ),
            ("alpha", FleetScenario::builder().tracker_alpha(0.0)),
            (
                "weights",
                FleetScenario::builder().regions(vec![RegionShare::new(
                    Region::new("X", Mbps::new(1.0)),
                    -1.0,
                )]),
            ),
            (
                "technology",
                FleetScenario::builder().regions(vec![RegionShare {
                    technologies: vec![],
                    ..RegionShare::new(Region::new("X", Mbps::new(1.0)), 1.0)
                }]),
            ),
            (
                "curve",
                FleetScenario::builder().workload(WorkloadCurve::from_phases_fp(vec![])),
            ),
            (
                "curve must start at time 0",
                FleetScenario::builder()
                    .workload(WorkloadCurve::from_phases_fp(vec![(5, 100_000)])),
            ),
            (
                "strictly increasing",
                FleetScenario::builder().workload(WorkloadCurve::from_phases_fp(vec![
                    (0, 100_000),
                    (10, 200_000),
                    (10, 300_000),
                ])),
            ),
            (
                "multipliers",
                FleetScenario::builder()
                    .workload(WorkloadCurve::from_phases_fp(vec![(0, CURVE_FP_SCALE + 1)])),
            ),
            (
                "deadline",
                FleetScenario::builder().tail_deadline(Millis::new(0.0)),
            ),
            // `Millis::new` already panics on NaN/∞/negative, so those
            // can never reach the builder — but zero and sub-microsecond
            // durations *are* representable and used to slip through to
            // the engine's ms→µs cast, silently rounding to 0 µs. All
            // are build errors now.
            (
                "horizon",
                FleetScenario::builder().horizon(Millis::new(0.0004)),
            ),
            (
                "trace interval",
                FleetScenario::builder().trace_interval(Millis::new(0.0)),
            ),
            (
                "arrival period",
                FleetScenario::builder().arrival(ArrivalModel::Poisson {
                    mean_interarrival: Millis::new(0.0),
                }),
            ),
            // Two regions with one name would share every name-keyed
            // metric series and report line.
            (
                "duplicate region name \"USA\"",
                FleetScenario::builder().regions(vec![
                    RegionShare::new(Region::new("USA", Mbps::new(7.5)), 0.5),
                    RegionShare::new(Region::new("Chile", Mbps::new(5.0)), 0.2),
                    RegionShare::new(Region::new("USA", Mbps::new(7.5)), 0.3),
                ]),
            ),
            // Finite in ms, yet past the µs clock: the ms→µs casts would
            // saturate, and a region's curve shift would overflow.
            (
                "horizon must be at most 2^53 µs",
                FleetScenario::builder().horizon(Millis::new(1e300)),
            ),
            (
                "horizon must be at most 2^53 µs",
                FleetScenario::builder().horizon(Millis::new(2.0 * SPAN_MS)),
            ),
            (
                "trace interval must be at most 2^53 µs",
                FleetScenario::builder().trace_interval(Millis::new(1e300)),
            ),
            (
                "arrival period must be at most 2^53 µs",
                FleetScenario::builder().arrival(ArrivalModel::Periodic {
                    period: Millis::new(1e300),
                }),
            ),
            (
                "arrival period must be at most 2^53 µs",
                FleetScenario::builder().arrival(ArrivalModel::Poisson {
                    mean_interarrival: Millis::new(1e300),
                }),
            ),
            (
                "region offset must be at most 2^53 µs",
                FleetScenario::builder().workload(WorkloadCurve::regional_wave(
                    Millis::new(60_000.0),
                    Millis::new(1e300),
                )),
            ),
        ];
        for (needle, builder) in cases {
            match builder.build() {
                Err(FleetError::InvalidScenario(why)) => {
                    assert!(why.contains(needle), "{why} should mention {needle}")
                }
                other => panic!("expected InvalidScenario({needle}), got {other:?}"),
            }
        }
    }

    /// 2^53 µs in ms: the longest duration the µs clock accepts.
    const SPAN_MS: f64 = MAX_SPAN_US as f64 / 1000.0;

    #[test]
    fn durations_up_to_the_clock_span_build() {
        let curve = WorkloadCurve::regional_wave(Millis::new(60_000.0), Millis::new(SPAN_MS));
        let s = FleetScenario::builder()
            .horizon(Millis::new(SPAN_MS))
            .trace_interval(Millis::new(SPAN_MS))
            .arrival(ArrivalModel::Poisson {
                mean_interarrival: Millis::new(SPAN_MS),
            })
            .workload(curve)
            .build()
            .unwrap();
        assert_eq!(s.horizon(), Millis::new(SPAN_MS));
        // The last region's shift saturates instead of overflowing: its
        // wave has not started.
        let curve = s.workload().unwrap();
        assert_eq!(curve.multiplier_fp(MAX_SPAN_US, usize::MAX), 250_000);
    }

    /// Builds the default scenario with `curve` and asserts it fails,
    /// naming the phase-start cap.
    fn assert_curve_past_the_span_rejected(curve: WorkloadCurve) {
        match FleetScenario::builder().workload(curve).build() {
            Err(FleetError::InvalidScenario(why)) => assert!(
                why.contains("phase starts must be at most 2^53 µs"),
                "{why}"
            ),
            other => panic!("expected InvalidScenario, got {other:?}"),
        }
    }

    #[test]
    fn flash_crowd_past_the_clock_span_is_rejected_at_build() {
        // The start saturates the cast and the end the sum, so the two
        // starts tie at `u64::MAX`; a start just past the span does not
        // saturate at all.
        assert_curve_past_the_span_rejected(WorkloadCurve::flash_crowd(
            Millis::new(1e18),
            Millis::new(1e18),
        ));
        assert_curve_past_the_span_rejected(WorkloadCurve::flash_crowd(
            Millis::new(60_000.0),
            Millis::new(SPAN_MS),
        ));
    }

    #[test]
    fn regional_wave_past_the_clock_span_is_rejected_at_build() {
        // 1e19 µs fits `u64`, but the pulse's end, twice that, does not.
        let curve = WorkloadCurve::regional_wave(Millis::new(1e16), Millis::new(1.0));
        assert_eq!(curve.phases()[2].0, u64::MAX);
        assert_curve_past_the_span_rejected(curve);
    }

    #[test]
    fn workload_curve_evaluates_piecewise_and_shifts_per_region() {
        let curve = WorkloadCurve::from_phases_fp(vec![(0, 250_000), (1_000, CURVE_FP_SCALE)])
            .with_region_offset(Millis::new(0.5)); // 500 µs per region
        curve.validate().unwrap();
        // Region 0: phase boundary exactly at 1000 µs.
        assert_eq!(curve.multiplier_fp(0, 0), 250_000);
        assert_eq!(curve.multiplier_fp(999, 0), 250_000);
        assert_eq!(curve.multiplier_fp(1_000, 0), CURVE_FP_SCALE);
        assert_eq!(curve.phase_index(1_000, 0), 1);
        // Region 2 sees the curve 1000 µs later.
        assert_eq!(curve.multiplier_fp(1_999, 2), 250_000);
        assert_eq!(curve.multiplier_fp(2_000, 2), CURVE_FP_SCALE);
        // Before a shifted region's local time 0 the first phase applies.
        assert_eq!(curve.multiplier_fp(0, 2), 250_000);
    }

    #[test]
    fn canonical_curves_validate_and_round_trip_through_the_builder() {
        for curve in [
            WorkloadCurve::diurnal(Millis::new(480_000.0)),
            WorkloadCurve::flash_crowd(Millis::new(120_000.0), Millis::new(120_000.0)),
            WorkloadCurve::regional_wave(Millis::new(120_000.0), Millis::new(60_000.0)),
        ] {
            curve.validate().unwrap();
            assert_eq!(curve.phases()[0].0, 0);
            let s = FleetScenario::builder()
                .workload(curve.clone())
                .tail_deadline(Millis::new(2_000.0))
                .build()
                .unwrap();
            assert_eq!(s.workload(), Some(&curve));
            assert_eq!(s.tail_deadline(), Some(Millis::new(2_000.0)));
        }
        // The default carries neither knob.
        let s = FleetScenario::builder().build().unwrap();
        assert_eq!(s.workload(), None);
        assert_eq!(s.tail_deadline(), None);
    }

    #[test]
    fn diurnal_curve_peaks_at_full_intent() {
        let period = Millis::new(480_000.0);
        let curve = WorkloadCurve::diurnal(period);
        assert_eq!(curve.phases().len(), 8);
        let peak = curve.phases().iter().map(|&(_, m)| m).max().unwrap();
        assert_eq!(peak, CURVE_FP_SCALE);
        // Trough at the start of the period (night).
        assert_eq!(curve.multiplier_fp(0, 0), 125_000);
    }

    #[test]
    fn replay_mode_defaults_to_auto_and_round_trips() {
        let s = FleetScenario::builder().build().unwrap();
        assert_eq!(s.replay(), ReplayMode::Auto);
        for mode in [
            ReplayMode::Auto,
            ReplayMode::Parallel,
            ReplayMode::Sequential,
        ] {
            let s = FleetScenario::builder().replay(mode).build().unwrap();
            assert_eq!(s.replay(), mode);
        }
    }

    #[test]
    fn pipeline_spec_round_trips_and_depth_one_is_unstaged() {
        let s = FleetScenario::builder().build().unwrap();
        assert_eq!(s.pipeline(), None);
        assert_eq!(s.staged_pipeline(), None);

        let staged = PipelineSpec::new(vec![86_528, 4_096]);
        let s = FleetScenario::builder()
            .fidelity(CloudSimFidelity::PerRequest)
            .pipeline(staged.clone())
            .build()
            .unwrap();
        assert_eq!(s.pipeline(), Some(&staged));
        assert_eq!(s.staged_pipeline(), Some(&staged));

        // Depth 1 builds but never reaches the engine's pipeline paths.
        let s = FleetScenario::builder()
            .pipeline(PipelineSpec::default())
            .build()
            .unwrap();
        assert!(s.pipeline().is_some());
        assert_eq!(s.staged_pipeline(), None);
    }

    #[test]
    fn too_deep_pipeline_is_rejected_at_build() {
        use crate::pipeline::MAX_PIPELINE_DEPTH;
        let err = FleetScenario::builder()
            .pipeline(PipelineSpec::new(vec![1; MAX_PIPELINE_DEPTH]))
            .build()
            .unwrap_err();
        match err {
            FleetError::InvalidScenario(why) => assert!(why.contains("depth"), "{why}"),
            other => panic!("expected InvalidScenario, got {other:?}"),
        }
    }

    #[test]
    fn clock_overflowing_pipeline_hops_are_rejected_at_build() {
        let err = FleetScenario::builder()
            .pipeline(PipelineSpec::new(vec![u64::MAX / 4]))
            .build()
            .unwrap_err();
        match err {
            FleetError::InvalidScenario(why) => {
                assert!(why.contains("pipeline transfers"), "{why}")
            }
            other => panic!("expected InvalidScenario, got {other:?}"),
        }
    }

    #[test]
    fn poisson_arrival_mean() {
        let a = ArrivalModel::Poisson {
            mean_interarrival: Millis::new(500.0),
        };
        assert_eq!(a.mean_period_ms(), 500.0);
    }
}
