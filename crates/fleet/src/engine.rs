//! The sharded discrete-event engine.
//!
//! [`FleetEngine::new`] does the design-time work once per scenario —
//! network analysis, per-cohort option enumeration and dominance maps —
//! and [`FleetEngine::run`] executes the population: devices are split
//! into contiguous id ranges (shards), each shard owns an event queue
//! keyed by integer microseconds (an O(1) sorted ring under periodic
//! arrivals, a binary heap under Poisson — `EventQueue` below) plus each
//! device's throughput-trace generator state, and shards synchronize with
//! the shared cloud only at epoch barriers (see the crate-level docs for
//! the determinism contract and the one-epoch contention lag).
//!
//! Under periodic arrivals a shard stores its devices in **firing
//! order** — sorted by (phase offset, device id) — so each period's pops
//! walk the device array and the epoch's sample row front to back instead
//! of landing at hash-random spots. The order is bit-identical to id
//! order: every device re-arms exactly one period later, so two events at
//! the same µs belong to devices with the same offset, which sort by id.
//! The ring therefore pops the same (time, device id) sequence a heap over
//! id-ordered storage would, and every report, request run and trace event
//! is unchanged. Poisson shards keep id order.
//!
//! No trace is stored whole. Each device keeps its Gauss–Markov generator
//! state ([`GaussMarkovState`], 40 B), and at the top of every epoch the
//! shard step draws one sample per device into a reusable row, whether or
//! not the device fires in that epoch. Each device has its own RNG and
//! takes its draws in trace order, so the samples are bit-identical to
//! the pre-generated trace
//! [`ThroughputTrace::synthesize`](lens_wireless::ThroughputTrace::synthesize)
//! gives for the device's seed, and a shard's memory does not grow with
//! the horizon.
//!
//! Both cloud fidelities run through **one shard step and one barrier
//! loop** (`FleetEngine::run_tier`), generic over the `RegionTier` trait
//! in `src/replay.rs`, which holds every difference between them; the
//! fidelity is matched once, where the workers are built. In the shard
//! step a device decides where each inference runs and prices only its
//! own share, and the tier books every offload: the fluid tier charges
//! the published wait at once and counts the offload into the epoch's
//! arrivals, while the per-request tier defers an [`OffloadRequest`] to
//! the barrier. At each barrier every region's worker serves the
//! epoch's offloads: the fluid tier admits the merged counts,
//! dispatches them across the region's backends by (cost-weighted)
//! water-filling and drains them as batch-amortized epoch aggregates;
//! the per-request tier replays every deferred request through the
//! region's microsim. The barrier phases are strictly ordered — **drain → scale → publish** — in both
//! fidelity modes: autoscalers adjust live slot counts *before* the next
//! epoch's [`RegionSignal`]s (per-class waits, the admission
//! controller's shed fraction, and the marginal serving cost) are
//! published, so devices always read post-scale capacity. Regions are
//! independent between the shard drain and the publish, so each region
//! replays its barrier on its own worker — in parallel when the
//! scenario's [`ReplayMode`](crate::scenario::ReplayMode) resolves so —
//! with results merged in fixed region order.

use crate::cloud::{
    CloudSimFidelity, FailoverPolicy, OffloadRequest, QueueDiscipline, RegionSignal,
};
use crate::device::{Device, ServeContext};
use crate::replay::{
    replay_in_parallel, run_barrier, CloudCharge, FluidRegionReplay, PerRequestRegionReplay,
    RegionBarrierOutput, RegionTier,
};
use crate::report::FleetReport;
use crate::scenario::{ArrivalModel, FleetPolicy, FleetScenario, WorkloadCurve};
use crate::{mix_seed, Cohort, FleetError};
use lens_device::profile_network;
use lens_nn::units::Mbps;
use lens_runtime::{DeploymentPlanner, DominanceMap};
use lens_telemetry::metrics::to_fp;
use lens_telemetry::{
    BarrierPhase, EngineProfile, FlightRecorder, MetricsRegistry, NullSink, PhaseCounters,
    PhaseProbe, RunTelemetry, SeriesId, Sink, TraceEvent, METRIC_FP_SCALE,
};
use lens_wireless::{GaussMarkov, GaussMarkovState, WirelessLink};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Latency histogram resolution: 10 ms bins up to 20 s, overflow beyond.
const LATENCY_BIN_MS: f64 = 10.0;
/// Energy histogram resolution: 5 mJ bins up to 10 J, overflow beyond.
const ENERGY_BIN_MJ: f64 = 5.0;
const NUM_BINS: usize = 2_000;

/// Runs [`FleetScenario`]s. Construction performs the design-time
/// analysis; [`run`](FleetEngine::run) is stateless and can be called
/// repeatedly (two runs of the same engine produce identical reports).
#[derive(Debug, Clone)]
pub struct FleetEngine {
    scenario: FleetScenario,
    cohorts: Vec<Cohort>,
    /// Cumulative cohort weights over `[0, 1]` for deterministic
    /// proportional assignment of device ids to cohorts.
    cumulative: Vec<f64>,
}

struct ShardState {
    /// The shard's devices in firing order under periodic arrivals (by
    /// phase offset, then id), in id order under Poisson; a device's
    /// position here is its *local* index.
    devices: Vec<Device>,
    /// Pending events keyed by (event time µs, local device index).
    queue: EventQueue,
    /// `traces[local]` is device `local`'s throughput trace in progress:
    /// its generator state, advanced one sample per epoch.
    traces: Vec<GaussMarkovState>,
    /// The current epoch's throughput samples, `row[local]` for device
    /// `local`, refilled from `traces` at the top of every epoch and read
    /// front to back in firing order.
    row: Vec<Mbps>,
    report: FleetReport,
    /// `ids[local]` is the stable, shard-count-invariant device id that
    /// requests and trace events carry.
    ids: Vec<u64>,
    /// Reusable per-epoch scratch, cleared and refilled in place by
    /// `advance_shard` so the request/event buffers stay warm.
    epoch: ShardEpochOutput,
}

/// What one shard contributes to an epoch barrier.
pub(crate) struct ShardEpochOutput {
    /// Per-region (high, low) offload arrivals the fluid tier booked —
    /// its feed at the barrier.
    pub(crate) arrivals: Vec<(u64, u64)>,
    /// Per-destination-region offloaded requests the per-request tier
    /// deferred to its barrier replay, in shard-local event order — each
    /// run is therefore already sorted by the unique
    /// `(arrival_us, device_id, stage)` key, which is what lets the
    /// region's microsim read the runs in place in key order instead of
    /// re-sorting them ([`crate::RegionMicrosim::run_epoch`]). The fluid
    /// tier books every offload at once and leaves them empty.
    pub(crate) requests: Vec<Vec<OffloadRequest>>,
    /// Device-side trace events in shard-local event order (empty when
    /// untraced); the barrier merges them by `(time_us, device_id)`.
    pub(crate) events: Vec<TraceEvent>,
    /// Shard-step work counters (zero when untraced).
    pub(crate) counters: PhaseCounters,
}

/// A shard's pending-event queue, keyed on `(time µs, local index)`.
///
/// Periodic arrivals admit the degenerate radix case: every live device
/// keeps exactly one pending event and re-arms it exactly one period `P`
/// later, so a ring sorted by the key stays sorted under pop-front /
/// push-back. When `(t₀, l₀)` pops, every event still pending was armed
/// by a pop at or before `(t₀, l₀)` (or is an initial offset `< P`), so
/// its time is at most `t₀ + P`, and ties at exactly `t₀ + P` were armed
/// in ascending local order — the re-armed `(t₀ + P, l₀)` always belongs
/// at the back. Every heap op becomes an O(1) ring op on contiguous
/// memory. Poisson re-arms by variable draws, so it keeps the heap.
enum EventQueue {
    Ring(VecDeque<(u64, u32)>),
    Heap(BinaryHeap<Reverse<(u64, u32)>>),
}

impl EventQueue {
    fn new(arrival: &ArrivalModel, seeds: Vec<(u64, u32)>) -> Self {
        match arrival {
            ArrivalModel::Periodic { .. } => {
                debug_assert!(seeds.is_sorted(), "periodic shards store firing order");
                EventQueue::Ring(VecDeque::from(seeds))
            }
            ArrivalModel::Poisson { .. } => {
                EventQueue::Heap(seeds.into_iter().map(Reverse).collect())
            }
        }
    }

    /// Pops the earliest pending event strictly before `bound`, if any.
    #[inline]
    fn pop_before(&mut self, bound: u64) -> Option<(u64, u32)> {
        match self {
            EventQueue::Ring(ring) => match ring.front() {
                Some(&key) if key.0 < bound => ring.pop_front(),
                _ => None,
            },
            EventQueue::Heap(heap) => match heap.peek() {
                Some(&Reverse(key)) if key.0 < bound => {
                    heap.pop();
                    Some(key)
                }
                _ => None,
            },
        }
    }

    /// Schedules `key`. Ring pushes must respect the sort invariant —
    /// guaranteed by the fixed re-arm period, asserted in debug builds.
    #[inline]
    fn push(&mut self, key: (u64, u32)) {
        match self {
            EventQueue::Ring(ring) => {
                debug_assert!(ring.back().is_none_or(|&back| back < key));
                ring.push_back(key);
            }
            EventQueue::Heap(heap) => heap.push(Reverse(key)),
        }
    }
}

/// The per-event re-arm step, resolved once per epoch instead of once
/// per event (the periodic ms→µs conversion is loop-invariant).
#[derive(Clone, Copy)]
enum ArrivalStep {
    /// Periodic arrivals: a fixed integer-µs step.
    Fixed(u64),
    /// Poisson arrivals: a fresh exponential draw per event (mean µs).
    Poisson(f64),
}

impl ArrivalStep {
    fn of(arrival: &ArrivalModel) -> Self {
        match *arrival {
            ArrivalModel::Periodic { period } => ArrivalStep::Fixed(to_us(period.get())),
            ArrivalModel::Poisson { mean_interarrival } => {
                ArrivalStep::Poisson(mean_interarrival.get() * 1000.0)
            }
        }
    }

    #[inline]
    fn next(self, device: &mut Device) -> u64 {
        match self {
            ArrivalStep::Fixed(period_us) => period_us,
            ArrivalStep::Poisson(mean_us) => device.draw_interarrival_us(mean_us),
        }
    }
}

impl FleetEngine {
    /// Builds the design-time artifacts for every (region, technology)
    /// cohort in the scenario mix.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Network`] if the scenario network fails to
    /// analyze, [`FleetError::Runtime`] if option enumeration or
    /// dominance-map construction fails, and
    /// [`FleetError::InvalidScenario`] if a fixed policy names a
    /// deployment kind some cohort does not have, or admission control is
    /// enabled while some cohort has no cloud-free option to shed to.
    pub fn new(scenario: FleetScenario) -> Result<Self, FleetError> {
        let analysis = scenario
            .network
            .analyze()
            .map_err(|e| FleetError::Network(e.to_string()))?;
        let perf = profile_network(&analysis, &scenario.device_profile);
        // Admission shedding, workload-curve suppression, and tail
        // retreats all land requests on the device's local-only option —
        // each needs the cloud-free fallback to exist.
        let sheds = scenario.serving.admission != crate::cloud::AdmissionPolicy::Open
            || scenario.workload().is_some()
            || scenario.tail_deadline().is_some();

        let mut cohorts = Vec::new();
        let mut weights = Vec::new();
        for (region_index, share) in scenario.regions.iter().enumerate() {
            // lens-analyzer: allow(float-accumulation): build-time fold over the scenario's declared technology order — single-threaded, never merged across shards
            let tech_total: f64 = share.technologies.iter().map(|(_, w)| w).sum();
            for (tech, tech_weight) in &share.technologies {
                let planner =
                    DeploymentPlanner::new(WirelessLink::new(*tech, share.region.uplink()));
                let options = planner.enumerate(&analysis, &perf)?;
                let map = DominanceMap::build(&options, scenario.metric)?;
                let local_index = DeploymentPlanner::local_fallback(
                    &options,
                    scenario.metric,
                    share.region.uplink(),
                )
                .ok();
                if sheds && local_index.is_none() {
                    return Err(FleetError::InvalidScenario(format!(
                        "admission control, workload curves, and tail deadlines need a local fallback, but cohort {}/{tech} has no cloud-free option",
                        share.region.name()
                    )));
                }
                let mut cohort = Cohort {
                    region_index,
                    region: share.region.clone(),
                    technology: *tech,
                    throughput: GaussMarkov::for_technology(share.region.uplink(), *tech)
                        .with_interval(scenario.trace_interval),
                    options,
                    map,
                    fixed_index: None,
                    local_index,
                };
                if let FleetPolicy::Fixed(kind) = &scenario.policy {
                    cohort.fixed_index = Some(cohort.resolve_fixed(kind)?);
                }
                cohorts.push(cohort);
                weights.push(share.weight * tech_weight / tech_total);
            }
        }
        // lens-analyzer: allow(float-accumulation): build-time normalization in fixed region/technology declaration order; the cumulative thresholds are computed once, before any shard forks
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                // lens-analyzer: allow(float-accumulation): same build-time prefix sum — sequential by construction, identical for every shard count
                acc += w / total;
                acc
            })
            .collect();
        Ok(FleetEngine {
            scenario,
            cohorts,
            cumulative,
        })
    }

    /// The scenario this engine runs.
    pub fn scenario(&self) -> &FleetScenario {
        &self.scenario
    }

    /// The (region, technology) cohorts, in region-major order.
    pub fn cohorts(&self) -> &[Cohort] {
        &self.cohorts
    }

    /// The cohort a device id belongs to — deterministic proportional
    /// assignment, independent of the shard count.
    fn cohort_of(&self, device_id: usize) -> usize {
        let position = (device_id as f64 + 0.5) / self.scenario.population as f64;
        self.cumulative
            .iter()
            .position(|&c| position <= c)
            .unwrap_or(self.cumulative.len() - 1)
    }

    /// Builds one device session, its first firing time (µs) for the
    /// shard queue, and the start of its throughput trace, which the
    /// shard step advances one sample per epoch through the cohort's
    /// generator.
    fn build_device(&self, device_id: usize) -> (Device, u64, GaussMarkovState) {
        let scenario = &self.scenario;
        let cohort_idx = self.cohort_of(device_id);
        let cohort = &self.cohorts[cohort_idx];
        let dseed = mix_seed(scenario.seed, device_id as u64);
        let high_priority = match scenario.serving.discipline {
            QueueDiscipline::Fifo => false,
            QueueDiscipline::Priority { high_fraction } => {
                (mix_seed(dseed, 0xF00D) as f64 / u64::MAX as f64) < high_fraction
            }
        };
        let trace = cohort.throughput.start(mix_seed(dseed, 1));
        let mut device = Device::new(
            cohort_idx as u32,
            high_priority,
            scenario.tracker_alpha,
            mix_seed(dseed, 2),
        );
        let first_event_us = match scenario.arrival {
            ArrivalModel::Periodic { period } => {
                self.periodic_offset_us(device_id, to_us(period.get()))
            }
            ArrivalModel::Poisson { mean_interarrival } => {
                device.draw_interarrival_us(mean_interarrival.get() * 1000.0)
            }
        };
        (device, first_event_us, trace)
    }

    /// A device's first firing time under periodic arrivals: a hash-spread
    /// phase within the first period, fixed by the device id and the
    /// scenario seed alone.
    fn periodic_offset_us(&self, device_id: usize, period_us: u64) -> u64 {
        mix_seed(mix_seed(self.scenario.seed, device_id as u64), 3) % period_us
    }

    /// The device ids `lo..hi` in shard storage order: under periodic
    /// arrivals the order they first fire, by (phase offset, id); under
    /// Poisson arrivals, whose heap follows no fixed order, id order.
    fn firing_order(&self, lo: usize, hi: usize) -> Vec<u64> {
        match self.scenario.arrival {
            ArrivalModel::Periodic { period } => {
                let period_us = to_us(period.get());
                let mut keyed: Vec<(u64, u64)> = (lo..hi)
                    .map(|id| (self.periodic_offset_us(id, period_us), id as u64))
                    .collect();
                keyed.sort_unstable();
                keyed.into_iter().map(|(_, id)| id).collect()
            }
            ArrivalModel::Poisson { .. } => (lo as u64..hi as u64).collect(),
        }
    }

    /// Runs the scenario to completion and returns the merged report,
    /// dispatching on the scenario's [`CloudSimFidelity`].
    ///
    /// This is the untraced path: it instantiates the engine with the
    /// [`NullSink`], whose `ENABLED = false` const-folds every telemetry
    /// block away, so it costs exactly what it did before the
    /// observability layer existed. `tests/fleet_sim.rs` pins that this
    /// report is bit-identical to [`run_traced`](FleetEngine::run_traced)'s.
    ///
    /// # Errors
    ///
    /// Currently infallible after [`FleetEngine::new`] succeeds; the
    /// `Result` reserves room for resource limits.
    pub fn run(&self) -> Result<FleetReport, FleetError> {
        Ok(self.run_with(&mut NullSink)?.0)
    }

    /// Runs the scenario with the flight recorder attached, returning the
    /// report together with the run's [`RunTelemetry`] (event trace,
    /// per-epoch metrics timelines, and the per-phase engine profile).
    ///
    /// Recording observes the run without perturbing it: the report is
    /// bit-identical to [`run`](FleetEngine::run)'s, and the telemetry
    /// artifacts are themselves bit-identical across shard counts.
    ///
    /// # Errors
    ///
    /// Same contract as [`run`](FleetEngine::run).
    pub fn run_traced(&self) -> Result<(FleetReport, RunTelemetry), FleetError> {
        let mut recorder = FlightRecorder::new(self.scenario.telemetry.event_capacity());
        let (report, metrics, profile) = self.run_with(&mut recorder)?;
        Ok((
            report,
            RunTelemetry {
                recorder,
                metrics,
                profile,
            },
        ))
    }

    /// Builds one replay worker per region for the scenario's
    /// [`CloudSimFidelity`] and runs them through the barrier loop.
    fn run_with<S: Sink>(
        &self,
        sink: &mut S,
    ) -> Result<(FleetReport, MetricsRegistry, EngineProfile), FleetError> {
        let scenario = &self.scenario;
        let (_, _, num_epochs) = self.clock();
        let regions = 0..scenario.regions.len();
        match scenario.fidelity {
            CloudSimFidelity::Fluid => {
                let workers = regions
                    .map(|_| FluidRegionReplay::new(&scenario.serving, num_epochs))
                    .collect();
                self.run_tier(sink, workers)
            }
            CloudSimFidelity::PerRequest => {
                // Offloaded records are deferred to completion; each
                // region's worker accumulates its own report partial and
                // sojourn histogram, merged with the shard partials at
                // the end (fixed-point sums make the merge order
                // irrelevant — even for failovers, which land a record in
                // another region's partial).
                let empty_report = FleetReport::empty(
                    LATENCY_BIN_MS,
                    ENERGY_BIN_MJ,
                    NUM_BINS,
                    &scenario.region_names(),
                );
                let workers = regions
                    .map(|_| {
                        PerRequestRegionReplay::new(
                            &scenario.serving,
                            &empty_report,
                            num_epochs,
                            scenario.pipeline_pricing(),
                        )
                    })
                    .collect();
                self.run_tier(sink, workers)
            }
        }
    }

    /// The barrier loop both fidelities share, generic over the event
    /// sink and the region tier. Each epoch the shards advance in
    /// parallel, then every region's worker serves, scales and publishes
    /// at the barrier; `T` holds the code that differs between the
    /// fidelities — the shards book their offloads through it, and its
    /// workers serve them.
    fn run_tier<S: Sink, T: RegionTier>(
        &self,
        sink: &mut S,
        mut workers: Vec<T>,
    ) -> Result<(FleetReport, MetricsRegistry, EngineProfile), FleetError> {
        let scenario = &self.scenario;
        let num_regions = scenario.regions.len();
        let region_names = scenario.region_names();
        let (horizon_us, epoch_us, num_epochs) = self.clock();

        // Build shards; each constructs its own contiguous slice of the
        // population (device state depends only on the device id and the
        // scenario seed, never on the shard).
        let mut shard_states = self.build_shards();

        let parallel = replay_in_parallel(scenario.replay(), num_regions);
        // Barrier-published per-region signals, one epoch behind.
        let mut signals = vec![RegionSignal::default(); num_regions];
        let mut wait_series = vec![Vec::with_capacity(num_epochs); num_regions];

        let mut metrics = MetricsRegistry::new(epoch_us);
        let mut profile = EngineProfile::new();
        let series = self.register_series::<S>(&mut metrics, &region_names);
        let mut curve_telemetry = self.register_curve_series::<S>(&mut metrics, &region_names);
        let p99_series: Vec<SeriesId> = if S::ENABLED && T::PER_REQUEST {
            region_names
                .iter()
                .map(|name| metrics.series(&format!("p99_ms/{name}")))
                .collect()
        } else {
            Vec::new()
        };

        for epoch in 0..num_epochs {
            let epoch_start = epoch as u64 * epoch_us;
            let epoch_end = ((epoch + 1) as u64 * epoch_us).min(horizon_us);
            for (region, s) in wait_series.iter_mut().zip(&signals) {
                region.push(s.wait_low_ms);
            }

            self.advance_epoch::<T>(&mut shard_states, &signals, epoch_end, S::ENABLED);
            merge_shard_trace::<S>(
                sink,
                &mut profile,
                &mut shard_states,
                epoch_end,
                epoch as u64,
            );

            // Barrier: each region's worker serves the shards' merged
            // offloads (integer counts or key-sorted request runs, so the
            // result is independent of the shard count), scales, then
            // publishes next epoch's signal — strictly in that order, so
            // published waits and shed fractions price the post-scale
            // capacity. Regions are independent between the shard drain
            // and the publish, so the workers replay region-major — in
            // parallel when the replay mode resolves so — and buffer
            // telemetry per (region, phase); the flush below
            // re-serializes it phase-major in fixed region order,
            // bit-identical to a sequential per-phase sweep.
            let shard_epochs: Vec<&ShardEpochOutput> =
                shard_states.iter().map(|state| &state.epoch).collect();
            let mut outputs = run_barrier(&mut workers, parallel, |region, worker| {
                worker.barrier(region, &shard_epochs, epoch_start, epoch_end, S::ENABLED)
            });
            flush_barrier_outputs::<S>(sink, &mut profile, &mut outputs, epoch_end, epoch as u64);
            for (signal, output) in signals.iter_mut().zip(&outputs) {
                *signal = output.signal;
            }
            if S::ENABLED {
                profile.bump_epochs();
                for (region, worker) in workers.iter().enumerate() {
                    metrics.push(series.depth[region], to_fp(worker.depth()));
                    metrics.push(series.shed[region], to_fp(signals[region].shed_fraction));
                    for (&id, live) in series.slots[region].iter().zip(worker.live_slots()) {
                        metrics.push(id, live as i64 * METRIC_FP_SCALE);
                    }
                    if T::PER_REQUEST {
                        // Cumulative tail so far — the closed-loop signal
                        // the flash-crowd work wants to watch epoch by
                        // epoch.
                        metrics.push(p99_series[region], to_fp(worker.p99_ms()));
                    }
                }
                sample_curve(
                    sink,
                    &mut metrics,
                    &mut curve_telemetry,
                    self.scenario.workload(),
                    epoch_start,
                    epoch_end,
                );
            }
        }

        // The per-request cloud drains its backlog past the horizon so
        // every admitted request completes and the tails account for the
        // whole fleet. The post-horizon work lands in one final
        // drain-phase record (sequential: it is one sweep, not per-epoch
        // work).
        let mut probe = PhaseProbe::new(S::ENABLED);
        for (region, worker) in workers.iter_mut().enumerate() {
            worker.flush(region, &mut probe);
        }
        if T::PER_REQUEST {
            flush_probe::<S>(
                sink,
                &mut profile,
                &mut probe,
                BarrierPhase::Drain,
                horizon_us,
                num_epochs as u64,
            );
        }

        let mut report = FleetReport::empty(LATENCY_BIN_MS, ENERGY_BIN_MJ, NUM_BINS, &region_names);
        for state in &shard_states {
            report.merge(&state.report);
        }
        let horizon_ms = horizon_us as f64 / 1000.0;
        let backend_reports = workers
            .iter()
            .zip(&region_names)
            .flat_map(|(worker, region)| worker.backend_reports(region, horizon_ms))
            .collect();
        let depth_series = workers
            .into_iter()
            .map(|worker| worker.finish(&mut report))
            .collect();
        report.set_queue_series(depth_series, wait_series);
        report.set_backend_reports(backend_reports);
        Ok((report, metrics, profile))
    }

    /// The run's event clock: `(horizon µs, epoch µs, epochs)`. The last
    /// epoch is partial when the epoch length does not divide the
    /// horizon.
    fn clock(&self) -> (u64, u64, usize) {
        let horizon_us = to_us(self.scenario.horizon.get());
        let epoch_us = to_us(self.scenario.trace_interval.get());
        (horizon_us, epoch_us, horizon_us.div_ceil(epoch_us) as usize)
    }

    /// Registers the per-region timelines sampled at every barrier, in
    /// fixed scenario order (region-major, then backend) so the registry
    /// layout — and its digest — is independent of the shard count.
    fn register_series<S: Sink>(
        &self,
        metrics: &mut MetricsRegistry,
        region_names: &[String],
    ) -> EpochSeries {
        let mut series = EpochSeries {
            depth: Vec::new(),
            shed: Vec::new(),
            slots: Vec::new(),
        };
        if !S::ENABLED {
            return series;
        }
        for name in region_names {
            series
                .depth
                .push(metrics.series(&format!("queue_depth/{name}")));
            series
                .shed
                .push(metrics.series(&format!("shed_fraction/{name}")));
        }
        for name in region_names {
            series.slots.push(
                self.scenario
                    .serving
                    .backends
                    .iter()
                    .map(|b| metrics.series(&format!("slots/{name}/{}", b.name)))
                    .collect(),
            );
        }
        series
    }

    /// Registers the per-region workload-curve multiplier timelines, or
    /// `None` when the sink is disabled or the scenario has no curve.
    fn register_curve_series<S: Sink>(
        &self,
        metrics: &mut MetricsRegistry,
        region_names: &[String],
    ) -> Option<CurveTelemetry> {
        if !S::ENABLED || self.scenario.workload().is_none() {
            return None;
        }
        Some(CurveTelemetry {
            series: region_names
                .iter()
                .map(|name| metrics.series(&format!("curve_multiplier_fp/{name}")))
                .collect(),
            last: vec![None; region_names.len()],
        })
    }

    /// Phase A: every shard advances its event queue to the barrier in
    /// parallel, filling its reusable epoch scratch in place and booking
    /// its offloads through the tier `T`. `trace` asks shards to also
    /// emit device events and work counters.
    fn advance_epoch<T: RegionTier>(
        &self,
        shard_states: &mut [ShardState],
        signals: &[RegionSignal],
        epoch_end: u64,
        trace: bool,
    ) {
        let scenario = &self.scenario;
        let horizon_us = to_us(scenario.horizon.get());
        let step = ArrivalStep::of(&scenario.arrival);
        // Loop-invariant serve context and cloud charge, built once per
        // epoch instead of once per event.
        let ctx = ServeContext {
            policy: &scenario.policy,
            metric: scenario.metric,
            failover: scenario.serving.failover,
            dispatch: scenario.serving.dispatch,
            curve: scenario.workload(),
            tail_deadline_ms: scenario.tail_deadline().map(|d| d.get()),
        };
        let charge = CloudCharge {
            signals,
            penalty_ms: match scenario.serving.failover {
                FailoverPolicy::SiblingRegion { penalty_ms } => penalty_ms,
                FailoverPolicy::ToDevice => 0.0,
            },
        };
        let advance = |state: &mut ShardState| {
            advance_shard::<T>(
                state,
                &self.cohorts,
                ctx,
                &charge,
                epoch_end,
                horizon_us,
                step,
                trace,
            );
        };
        if let [state] = shard_states {
            // Single shard: skip the per-epoch spawn/join round trip.
            advance(state);
            return;
        }
        std::thread::scope(|scope| {
            for state in shard_states.iter_mut() {
                scope.spawn(move || advance(state));
            }
        });
    }

    fn build_shards(&self) -> Vec<ShardState> {
        let scenario = &self.scenario;
        let region_names = scenario.region_names();
        let num_regions = scenario.regions.len();
        let population = scenario.population;
        let shards = scenario.shards;
        let base = population / shards;
        let remainder = population % shards;
        let mut bounds = Vec::with_capacity(shards);
        let mut start = 0usize;
        for shard in 0..shards {
            let len = base + usize::from(shard < remainder);
            bounds.push((start, start + len));
            start += len;
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = bounds
                .into_iter()
                .map(|(lo, hi)| {
                    let region_names = &region_names;
                    scope.spawn(move || {
                        let ids = self.firing_order(lo, hi);
                        let n = ids.len();
                        let mut devices = Vec::with_capacity(n);
                        let mut seeds = Vec::with_capacity(n);
                        let mut traces = Vec::with_capacity(n);
                        for (local, &id) in ids.iter().enumerate() {
                            let (device, first_event_us, trace) = self.build_device(id as usize);
                            seeds.push((first_event_us, local as u32));
                            devices.push(device);
                            traces.push(trace);
                        }
                        ShardState {
                            devices,
                            queue: EventQueue::new(&scenario.arrival, seeds),
                            traces,
                            row: Vec::with_capacity(n),
                            report: FleetReport::empty(
                                LATENCY_BIN_MS,
                                ENERGY_BIN_MJ,
                                NUM_BINS,
                                region_names,
                            ),
                            ids,
                            epoch: ShardEpochOutput {
                                arrivals: vec![(0, 0); num_regions],
                                requests: vec![Vec::new(); num_regions],
                                events: Vec::new(),
                                counters: PhaseCounters::default(),
                            },
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard builder panicked"))
                .collect()
        })
    }
}

/// Converts scenario milliseconds to integer event-clock microseconds.
///
/// Scenario validation rejects non-finite or negative durations at build
/// time, so a bad value reaching this cast is an engine bug — fail loudly
/// instead of letting `as u64` silently saturate a NaN or a negative
/// duration to 0 µs (which would quietly collapse the event clock).
fn to_us(ms: f64) -> u64 {
    assert!(
        ms.is_finite() && ms >= 0.0,
        "duration must be a finite, non-negative ms value, got {ms}"
    );
    (ms * 1000.0).round() as u64
}

/// The barrier-sampled timeline handles, region-major.
struct EpochSeries {
    depth: Vec<SeriesId>,
    shed: Vec<SeriesId>,
    slots: Vec<Vec<SeriesId>>,
}

/// Barrier-sampled workload-curve telemetry: one multiplier timeline per
/// region, plus a [`TraceEvent::CurvePhase`] whenever a region's plateau
/// moves (the first barrier always records the opening plateau).
struct CurveTelemetry {
    series: Vec<SeriesId>,
    last: Vec<Option<i64>>,
}

/// Samples the curve at the epoch that just ran (its start instant — the
/// plateau the epoch's devices drew against, up to a phase boundary inside
/// the epoch) and emits a phase-change event per region whose plateau
/// moved. Multipliers are already micro-unit fixed point, so they land in
/// the metrics timeline unconverted.
fn sample_curve<S: Sink>(
    sink: &mut S,
    metrics: &mut MetricsRegistry,
    telemetry: &mut Option<CurveTelemetry>,
    curve: Option<&WorkloadCurve>,
    epoch_start: u64,
    epoch_end: u64,
) {
    let (Some(t), Some(curve)) = (telemetry.as_mut(), curve) else {
        return;
    };
    for (region, (&id, last)) in t.series.iter().zip(t.last.iter_mut()).enumerate() {
        let multiplier_fp = curve.multiplier_fp(epoch_start, region);
        metrics.push(id, multiplier_fp);
        if *last != Some(multiplier_fp) {
            *last = Some(multiplier_fp);
            sink.record(TraceEvent::CurvePhase {
                time_us: epoch_end,
                region: region as u64,
                multiplier_fp: multiplier_fp as u64,
            });
        }
    }
}

/// Merges the shards' device events into the sink in shard-count-
/// invariant order and folds their work counters into the shard-step
/// phase. A no-op (and fully const-folded) when the sink is disabled.
///
/// The merge sort is **stable** on `(time_us, device_id)`: equal keys
/// only ever come from the same device (failover + dispatch at one
/// instant), and a stable sort preserves that device's emission order
/// regardless of which shard the device landed in.
fn merge_shard_trace<S: Sink>(
    sink: &mut S,
    profile: &mut EngineProfile,
    states: &mut [ShardState],
    epoch_end: u64,
    epoch: u64,
) {
    if !S::ENABLED {
        return;
    }
    let mut counters = PhaseCounters::default();
    let mut events: Vec<TraceEvent> = Vec::new();
    for state in states.iter_mut() {
        counters.add(&state.epoch.counters);
        events.append(&mut state.epoch.events);
    }
    events.sort_by_key(|e| e.merge_key());
    for event in events {
        sink.record(event);
    }
    profile.record(BarrierPhase::ShardStep, &counters);
    sink.record(TraceEvent::Phase {
        time_us: epoch_end,
        epoch,
        phase: BarrierPhase::ShardStep,
    });
}

/// Drains the probe into the sink and profile at a phase boundary:
/// buffered barrier events first, then the phase-transition marker.
/// A no-op (and fully const-folded) when the sink is disabled.
fn flush_probe<S: Sink>(
    sink: &mut S,
    profile: &mut EngineProfile,
    probe: &mut PhaseProbe,
    phase: BarrierPhase,
    time_us: u64,
    epoch: u64,
) {
    if !S::ENABLED {
        return;
    }
    let (events, counters) = probe.take();
    for event in events {
        sink.record(event);
    }
    profile.record(phase, &counters);
    sink.record(TraceEvent::Phase {
        time_us,
        epoch,
        phase,
    });
}

/// Flushes the barrier workers' buffered telemetry phase-major — every
/// region's drain output, then every region's scale output, then the
/// publish marker — in fixed region order. That re-serialization makes
/// the event stream and phase counters byte-identical to the sequential
/// per-phase sweeps the engine used to run, independent of shard count
/// and replay mode. A no-op (fully const-folded) when the sink is
/// disabled.
fn flush_barrier_outputs<S: Sink>(
    sink: &mut S,
    profile: &mut EngineProfile,
    outputs: &mut [RegionBarrierOutput],
    epoch_end: u64,
    epoch: u64,
) {
    if !S::ENABLED {
        return;
    }
    for phase in [BarrierPhase::Drain, BarrierPhase::Scale] {
        let mut counters = PhaseCounters::default();
        for output in outputs.iter_mut() {
            let buffered = match phase {
                BarrierPhase::Drain => &mut output.drain,
                _ => &mut output.scale,
            };
            counters.add(&buffered.1);
            for event in buffered.0.drain(..) {
                sink.record(event);
            }
        }
        profile.record(phase, &counters);
        sink.record(TraceEvent::Phase {
            time_us: epoch_end,
            epoch,
            phase,
        });
    }
    // Publishing emits no probe work — it copies signals — but the
    // profile and trace still record the phase boundary.
    profile.record(BarrierPhase::Publish, &PhaseCounters::default());
    sink.record(TraceEvent::Phase {
        time_us: epoch_end,
        epoch,
        phase: BarrierPhase::Publish,
    });
}

/// Advances one shard's event queue to `epoch_end`. It first draws the
/// epoch's throughput sample of every device into the shard's row, then
/// serves the epoch's events against it. Local serves are recorded in the
/// shard's report; every offload goes to the tier `T` as one
/// [`OffloadRequest`] bound for its *destination* region (a failed over
/// request serves in the sibling), and `T` books it into the shard's
/// epoch scratch.
#[allow(clippy::too_many_arguments)]
fn advance_shard<T: RegionTier>(
    state: &mut ShardState,
    cohorts: &[Cohort],
    ctx: ServeContext<'_>,
    charge: &CloudCharge<'_>,
    epoch_end: u64,
    horizon_us: u64,
    step: ArrivalStep,
    trace: bool,
) {
    let ShardState {
        devices,
        queue,
        traces,
        row,
        report,
        ids,
        epoch: output,
    } = state;
    debug_assert_eq!(output.arrivals.len(), charge.signals.len());
    output.arrivals.fill((0, 0));
    for requests in &mut output.requests {
        requests.clear();
    }
    output.events.clear();
    output.counters = PhaseCounters::default();
    // Every event in this epoch reads the same trace sample per device:
    // the sample index is `time_us / interval_us`, the interval *is* the
    // epoch length, and the queue never holds an event before the
    // current epoch. So each trace advances exactly once per epoch,
    // whether or not its device fires, and the draws stay in the order
    // a whole pre-generated trace would take them.
    row.clear();
    row.extend(
        traces
            .iter_mut()
            .zip(devices.iter())
            .map(|(progress, device)| {
                cohorts[device.cohort_index()]
                    .throughput
                    .next_sample(progress)
            }),
    );
    while let Some((time, local)) = queue.pop_before(epoch_end) {
        if trace {
            output.counters.events_popped += 1;
            output.counters.heap_ops += 1;
        }
        let device = &mut devices[local as usize];
        let device_id = ids[local as usize];
        let cohort = &cohorts[device.cohort_index()];
        let served =
            device.serve_with_sample(cohort, ctx, charge.signals, time, row[local as usize]);
        if trace {
            crate::device::trace_serve_events(
                &served,
                device_id,
                cohort.region_index as u64,
                device.high_priority(),
                time,
                &mut output.events,
            );
        }
        if served.offloaded {
            let dest = served
                .failover_region
                .map_or(cohort.region_index, |r| r as usize);
            let request = OffloadRequest {
                arrival_us: time,
                device_id,
                stage: 1,
                high_priority: device.high_priority(),
                origin_region: cohort.region_index as u32,
                failed_over: served.failover_region.is_some(),
                base_latency_ms: served.latency_ms,
                energy_mj: served.energy_mj,
                switched: served.switched,
            };
            T::book(output, report, dest, request, charge);
        } else {
            report.record(cohort.region_index, &served);
        }
        let next = time + step.next(device);
        if next < horizon_us {
            queue.push((next, local));
            if trace {
                output.counters.heap_ops += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::{AdmissionPolicy, BackendConfig, CloudServing, FailoverPolicy};
    use crate::scenario::RegionShare;
    use lens_nn::units::{Mbps, Millis};
    use lens_runtime::{DeploymentKind, Metric};
    use lens_wireless::{Region, ThroughputTrace, WirelessTechnology};

    fn small_scenario(shards: usize) -> FleetScenario {
        FleetScenario::builder()
            .population(300)
            .horizon(Millis::new(600_000.0))
            .trace_interval(Millis::new(60_000.0))
            .serving(CloudServing::single(4, 10.0))
            .shards(shards)
            .seed(42)
            .build()
            .unwrap()
    }

    #[test]
    fn same_seed_same_shards_identical_reports() {
        let engine = FleetEngine::new(small_scenario(3)).unwrap();
        let a = engine.run().unwrap();
        let b = engine.run().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn different_seeds_differ() {
        let mut s1 = small_scenario(2);
        s1.seed = 1;
        let mut s2 = small_scenario(2);
        s2.seed = 2;
        let a = FleetEngine::new(s1).unwrap().run().unwrap();
        let b = FleetEngine::new(s2).unwrap().run().unwrap();
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn reports_survive_resharding_bit_for_bit() {
        // The hard contract fixes the shard count, but fixed-point sums
        // and integer counts make the whole report shard-count invariant —
        // verify that stronger property end to end.
        let a = FleetEngine::new(small_scenario(1)).unwrap().run().unwrap();
        let b = FleetEngine::new(small_scenario(4)).unwrap().run().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn every_device_serves_every_period() {
        let engine = FleetEngine::new(small_scenario(2)).unwrap();
        let report = engine.run().unwrap();
        // 300 devices × 10 one-minute periods in a 10-minute horizon.
        assert_eq!(report.inferences(), 3000);
        assert_eq!(
            report.regions().iter().map(|r| r.inferences).sum::<u64>(),
            3000
        );
        assert_eq!(report.queue_depth().len(), 3);
        assert_eq!(report.queue_depth()[0].len(), 10);
        assert_eq!(report.queue_wait_ms()[0].len(), 10);
        // One default backend per region, with utilization accounted.
        assert_eq!(report.backends().len(), 3);
        assert!(report.backends().iter().all(|b| b.backend == "default"));
    }

    #[test]
    fn cohort_assignment_is_proportional() {
        let engine = FleetEngine::new(small_scenario(1)).unwrap();
        let mut counts = vec![0usize; engine.cohorts().len()];
        for id in 0..300 {
            counts[engine.cohort_of(id)] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 300);
        // Largest region (USA, weight 0.5) × largest tech (LTE 0.6) ≈ 90.
        let usa_lte = engine
            .cohorts()
            .iter()
            .position(|c| c.region.name() == "USA" && c.technology == WirelessTechnology::Lte)
            .unwrap();
        assert!((80..=100).contains(&counts[usa_lte]), "{}", counts[usa_lte]);
    }

    #[test]
    fn fixed_all_cloud_congests_small_cloud() {
        let mut scenario = small_scenario(2);
        scenario.policy = FleetPolicy::Fixed(DeploymentKind::AllCloud);
        let report = FleetEngine::new(scenario).unwrap().run().unwrap();
        assert_eq!(report.offloaded(), report.inferences());
        // 300 devices per minute against 4 slots × 10 ms builds a backlog…
        let max_depth = report
            .queue_depth()
            .iter()
            .flat_map(|r| r.iter())
            .fold(0.0f64, |a, &b| a.max(b));
        assert!(max_depth > 0.0, "expected queue buildup, got none");
        // …and queue waits show up in the latency tail but never in energy.
        assert_eq!(report.switches(), 0);
    }

    #[test]
    fn fixed_all_edge_never_touches_cloud() {
        let mut scenario = small_scenario(2);
        scenario.policy = FleetPolicy::Fixed(DeploymentKind::AllEdge);
        let report = FleetEngine::new(scenario).unwrap().run().unwrap();
        assert_eq!(report.offloaded(), 0);
        for region in report.queue_depth() {
            assert!(region.iter().all(|&d| d == 0.0));
        }
        assert!(report.backends().iter().all(|b| b.served_jobs == 0.0));
    }

    #[test]
    fn dynamic_energy_beats_every_fixed_policy() {
        let kinds: Vec<DeploymentKind> = {
            let engine = FleetEngine::new(small_scenario(1)).unwrap();
            engine.cohorts()[0]
                .options
                .iter()
                .map(|o| o.kind().clone())
                .collect()
        };
        let dynamic = {
            let mut s = small_scenario(2);
            s.policy = FleetPolicy::Dynamic;
            s.metric = Metric::Energy;
            FleetEngine::new(s).unwrap().run().unwrap()
        };
        for kind in kinds {
            let mut s = small_scenario(2);
            s.metric = Metric::Energy;
            s.policy = FleetPolicy::Fixed(kind.clone());
            let fixed = FleetEngine::new(s).unwrap().run().unwrap();
            assert!(
                dynamic.total_energy_mj() <= fixed.total_energy_mj() + 1e-6,
                "dynamic lost to fixed {kind} on energy"
            );
        }
    }

    #[test]
    fn priority_class_lowers_fleet_latency_under_congestion() {
        // 400 all-cloud devices per epoch against 2 slots × 1 s service
        // (drain budget 120/epoch) saturate the queue hard.
        let congested = |discipline_priority: bool| {
            let cloud = if discipline_priority {
                CloudServing::single(2, 1000.0).with_priority(0.2)
            } else {
                CloudServing::single(2, 1000.0)
            };
            let scenario = FleetScenario::builder()
                .population(400)
                .horizon(Millis::new(600_000.0))
                .regions(vec![RegionShare::new(
                    Region::new("USA", Mbps::new(7.5)),
                    1.0,
                )])
                .serving(cloud)
                .policy(FleetPolicy::Fixed(DeploymentKind::AllCloud))
                .metric(Metric::Latency)
                .shards(2)
                .seed(9)
                .build()
                .unwrap();
            FleetEngine::new(scenario).unwrap().run().unwrap()
        };
        let fifo = congested(false);
        let priority = congested(true);
        let max_wait = fifo.queue_wait_ms()[0]
            .iter()
            .fold(0.0f64, |a, &b| a.max(b));
        assert!(
            max_wait > 1000.0,
            "expected congestion, max wait {max_wait}"
        );
        // The 20% high-priority class skips the low backlog, so the fleet's
        // mean latency must drop relative to pure FIFO.
        assert!(
            priority.latency().mean() < fifo.latency().mean(),
            "priority {} !< fifo {}",
            priority.latency().mean(),
            fifo.latency().mean()
        );
    }

    #[test]
    fn batching_drains_congestion_a_single_queue_cannot() {
        // 400 all-cloud devices per minute against 2 slots × 1 s base
        // service: unbatched drain is 120/epoch (hopeless); a 32-deep
        // batcher amortizes the base cost to ~1.03 s per 32 jobs.
        let run = |serving: CloudServing| {
            let scenario = FleetScenario::builder()
                .population(400)
                .horizon(Millis::new(600_000.0))
                .regions(vec![RegionShare::new(
                    Region::new("USA", Mbps::new(7.5)),
                    1.0,
                )])
                .serving(serving)
                .policy(FleetPolicy::Fixed(DeploymentKind::AllCloud))
                .metric(Metric::Latency)
                .shards(2)
                .seed(9)
                .build()
                .unwrap();
            FleetEngine::new(scenario).unwrap().run().unwrap()
        };
        let unbatched = run(CloudServing::new(vec![BackendConfig::new(
            "gpu", 2, 1000.0, 1.0,
        )]));
        let batched = run(CloudServing::new(vec![BackendConfig::new(
            "gpu", 2, 1000.0, 1.0,
        )
        .with_batching(32, 250.0)]));
        assert!(
            batched.latency().mean() < unbatched.latency().mean() / 2.0,
            "batched {} !<< unbatched {}",
            batched.latency().mean(),
            unbatched.latency().mean()
        );
        let b = &batched.backends()[0];
        assert!(
            b.mean_batch() > 4.0,
            "expected real batches, got {}",
            b.mean_batch()
        );
        assert!(b.batch_sizes.count() > 0);
        assert!(b.utilization > 0.0 && b.utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn deadline_admission_sheds_to_local_and_bounds_latency() {
        let run = |admission: AdmissionPolicy| {
            let serving = CloudServing::new(vec![BackendConfig::new("gpu", 2, 1000.0, 1.0)])
                .with_admission(admission);
            let scenario = FleetScenario::builder()
                .population(400)
                .horizon(Millis::new(600_000.0))
                .regions(vec![RegionShare::new(
                    Region::new("USA", Mbps::new(7.5)),
                    1.0,
                )])
                .serving(serving)
                .policy(FleetPolicy::Fixed(DeploymentKind::AllCloud))
                .metric(Metric::Latency)
                .shards(2)
                .seed(9)
                .build()
                .unwrap();
            FleetEngine::new(scenario).unwrap().run().unwrap()
        };
        let open = run(AdmissionPolicy::Open);
        let shedding = run(AdmissionPolicy::Deadline {
            max_wait_ms: 5_000.0,
        });
        assert_eq!(open.shed_to_local(), 0);
        assert!(shedding.shed_to_local() > 0, "deadline must shed");
        assert_eq!(
            shedding.regions()[0].shed_to_local,
            shedding.shed_to_local(),
            "single-region scenario sheds in region 0"
        );
        assert!(
            shedding.latency().mean() < open.latency().mean(),
            "shedding to local should bound mean latency: {} !< {}",
            shedding.latency().mean(),
            open.latency().mean()
        );
        // Shed inferences do not occupy cloud capacity.
        assert!(shedding.offloaded() < open.offloaded());
    }

    #[test]
    fn sibling_failover_spills_into_the_least_loaded_region() {
        // Two regions, only the USA floods (its devices are all-cloud); a
        // deadline controller with sibling failover must push overflow
        // into the second region's queue.
        let serving = CloudServing::new(vec![BackendConfig::new("gpu", 2, 1000.0, 1.0)])
            .with_admission(AdmissionPolicy::Deadline {
                max_wait_ms: 5_000.0,
            })
            .with_failover(FailoverPolicy::SiblingRegion { penalty_ms: 60.0 });
        let scenario = FleetScenario::builder()
            .population(400)
            .horizon(Millis::new(600_000.0))
            .regions(vec![
                RegionShare::new(Region::new("USA", Mbps::new(7.5)), 0.9),
                RegionShare::new(Region::new("S. Korea", Mbps::new(16.1)), 0.1),
            ])
            .serving(serving)
            .policy(FleetPolicy::Fixed(DeploymentKind::AllCloud))
            .metric(Metric::Latency)
            .shards(2)
            .seed(9)
            .build()
            .unwrap();
        let report = FleetEngine::new(scenario).unwrap().run().unwrap();
        assert!(report.failed_over() > 0, "expected failover traffic");
        let usa = &report.regions()[0];
        let korea = &report.regions()[1];
        assert!(usa.failed_over > 0);
        assert_eq!(korea.failover_in, usa.failed_over);
        assert_eq!(usa.failover_in, korea.failed_over);
        // Failed-over inferences still count as offloaded.
        assert_eq!(
            report.offloaded() + report.shed_to_local(),
            report.inferences()
        );
    }

    fn per_request(mut scenario: FleetScenario) -> FleetScenario {
        scenario.fidelity = CloudSimFidelity::PerRequest;
        scenario
    }

    #[test]
    fn per_request_same_seed_same_shards_identical_reports() {
        let engine = FleetEngine::new(per_request(small_scenario(3))).unwrap();
        let a = engine.run().unwrap();
        let b = engine.run().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn per_request_reports_survive_resharding_bit_for_bit() {
        let a = FleetEngine::new(per_request(small_scenario(1)))
            .unwrap()
            .run()
            .unwrap();
        let b = FleetEngine::new(per_request(small_scenario(4)))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn per_request_accounts_every_inference_and_exposes_tails() {
        let scenario = per_request(small_scenario(2));
        let report = FleetEngine::new(scenario).unwrap().run().unwrap();
        // The cloud drains past the horizon, so nothing goes missing.
        assert_eq!(report.inferences(), 3000);
        assert_eq!(
            report.regions().iter().map(|r| r.inferences).sum::<u64>(),
            3000
        );
        // Per-request sojourns exist exactly where offloads landed…
        let total_sojourns: u64 = report.cloud_sojourn().iter().map(|h| h.count()).sum();
        assert_eq!(total_sojourns, report.offloaded());
        assert!(report.offloaded() > 0, "default mix should offload");
        // …and every tail summary is monotone.
        for region in 0..report.regions().len() {
            assert!(report.region_tail(region).is_monotone());
        }
        for backend in report.backends() {
            assert_eq!(backend.sojourn_ms.count(), backend.served_jobs as u64);
            assert!(backend.tail().is_monotone());
        }
    }

    #[test]
    fn fluid_and_per_request_agree_on_decisions_but_not_tails() {
        // Open admission + a policy that ignores waits (dynamic on
        // energy): both fidelities make identical device decisions, so
        // energy and offload counts match exactly; only the latency
        // accounting differs.
        let fluid = FleetEngine::new(small_scenario(2)).unwrap().run().unwrap();
        let discrete = FleetEngine::new(per_request(small_scenario(2)))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(fluid.inferences(), discrete.inferences());
        assert_eq!(fluid.offloaded(), discrete.offloaded());
        assert_eq!(fluid.switches(), discrete.switches());
        assert_eq!(fluid.total_energy_mj(), discrete.total_energy_mj());
        // Fluid mode has no per-request story at all.
        assert!(fluid.cloud_sojourn().iter().all(|h| h.count() == 0));
        assert!(discrete.cloud_sojourn().iter().any(|h| h.count() > 0));
    }

    #[test]
    fn per_request_contention_builds_a_real_tail() {
        // USA hosts ~150 all-cloud devices/min against one 300 ms slot —
        // about 75% utilized. The discrete queue must spread sojourns
        // well beyond the median: bursts queue behind each other, which
        // is exactly the structure the fluid model averages away.
        let mut scenario = small_scenario(2);
        scenario.policy = FleetPolicy::Fixed(DeploymentKind::AllCloud);
        scenario.serving = CloudServing::new(vec![BackendConfig::new("gpu", 1, 300.0, 0.0)]);
        scenario.fidelity = CloudSimFidelity::PerRequest;
        let report = FleetEngine::new(scenario).unwrap().run().unwrap();
        let tail = report.region_tail(1); // USA, the most loaded region
        assert!(tail.is_monotone());
        assert!(
            tail.p99 > 2.0 * tail.p50.max(1.0),
            "contention should stretch the tail: {tail:?}"
        );
    }

    #[test]
    fn autoscaled_run_reports_timelines_costs_and_reproduces() {
        // An all-cloud flood against a priced, autoscaled pool: slots must
        // climb, the report must carry the per-epoch slot timeline,
        // scaling-event counts, and fixed-point cost/energy totals, and
        // two runs must agree bit-for-bit — in both fidelity modes.
        use crate::cloud::{Autoscaler, ScalingSignal};
        for fidelity in [CloudSimFidelity::Fluid, CloudSimFidelity::PerRequest] {
            let serving = CloudServing::new(vec![BackendConfig::new("gpu", 1, 400.0, 1.0)
                .with_price(2.5)
                .with_energy(0.5)
                .with_autoscaler(
                    Autoscaler::new(ScalingSignal::Utilization, 0.7, 0.2, 1, 16)
                        .with_step(2)
                        .with_cooldown(0),
                )]);
            let mut scenario = small_scenario(2);
            scenario.policy = FleetPolicy::Fixed(DeploymentKind::AllCloud);
            scenario.serving = serving;
            scenario.fidelity = fidelity;
            let engine = FleetEngine::new(scenario).unwrap();
            let report = engine.run().unwrap();
            assert_eq!(report, engine.run().unwrap(), "{fidelity:?}");
            assert!(report.scaling_events() > 0, "{fidelity:?} never scaled");
            assert!(report.provision_cost() > 0.0);
            assert!(report.cloud_energy_mj() > 0.0);
            assert!(report.price_energy() > 0.0);
            assert!(
                report
                    .backends()
                    .iter()
                    .any(|b| b.slot_timeline.iter().max() > Some(&1)),
                "{fidelity:?}: the loaded region should scale beyond 1 slot"
            );
            for b in report.backends() {
                // One timeline entry per epoch (10 one-minute epochs).
                assert_eq!(b.slot_timeline.len(), 10, "{fidelity:?}");
                assert!(*b.slot_timeline.iter().max().unwrap() <= 16);
                assert_eq!(b.final_slots(), *b.slot_timeline.last().unwrap() as usize);
                // Cost is exactly Σ slots · price in micro-units.
                let slot_epochs: u64 = b.slot_timeline.iter().map(|&s| s as u64).sum();
                assert!((b.provision_cost() - slot_epochs as f64 * 2.5).abs() < 1e-9);
                assert!((b.cloud_energy_mj() - b.served_jobs * 0.5).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn poisson_arrivals_roughly_match_rate() {
        let scenario = FleetScenario::builder()
            .population(500)
            .horizon(Millis::new(600_000.0))
            .arrival(ArrivalModel::Poisson {
                mean_interarrival: Millis::new(60_000.0),
            })
            .shards(2)
            .seed(3)
            .build()
            .unwrap();
        let report = FleetEngine::new(scenario).unwrap().run().unwrap();
        // Expectation: 500 devices × 10 epochs = 5000 events; Poisson noise
        // over 5000 draws stays well within ±10%.
        let n = report.inferences() as f64;
        assert!((4500.0..=5500.0).contains(&n), "unexpected event count {n}");
    }

    #[test]
    fn to_us_rounds_to_integer_microseconds() {
        assert_eq!(to_us(60_000.0), 60_000_000);
        assert_eq!(to_us(0.0015), 2);
        assert_eq!(to_us(0.0), 0);
    }

    #[test]
    #[should_panic(expected = "finite, non-negative")]
    fn to_us_rejects_nan() {
        to_us(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite, non-negative")]
    fn to_us_rejects_negative_durations() {
        to_us(-60_000.0);
    }

    #[test]
    fn periodic_shard_pops_in_firing_order_and_id_ordered_heap_order() {
        // 300 devices per shard over 1000 µs of phase: offsets collide
        // (~45 shared pairs expected), so same-µs ties are exercised.
        let period_us = 1_000u64;
        let horizon_us = 6 * period_us;
        let scenario = FleetScenario::builder()
            .population(600)
            .horizon(Millis::new(6.0))
            .trace_interval(Millis::new(6.0))
            .arrival(ArrivalModel::Periodic {
                period: Millis::new(1.0),
            })
            .shards(2)
            .seed(11)
            .build()
            .unwrap();
        let engine = FleetEngine::new(scenario).unwrap();
        // The second shard, so local indices and device ids differ.
        let mut shard = engine.build_shards().pop().unwrap();
        let n = shard.devices.len();
        let mut by_id = shard.ids.clone();
        by_id.sort_unstable();
        assert_eq!(by_id, (300..600).collect::<Vec<u64>>());

        // The reference: a heap keyed on (time, device id), as if the
        // devices were stored in id order.
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = by_id
            .iter()
            .map(|&id| Reverse((engine.periodic_offset_us(id as usize, period_us), id)))
            .collect();
        let mut popped_locals = Vec::new();
        let mut ties = 0;
        let mut last_time = None;
        while let Some((time, local)) = shard.queue.pop_before(horizon_us) {
            let Reverse((heap_time, heap_id)) = heap.pop().unwrap();
            assert_eq!((time, shard.ids[local as usize]), (heap_time, heap_id));
            ties += usize::from(last_time == Some(time));
            last_time = Some(time);
            popped_locals.push(local);
            if time + period_us < horizon_us {
                shard.queue.push((time + period_us, local));
                heap.push(Reverse((heap_time + period_us, heap_id)));
            }
        }
        assert!(heap.is_empty());
        assert!(ties > 0, "no two devices shared an offset");
        assert_eq!(popped_locals.len(), 6 * n);
        // Every period walks the storage front to back.
        for period in popped_locals.chunks(n) {
            assert!(period.iter().copied().eq(0..n as u32));
        }
    }

    #[test]
    fn streamed_rows_match_each_devices_synthesized_trace() {
        // 10.5 one-minute epochs over two shards: the last epoch is
        // partial, and under either arrival model each device's row must
        // walk the first 11 samples of the trace `synthesize` gives for
        // its seed, whether or not the device fired in the epoch.
        for arrival in [
            ArrivalModel::Periodic {
                period: Millis::new(60_000.0),
            },
            ArrivalModel::Poisson {
                mean_interarrival: Millis::new(90_000.0),
            },
        ] {
            let scenario = FleetScenario::builder()
                .population(301)
                .horizon(Millis::new(630_000.0))
                .trace_interval(Millis::new(60_000.0))
                .arrival(arrival)
                .serving(CloudServing::single(4, 10.0))
                .shards(2)
                .seed(42)
                .build()
                .unwrap();
            let engine = FleetEngine::new(scenario).unwrap();
            let (horizon_us, epoch_us, num_epochs) = engine.clock();
            assert_eq!((num_epochs, horizon_us % epoch_us), (11, epoch_us / 2));
            let scenario = engine.scenario();
            let expected: Vec<Vec<Mbps>> = (0..scenario.population)
                .map(|id| {
                    let cohort = &engine.cohorts()[engine.cohort_of(id)];
                    let seed = mix_seed(mix_seed(scenario.seed, id as u64), 1);
                    ThroughputTrace::synthesize(
                        &cohort.region,
                        cohort.technology,
                        num_epochs,
                        scenario.trace_interval,
                        seed,
                    )
                    .samples()
                    .to_vec()
                })
                .collect();
            let signals = vec![RegionSignal::default(); scenario.regions.len()];
            let mut shards = engine.build_shards();
            assert_eq!(shards.len(), 2);
            let epoch_ends = (1..=num_epochs as u64).map(|e| (e * epoch_us).min(horizon_us));
            for (epoch, epoch_end) in epoch_ends.enumerate() {
                engine.advance_epoch::<FluidRegionReplay>(&mut shards, &signals, epoch_end, false);
                for shard in &shards {
                    assert_eq!(shard.row.len(), shard.ids.len());
                    for (sample, &id) in shard.row.iter().zip(&shard.ids) {
                        assert_eq!(
                            sample.get().to_bits(),
                            expected[id as usize][epoch].get().to_bits(),
                            "{arrival:?}: device {id}, epoch {epoch}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn replay_modes_are_bit_identical_in_both_fidelities() {
        use crate::scenario::ReplayMode;
        for fidelity in [CloudSimFidelity::Fluid, CloudSimFidelity::PerRequest] {
            let mut sequential = small_scenario(2);
            sequential.fidelity = fidelity;
            sequential.replay = ReplayMode::Sequential;
            let mut forced = small_scenario(2);
            forced.fidelity = fidelity;
            forced.replay = ReplayMode::Parallel;
            let a = FleetEngine::new(sequential).unwrap().run().unwrap();
            let b = FleetEngine::new(forced).unwrap().run().unwrap();
            assert_eq!(a, b, "{fidelity:?}");
            assert_eq!(a.digest(), b.digest());
        }
    }
}
