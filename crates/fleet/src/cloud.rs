//! The shared cloud tier: a per-region *serving tier* of heterogeneous
//! batched backends behind an admission controller.
//!
//! The paper idealizes the cloud as infinitely fast (`L_cloud = 0`); at
//! fleet scale that assumption breaks first. PR 2 modeled each region as a
//! single fluid FIFO/priority queue; this module grows that into a serving
//! tier:
//!
//! * [`BackendConfig`] — one pool of identical executors (e.g. a GPU pool
//!   vs. a CPU pool) with an affine batch cost
//!   `T(b) = base_service_ms + per_item_ms · b`, so the per-item cost
//!   `T(b)/b` falls as batches grow — exactly the amortization LCP
//!   (Hadidi et al. 2020) exploits for communication.
//! * [`BatchPolicy`] — a dynamic batcher per backend: batches close at
//!   `max_batch` items or when `linger_ms` expires, whichever comes first.
//! * [`AdmissionPolicy`] — queue-depth or deadline-based shedding. The
//!   controller publishes a *shed fraction* at each epoch barrier; devices
//!   apply it (deterministically, from their own seeded streams) to the
//!   offloads of the **next** epoch, preserving the one-epoch contention
//!   lag that keeps epochs embarrassingly parallel.
//! * [`FailoverPolicy`] — what a shed request does: fail over to the
//!   least-loaded (or, under cost-aware dispatch, the cheapest viable)
//!   sibling region (paying an inter-region penalty), or fall back to
//!   on-device execution, charged at the device's local-only deployment
//!   option.
//! * [`Autoscaler`] — per-backend workload autoscaling: an EWMA-damped
//!   demand signal (utilization or queue depth per slot) is thresholded at
//!   each epoch barrier and the live slot count steps up or down within
//!   `[min_slots, max_slots]`, with a cooldown suppressing flapping.
//!   Provisioned slot-epochs are priced
//!   ([`BackendConfig::price_per_slot_epoch`]) into the report's
//!   fixed-point cost totals.
//! * [`DispatchPolicy`] — how arrivals spread across a region's backends:
//!   classic least-work-left water-filling, or **cost-aware**
//!   water-filling that weighs each backend's work-left by
//!   price × energy ([`BackendConfig::cost_weight`]), pushing load toward
//!   cheap pools at the cost of perfectly equalized completion times.
//!
//! All queue state advances deterministically at epoch barriers in fluid
//! form: arrivals are admitted as job counts, dispatched across backends by
//! (cost-weighted) water-filling, and each backend drains at the rate its
//! current batch size implies. The barrier phases are strictly ordered:
//! **drain (serve the epoch) → scale (autoscalers adjust slots) → publish
//! (waits/shed/cost signals from post-scale state)** — so the signals
//! devices read next epoch always reflect post-scale capacity.
//! [`CloudServing::single`] builds the degenerate case: one unbatched
//! backend, a single fluid queue per region.
//!
//! Each tier operation is one method that takes a [`PhaseProbe`]; callers
//! that trace nothing pass [`PhaseProbe::disabled`].

use crate::pipeline::PipelinePricing;
use crate::report::{BackendReport, Histogram};
use lens_telemetry::{PhaseProbe, TraceEvent};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

/// Which cloud model a fleet run uses ([`crate::FleetScenario`]'s
/// `fidelity` knob).
///
/// The fluid mode resolves whole epochs of offloads as job *quantities* at
/// the barrier — cheap and mean-accurate, but every request of an epoch
/// sees the same published wait, so the latency distribution has no cloud
/// tail. The per-request mode replays each offloaded request as its own
/// discrete event (arrival → queueing → batch admission → service →
/// completion) inside [`RegionMicrosim`], which is what p95/p99 reporting
/// needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CloudSimFidelity {
    /// Epoch-barrier fluid queues (the default): arrivals are admitted
    /// as counts and drained at batch-amortized rates. Monolithic
    /// offloads only: a staged [`crate::PipelineSpec`] (depth ≥ 2) fails
    /// the scenario build under this fidelity.
    #[default]
    Fluid,
    /// Discrete per-request microsimulation: every offloaded request gets
    /// its own arrival/batch/service/completion times, and the report
    /// carries exact per-request sojourn histograms with tail summaries.
    /// The one fidelity that runs staged pipelines, each remote stage a
    /// request of its own.
    PerRequest,
}

/// Queueing discipline for a region's cloud slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueueDiscipline {
    /// Single class: every offloaded inference waits behind the full
    /// backlog.
    Fifo,
    /// Two classes: the given fraction of devices (chosen per-device,
    /// seeded) is high-priority and waits only behind other high-priority
    /// work; everyone else waits behind everything.
    Priority {
        /// Fraction of devices in the high-priority class, in `[0, 1]`.
        high_fraction: f64,
    },
}

impl QueueDiscipline {
    /// Checks the discipline's own invariant: `high_fraction` lies in
    /// `[0, 1]` (NaN does not).
    pub(crate) fn validate(&self) -> Result<(), String> {
        match *self {
            QueueDiscipline::Priority { high_fraction }
                if !(0.0..=1.0).contains(&high_fraction) =>
            {
                Err("high_fraction must be in [0, 1]".to_string())
            }
            _ => Ok(()),
        }
    }
}

/// When a backend's dynamic batcher closes a batch: at `max_batch` items,
/// or when the oldest queued item has lingered `linger_ms`, whichever
/// comes first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Largest batch a single executor runs (≥ 1).
    pub max_batch: usize,
    /// Longest a request may wait for its batch to fill (ms, ≥ 0).
    pub linger_ms: f64,
}

impl BatchPolicy {
    /// No batching: every request is its own batch.
    pub fn none() -> Self {
        BatchPolicy {
            max_batch: 1,
            linger_ms: 0.0,
        }
    }

    /// A batcher closing at `max_batch` items or after `linger_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero or `linger_ms` is negative,
    /// non-finite or above 2^53 µs.
    pub fn new(max_batch: usize, linger_ms: f64) -> Self {
        let policy = BatchPolicy {
            max_batch,
            linger_ms,
        };
        policy.validate().unwrap_or_else(|why| panic!("{why}"));
        policy
    }

    /// Checks the batcher's fields — the one place [`BatchPolicy::new`]
    /// and [`CloudServing::validate`] both check them.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.max_batch == 0 {
            return Err("max_batch must be at least 1".to_string());
        }
        if !(self.linger_ms.is_finite() && self.linger_ms >= 0.0) {
            return Err("linger_ms must be non-negative and finite".to_string());
        }
        if self.linger_ms * 1000.0 > MAX_SPAN_US as f64 {
            return Err("linger_ms must be at most 2^53 µs".to_string());
        }
        Ok(())
    }
}

/// The demand signal an [`Autoscaler`] damps and thresholds at each epoch
/// barrier. Both are normalized **per slot**, so the same thresholds keep
/// meaning as the pool grows or shrinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingSignal {
    /// Fraction of the epoch each slot spent serving batches (target-
    /// utilization scaling). Can exceed 1 transiently under the
    /// per-request model, where a batch's whole service time is charged
    /// at close.
    Utilization,
    /// Queued jobs per slot at the barrier (queue-depth scaling).
    QueueDepth,
    /// Tail-latency targeting: the backend's **epoch-windowed** p99 cloud
    /// sojourn, normalized by the target (`p99 / target`), so the usual
    /// thresholds (e.g. up above 1.0, down below 0.5) read as fractions
    /// of the tail budget. Only the per-request microsim measures
    /// sojourns; the fluid tier degrades gracefully to the
    /// [`ScalingSignal::QueueDepth`] observation (fluid epochs have no
    /// per-request times to take a percentile of).
    TailLatency {
        /// The p99 sojourn target (µs, ≥ 1).
        target_us: u64,
    },
}

/// Per-backend workload autoscaling, evaluated once per epoch barrier
/// (after the epoch is served, before signals publish).
///
/// The state machine per backend: the observed [`ScalingSignal`] is
/// EWMA-damped (`damped ← α·observed + (1−α)·damped`); while a cooldown
/// is pending the slot count holds; otherwise `damped > scale_up` steps
/// the pool up by `step` and `damped < scale_down` steps it down, both
/// clamped to `[min_slots, max_slots]`, and any applied change re-arms the
/// cooldown. The per-request tier additionally never retires a busy
/// executor: scale-down removes idle slots only and retries at later
/// barriers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Autoscaler {
    /// Which demand signal drives scaling.
    pub signal: ScalingSignal,
    /// Damped-signal threshold above which the pool grows.
    pub scale_up: f64,
    /// Damped-signal threshold below which the pool shrinks.
    pub scale_down: f64,
    /// Barriers to hold after an applied scaling event (0 = react every
    /// barrier; larger values suppress flapping).
    pub cooldown_epochs: u32,
    /// Smallest slot count the pool may shrink to (≥ 1).
    pub min_slots: usize,
    /// Largest slot count the pool may grow to.
    pub max_slots: usize,
    /// Slots added or removed per scaling event.
    pub step: usize,
    /// EWMA damping factor in `(0, 1]` (1 = undamped, react to the raw
    /// signal).
    pub alpha: f64,
}

impl Autoscaler {
    /// An autoscaler on the given signal with thresholds and slot bounds;
    /// defaults: cooldown 1 epoch, step 1 slot, α = 0.5.
    pub fn new(
        signal: ScalingSignal,
        scale_up: f64,
        scale_down: f64,
        min_slots: usize,
        max_slots: usize,
    ) -> Self {
        Autoscaler {
            signal,
            scale_up,
            scale_down,
            cooldown_epochs: 1,
            min_slots,
            max_slots,
            step: 1,
            alpha: 0.5,
        }
    }

    /// Sets the post-scaling cooldown (barriers held after each event).
    pub fn with_cooldown(mut self, epochs: u32) -> Self {
        self.cooldown_epochs = epochs;
        self
    }

    /// Sets the slots added/removed per scaling event.
    pub fn with_step(mut self, step: usize) -> Self {
        self.step = step;
        self
    }

    /// Sets the EWMA damping factor.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Validates the autoscaler's own invariants.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason on non-finite or inverted
    /// thresholds, zero `min_slots`/`step`, inverted slot bounds, or an
    /// out-of-range `alpha`.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.scale_up.is_finite() && self.scale_down.is_finite()) {
            return Err("autoscaler thresholds must be finite".to_string());
        }
        if self.scale_down >= self.scale_up {
            return Err("autoscaler scale_down must be below scale_up".to_string());
        }
        if self.min_slots == 0 {
            return Err("autoscaler min_slots must be at least 1".to_string());
        }
        if self.min_slots > self.max_slots {
            return Err("autoscaler min_slots must not exceed max_slots".to_string());
        }
        if self.step == 0 {
            return Err("autoscaler step must be at least 1".to_string());
        }
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err("autoscaler alpha must be in (0, 1]".to_string());
        }
        if let ScalingSignal::TailLatency { target_us } = self.signal {
            if target_us == 0 {
                return Err("autoscaler tail-latency target_us must be at least 1".to_string());
            }
        }
        Ok(())
    }

    /// EWMA-damps the observed demand signal into the running estimate.
    fn damp(&self, previous: f64, observed: f64) -> f64 {
        self.alpha * observed + (1.0 - self.alpha) * previous
    }

    /// One barrier's shared bookkeeping: damp `observed` into `state`,
    /// honor a pending cooldown (decrementing it and holding the current
    /// count), and return the slot count the thresholds ask for. Both
    /// fidelity tiers run exactly this sequence; only the *application*
    /// differs (the fluid tier rescales its drain rate, the per-request
    /// tier retires idle executors only). Callers re-arm the cooldown via
    /// [`arm`](Autoscaler::arm) for the portion they actually applied.
    pub fn step(&self, state: &mut ScalerState, observed: f64, slots: usize) -> usize {
        state.demand_ewma = self.damp(state.demand_ewma, observed);
        if state.cooldown > 0 {
            state.cooldown -= 1;
            return slots;
        }
        self.target_slots(slots, state.demand_ewma)
    }

    /// Re-arms the cooldown after an applied scaling event.
    pub fn arm(&self, state: &mut ScalerState) {
        state.cooldown = self.cooldown_epochs;
    }

    /// The slot count the thresholds ask for, given the damped signal —
    /// the pure decision both fidelity modes share so they cannot drift.
    fn target_slots(&self, slots: usize, damped: f64) -> usize {
        if damped > self.scale_up {
            slots
                .saturating_add(self.step)
                .clamp(self.min_slots, self.max_slots)
        } else if damped < self.scale_down {
            slots
                .saturating_sub(self.step)
                .clamp(self.min_slots, self.max_slots)
        } else {
            slots.clamp(self.min_slots, self.max_slots)
        }
    }
}

/// Per-backend autoscaler bookkeeping shared (structurally) by both
/// fidelity tiers: the EWMA-damped demand estimate and the pending
/// cooldown. Advanced only through [`Autoscaler::step`] /
/// [`Autoscaler::arm`], so the fluid and per-request state machines
/// cannot diverge.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScalerState {
    /// The EWMA-damped demand estimate.
    pub demand_ewma: f64,
    /// Barriers left before the scaler may act again.
    pub cooldown: u32,
}

/// How a region spreads arrivals across its backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchPolicy {
    /// Water-fill so expected completion times equalize (the PR 3
    /// behavior, and the default).
    #[default]
    LeastWorkLeft,
    /// Water-fill by **price × energy × work-left**: each backend's
    /// work-left is weighed by [`BackendConfig::cost_weight`], so cheap
    /// pools absorb more load and the published [`RegionSignal`] carries
    /// the region's marginal serving cost — which failover then uses to
    /// shed toward the *cheapest* viable sibling.
    CostAware,
}

/// One pool of identical executors inside a region's serving tier, with an
/// affine batch cost: a batch of `b` items occupies one executor for
/// `base_service_ms + per_item_ms · b` milliseconds, so the per-item cost
/// is sub-linear in `b` and large batches amortize the fixed part.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendConfig {
    /// Display name (`"gpu"`, `"cpu"`, …), unique within the region.
    pub name: String,
    /// Concurrent batch executors in this pool (the initial count when an
    /// autoscaler is attached).
    pub slots: usize,
    /// Fixed cost per batch (ms) — the part batching amortizes.
    pub base_service_ms: f64,
    /// Marginal cost per batched item (ms).
    pub per_item_ms: f64,
    /// The dynamic batcher in front of this pool.
    pub batching: BatchPolicy,
    /// Price of keeping one slot provisioned for one epoch (arbitrary
    /// currency units; 0 = unpriced, the legacy behavior). Accrued into
    /// the report's fixed-point cost totals every barrier.
    pub price_per_slot_epoch: f64,
    /// Cloud-side energy per served job (mJ; 0 = unmodeled). Feeds the
    /// report's cloud-energy totals and the cost-aware dispatch weight.
    pub energy_per_job_mj: f64,
    /// Workload autoscaling for this pool (`None` = static slots).
    pub autoscaler: Option<Autoscaler>,
}

impl BackendConfig {
    /// An unbatched backend: `slots` executors at
    /// `base_service_ms + per_item_ms` per single-item request.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero, either cost is negative or non-finite,
    /// or the single-item service time `base_service_ms + per_item_ms` is
    /// not positive or above 2^53 µs.
    pub fn new(name: &str, slots: usize, base_service_ms: f64, per_item_ms: f64) -> Self {
        let config = BackendConfig {
            name: name.to_string(),
            slots,
            base_service_ms,
            per_item_ms,
            batching: BatchPolicy::none(),
            price_per_slot_epoch: 0.0,
            energy_per_job_mj: 0.0,
            autoscaler: None,
        };
        config.validate().unwrap_or_else(|why| panic!("{why}"));
        config
    }

    /// Checks every field of the pool — slots and costs, the batcher, the
    /// price and energy, and the autoscaler with its bounds — the one
    /// place [`BackendConfig::new`] and [`CloudServing::validate`] both
    /// check them.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.slots == 0 {
            return Err("backend needs at least one slot".to_string());
        }
        if !(self.base_service_ms.is_finite() && self.base_service_ms >= 0.0) {
            return Err("base_service_ms must be non-negative and finite".to_string());
        }
        if !(self.per_item_ms.is_finite() && self.per_item_ms >= 0.0) {
            return Err("per_item_ms must be non-negative and finite".to_string());
        }
        if self.base_service_ms + self.per_item_ms <= 0.0 {
            return Err("single-item service time must be positive".to_string());
        }
        self.batching.validate()?;
        if self.batch_service_ms(self.batching.max_batch as f64) * 1000.0 > MAX_SPAN_US as f64 {
            return Err("full-batch service time must be at most 2^53 µs".to_string());
        }
        if !(self.price_per_slot_epoch.is_finite() && self.price_per_slot_epoch >= 0.0) {
            return Err("price_per_slot_epoch must be non-negative and finite".to_string());
        }
        if !(self.energy_per_job_mj.is_finite() && self.energy_per_job_mj >= 0.0) {
            return Err("energy_per_job_mj must be non-negative and finite".to_string());
        }
        if let Some(auto) = &self.autoscaler {
            auto.validate()?;
            if !(auto.min_slots..=auto.max_slots).contains(&self.slots) {
                return Err(format!(
                    "initial slots {} outside autoscaler bounds [{}, {}]",
                    self.slots, auto.min_slots, auto.max_slots
                ));
            }
        }
        Ok(())
    }

    /// Puts a dynamic batcher in front of the pool.
    pub fn with_batching(mut self, max_batch: usize, linger_ms: f64) -> Self {
        self.batching = BatchPolicy::new(max_batch, linger_ms);
        self
    }

    /// Prices one provisioned slot-epoch (validated at tier build).
    pub fn with_price(mut self, price_per_slot_epoch: f64) -> Self {
        self.price_per_slot_epoch = price_per_slot_epoch;
        self
    }

    /// Sets the cloud-side energy per served job (validated at tier
    /// build).
    pub fn with_energy(mut self, energy_per_job_mj: f64) -> Self {
        self.energy_per_job_mj = energy_per_job_mj;
        self
    }

    /// Attaches a workload autoscaler to this pool (validated at tier
    /// build; `slots` becomes the initial count and must sit within the
    /// autoscaler's bounds).
    pub fn with_autoscaler(mut self, autoscaler: Autoscaler) -> Self {
        self.autoscaler = Some(autoscaler);
        self
    }

    /// Service time of one batch of (fluid) size `b` on one executor (ms).
    pub(crate) fn batch_service_ms(&self, b: f64) -> f64 {
        self.base_service_ms + self.per_item_ms * b
    }

    /// Jobs per millisecond **one slot** completes when every batch closes
    /// full. Live throughput is this times the current slot count.
    pub(crate) fn full_batch_rate_per_slot_ms(&self) -> f64 {
        let b = self.batching.max_batch as f64;
        b / self.batch_service_ms(b)
    }

    /// The cost-aware dispatch weight: price × energy, with unpriced
    /// (zero) components treated as a neutral 1 — so an unpriced tier
    /// under [`DispatchPolicy::CostAware`] degenerates to plain
    /// least-work-left.
    pub fn cost_weight(&self) -> f64 {
        let neutral = |v: f64| if v > 0.0 { v } else { 1.0 };
        neutral(self.price_per_slot_epoch) * neutral(self.energy_per_job_mj)
    }
}

/// Load shedding at a region's front door. The controller looks at the
/// queue state at each epoch barrier and publishes the fraction of the
/// *next* epoch's offloads to shed, sized so that admitted work drains at
/// the configured bound in steady state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionPolicy {
    /// Admit everything (the PR 2 behavior).
    Open,
    /// Shed when the region's total backlog exceeds `max_jobs`.
    QueueDepth {
        /// Backlog bound (jobs) above which arrivals are shed.
        max_jobs: f64,
    },
    /// Shed when the low-priority-class wait exceeds `max_wait_ms`.
    Deadline {
        /// Wait bound (ms) above which arrivals are shed.
        max_wait_ms: f64,
    },
}

impl AdmissionPolicy {
    /// The fraction of next-epoch offloads to shed, given the post-drain
    /// queue state: `0` while within bounds, approaching `1` as the
    /// overload grows (`1 − bound/observed`, the fluid fraction that
    /// brings admitted load back to the bound in steady state).
    pub fn shed_fraction(&self, depth_jobs: f64, wait_low_ms: f64) -> f64 {
        let overload = |observed: f64, bound: f64| {
            if observed <= bound || observed <= 0.0 {
                0.0
            } else {
                (1.0 - bound / observed).clamp(0.0, 1.0)
            }
        };
        match *self {
            AdmissionPolicy::Open => 0.0,
            AdmissionPolicy::QueueDepth { max_jobs } => overload(depth_jobs, max_jobs),
            AdmissionPolicy::Deadline { max_wait_ms } => overload(wait_low_ms, max_wait_ms),
        }
    }
}

/// EWMA-damps a published shed fraction toward the controller's raw
/// target: the raw `1 − bound/observed` over-corrects under the one-epoch
/// lag (bang-bang oscillation), so both fidelities halve toward it each
/// barrier and snap the geometric tail to zero so open tiers publish
/// exact 0. Shared so the fluid and per-request controllers cannot drift.
fn damp_shed_fraction(previous: f64, target: f64) -> f64 {
    let damped = 0.5 * (previous + target);
    if damped < 1e-6 {
        0.0
    } else {
        damped
    }
}

/// Where a shed request goes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailoverPolicy {
    /// Straight back to the device: the request runs the device's
    /// local-only deployment option (charged at that option's latency and
    /// energy — see `DeploymentPlanner::local_fallback`).
    ToDevice,
    /// Try the sibling region with the smallest published wait first,
    /// paying `penalty_ms` of inter-region latency; if that region is
    /// shedding too (per its own published fraction), fall back to the
    /// device.
    SiblingRegion {
        /// Extra round-trip latency charged to failed-over requests (ms).
        penalty_ms: f64,
    },
}

/// A region's full serving-tier description: heterogeneous backends, the
/// queue discipline, admission control, and failover. Every region in a
/// scenario hosts one instance of this template.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudServing {
    /// The backend pools (at least one).
    pub backends: Vec<BackendConfig>,
    /// Queue discipline, shared by all backends in the region.
    pub discipline: QueueDiscipline,
    /// Load shedding at the region's front door.
    pub admission: AdmissionPolicy,
    /// Where shed requests go.
    pub failover: FailoverPolicy,
    /// How arrivals spread across the region's backends.
    pub dispatch: DispatchPolicy,
}

impl CloudServing {
    /// A serving tier with the given backends, FIFO discipline, open
    /// admission, to-device failover, and least-work-left dispatch.
    pub fn new(backends: Vec<BackendConfig>) -> Self {
        CloudServing {
            backends,
            discipline: QueueDiscipline::Fifo,
            admission: AdmissionPolicy::Open,
            failover: FailoverPolicy::ToDevice,
            dispatch: DispatchPolicy::LeastWorkLeft,
        }
    }

    /// The simplest tier: one unbatched backend named `"default"` with
    /// `slots` executors at `service_ms` per request, so each region
    /// drains `slots / service_ms` jobs per ms.
    ///
    /// # Panics
    ///
    /// Panics where [`BackendConfig::new`] does: `slots` is zero or
    /// `service_ms` is not positive and finite.
    pub fn single(slots: usize, service_ms: f64) -> Self {
        CloudServing::new(vec![BackendConfig::new("default", slots, service_ms, 0.0)])
    }

    /// Switches to the two-class priority discipline.
    ///
    /// # Panics
    ///
    /// Panics if `high_fraction` is outside `[0, 1]`.
    pub fn with_priority(mut self, high_fraction: f64) -> Self {
        self.discipline = QueueDiscipline::Priority { high_fraction };
        self.discipline
            .validate()
            .unwrap_or_else(|why| panic!("{why}"));
        self
    }

    /// Sets the admission policy.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Sets the failover policy.
    pub fn with_failover(mut self, failover: FailoverPolicy) -> Self {
        self.failover = failover;
        self
    }

    /// Sets the dispatch policy.
    pub fn with_dispatch(mut self, dispatch: DispatchPolicy) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// Validates every field of the tier — the ones its constructors
    /// check too, since the fields are public — and the cross-field
    /// constraints a scenario build enforces.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the tier has no backends,
    /// duplicate backend names, a backend with zero slots, a negative or
    /// non-finite cost, price or energy, a non-positive single-item
    /// service time, an invalid batcher or autoscaler (bad thresholds or
    /// bounds, or initial slots outside them), an out-of-range priority
    /// fraction, a partially priced cost-aware tier, or a non-positive
    /// admission bound or failover penalty.
    pub fn validate(&self) -> Result<(), String> {
        if self.backends.is_empty() {
            return Err("serving tier needs at least one backend".to_string());
        }
        for (i, b) in self.backends.iter().enumerate() {
            if self.backends[..i].iter().any(|o| o.name == b.name) {
                return Err(format!(
                    "duplicate backend name {:?} in serving tier",
                    b.name
                ));
            }
            b.validate()
                .map_err(|why| format!("backend {:?}: {why}", b.name))?;
        }
        self.discipline.validate()?;
        // Cost-aware dispatch compares cost weights across backends, and
        // an unset (zero) component silently counts as the neutral 1 —
        // real prices must not be ranked against that placeholder, so a
        // tier prices each component everywhere or nowhere.
        if self.dispatch == DispatchPolicy::CostAware {
            type IsSet = fn(&BackendConfig) -> bool;
            let components: [(&str, IsSet); 2] = [
                ("price_per_slot_epoch", |b| b.price_per_slot_epoch > 0.0),
                ("energy_per_job_mj", |b| b.energy_per_job_mj > 0.0),
            ];
            for (component, set) in components {
                let priced = self.backends.iter().filter(|b| set(b)).count();
                if priced != 0 && priced != self.backends.len() {
                    return Err(format!(
                        "cost-aware dispatch needs {component} set on every backend or on none \
                         ({priced} of {} set): unset components count as the neutral weight 1 \
                         and would be ranked against real values",
                        self.backends.len()
                    ));
                }
            }
        }
        match self.admission {
            AdmissionPolicy::QueueDepth { max_jobs }
                if !(max_jobs.is_finite() && max_jobs > 0.0) =>
            {
                return Err("admission max_jobs must be positive and finite".to_string());
            }
            AdmissionPolicy::Deadline { max_wait_ms }
                if !(max_wait_ms.is_finite() && max_wait_ms > 0.0) =>
            {
                return Err("admission max_wait_ms must be positive and finite".to_string());
            }
            _ => {}
        }
        if let FailoverPolicy::SiblingRegion { penalty_ms } = self.failover {
            if !(penalty_ms.is_finite() && penalty_ms >= 0.0) {
                return Err("failover penalty_ms must be non-negative and finite".to_string());
            }
        }
        Ok(())
    }
}

/// The barrier-published state shards read for a whole epoch (one-epoch
/// contention lag): per-class waits, the admission controller's shed
/// fraction, and the region's marginal serving cost.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RegionSignal {
    /// Wait (ms) a high-priority arrival experiences.
    pub wait_high_ms: f64,
    /// Wait (ms) a low-priority (FIFO-class) arrival experiences.
    pub wait_low_ms: f64,
    /// Fraction of next-epoch offloads the admission controller sheds.
    pub shed_fraction: f64,
    /// The [`BackendConfig::cost_weight`] of the backend the region's
    /// *next* arrival would be dispatched to — what one more job costs to
    /// serve here. Load-dependent: a region whose cheap pool is swamped
    /// dispatches (and therefore prices) marginal work on its expensive
    /// pool, so identically configured regions publish different marginal
    /// costs as their queues diverge. Under
    /// [`DispatchPolicy::CostAware`], failover sheds to the sibling with
    /// the smallest marginal cost (wait breaks ties).
    pub marginal_cost: f64,
    /// The region's **epoch-windowed** p99 cloud sojourn (ms), when the
    /// tier measured one. Only the per-request microsim has per-request
    /// sojourn times; the fluid tier publishes `None` — explicitly *no
    /// signal*, never a stale zero — and device-side tail policies must
    /// treat `None` as "don't react". An idle microsim epoch (no
    /// completions) republishes the last *measured* p99 as hysteresis: a
    /// region that shed its whole crowd keeps warning retreated devices
    /// instead of inviting the herd back at once. `None` therefore means
    /// "never measured", not "idle lately".
    pub p99_ms: Option<f64>,
}

impl RegionSignal {
    /// The wait for a device's priority class.
    pub fn wait_ms(&self, high_priority: bool) -> f64 {
        if high_priority {
            self.wait_high_ms
        } else {
            self.wait_low_ms
        }
    }
}

/// Per-backend fluid queue state.
#[derive(Debug, Clone, PartialEq)]
struct BackendQueue {
    backlog_high: f64,
    backlog_low: f64,
    /// Jobs dispatched to this backend in the current epoch (for the
    /// linger fill-rate estimate).
    epoch_arrivals: f64,
    /// Executor slots currently provisioned (autoscaled within the
    /// configured bounds; equals the configured count when static).
    slots_live: usize,
    /// Shared autoscaler bookkeeping (EWMA estimate + cooldown).
    scaler: ScalerState,
    /// Per-slot busy time accumulated in the current epoch (ms) — the
    /// utilization observation the autoscaler damps.
    epoch_busy_ms: f64,
    /// Drain rate (jobs/ms) realized in the last [`RegionServing::drain`],
    /// used to publish waits. Starts at the unbatched rate.
    rate_per_ms: f64,
    /// Expected extra wait from the batcher lingering for items (ms),
    /// realized in the last drain.
    linger_wait_ms: f64,
    // Cumulative serving stats.
    served_jobs: f64,
    batches: f64,
    busy_ms: f64,
    batch_sizes: Histogram,
    /// Slot count during each served epoch, recorded at the barrier.
    slot_timeline: Vec<u32>,
    /// Applied scaling events (up or down).
    scaling_events: u64,
}

/// How many bins backend batch-size histograms carry (width 1.0 — batch
/// sizes above this land in the overflow bucket).
const BATCH_HIST_BINS: usize = 1_024;

/// Per-request sojourn histogram resolution (ms per bin) — matches the
/// engine's end-to-end latency binning so tails line up across views.
pub(crate) const SOJOURN_BIN_MS: f64 = 10.0;
/// Bins in per-request sojourn histograms (overflow beyond 20 s).
pub(crate) const SOJOURN_BINS: usize = 2_000;

/// One region's deterministic serving-tier state: per-backend fluid queues
/// fed by least-work-left dispatch, drained at batch-amortized rates, with
/// cumulative per-backend stats for the report.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionServing {
    serving: CloudServing,
    queues: Vec<BackendQueue>,
    /// EWMA-damped shed fraction: the raw `1 − bound/observed` target
    /// over-corrects under the one-epoch lag (a fully-shed epoch drains
    /// the queue, the wait crashes to zero, the next epoch floods —
    /// bang-bang oscillation); halving toward the target each barrier
    /// settles near the fluid fixed point instead.
    shed_fraction: f64,
}

impl RegionServing {
    /// An empty serving tier instantiated from the region template.
    ///
    /// # Panics
    ///
    /// Panics if `serving` fails [`CloudServing::validate`].
    pub fn new(serving: &CloudServing) -> Self {
        if let Err(why) = serving.validate() {
            panic!("invalid serving tier: {why}");
        }
        let queues = serving
            .backends
            .iter()
            .map(|b| BackendQueue {
                backlog_high: 0.0,
                backlog_low: 0.0,
                epoch_arrivals: 0.0,
                slots_live: b.slots,
                scaler: ScalerState::default(),
                epoch_busy_ms: 0.0,
                rate_per_ms: b.slots as f64 * 1.0 / b.batch_service_ms(1.0),
                linger_wait_ms: 0.0,
                served_jobs: 0.0,
                batches: 0.0,
                busy_ms: 0.0,
                batch_sizes: Histogram::new(1.0, BATCH_HIST_BINS),
                slot_timeline: Vec::new(),
                scaling_events: 0,
            })
            .collect();
        RegionServing {
            serving: serving.clone(),
            queues,
            shed_fraction: 0.0,
        }
    }

    /// Admits one epoch's offloaded inferences (split by priority class)
    /// and dispatches them across backends by least-work-left
    /// water-filling: arrivals fill backends so their expected completion
    /// times equalize, which is what an ideal least-loaded load balancer
    /// achieves in the fluid limit.
    pub fn admit(&mut self, high: u64, low: u64) {
        let total = (high + low) as f64;
        if total <= 0.0 {
            return;
        }
        let assignments = self.water_fill(total);
        let high_share = high as f64 / total;
        for (queue, a) in self.queues.iter_mut().zip(&assignments) {
            queue.backlog_high += a * high_share;
            queue.backlog_low += a * (1.0 - high_share);
            queue.epoch_arrivals += a;
        }
    }

    /// Splits `total` arriving jobs across backends so that the resulting
    /// completion times `(backlog_i + a_i) / capacity_i` equalize where
    /// possible (classic water-filling over per-backend peak rates at the
    /// **live** slot counts). Under [`DispatchPolicy::CostAware`] each
    /// backend's capacity is divided by its price × energy
    /// [`BackendConfig::cost_weight`], which equalizes *cost-weighted*
    /// completion `w_i · (backlog_i + a_i) / capacity_i` instead — cheap
    /// backends sit lower in the cost-time landscape and absorb more of
    /// the flow.
    fn water_fill(&self, total: f64) -> Vec<f64> {
        let cost_aware = self.serving.dispatch == DispatchPolicy::CostAware;
        let caps: Vec<f64> = self
            .serving
            .backends
            .iter()
            .zip(&self.queues)
            .map(|(b, q)| {
                let cap = q.slots_live as f64 * b.full_batch_rate_per_slot_ms();
                if cost_aware {
                    cap / b.cost_weight()
                } else {
                    cap
                }
            })
            .collect();
        if caps.len() == 1 {
            return vec![total];
        }
        let depths: Vec<f64> = self
            .queues
            .iter()
            .map(|q| q.backlog_high + q.backlog_low)
            .collect();
        // Sort backend indices by current completion time (depth/cap).
        let mut order: Vec<usize> = (0..caps.len()).collect();
        order.sort_by(|&a, &b| {
            (depths[a] / caps[a])
                .partial_cmp(&(depths[b] / caps[b]))
                .expect("finite completion times")
                .then(a.cmp(&b))
        });
        // Raise the water level: each step pulls the next backend's
        // completion time into the active set, until the arrivals are
        // absorbed. The last step's `next_level` is ∞, so the loop always
        // terminates with `remaining` fully absorbed.
        let mut remaining = total;
        let mut active_cap = 0.0;
        let mut level = depths[order[0]] / caps[order[0]];
        for (k, &i) in order.iter().enumerate() {
            active_cap += caps[i];
            let next_level = if k + 1 < order.len() {
                let j = order[k + 1];
                depths[j] / caps[j]
            } else {
                f64::INFINITY
            };
            let absorbable = (next_level - level) * active_cap;
            if absorbable >= remaining {
                level += remaining / active_cap;
                break;
            }
            remaining -= absorbable;
            level = next_level;
        }
        // Everyone at or below the water level gets topped up to it.
        let mut assignments: Vec<f64> = (0..caps.len())
            .map(|j| (caps[j] * level - depths[j]).max(0.0))
            .collect();
        // Conserve jobs exactly: hand the float residual (≈ 1 ulp of
        // rounding per step) to the least-loaded backend.
        let assigned: f64 = assignments.iter().sum();
        assignments[order[0]] += total - assigned;
        assignments
    }

    /// Drains every backend for `epoch_ms` of wall-clock. Each backend's
    /// batcher closes batches of the fluid size its backlog and arrival
    /// rate imply (`min(max_batch, max(1, depth/slots, rate·linger))`),
    /// serving high-priority work first, and records batch-close and
    /// utilization stats. Batch closes are counted into `probe` and
    /// emitted as [`TraceEvent::BatchClose`] aggregates for `region`,
    /// stamped at `now_us` (the epoch end — the fluid model has no
    /// per-batch close instants).
    pub fn drain(&mut self, epoch_ms: f64, now_us: u64, region: u64, probe: &mut PhaseProbe) {
        for (backend_idx, (config, queue)) in self
            .serving
            .backends
            .iter()
            .zip(&mut self.queues)
            .enumerate()
        {
            let slots = queue.slots_live as f64;
            let depth = queue.backlog_high + queue.backlog_low;
            let arrival_rate = queue.epoch_arrivals / epoch_ms;
            let max_batch = config.batching.max_batch as f64;
            let b = if config.batching.max_batch <= 1 {
                1.0
            } else {
                // Two fluid regimes: a backlog carried over from earlier
                // epochs closes batches straight off the queue, while in
                // the keeping-up regime batches grow to whatever the
                // arrival flow accumulates within the linger window.
                let carried = (depth - queue.epoch_arrivals).max(0.0);
                let backlog_fill = carried / slots;
                let linger_fill = arrival_rate * config.batching.linger_ms;
                backlog_fill.max(linger_fill).clamp(1.0, max_batch)
            };
            let batch_ms = config.batch_service_ms(b);
            let rate = slots * b / batch_ms;
            let budget = rate * epoch_ms;
            let served_high = queue.backlog_high.min(budget);
            queue.backlog_high -= served_high;
            let served_low = queue.backlog_low.min(budget - served_high);
            queue.backlog_low -= served_low;
            let served = served_high + served_low;

            // The extra wait the batcher itself adds: batches fed from a
            // standing backlog close instantly, but batches filled from
            // the arrival flow make items wait on average half the fill
            // time (bounded by the linger window). Scale by the fraction
            // of the batch the flow must supply.
            queue.linger_wait_ms = if config.batching.max_batch <= 1 {
                0.0
            } else {
                let carried = (depth - queue.epoch_arrivals).max(0.0);
                let from_flow = (1.0 - carried / (b * slots)).clamp(0.0, 1.0);
                let fill_ms = if arrival_rate > 0.0 {
                    (b / arrival_rate).min(config.batching.linger_ms)
                } else {
                    config.batching.linger_ms
                };
                from_flow * fill_ms / 2.0
            };

            let batches = if b > 0.0 { served / b } else { 0.0 };
            queue.rate_per_ms = rate;
            queue.served_jobs += served;
            queue.batches += batches;
            queue.epoch_busy_ms = batches * batch_ms / slots;
            queue.busy_ms += queue.epoch_busy_ms;
            let closed = batches.round() as u64;
            if closed > 0 {
                queue.batch_sizes.record_n(b, closed);
                if probe.is_enabled() {
                    probe.on_batches(closed);
                    probe.emit(TraceEvent::BatchClose {
                        time_us: now_us,
                        region,
                        backend: backend_idx as u64,
                        batches: closed,
                        size_milli: (b * 1000.0).round() as u64,
                    });
                }
            }
            queue.epoch_arrivals = 0.0;
        }
    }

    /// Runs the autoscalers at the epoch barrier — **after**
    /// [`drain`](RegionServing::drain) served the epoch and **before**
    /// [`publish`](RegionServing::publish), so the published signal
    /// reflects post-scale capacity. Records the slot-count timeline for
    /// the epoch just served, EWMA-damps each backend's demand signal,
    /// and steps the live slot count within the configured bounds
    /// (honoring the cooldown). The realized drain rate is rescaled with
    /// the slot count so post-scale waits price the new capacity. Every
    /// applied step is emitted into `probe` as a
    /// [`TraceEvent::ScalingStep`] stamped at `now_us`.
    pub fn scale(&mut self, epoch_ms: f64, now_us: u64, region: u64, probe: &mut PhaseProbe) {
        for (backend_idx, (config, queue)) in self
            .serving
            .backends
            .iter()
            .zip(&mut self.queues)
            .enumerate()
        {
            queue.slot_timeline.push(queue.slots_live as u32);
            if let Some(auto) = &config.autoscaler {
                let observed = match auto.signal {
                    ScalingSignal::Utilization => {
                        if epoch_ms > 0.0 {
                            queue.epoch_busy_ms / epoch_ms
                        } else {
                            0.0
                        }
                    }
                    // The fluid tier measures no per-request sojourns, so
                    // tail targeting degrades gracefully to the queue-depth
                    // observation (same EWMA/cooldown state machine).
                    ScalingSignal::QueueDepth | ScalingSignal::TailLatency { .. } => {
                        (queue.backlog_high + queue.backlog_low) / queue.slots_live as f64
                    }
                };
                let target = auto.step(&mut queue.scaler, observed, queue.slots_live);
                if target != queue.slots_live {
                    if probe.is_enabled() {
                        probe.emit(TraceEvent::ScalingStep {
                            time_us: now_us,
                            region,
                            backend: backend_idx as u64,
                            from_slots: queue.slots_live as u64,
                            to_slots: target as u64,
                        });
                    }
                    queue.rate_per_ms *= target as f64 / queue.slots_live as f64;
                    queue.slots_live = target;
                    auto.arm(&mut queue.scaler);
                    queue.scaling_events += 1;
                }
            }
            queue.epoch_busy_ms = 0.0;
        }
    }

    /// Publishes the barrier signal for the next epoch: updates the
    /// admission controller's damped shed fraction from the **post-scale**
    /// queue state (call after [`scale`](RegionServing::scale)) and
    /// returns the signal.
    pub fn publish(&mut self) -> RegionSignal {
        let target = self
            .serving
            .admission
            .shed_fraction(self.depth(), self.wait_ms(false));
        self.shed_fraction = damp_shed_fraction(self.shed_fraction, target);
        self.signal()
    }

    /// The wait (ms) a new arrival of the given class experiences: the
    /// least-loaded backend's backlog-ahead drain time, plus that
    /// backend's batcher linger.
    pub fn wait_ms(&self, high_priority: bool) -> f64 {
        self.queues
            .iter()
            .map(|q| {
                let ahead = if high_priority {
                    q.backlog_high
                } else {
                    q.backlog_high + q.backlog_low
                };
                ahead / q.rate_per_ms + q.linger_wait_ms
            })
            .fold(f64::INFINITY, f64::min)
            .max(0.0)
    }

    /// Total queued jobs across all backends.
    pub fn depth(&self) -> f64 {
        self.queues
            .iter()
            .map(|q| q.backlog_high + q.backlog_low)
            .sum()
    }

    /// Live slot counts, backend order (metrics sampling).
    pub fn live_slots(&self) -> Vec<u64> {
        self.queues.iter().map(|q| q.slots_live as u64).collect()
    }

    /// The barrier signal shards read next epoch: per-class waits, the
    /// admission controller's damped shed fraction, and the region's
    /// marginal serving cost.
    pub fn signal(&self) -> RegionSignal {
        RegionSignal {
            wait_high_ms: self.wait_ms(true),
            wait_low_ms: self.wait_ms(false),
            shed_fraction: self.shed_fraction,
            marginal_cost: self.marginal_cost(),
            // Fluid epochs have no per-request sojourns: the tail channel
            // is explicitly silent, never a stale zero.
            p99_ms: None,
        }
    }

    /// The price × energy weight of the backend the next arrival would be
    /// dispatched to: the backend with the lowest (cost-weighted, under
    /// [`DispatchPolicy::CostAware`]) completion level — the same
    /// ordering [`water_fill`](Self::water_fill) tops up first. Level
    /// ties break toward the cheaper backend, so an idle tier publishes
    /// its cheapest pool's weight.
    fn marginal_cost(&self) -> f64 {
        let cost_aware = self.serving.dispatch == DispatchPolicy::CostAware;
        self.serving
            .backends
            .iter()
            .zip(&self.queues)
            .map(|(b, q)| {
                let weight = b.cost_weight();
                let cap = q.slots_live as f64 * b.full_batch_rate_per_slot_ms();
                let mut level = (q.backlog_high + q.backlog_low) / cap;
                if cost_aware {
                    level *= weight;
                }
                (level, weight)
            })
            .min_by(|a, b| a.partial_cmp(b).expect("finite levels and weights"))
            .map(|(_, weight)| weight)
            .expect("tier has at least one backend")
    }

    /// The report's per-backend lines for the region named `region`, in
    /// backend order, with utilization taken over `horizon_ms`. Fluid
    /// epochs have no per-request times, so every sojourn histogram is
    /// empty.
    pub fn backend_reports(&self, region: &str, horizon_ms: f64) -> Vec<BackendReport> {
        self.serving
            .backends
            .iter()
            .zip(&self.queues)
            .map(|(b, q)| BackendReport {
                region: region.to_string(),
                backend: b.name.clone(),
                slots: b.slots,
                served_jobs: q.served_jobs,
                batches: q.batches,
                busy_ms: q.busy_ms,
                utilization: q.busy_ms / horizon_ms,
                batch_sizes: q.batch_sizes.clone(),
                sojourn_ms: Histogram::new(SOJOURN_BIN_MS, SOJOURN_BINS),
                slot_timeline: q.slot_timeline.clone(),
                scaling_events: q.scaling_events,
                cost_fp: provision_cost_fp(&q.slot_timeline, b.price_per_slot_epoch),
                cloud_energy_mj: q.served_jobs * b.energy_per_job_mj,
            })
            .collect()
    }
}

/// Exact fixed-point provisioned cost: `Σ_epochs slots · price`, summed
/// in micro-units so shard merging and reruns are bit-stable.
fn provision_cost_fp(timeline: &[u32], price_per_slot_epoch: f64) -> i128 {
    timeline
        .iter()
        .map(|&slots| crate::report::to_fp(slots as f64 * price_per_slot_epoch))
        .fold(0i128, i128::saturating_add)
}

impl fmt::Display for RegionServing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "serving tier: {} backend(s), {:.1} jobs queued, wait {:.1} ms",
            self.queues.len(),
            self.depth(),
            self.wait_ms(false)
        )
    }
}

/// One offloaded inference inside the per-request microsimulation — the
/// event a device contributes at its arrival time, plus the bookkeeping
/// the engine needs to finish the record once the request completes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffloadRequest {
    /// Arrival time at the region's front door (µs since run start).
    pub arrival_us: u64,
    /// Global device id — with `arrival_us` and `stage` this forms the
    /// unique, shard-count-invariant sort key the microsim serves the
    /// shards' request runs by.
    pub device_id: u64,
    /// Pipeline stage (1-based). Shards always emit stage 1; when the
    /// scenario carries a staged [`crate::PipelineSpec`], the region's
    /// [`RegionMicrosim`] chains stages 2.. as its own arrival events.
    /// Monolithic scenarios only ever see 1. Stage-1 keys are unique
    /// fleet-wide, and the stage disambiguates a chained arrival landing
    /// on the same `(arrival_us, device_id)` as a fresh stage-1 request;
    /// the one remaining tie — two same-device requests finishing in the
    /// same batch and chaining to identical arrivals — is served in push
    /// order, which is the batch's FIFO order.
    pub stage: u32,
    /// Whether the device is in the high-priority class.
    pub high_priority: bool,
    /// Origin region index (for the report's per-region breakdown; it
    /// differs from the serving region when the request failed over).
    pub origin_region: u32,
    /// Whether this request reached the serving region via failover.
    pub failed_over: bool,
    /// Latency before this request's cloud sojourn (ms): the device's
    /// comm and compute, plus the inter-region penalty after a failover —
    /// and, for a chained stage, every earlier stage's sojourn and
    /// transfer, which the microsim adds when it chains the stage.
    pub base_latency_ms: f64,
    /// Edge energy of the inference (mJ).
    pub energy_mj: f64,
    /// Whether the device switched deployment options on this inference.
    pub switched: bool,
}

/// A finished request from [`RegionMicrosim`]: the original request plus
/// where and how long it was served.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedRequest {
    /// The request as admitted.
    pub request: OffloadRequest,
    /// Index of the backend that served it.
    pub backend: u32,
    /// Cloud sojourn (arrival → batch completion, ms).
    pub sojourn_ms: f64,
    /// Batch completion instant (µs since run start) — the integer the
    /// microsim chains the next pipeline stage's arrival from, at
    /// `completion_us + hop` (`sojourn_ms` is derived from it, never the
    /// other way around).
    pub completion_us: u64,
}

/// Timer-event kinds in the microsim heap. Slot-free events sort before
/// linger expiries at the same microsecond so a freed executor is visible
/// to the batcher that was waiting on it.
const EVENT_SLOT_FREE: u8 = 0;
const EVENT_LINGER: u8 = 1;

/// The longest span — a batch's service, a linger window, a request's
/// summed pipeline hops — the µs clock accepts: 2^53 µs, exact in `f64`
/// and the cap [`lens_wireless::TransferModel`] also uses.
pub(crate) const MAX_SPAN_US: u64 = 1 << 53;

/// A chained pipeline stage in transit to its region's front door,
/// ordered by `(arrival_us, device_id, stage, push)`: same-key hops
/// arrive in the order their batch closed them.
#[derive(Debug, Clone, Copy)]
struct ChainedArrival {
    request: OffloadRequest,
    push: u64,
}

impl Ord for ChainedArrival {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let key = |c: &Self| {
            (
                c.request.arrival_us,
                c.request.device_id,
                c.request.stage,
                c.push,
            )
        };
        key(self).cmp(&key(other))
    }
}

impl PartialOrd for ChainedArrival {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for ChainedArrival {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for ChainedArrival {}

/// The `(arrival_us, device_id, stage)` key requests are served by.
fn key(request: &OffloadRequest) -> (u64, u64, u32) {
    (request.arrival_us, request.device_id, request.stage)
}

/// The run in `runs` whose head has the least key, if any has requests
/// left. Each shard's run is sorted by the key — shard events pop in
/// `(time, local)` order over a contiguous ascending range of device ids,
/// and shards only emit stage 1 — and the key is unique fleet-wide, so
/// taking the least head each time serves the one total order a global
/// sort would, in O(runs) per arrival with no copy.
fn least_head(runs: &[&[OffloadRequest]]) -> Option<usize> {
    (0..runs.len())
        .filter(|&i| !runs[i].is_empty())
        .min_by_key(|&i| key(&runs[i][0]))
}

/// Per-backend discrete state inside [`RegionMicrosim`].
#[derive(Debug, Clone)]
struct MicroBackend {
    queue_high: VecDeque<OffloadRequest>,
    queue_low: VecDeque<OffloadRequest>,
    /// When each executor slot becomes free (µs), as a min-heap of
    /// `(free_us, slot_id)`: the heap's size is the **live** slot count,
    /// its peek the earliest-free executor, and autoscaling pushes and
    /// pops entries. Ids only break same-microsecond ties (and do so
    /// deterministically); capacity semantics live entirely in the times
    /// and the count, so every per-arrival question — "when does the
    /// next executor open?" — is a peek instead of the linear scan that
    /// used to dominate large autoscaled tiers.
    slot_heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Next id to hand a scale-up slot (monotone, never reused).
    next_slot_id: u32,
    /// Shared autoscaler bookkeeping (EWMA estimate + cooldown).
    scaler: ScalerState,
    /// `busy_us` as of the previous barrier — the delta is the epoch's
    /// utilization observation.
    busy_us_at_barrier: u64,
    // Cumulative serving stats: the batch-size count is the batches
    // closed, the sojourn count (both windows) the requests served.
    /// Total executor-occupied time across all slots (µs).
    busy_us: u64,
    batch_sizes: Histogram,
    sojourn_ms: Histogram,
    /// Sojourns completed since the last barrier — the epoch-windowed tail
    /// the [`ScalingSignal::TailLatency`] autoscaler observes and the
    /// region's published p99 merges, and the *only* histogram the
    /// dispatch hot loop records into; the barrier folds it into the
    /// cumulative `sojourn_ms`, then resets it (the `busy_us_at_barrier`
    /// idiom for histograms).
    epoch_sojourn: Histogram,
    /// [`BackendConfig::full_batch_rate_per_slot_ms`], cached — the value
    /// is a pure function of the static config, and the per-arrival
    /// least-work scan would otherwise recompute its divisions for every
    /// backend on every offload.
    rate_per_slot_ms: f64,
    /// The batcher's linger window in µs, cached off the static config
    /// for the same reason.
    linger_us: u64,
    /// Time of this backend's pending linger wakeup (`u64::MAX` = none).
    /// At most one is ever in flight: the linger deadline only moves
    /// later (FIFO queue fronts only advance), so an armed earlier
    /// wakeup always fires in time to re-check and re-arm — and without
    /// the dedup every arrival into a still-filling batcher would push
    /// another stale wakeup, scaling timer pops with the arrival rate
    /// instead of the batch rate.
    linger_event_us: u64,
    /// Slot count during each served epoch, recorded at the barrier.
    slot_timeline: Vec<u32>,
    /// Applied scaling events (up or down).
    scaling_events: u64,
}

impl MicroBackend {
    fn queued(&self) -> usize {
        self.queue_high.len() + self.queue_low.len()
    }

    /// Arrival time of the oldest waiting request (µs), if any.
    fn oldest_arrival_us(&self) -> Option<u64> {
        match (self.queue_high.front(), self.queue_low.front()) {
            (Some(h), Some(l)) => Some(h.arrival_us.min(l.arrival_us)),
            (Some(h), None) => Some(h.arrival_us),
            (None, Some(l)) => Some(l.arrival_us),
            (None, None) => None,
        }
    }

    /// Live executor count (autoscaling adds and retires entries).
    fn live_slots(&self) -> usize {
        self.slot_heap.len()
    }

    /// When the earliest-free executor opens up (µs).
    fn earliest_free_us(&self) -> u64 {
        self.slot_heap
            .peek()
            .expect("a backend keeps ≥ 1 slot")
            .0
             .0
    }

    /// Occupies the earliest-free executor until `completion_us`.
    fn occupy_earliest(&mut self, completion_us: u64) {
        let Reverse((_, id)) = self.slot_heap.pop().expect("a backend keeps ≥ 1 slot");
        self.slot_heap.push(Reverse((completion_us, id)));
    }

    /// Adds `n` executors, free at `now_us`.
    fn add_slots(&mut self, n: usize, now_us: u64) {
        for _ in 0..n {
            self.slot_heap.push(Reverse((now_us, self.next_slot_id)));
            self.next_slot_id += 1;
        }
    }

    /// Retires up to `max` **idle** executors (free at or before
    /// `now_us`) and returns how many actually went — an in-flight batch
    /// is never killed, so a busy tier may retire fewer than asked.
    fn retire_idle(&mut self, max: usize, now_us: u64) -> usize {
        let mut retired = 0;
        while retired < max
            && self
                .slot_heap
                .peek()
                .is_some_and(|&Reverse((t, _))| t <= now_us)
        {
            self.slot_heap.pop();
            retired += 1;
        }
        retired
    }
}

/// One region's **per-request** serving-tier state: every offloaded
/// request is a discrete event with its own arrival, queueing,
/// batch-admission, service-start, and completion times.
///
/// One event loop on an integer-microsecond clock serves the shards'
/// stage-1 request runs, read in place in `(arrival_us, device_id,
/// stage)` order, chained pipeline-stage arrivals, and the slot-free and
/// linger timers. At equal timestamps every arrival — stream and chained
/// in key order, same-key chained ones in push order — enqueues before
/// that instant's timers dispatch, so simultaneous arrivals can share a
/// batch and the schedule is a pure function of the key-sorted stream
/// (the shard-count-invariance the determinism contract needs).
///
/// Batch assembly per backend: a batch closes when a slot is free **and**
/// either `max_batch` requests wait or the oldest waiting request has
/// lingered `linger_ms` (zero linger ⇒ close immediately, so unbatched
/// backends serve single-request batches). High-priority requests fill
/// batches first under the priority discipline. A closed batch of `b`
/// requests occupies its executor for `base_service_ms + per_item_ms · b`,
/// and every member completes at the batch's completion time. Under a
/// staged pipeline, each member below the last stage then schedules its
/// successor as an arrival at `completion_us + hop`, the hop priced on
/// its origin region's uplink; a hop that lands past the barrier is
/// served at its true time by a later epoch or the flush.
#[derive(Debug, Clone)]
pub struct RegionMicrosim {
    serving: CloudServing,
    backends: Vec<MicroBackend>,
    /// Timer events: (time µs, kind, backend index).
    heap: BinaryHeap<Reverse<(u64, u8, u32)>>,
    /// Staged-pipeline hop prices; `None` keeps the tier monolithic.
    pricing: Option<PipelinePricing>,
    /// Chained stage arrivals in transit, earliest key first.
    chained: BinaryHeap<Reverse<ChainedArrival>>,
    /// Chained arrivals pushed so far — the next one's `push` tie-break.
    chain_pushes: u64,
    /// EWMA-damped shed fraction, same controller as the fluid tier.
    shed_fraction: f64,
    /// Region-level sojourns completed since the last barrier — the
    /// epoch-windowed p99 [`barrier_signal`](RegionMicrosim::barrier_signal)
    /// publishes on [`RegionSignal::p99_ms`], reset after each publish.
    epoch_sojourn: Histogram,
    /// The last *measured* epoch p99, held across idle epochs so a tier
    /// that completed nothing (a fully shed or fully retreated epoch)
    /// keeps publishing its last observation instead of dropping to "no
    /// signal" — which would stampede every retreated device back at
    /// once and oscillate (see
    /// [`barrier_signal`](RegionMicrosim::barrier_signal)).
    held_p99_ms: Option<f64>,
}

impl RegionMicrosim {
    /// An idle per-request tier instantiated from the region template.
    ///
    /// # Panics
    ///
    /// Panics if `serving` fails [`CloudServing::validate`].
    pub fn new(serving: &CloudServing) -> Self {
        if let Err(why) = serving.validate() {
            panic!("invalid serving tier: {why}");
        }
        let backends = serving
            .backends
            .iter()
            .map(|b| MicroBackend {
                queue_high: VecDeque::new(),
                queue_low: VecDeque::new(),
                slot_heap: (0..b.slots as u32).map(|id| Reverse((0, id))).collect(),
                next_slot_id: b.slots as u32,
                scaler: ScalerState::default(),
                busy_us_at_barrier: 0,
                busy_us: 0,
                batch_sizes: Histogram::new(1.0, BATCH_HIST_BINS),
                sojourn_ms: Histogram::new(SOJOURN_BIN_MS, SOJOURN_BINS),
                epoch_sojourn: Histogram::new(SOJOURN_BIN_MS, SOJOURN_BINS),
                slot_timeline: Vec::new(),
                scaling_events: 0,
                rate_per_slot_ms: b.full_batch_rate_per_slot_ms(),
                linger_us: (b.batching.linger_ms * 1000.0).round() as u64,
                linger_event_us: u64::MAX,
            })
            .collect();
        RegionMicrosim {
            serving: serving.clone(),
            backends,
            heap: BinaryHeap::new(),
            pricing: None,
            chained: BinaryHeap::new(),
            chain_pushes: 0,
            shed_fraction: 0.0,
            epoch_sojourn: Histogram::new(SOJOURN_BIN_MS, SOJOURN_BINS),
            held_p99_ms: None,
        }
    }

    /// The region's cumulative per-request sojourns as of the last
    /// barrier (or flush): the merge of its backends' histograms.
    pub(crate) fn sojourn_ms(&self) -> Histogram {
        let mut region = Histogram::new(SOJOURN_BIN_MS, SOJOURN_BINS);
        for backend in &self.backends {
            region.merge(&backend.sojourn_ms);
        }
        region
    }

    /// Chains every completion below the pipeline's last stage into its
    /// successor's arrival; `None` keeps the tier monolithic.
    pub(crate) fn with_pipeline(mut self, pricing: Option<PipelinePricing>) -> Self {
        self.pricing = pricing;
        self
    }

    /// Runs one epoch: serves the shards' request `runs` together with
    /// the chained arrivals and timers that fall inside the epoch, handing
    /// every completion (including completions of requests admitted in
    /// earlier epochs) to `sink` as its batch closes. Events at or beyond
    /// `epoch_end_us` stay queued for the next epoch.
    ///
    /// Each run must be sorted by the `(arrival_us, device_id, stage)`
    /// key, the key must be unique across all runs, and every arrival
    /// must fall inside the epoch (debug-asserted within each run). Event
    /// pops, heap pushes, and discrete batch closes are counted into
    /// `probe`, and every batch close is emitted as a
    /// [`TraceEvent::BatchClose`] for `region` at its exact close instant.
    pub fn run_epoch(
        &mut self,
        runs: &[&[OffloadRequest]],
        epoch_end_us: u64,
        sink: &mut dyn FnMut(CompletedRequest),
        region: u64,
        probe: &mut PhaseProbe,
    ) {
        debug_assert!(runs.iter().all(|run| {
            run.windows(2).all(|w| key(&w[0]) < key(&w[1]))
                && run.last().is_none_or(|r| r.arrival_us < epoch_end_us)
        }));
        self.advance(runs, epoch_end_us, sink, region, probe);
    }

    /// Drains everything still queued, in flight or in transit between
    /// stages — the cloud keeps serving past the horizon so every
    /// admitted request completes and the tail histograms account for
    /// the whole population. The post-horizon drain still closes
    /// batches, so it hands completions to `sink` and records into
    /// `probe` like [`run_epoch`](RegionMicrosim::run_epoch).
    pub fn flush(
        &mut self,
        sink: &mut dyn FnMut(CompletedRequest),
        region: u64,
        probe: &mut PhaseProbe,
    ) {
        self.advance(&[], u64::MAX, sink, region, probe);
        // Fold the post-horizon completions into the cumulative
        // histograms — the final barrier never runs after a flush.
        for backend in &mut self.backends {
            backend.sojourn_ms.merge(&backend.epoch_sojourn);
            backend.epoch_sojourn.reset();
        }
        debug_assert!(self.chained.is_empty());
        debug_assert!(self.backends.iter().all(|b| b.queued() == 0));
        debug_assert!(self.backends.iter().all(|b| b.linger_event_us == u64::MAX));
    }

    /// The event loop [`run_epoch`](RegionMicrosim::run_epoch) and
    /// [`flush`](RegionMicrosim::flush) share: serves the stage-1 `runs`,
    /// the chained arrivals and the timers in time order, before `end_us`.
    /// Arrivals at an instant enqueue before its timers run: a slot freed
    /// then is already visible through the slot heap, and `dispatch`
    /// re-checks the linger deadline, so they board any batch closing
    /// then. `u64::MAX` means "no arrival" and bounds the flush; no event
    /// reaches it, as the build caps spans at [`MAX_SPAN_US`].
    fn advance(
        &mut self,
        runs: &[&[OffloadRequest]],
        end_us: u64,
        sink: &mut dyn FnMut(CompletedRequest),
        region: u64,
        probe: &mut PhaseProbe,
    ) {
        let mut runs = runs.to_vec();
        let mut touched = vec![false; self.backends.len()];
        loop {
            let chained = self
                .chained
                .peek()
                .map_or(u64::MAX, |c| c.0.request.arrival_us);
            let mut now = least_head(&runs)
                .map_or(u64::MAX, |i| runs[i][0].arrival_us)
                .min(chained);
            while let Some(&Reverse((time, kind, backend))) = self.heap.peek() {
                if time >= now.min(end_us) {
                    break;
                }
                self.heap.pop();
                probe.on_pop();
                if kind == EVENT_LINGER {
                    // The backend's one linger wakeup just fired;
                    // `dispatch` re-arms if the batcher is still filling.
                    debug_assert_eq!(self.backends[backend as usize].linger_event_us, time);
                    self.backends[backend as usize].linger_event_us = u64::MAX;
                }
                self.dispatch(backend as usize, time, sink, region, probe);
                // The batch may have chained an earlier arrival.
                if let Some(Reverse(c)) = self.chained.peek() {
                    now = now.min(c.request.arrival_us);
                }
            }
            if now >= end_us {
                return;
            }
            touched.fill(false);
            // Every stream and chained arrival at `now`, in key order.
            loop {
                let head = least_head(&runs).filter(|&i| runs[i][0].arrival_us == now);
                let hop = self.chained.peek().map(|c| key(&c.0.request));
                let request = match (head, hop.filter(|k| k.0 == now)) {
                    (None, None) => break,
                    (Some(i), hop) if hop.is_none_or(|hop| key(&runs[i][0]) < hop) => {
                        let request = runs[i][0];
                        runs[i] = &runs[i][1..];
                        request
                    }
                    _ => {
                        probe.on_pop();
                        let Reverse(next) =
                            self.chained.pop().expect("a chained arrival was peeked");
                        next.request
                    }
                };
                self.enqueue(request, now, &mut touched);
            }
            for (backend, hit) in touched.iter().enumerate() {
                if *hit {
                    self.dispatch(backend, now, sink, region, probe);
                }
            }
        }
    }

    /// Queues `request` at `now` on the least-work backend and marks it
    /// for dispatch.
    fn enqueue(&mut self, request: OffloadRequest, now: u64, touched: &mut [bool]) {
        let backend = self.least_work_backend(now);
        let queue = if request.high_priority {
            &mut self.backends[backend].queue_high
        } else {
            &mut self.backends[backend].queue_low
        };
        queue.push_back(request);
        touched[backend] = true;
    }

    /// The backend a new arrival joins: least work left, estimated as the
    /// earliest slot gap plus the queue drained at the backend's peak
    /// (full-batch) rate over its **live** slots — the discrete analogue
    /// of the fluid water-fill. Under [`DispatchPolicy::CostAware`] the
    /// work-left score is weighed by the backend's price × energy
    /// [`BackendConfig::cost_weight`], the discrete analogue of the
    /// cost-weighted water-fill. Ties go to the lowest index.
    fn least_work_backend(&self, now_us: u64) -> usize {
        let cost_aware = self.serving.dispatch == DispatchPolicy::CostAware;
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        for (i, (config, backend)) in self.serving.backends.iter().zip(&self.backends).enumerate() {
            let free_at = backend.earliest_free_us();
            let slot_wait_ms = free_at.saturating_sub(now_us) as f64 / 1000.0;
            let rate = backend.live_slots() as f64 * backend.rate_per_slot_ms;
            let score = if cost_aware {
                // Include the arriving job's own service so an idle tier
                // (all work-left 0) still ranks by cost, then weigh by
                // price × energy.
                (slot_wait_ms + (backend.queued() + 1) as f64 / rate) * config.cost_weight()
            } else {
                slot_wait_ms + backend.queued() as f64 / rate
            };
            if score < best_score {
                best_score = score;
                best = i;
            }
        }
        best
    }

    /// Closes every batch `backend` can start at `now`: while a slot is
    /// free and the batcher is ready (`max_batch` waiting, or the oldest
    /// request has lingered out), assemble high-priority-first, occupy the
    /// slot for the affine batch cost, and complete every member into
    /// `sink` — chaining each one below the pipeline's last stage into its
    /// successor's arrival. If the batcher is still filling, schedule the
    /// linger expiry instead.
    fn dispatch(
        &mut self,
        backend: usize,
        now_us: u64,
        sink: &mut dyn FnMut(CompletedRequest),
        region: u64,
        probe: &mut PhaseProbe,
    ) {
        let config = &self.serving.backends[backend];
        let pricing = self.pricing.as_ref();
        let linger_us = self.backends[backend].linger_us;
        loop {
            let state = &mut self.backends[backend];
            let queued = state.queued();
            if queued == 0 {
                return;
            }
            let free_at = state.earliest_free_us();
            if free_at > now_us {
                // No executor free: the pending slot-free event re-runs
                // this dispatch when one opens up.
                return;
            }
            let oldest = state.oldest_arrival_us().expect("queue is non-empty");
            let linger_deadline = oldest.saturating_add(linger_us);
            if queued < config.batching.max_batch && now_us < linger_deadline {
                // Still filling: wake up when the oldest request's linger
                // window closes — unless a wakeup is already in flight.
                // The pending one can only be *earlier* (the deadline is
                // monotone), and an early wakeup re-checks and re-arms,
                // so one event per backend covers every filling batch.
                if state.linger_event_us == u64::MAX {
                    state.linger_event_us = linger_deadline;
                    self.heap
                        .push(Reverse((linger_deadline, EVENT_LINGER, backend as u32)));
                    probe.on_push();
                }
                return;
            }
            let size = queued.min(config.batching.max_batch);
            let service_us = (config.batch_service_ms(size as f64) * 1000.0)
                .round()
                .max(1.0) as u64;
            let completion_us = now_us + service_us;
            state.occupy_earliest(completion_us);
            state.busy_us += service_us;
            state.batch_sizes.record(size as f64);
            for _ in 0..size {
                let request = match state.queue_high.pop_front() {
                    Some(r) => r,
                    None => state.queue_low.pop_front().expect("batch within queue"),
                };
                let sojourn_ms = (completion_us - request.arrival_us) as f64 / 1000.0;
                // One record per completion on the hot path; the barrier
                // folds this epoch window into the cumulative and
                // region-level histograms with exact merges instead
                // ([`barrier_signal`](RegionMicrosim::barrier_signal)).
                state.epoch_sojourn.record(sojourn_ms);
                sink(CompletedRequest {
                    request,
                    backend: backend as u32,
                    sojourn_ms,
                    completion_us,
                });
                if let Some(pricing) = pricing.filter(|p| request.stage < p.depth) {
                    let hop_us =
                        pricing.hop_us(request.origin_region as usize, request.stage as usize - 1);
                    let mut next = request;
                    next.stage += 1;
                    next.arrival_us = completion_us + hop_us;
                    // The device pays this stage's sojourn plus the hop;
                    // the terminal stage adds its own sojourn to the sum.
                    next.base_latency_ms += sojourn_ms + hop_us as f64 / 1000.0;
                    self.chained.push(Reverse(ChainedArrival {
                        request: next,
                        push: self.chain_pushes,
                    }));
                    self.chain_pushes += 1;
                    probe.on_push();
                }
            }
            self.heap
                .push(Reverse((completion_us, EVENT_SLOT_FREE, backend as u32)));
            if probe.is_enabled() {
                probe.on_push();
                probe.on_batches(1);
                probe.emit(TraceEvent::BatchClose {
                    time_us: now_us,
                    region,
                    backend: backend as u64,
                    batches: 1,
                    size_milli: size as u64 * 1000,
                });
            }
        }
    }

    /// Total requests waiting across all backends.
    pub fn depth(&self) -> f64 {
        self.backends.iter().map(|b| b.queued() as f64).sum()
    }

    /// Live slot counts, backend order (metrics sampling).
    pub fn live_slots(&self) -> Vec<u64> {
        self.backends
            .iter()
            .map(|b| b.live_slots() as u64)
            .collect()
    }

    /// The wait (ms) a new arrival of the given class would see at
    /// `now_us`: the least-loaded backend's slot gap plus its queue
    /// drained at the peak batch rate.
    pub fn wait_ms(&self, high_priority: bool, now_us: u64) -> f64 {
        self.backends
            .iter()
            .map(|backend| {
                let slot_wait = backend.earliest_free_us().saturating_sub(now_us) as f64 / 1000.0;
                let ahead = if high_priority {
                    backend.queue_high.len()
                } else {
                    backend.queued()
                } as f64;
                let rate = backend.live_slots() as f64 * backend.rate_per_slot_ms;
                slot_wait + ahead / rate
            })
            .fold(f64::INFINITY, f64::min)
            .max(0.0)
    }

    /// Runs the autoscalers at the epoch barrier (`now_us` = the epoch
    /// end) — **before** [`barrier_signal`](RegionMicrosim::barrier_signal)
    /// so the published signal reflects post-scale capacity. Scale-up adds
    /// slots free at `now_us` and arms a slot-free event so queued work
    /// can board them next epoch; scale-down retires **idle** slots only
    /// (an in-flight batch is never killed) and retries at later barriers
    /// if not enough executors are idle. Every *realized* slot-count
    /// change is emitted into `probe` as a [`TraceEvent::ScalingStep`]
    /// (scale-down reports the achieved count when too few executors
    /// were idle to retire the full step).
    pub fn scale(&mut self, now_us: u64, epoch_us: u64, region: u64, probe: &mut PhaseProbe) {
        let heap = &mut self.heap;
        for (i, (config, backend)) in self
            .serving
            .backends
            .iter()
            .zip(self.backends.iter_mut())
            .enumerate()
        {
            backend.slot_timeline.push(backend.live_slots() as u32);
            if let Some(auto) = &config.autoscaler {
                let slots = backend.live_slots();
                let observed = match auto.signal {
                    ScalingSignal::Utilization => {
                        let epoch_busy = backend.busy_us - backend.busy_us_at_barrier;
                        if epoch_us > 0 {
                            epoch_busy as f64 / (slots as f64 * epoch_us as f64)
                        } else {
                            0.0
                        }
                    }
                    ScalingSignal::QueueDepth => backend.queued() as f64 / slots as f64,
                    // The epoch-windowed p99 sojourn over the tail target:
                    // above 1 the epoch blew its budget. An idle epoch (no
                    // completions) observes 0, which damps the estimate
                    // down and lets the pool scale back in.
                    ScalingSignal::TailLatency { target_us } => {
                        if backend.epoch_sojourn.count() > 0 {
                            backend.epoch_sojourn.percentile(99.0) / (target_us as f64 / 1000.0)
                        } else {
                            0.0
                        }
                    }
                };
                let target = auto.step(&mut backend.scaler, observed, slots);
                match target.cmp(&slots) {
                    std::cmp::Ordering::Greater => {
                        backend.add_slots(target - slots, now_us);
                        heap.push(Reverse((now_us, EVENT_SLOT_FREE, i as u32)));
                        probe.on_push();
                        auto.arm(&mut backend.scaler);
                        backend.scaling_events += 1;
                        if probe.is_enabled() {
                            probe.emit(TraceEvent::ScalingStep {
                                time_us: now_us,
                                region,
                                backend: i as u64,
                                from_slots: slots as u64,
                                to_slots: target as u64,
                            });
                        }
                    }
                    std::cmp::Ordering::Less => {
                        let retired = backend.retire_idle(slots - target, now_us);
                        if retired > 0 {
                            auto.arm(&mut backend.scaler);
                            backend.scaling_events += 1;
                            if probe.is_enabled() {
                                probe.emit(TraceEvent::ScalingStep {
                                    time_us: now_us,
                                    region,
                                    backend: i as u64,
                                    from_slots: slots as u64,
                                    to_slots: backend.live_slots() as u64,
                                });
                            }
                        }
                    }
                    std::cmp::Ordering::Equal => {}
                }
            }
            backend.busy_us_at_barrier = backend.busy_us;
        }
    }

    /// The barrier signal shards read next epoch; updates the damped shed
    /// fraction from the tier state observed at `now_us` (the epoch end,
    /// **after** [`scale`](RegionMicrosim::scale) has run).
    pub fn barrier_signal(&mut self, now_us: u64) -> RegionSignal {
        // Incremental histogram merge: the dispatch hot loop records each
        // completion exactly once (into its backend's epoch window); the
        // barrier folds those windows into the cumulative per-backend
        // histogram and the region-level epoch window in one exact,
        // hot-bin-bounded merge pass — bit-identical to per-completion
        // records, at a fraction of the hot-path cost. The epoch windows
        // consumed here are reset here, closing the window this signal
        // publishes ([`scale`](RegionMicrosim::scale) reads the same
        // window just before, at the documented scale-then-signal
        // barrier cadence).
        for backend in &mut self.backends {
            backend.sojourn_ms.merge(&backend.epoch_sojourn);
            self.epoch_sojourn.merge(&backend.epoch_sojourn);
            backend.epoch_sojourn.reset();
        }
        let wait_low = self.wait_ms(false, now_us);
        let target = self.serving.admission.shed_fraction(self.depth(), wait_low);
        self.shed_fraction = damp_shed_fraction(self.shed_fraction, target);
        // The epoch-windowed tail: p99 of the sojourns completed since
        // the last barrier. An idle epoch (nothing completed) re-publishes
        // the last *measured* p99 instead of clearing the signal: a
        // region that shed or retreated 100% of a flash crowd completes
        // nothing, and publishing `None` then would release every
        // retreated device at once, re-saturate the tier, and oscillate.
        // Holding keeps retreat armed until a fresh measurement — the
        // deterministic 1-in-16 retreat re-probes keep those coming —
        // actually clears the budget. A tier that has never completed
        // anything still publishes `None` (no signal, not a stale zero).
        let p99_ms = if self.epoch_sojourn.count() > 0 {
            let fresh = self.epoch_sojourn.percentile(99.0);
            self.held_p99_ms = Some(fresh);
            Some(fresh)
        } else {
            self.held_p99_ms
        };
        self.epoch_sojourn.reset();
        RegionSignal {
            wait_high_ms: self.wait_ms(true, now_us),
            wait_low_ms: wait_low,
            // The weight of the backend the next arrival would join —
            // the discrete analogue of the fluid tier's marginal cost.
            marginal_cost: self.serving.backends[self.least_work_backend(now_us)].cost_weight(),
            shed_fraction: self.shed_fraction,
            p99_ms,
        }
    }

    /// The report's per-backend lines for the region named `region`, in
    /// backend order, with utilization taken over `horizon_ms`. Per-slot
    /// busy time is normalized by the run's mean provisioned slot count
    /// (= the configured count when static); batches and served requests
    /// are the counts of the batch-size and sojourn histograms.
    pub fn backend_reports(&self, region: &str, horizon_ms: f64) -> Vec<BackendReport> {
        self.serving
            .backends
            .iter()
            .zip(&self.backends)
            .map(|(b, q)| {
                let mean_slots = if q.slot_timeline.is_empty() {
                    b.slots as f64
                } else {
                    q.slot_timeline.iter().map(|&s| s as f64).sum::<f64>()
                        / q.slot_timeline.len() as f64
                };
                let busy_ms = q.busy_us as f64 / 1000.0 / mean_slots;
                let mut sojourn_ms = q.sojourn_ms.clone();
                sojourn_ms.merge(&q.epoch_sojourn);
                let served = sojourn_ms.count() as f64;
                BackendReport {
                    region: region.to_string(),
                    backend: b.name.clone(),
                    slots: b.slots,
                    served_jobs: served,
                    batches: q.batch_sizes.count() as f64,
                    busy_ms,
                    utilization: busy_ms / horizon_ms,
                    batch_sizes: q.batch_sizes.clone(),
                    sojourn_ms,
                    slot_timeline: q.slot_timeline.clone(),
                    scaling_events: q.scaling_events,
                    cost_fp: provision_cost_fp(&q.slot_timeline, b.price_per_slot_epoch),
                    cloud_energy_mj: served * b.energy_per_job_mj,
                }
            })
            .collect()
    }
}

impl fmt::Display for RegionMicrosim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "per-request tier: {} backend(s), {:.0} requests queued",
            self.backends.len(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_queue() -> RegionServing {
        RegionServing::new(&CloudServing::single(10, 10.0)) // 1 job/ms drain rate
    }

    #[test]
    fn empty_tier_has_no_wait() {
        let q = single_queue();
        assert_eq!(q.wait_ms(false), 0.0);
        assert_eq!(q.depth(), 0.0);
    }

    #[test]
    fn overload_accumulates_backlog_and_wait() {
        let mut q = single_queue();
        // 1 job/ms drain; admit 2000 jobs per 1000 ms epoch -> +1000 backlog.
        q.admit(0, 2000);
        q.drain(1000.0, 0, 0, &mut PhaseProbe::disabled());
        assert!((q.depth() - 1000.0).abs() < 1e-9);
        assert!((q.wait_ms(false) - 1000.0).abs() < 1e-9);
        // Underload drains it back down.
        q.admit(0, 0);
        q.drain(1000.0, 0, 0, &mut PhaseProbe::disabled());
        assert_eq!(q.depth(), 0.0);
    }

    #[test]
    fn adequate_capacity_keeps_queue_empty() {
        let mut q = single_queue();
        for _ in 0..10 {
            q.admit(0, 500); // half the epoch's drain budget
            q.drain(1000.0, 0, 0, &mut PhaseProbe::disabled());
            assert_eq!(q.depth(), 0.0);
        }
    }

    #[test]
    fn priority_class_waits_only_behind_high_backlog() {
        let mut q = single_queue();
        q.admit(300, 3000);
        // Before draining: high sees 300 jobs ahead, low sees all 3300.
        assert!((q.wait_ms(true) - 300.0).abs() < 1e-9);
        assert!((q.wait_ms(false) - 3300.0).abs() < 1e-9);
        // Draining serves the high class first.
        q.drain(300.0, 0, 0, &mut PhaseProbe::disabled());
        assert!(q.wait_ms(true) < 1e-9);
        assert!((q.wait_ms(false) - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn drain_is_work_conserving_across_classes() {
        let mut q = single_queue();
        q.admit(100, 100);
        q.drain(150.0, 0, 0, &mut PhaseProbe::disabled()); // budget 150: 100 high + 50 low
        assert!(q.wait_ms(true) < 1e-9);
        assert!((q.depth() - 50.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        CloudServing::single(0, 5.0);
    }

    #[test]
    #[should_panic(expected = "high_fraction")]
    fn bad_priority_fraction_rejected() {
        CloudServing::single(1, 5.0).with_priority(1.5);
    }

    #[test]
    fn single_is_one_unbatched_default_backend() {
        let serving = CloudServing::single(10, 10.0).with_priority(0.25);
        assert_eq!(serving.backends.len(), 1);
        let b = &serving.backends[0];
        assert_eq!(b.name, "default");
        assert_eq!(b.slots, 10);
        assert_eq!(b.batching.max_batch, 1);
        // Drains `slots / service_ms` jobs per ms.
        assert_eq!(b.full_batch_rate_per_slot_ms() * b.slots as f64, 1.0);
        assert_eq!(
            serving.discipline,
            QueueDiscipline::Priority {
                high_fraction: 0.25
            }
        );
        assert!(serving.validate().is_ok());
    }

    #[test]
    fn batching_amortizes_base_cost() {
        // base 32 ms + 1 ms/item, batch 32: per-item cost 2 ms vs 33 ms.
        let unbatched = BackendConfig::new("gpu", 1, 32.0, 1.0);
        let batched = unbatched.clone().with_batching(32, 100.0);
        let peak_rate = |b: &BackendConfig| b.full_batch_rate_per_slot_ms() * b.slots as f64;
        assert!((peak_rate(&unbatched) - 1.0 / 33.0).abs() < 1e-12);
        assert!((peak_rate(&batched) - 32.0 / 64.0).abs() < 1e-12);

        // Under the same overload the batched tier drains ~16.5x faster:
        // two 10 s epochs clear all 10 000 jobs, while the unbatched
        // backend has served only ~600.
        let mut plain = RegionServing::new(&CloudServing::new(vec![unbatched]));
        let mut tier = RegionServing::new(&CloudServing::new(vec![batched]));
        plain.admit(0, 10_000);
        tier.admit(0, 10_000);
        for _ in 0..2 {
            plain.drain(10_000.0, 0, 0, &mut PhaseProbe::disabled());
            tier.drain(10_000.0, 0, 0, &mut PhaseProbe::disabled());
        }
        assert_eq!(tier.depth(), 0.0, "batched tier should have cleared");
        assert!(
            plain.depth() > 9_000.0,
            "unbatched backlog should persist, got {}",
            plain.depth()
        );
    }

    #[test]
    fn sparse_traffic_batches_by_linger_fill() {
        // 0.2 jobs/ms arriving, linger 40 ms => fluid batches of ~8, and
        // at batch 8 the backend keeps up (rate 8/18 ≈ 0.44 jobs/ms).
        let config = BackendConfig::new("gpu", 1, 10.0, 1.0).with_batching(64, 40.0);
        let mut tier = RegionServing::new(&CloudServing::new(vec![config]));
        tier.admit(0, 200);
        tier.drain(1000.0, 0, 0, &mut PhaseProbe::disabled());
        assert_eq!(tier.depth(), 0.0, "batch 8 keeps up with 0.2 jobs/ms");
        let stats = tier.backend_reports("r", 1_000.0).remove(0);
        assert_eq!(stats.served_jobs, 200.0);
        let mean_batch = stats.served_jobs / stats.batches;
        let hist = stats.batch_sizes;
        assert!(
            (7.0..=9.0).contains(&mean_batch),
            "linger fill should set batch ≈ 8, got {mean_batch}"
        );
        assert!(hist.count() > 0);
        // Sparse batches linger: the published wait includes the linger tax.
        assert!(tier.wait_ms(false) > 0.0);
    }

    #[test]
    fn water_fill_prefers_least_loaded_backend() {
        let fast = BackendConfig::new("fast", 4, 10.0, 0.0);
        let slow = BackendConfig::new("slow", 1, 10.0, 0.0);
        let mut tier = RegionServing::new(&CloudServing::new(vec![fast, slow]));
        // Equal completion times at start: arrivals split 4:1 by capacity.
        tier.admit(0, 1000);
        let depths: Vec<f64> = tier
            .queues
            .iter()
            .map(|q| q.backlog_high + q.backlog_low)
            .collect();
        assert!((depths[0] - 800.0).abs() < 1e-6, "fast got {}", depths[0]);
        assert!((depths[1] - 200.0).abs() < 1e-6, "slow got {}", depths[1]);
        // Completion times equalize.
        assert!((depths[0] / 0.4 - depths[1] / 0.1).abs() < 1e-6);
    }

    #[test]
    fn water_fill_tops_up_emptier_backend_first() {
        let a = BackendConfig::new("a", 1, 10.0, 0.0);
        let b = BackendConfig::new("b", 1, 10.0, 0.0);
        let mut tier = RegionServing::new(&CloudServing::new(vec![a, b]));
        tier.admit(0, 100);
        tier.drain(0.0, 0, 0, &mut PhaseProbe::disabled()); // no drain budget; just close the epoch
                                                            // Backend queues now hold 50/50. Push one backend ahead by hand.
        tier.queues[0].backlog_low += 30.0;
        // The next 30 jobs must all go to the emptier backend.
        tier.admit(0, 30);
        let d0 = tier.queues[0].backlog_high + tier.queues[0].backlog_low;
        let d1 = tier.queues[1].backlog_high + tier.queues[1].backlog_low;
        assert!((d0 - d1).abs() < 1e-9, "got {d0} vs {d1}");
    }

    #[test]
    fn admission_shed_fraction_tracks_overload() {
        let open = AdmissionPolicy::Open;
        assert_eq!(open.shed_fraction(1e9, 1e9), 0.0);
        let depth = AdmissionPolicy::QueueDepth { max_jobs: 100.0 };
        assert_eq!(depth.shed_fraction(50.0, 0.0), 0.0);
        assert!((depth.shed_fraction(200.0, 0.0) - 0.5).abs() < 1e-12);
        let deadline = AdmissionPolicy::Deadline {
            max_wait_ms: 1000.0,
        };
        assert_eq!(deadline.shed_fraction(0.0, 500.0), 0.0);
        assert!((deadline.shed_fraction(0.0, 4000.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn signal_reports_waits_and_shedding() {
        let config = BackendConfig::new("gpu", 10, 10.0, 0.0);
        let serving = CloudServing::new(vec![config])
            .with_admission(AdmissionPolicy::Deadline { max_wait_ms: 100.0 });
        let mut tier = RegionServing::new(&serving);
        tier.admit(50, 2000);
        tier.drain(1000.0, 0, 0, &mut PhaseProbe::disabled());
        // The admission controller acts at publish time (after scaling),
        // not inside drain — the barrier order is drain → scale → publish.
        assert_eq!(tier.signal().shed_fraction, 0.0);
        tier.scale(1000.0, 0, 0, &mut PhaseProbe::disabled());
        let signal = tier.publish();
        assert!(signal.wait_low_ms > 100.0);
        assert!(signal.shed_fraction > 0.0 && signal.shed_fraction < 1.0);
        assert!(signal.wait_high_ms <= signal.wait_low_ms);
        assert_eq!(signal.wait_ms(true), signal.wait_high_ms);
        assert_eq!(signal.wait_ms(false), signal.wait_low_ms);
        // An unpriced tier publishes the neutral marginal cost.
        assert_eq!(signal.marginal_cost, 1.0);
    }

    #[test]
    fn validate_rejects_bad_tiers() {
        assert!(CloudServing::new(vec![]).validate().is_err());
        let dup = CloudServing::new(vec![
            BackendConfig::new("x", 1, 1.0, 0.0),
            BackendConfig::new("x", 1, 1.0, 0.0),
        ]);
        assert!(dup.validate().unwrap_err().contains("duplicate"));
        let bad_admission = CloudServing::new(vec![BackendConfig::new("x", 1, 1.0, 0.0)])
            .with_admission(AdmissionPolicy::QueueDepth { max_jobs: 0.0 });
        assert!(bad_admission.validate().is_err());
        let bad_failover = CloudServing::new(vec![BackendConfig::new("x", 1, 1.0, 0.0)])
            .with_failover(FailoverPolicy::SiblingRegion { penalty_ms: -1.0 });
        assert!(bad_failover.validate().is_err());
    }

    #[test]
    fn display_shows_state() {
        let mut q = single_queue();
        q.admit(5, 10);
        assert!(format!("{q}").contains("15.0 jobs"));
    }

    // ---- per-request microsimulation ----

    fn request(arrival_us: u64, device_id: u64) -> OffloadRequest {
        OffloadRequest {
            arrival_us,
            device_id,
            stage: 1,
            high_priority: false,
            origin_region: 0,
            failed_over: false,
            base_latency_ms: 0.0,
            energy_mj: 0.0,
            switched: false,
        }
    }

    fn run_all(sim: &mut RegionMicrosim, requests: &[OffloadRequest]) -> Vec<CompletedRequest> {
        let mut out = Vec::new();
        let end = requests.last().map_or(1, |r| r.arrival_us + 1);
        let mut collect = |c| out.push(c);
        sim.run_epoch(
            &[requests],
            end,
            &mut collect,
            0,
            &mut PhaseProbe::disabled(),
        );
        sim.flush(&mut collect, 0, &mut PhaseProbe::disabled());
        out
    }

    #[test]
    fn microsim_zero_linger_serves_single_request_batches() {
        // Unbatched 10 ms backend: each request is its own batch and an
        // idle tier serves it immediately — sojourn is exactly the
        // single-item service time.
        let serving = CloudServing::new(vec![BackendConfig::new("gpu", 1, 10.0, 0.0)]);
        let mut sim = RegionMicrosim::new(&serving);
        let requests: Vec<_> = (0..4).map(|i| request(i * 100_000, i)).collect();
        let done = run_all(&mut sim, &requests);
        assert_eq!(done.len(), 4);
        for c in &done {
            assert!((c.sojourn_ms - 10.0).abs() < 1e-9, "got {}", c.sojourn_ms);
        }
        let stats = sim.backend_reports("r", 1_000.0).remove(0);
        assert_eq!(stats.batches, 4.0);
        assert_eq!(stats.batch_sizes.min(), 1.0);
        assert_eq!(stats.batch_sizes.max(), 1.0);
        assert_eq!(stats.sojourn_ms.count(), 4);
        assert!((stats.busy_ms - 40.0).abs() < 1e-9);
    }

    #[test]
    fn microsim_same_instant_arrivals_share_a_batch() {
        // Four arrivals at the same microsecond with max_batch 4 close as
        // one full batch even with zero linger.
        let serving = CloudServing::new(vec![
            BackendConfig::new("gpu", 1, 10.0, 1.0).with_batching(4, 0.0)
        ]);
        let mut sim = RegionMicrosim::new(&serving);
        let requests: Vec<_> = (0..4).map(|i| request(5_000, i)).collect();
        let done = run_all(&mut sim, &requests);
        assert_eq!(done.len(), 4);
        let stats = sim.backend_reports("r", 1_000.0).remove(0);
        assert_eq!(stats.batches, 1.0, "one full batch expected");
        // Batch of 4: service 10 + 4·1 = 14 ms for every member.
        for c in &done {
            assert!((c.sojourn_ms - 14.0).abs() < 1e-9, "got {}", c.sojourn_ms);
        }
    }

    #[test]
    fn microsim_linger_expiry_closes_partial_batches() {
        // Two arrivals 5 ms apart, max_batch 32, linger 50 ms: the batch
        // closes 50 ms after the first arrival with both requests aboard.
        let serving = CloudServing::new(vec![
            BackendConfig::new("gpu", 1, 10.0, 1.0).with_batching(32, 50.0)
        ]);
        let mut sim = RegionMicrosim::new(&serving);
        let requests = vec![request(0, 0), request(5_000, 1)];
        let done = run_all(&mut sim, &requests);
        assert_eq!(done.len(), 2);
        let stats = sim.backend_reports("r", 1_000.0).remove(0);
        assert_eq!(stats.batches, 1.0);
        // Service of batch 2 = 12 ms, started at linger expiry (50 ms).
        let first = done.iter().find(|c| c.request.device_id == 0).unwrap();
        let second = done.iter().find(|c| c.request.device_id == 1).unwrap();
        assert!(
            (first.sojourn_ms - 62.0).abs() < 1e-9,
            "{}",
            first.sojourn_ms
        );
        assert!(
            (second.sojourn_ms - 57.0).abs() < 1e-9,
            "{}",
            second.sojourn_ms
        );
    }

    #[test]
    fn microsim_arrival_at_linger_deadline_boards_the_closing_batch() {
        // The documented intra-epoch ordering: at equal timestamps,
        // same-microsecond arrivals enqueue before any batch closes. An
        // arrival landing exactly when the oldest request's linger
        // expires must therefore share its batch.
        let serving = CloudServing::new(vec![
            BackendConfig::new("gpu", 1, 10.0, 1.0).with_batching(32, 50.0)
        ]);
        let mut sim = RegionMicrosim::new(&serving);
        let requests = vec![request(0, 0), request(50_000, 1)];
        let done = run_all(&mut sim, &requests);
        assert_eq!(done.len(), 2);
        let stats = sim.backend_reports("r", 1_000.0).remove(0);
        assert_eq!(stats.batches, 1.0, "both requests share one batch");
        // Batch of 2 closes at 50 ms, service 10 + 2·1 = 12 ms.
        let first = done.iter().find(|c| c.request.device_id == 0).unwrap();
        let second = done.iter().find(|c| c.request.device_id == 1).unwrap();
        assert!(
            (first.sojourn_ms - 62.0).abs() < 1e-9,
            "{}",
            first.sojourn_ms
        );
        assert!(
            (second.sojourn_ms - 12.0).abs() < 1e-9,
            "{}",
            second.sojourn_ms
        );
    }

    #[test]
    fn microsim_single_slot_fifo_completions_are_monotone() {
        // One slot + FIFO ⇒ batches run strictly in order, so completion
        // times are non-decreasing in arrival order.
        let serving = CloudServing::new(vec![
            BackendConfig::new("gpu", 1, 25.0, 2.0).with_batching(8, 30.0)
        ]);
        let mut sim = RegionMicrosim::new(&serving);
        let requests: Vec<_> = (0..64u64)
            .map(|i| request(i.wrapping_mul(0x9E37_79B9) % 200_000, i))
            .collect();
        let mut sorted = requests.clone();
        sorted.sort_unstable_by_key(|r| (r.arrival_us, r.device_id));
        let done = run_all(&mut sim, &sorted);
        assert_eq!(done.len(), 64);
        let mut completion_by_arrival: Vec<(u64, u64, f64)> = done
            .iter()
            .map(|c| {
                let completion = c.request.arrival_us + (c.sojourn_ms * 1000.0).round() as u64;
                (c.request.arrival_us, c.request.device_id, completion as f64)
            })
            .collect();
        completion_by_arrival.sort_unstable_by_key(|&(a, d, _)| (a, d));
        for w in completion_by_arrival.windows(2) {
            assert!(
                w[0].2 <= w[1].2,
                "FIFO single-slot completions must be monotone: {w:?}"
            );
        }
    }

    #[test]
    fn microsim_priority_class_fills_batches_first() {
        // Saturate a single slot, then queue one high + many low: the
        // high-priority request must board the next batch.
        let serving = CloudServing::new(vec![
            BackendConfig::new("gpu", 1, 100.0, 0.0).with_batching(2, 0.0)
        ]);
        let mut sim = RegionMicrosim::new(&serving);
        let mut requests: Vec<_> = (0..6).map(|i| request(i * 10, i)).collect();
        requests[5].high_priority = true;
        let mut high = requests[5];
        high.arrival_us = 55;
        requests[5] = high;
        requests.sort_unstable_by_key(|r| (r.arrival_us, r.device_id));
        let done = run_all(&mut sim, &requests);
        let high_done = done.iter().find(|c| c.request.high_priority).unwrap();
        // First batch (2 requests) starts immediately; the high-priority
        // arrival boards the second batch ahead of three earlier lows.
        let high_completion = high_done.request.arrival_us as f64 / 1000.0 + high_done.sojourn_ms;
        let worst_low = done
            .iter()
            .filter(|c| !c.request.high_priority)
            .map(|c| c.request.arrival_us as f64 / 1000.0 + c.sojourn_ms)
            .fold(0.0f64, f64::max);
        assert!(
            high_completion < worst_low,
            "high priority must finish before the last low: {high_completion} vs {worst_low}"
        );
    }

    #[test]
    fn microsim_flush_drains_everything_and_signal_sheds() {
        let serving = CloudServing::new(vec![BackendConfig::new("gpu", 1, 100.0, 0.0)])
            .with_admission(AdmissionPolicy::QueueDepth { max_jobs: 4.0 });
        let mut sim = RegionMicrosim::new(&serving);
        let requests: Vec<_> = (0..50).map(|i| request(i, i)).collect();
        let mut out = Vec::new();
        let mut collect = |c| out.push(c);
        sim.run_epoch(
            &[&requests],
            1_000,
            &mut collect,
            0,
            &mut PhaseProbe::disabled(),
        );
        assert!(sim.depth() > 4.0, "backlog should persist at the barrier");
        let signal = sim.barrier_signal(1_000);
        assert!(signal.shed_fraction > 0.0);
        assert!(signal.wait_low_ms > 0.0);
        assert!(signal.wait_high_ms <= signal.wait_low_ms);
        sim.flush(&mut collect, 0, &mut PhaseProbe::disabled());
        assert_eq!(out.len(), 50, "flush must complete every request");
        assert_eq!(sim.depth(), 0.0);
        assert!(format!("{sim}").contains("0 requests queued"));
    }

    #[test]
    fn microsim_spreads_arrivals_across_backends() {
        // Two identical backends: consecutive arrivals with queued work
        // alternate by least-work-left instead of piling on backend 0.
        let serving = CloudServing::new(vec![
            BackendConfig::new("a", 1, 50.0, 0.0),
            BackendConfig::new("b", 1, 50.0, 0.0),
        ]);
        let mut sim = RegionMicrosim::new(&serving);
        let requests: Vec<_> = (0..8).map(|i| request(i, i)).collect();
        let done = run_all(&mut sim, &requests);
        let on_a = done.iter().filter(|c| c.backend == 0).count();
        let on_b = done.iter().filter(|c| c.backend == 1).count();
        assert_eq!(
            on_a, 4,
            "least-work dispatch should balance, got {on_a}/{on_b}"
        );
        assert_eq!(on_b, 4);
    }

    /// The microsim reads the shards' runs in place in key order. However
    /// one key-sorted stream is split by device-id range, the way shards
    /// split devices — empty runs included, the runs passed in either
    /// order — the sink receives the one-run replay's completions in the
    /// same order with the same bits, and the probe records the same work.
    /// Same-microsecond arrivals fall in different runs, and the staged
    /// pricing chains hops onto stream instants, where stream and chained
    /// arrivals interleave by `(device_id, stage)`.
    #[test]
    fn microsim_serves_split_runs_like_one_run() {
        // Two executors, 10 ms batches of up to four, no linger; at
        // 8 Mbps the one hop costs 5 ms, so a stage-1 batch closing on a
        // 15 ms grid instant chains its hops onto the next one.
        let serving = CloudServing::new(vec![
            BackendConfig::new("gpu", 2, 10.0, 0.0).with_batching(4, 0.0)
        ]);
        let pricing = PipelinePricing::new(
            &crate::pipeline::PipelineSpec::new(vec![5_000]),
            &[lens_nn::units::Mbps::new(8.0)],
        );
        let mut requests: Vec<OffloadRequest> = (0..4u64)
            .flat_map(|k| (0..12).map(move |d| (k, d)))
            .filter(|&(k, d)| (d * 7 + k) % 3 != 0)
            .map(|(k, d)| request(k * 15_000, d))
            .chain([request(7_000, 5), request(7_000, 10), request(52_000, 3)])
            .collect();
        requests.sort_unstable_by_key(key);
        let epochs = [(0, 20_000), (20_000, 60_000)];

        let serve = |cuts: &[u64], reverse: bool| {
            let mut sim = RegionMicrosim::new(&serving).with_pipeline(Some(pricing.clone()));
            let mut probe = PhaseProbe::enabled();
            let mut done = Vec::new();
            let mut collect = |c| done.push(c);
            for (start, end) in epochs {
                let mut runs: Vec<Vec<OffloadRequest>> = cuts
                    .windows(2)
                    .map(|range| {
                        requests
                            .iter()
                            .filter(|r| (start..end).contains(&r.arrival_us))
                            .filter(|r| (range[0]..range[1]).contains(&r.device_id))
                            .copied()
                            .collect()
                    })
                    .collect();
                if reverse {
                    runs.reverse();
                }
                let runs: Vec<&[OffloadRequest]> = runs.iter().map(Vec::as_slice).collect();
                sim.run_epoch(&runs, end, &mut collect, 0, &mut probe);
            }
            sim.flush(&mut collect, 0, &mut probe);
            (done, probe.take())
        };
        let bits = |done: &[CompletedRequest]| -> Vec<_> {
            done.iter()
                .map(|c| {
                    (
                        key(&c.request),
                        c.backend,
                        c.completion_us,
                        c.sojourn_ms.to_bits(),
                        c.request.base_latency_ms.to_bits(),
                    )
                })
                .collect()
        };

        let (one_run, one_run_probe) = serve(&[0, 12], false);
        assert_eq!(one_run.len(), 2 * requests.len(), "every stage completes");
        let instants: Vec<u64> = requests.iter().map(|r| r.arrival_us).collect();
        assert!(
            one_run
                .iter()
                .any(|c| c.request.stage == 2 && instants.contains(&c.request.arrival_us)),
            "some chained arrival lands on a stream instant"
        );
        assert!(one_run_probe.1.batches_closed > 0);
        for cuts in [
            &[0, 6, 12][..],
            &[0, 4, 4, 12],
            &[0, 2, 5, 9, 12],
            &[0, 0, 7, 12, 12],
        ] {
            for reverse in [false, true] {
                let (done, probe) = serve(cuts, reverse);
                assert_eq!(
                    bits(&done),
                    bits(&one_run),
                    "runs split at {cuts:?}, reversed: {reverse}"
                );
                assert_eq!(
                    probe, one_run_probe,
                    "runs split at {cuts:?}, reversed: {reverse}"
                );
            }
        }
    }

    #[test]
    fn fidelity_default_is_fluid() {
        assert_eq!(CloudSimFidelity::default(), CloudSimFidelity::Fluid);
        assert_ne!(CloudSimFidelity::Fluid, CloudSimFidelity::PerRequest);
    }

    // ---- autoscaling ----

    /// One unbatched 1 ms/job backend with a queue-depth autoscaler
    /// reacting undamped (α = 1) and no cooldown unless configured.
    fn autoscaled_backend(auto: Autoscaler) -> CloudServing {
        CloudServing::new(vec![
            BackendConfig::new("gpu", 1, 1.0, 0.0).with_autoscaler(auto)
        ])
    }

    fn depth_scaler(max_slots: usize) -> Autoscaler {
        Autoscaler::new(ScalingSignal::QueueDepth, 10.0, 1.0, 1, max_slots)
            .with_alpha(1.0)
            .with_cooldown(0)
    }

    #[test]
    fn autoscaler_validation_rejects_bad_configs() {
        let ok = depth_scaler(4);
        assert!(ok.validate().is_ok());
        let cases = [
            (
                Autoscaler {
                    scale_up: f64::NAN,
                    ..ok
                },
                "finite",
            ),
            (
                Autoscaler {
                    scale_down: 20.0,
                    ..ok
                },
                "below scale_up",
            ),
            (Autoscaler { min_slots: 0, ..ok }, "min_slots"),
            (
                Autoscaler {
                    min_slots: 8,
                    max_slots: 4,
                    ..ok
                },
                "max_slots",
            ),
            (Autoscaler { step: 0, ..ok }, "step"),
            (Autoscaler { alpha: 0.0, ..ok }, "alpha"),
            (
                Autoscaler {
                    signal: ScalingSignal::TailLatency { target_us: 0 },
                    ..ok
                },
                "target_us",
            ),
        ];
        for (auto, needle) in cases {
            let why = auto.validate().unwrap_err();
            assert!(why.contains(needle), "{why:?} should mention {needle}");
        }
        // Tier-level: initial slots must sit inside the bounds, and
        // price/energy must be sane.
        let outside = CloudServing::new(vec![
            BackendConfig::new("gpu", 9, 1.0, 0.0).with_autoscaler(depth_scaler(4))
        ]);
        assert!(outside.validate().unwrap_err().contains("outside"));
        let bad_price =
            CloudServing::new(vec![BackendConfig::new("gpu", 1, 1.0, 0.0).with_price(-1.0)]);
        assert!(bad_price.validate().unwrap_err().contains("price"));
        let bad_energy = CloudServing::new(vec![
            BackendConfig::new("gpu", 1, 1.0, 0.0).with_energy(f64::NAN)
        ]);
        assert!(bad_energy.validate().unwrap_err().contains("energy"));
    }

    #[test]
    fn autoscaler_scales_up_under_load_and_down_when_idle() {
        let mut tier = RegionServing::new(&autoscaled_backend(depth_scaler(4)));
        // Flood: 1 slot drains 1000/epoch, 5000 arrive — queue-depth per
        // slot blows past the threshold every barrier until max.
        for _ in 0..4 {
            tier.admit(0, 5000);
            tier.drain(1000.0, 0, 0, &mut PhaseProbe::disabled());
            tier.scale(1000.0, 0, 0, &mut PhaseProbe::disabled());
            tier.publish();
        }
        let stats = &tier.backend_reports("r", 1_000.0)[0];
        assert_eq!(stats.slot_timeline, vec![1, 2, 3, 4]);
        assert_eq!(stats.scaling_events, 3);
        // Idle: the backlog drains, then the pool walks back to min.
        for _ in 0..20 {
            tier.admit(0, 0);
            tier.drain(1000.0, 0, 0, &mut PhaseProbe::disabled());
            tier.scale(1000.0, 0, 0, &mut PhaseProbe::disabled());
            tier.publish();
        }
        let stats = &tier.backend_reports("r", 1_000.0)[0];
        assert_eq!(*stats.slot_timeline.last().unwrap(), 1, "{stats:?}");
    }

    #[test]
    fn autoscaler_clamps_to_min_max_bounds() {
        let mut tier = RegionServing::new(&autoscaled_backend(depth_scaler(3).with_step(10)));
        // A giant step still lands exactly on max_slots…
        tier.admit(0, 100_000);
        tier.drain(1000.0, 0, 0, &mut PhaseProbe::disabled());
        tier.scale(1000.0, 0, 0, &mut PhaseProbe::disabled());
        assert_eq!(tier.backend_reports("r", 1_000.0)[0].slot_timeline, vec![1]);
        tier.admit(0, 0);
        tier.drain(1000.0, 0, 0, &mut PhaseProbe::disabled());
        tier.scale(1000.0, 0, 0, &mut PhaseProbe::disabled());
        let stats = &tier.backend_reports("r", 1_000.0)[0];
        assert_eq!(stats.slot_timeline, vec![1, 3], "step clamps to max");
        // …and a giant scale-down lands exactly on min_slots.
        let mut serving = autoscaled_backend(
            Autoscaler::new(ScalingSignal::QueueDepth, 10.0, 1.0, 2, 50)
                .with_alpha(1.0)
                .with_cooldown(0)
                .with_step(40),
        );
        serving.backends[0].slots = 50;
        let mut idle = RegionServing::new(&serving);
        idle.admit(0, 0);
        idle.drain(1000.0, 0, 0, &mut PhaseProbe::disabled());
        idle.scale(1000.0, 0, 0, &mut PhaseProbe::disabled());
        idle.admit(0, 0);
        idle.drain(1000.0, 0, 0, &mut PhaseProbe::disabled());
        idle.scale(1000.0, 0, 0, &mut PhaseProbe::disabled());
        let stats = &idle.backend_reports("r", 1_000.0)[0];
        assert_eq!(stats.slot_timeline, vec![50, 10]);
        idle.admit(0, 0);
        idle.drain(1000.0, 0, 0, &mut PhaseProbe::disabled());
        idle.scale(1000.0, 0, 0, &mut PhaseProbe::disabled());
        assert_eq!(
            *idle.backend_reports("r", 1_000.0)[0]
                .slot_timeline
                .last()
                .unwrap(),
            2
        );
    }

    #[test]
    fn autoscaler_cooldown_suppresses_flapping() {
        // Alternating flood/idle epochs make an undamped, cooldown-free
        // scaler flap; a 3-epoch cooldown must strictly reduce the number
        // of applied scaling events on the same load pattern.
        let run = |cooldown: u32| {
            let auto = Autoscaler::new(ScalingSignal::QueueDepth, 2.0, 0.5, 1, 8)
                .with_alpha(1.0)
                .with_cooldown(cooldown);
            let mut tier = RegionServing::new(&autoscaled_backend(auto));
            for epoch in 0..16 {
                tier.admit(0, if epoch % 2 == 0 { 5000 } else { 0 });
                tier.drain(1000.0, 0, 0, &mut PhaseProbe::disabled());
                tier.scale(1000.0, 0, 0, &mut PhaseProbe::disabled());
                tier.publish();
            }
            tier.backend_reports("r", 1_000.0)[0].scaling_events
        };
        let flappy = run(0);
        let damped = run(3);
        assert!(
            damped < flappy,
            "cooldown must suppress flapping: {damped} !< {flappy}"
        );
        assert!(flappy >= 8, "undamped scaler should react every barrier");
    }

    /// The latent-gap pin: fluid epochs have no per-request sojourns, so
    /// the published tail must be explicitly absent — never a stale zero
    /// a device policy could mistake for "the cloud is instant".
    #[test]
    fn fluid_publishes_no_tail_signal() {
        let mut tier = RegionServing::new(&autoscaled_backend(depth_scaler(2)));
        tier.admit(0, 500);
        tier.drain(1000.0, 0, 0, &mut PhaseProbe::disabled());
        tier.scale(1000.0, 0, 0, &mut PhaseProbe::disabled());
        let signal = tier.publish();
        assert_eq!(signal.p99_ms, None, "fluid mode must publish no tail");
    }

    /// The microsim publishes the epoch-windowed region p99 with
    /// hysteresis: present after an epoch with completions, *held* across
    /// idle epochs (so a region that shed its entire crowd keeps warning
    /// retreated devices instead of inviting them all back at once), and
    /// absent only while no epoch has ever completed anything.
    #[test]
    fn microsim_barrier_holds_last_measured_p99_across_idle_epochs() {
        let serving = CloudServing::new(vec![BackendConfig::new("gpu", 1, 10.0, 0.0)]);
        let mut sim = RegionMicrosim::new(&serving);
        let mut out = Vec::new();
        let mut collect = |c| out.push(c);
        // Never-measured: an idle first epoch publishes no tail at all.
        sim.run_epoch(&[], 1_000_000, &mut collect, 0, &mut PhaseProbe::disabled());
        let signal = sim.barrier_signal(1_000_000);
        assert_eq!(
            signal.p99_ms, None,
            "a tier that never completed anything has no tail to report"
        );
        let requests: Vec<_> = (0..4)
            .map(|i| request(1_000_000 + i * 100_000, i))
            .collect();
        sim.run_epoch(
            &[&requests],
            2_000_000,
            &mut collect,
            0,
            &mut PhaseProbe::disabled(),
        );
        let signal = sim.barrier_signal(2_000_000);
        let p99 = signal
            .p99_ms
            .expect("an epoch with completions publishes its tail");
        assert!(
            (p99 - 10.0).abs() < SOJOURN_BIN_MS,
            "unqueued 10 ms service, got {p99}"
        );
        // Idle epoch: nothing completed since the last barrier, but the
        // last *measured* tail is held so retreat stays armed.
        sim.run_epoch(&[], 3_000_000, &mut collect, 0, &mut PhaseProbe::disabled());
        let signal = sim.barrier_signal(3_000_000);
        assert_eq!(
            signal.p99_ms,
            Some(p99),
            "an idle epoch republishes the held tail, not None"
        );
    }

    /// A tail-targeting scaler in the per-request tier: a 10 ms backend
    /// against a 1 ms p99 target blows the budget every barrier, so the
    /// pool steps to max; once traffic stops, the zero observation walks
    /// it back down.
    #[test]
    fn microsim_tail_latency_scaler_steps_on_blown_p99() {
        let auto = Autoscaler::new(
            ScalingSignal::TailLatency { target_us: 1_000 },
            2.0,
            0.5,
            1,
            3,
        )
        .with_alpha(1.0)
        .with_cooldown(0);
        let serving = CloudServing::new(vec![
            BackendConfig::new("gpu", 1, 10.0, 0.0).with_autoscaler(auto)
        ]);
        let mut sim = RegionMicrosim::new(&serving);
        let mut out = Vec::new();
        let mut collect = |c| out.push(c);
        for epoch in 0..3u64 {
            let start = epoch * 1_000_000;
            let end = start + 1_000_000;
            let requests: Vec<_> = (0..8).map(|i| request(start + i * 1_000, i)).collect();
            sim.run_epoch(
                &[&requests],
                end,
                &mut collect,
                0,
                &mut PhaseProbe::disabled(),
            );
            sim.scale(end, 1_000_000, 0, &mut PhaseProbe::disabled());
            sim.barrier_signal(end);
        }
        let stats = &sim.backend_reports("r", 1_000.0)[0];
        assert_eq!(
            stats.slot_timeline,
            vec![1, 2, 3],
            "blown tail steps up every barrier"
        );
        // Idle epochs observe 0 (no tail to miss) and scale back down.
        for epoch in 3..6u64 {
            let end = (epoch + 1) * 1_000_000;
            sim.run_epoch(&[], end, &mut collect, 0, &mut PhaseProbe::disabled());
            sim.scale(end, 1_000_000, 0, &mut PhaseProbe::disabled());
            sim.barrier_signal(end);
        }
        assert_eq!(
            *sim.backend_reports("r", 1_000.0)[0]
                .slot_timeline
                .last()
                .unwrap(),
            1
        );
    }

    /// The same tail-targeting config in the fluid tier degrades to the
    /// queue-depth observation (fluid epochs have no per-request times),
    /// reproducing the depth scaler's trajectory exactly.
    #[test]
    fn fluid_tail_latency_scaler_degrades_to_queue_depth() {
        let auto = Autoscaler::new(
            ScalingSignal::TailLatency { target_us: 1_000 },
            10.0,
            1.0,
            1,
            4,
        )
        .with_alpha(1.0)
        .with_cooldown(0);
        let mut tier = RegionServing::new(&autoscaled_backend(auto));
        for _ in 0..4 {
            tier.admit(0, 5000);
            tier.drain(1000.0, 0, 0, &mut PhaseProbe::disabled());
            tier.scale(1000.0, 0, 0, &mut PhaseProbe::disabled());
            tier.publish();
        }
        let stats = &tier.backend_reports("r", 1_000.0)[0];
        assert_eq!(stats.slot_timeline, vec![1, 2, 3, 4]);
        assert_eq!(stats.scaling_events, 3);
    }

    #[test]
    fn fluid_scale_down_with_backlog_conserves_jobs() {
        // Queue-depth signal with an over-generous scale-down threshold:
        // the pool shrinks while jobs still wait. Nothing may be lost —
        // the backlog just drains slower (and the published wait says so).
        let auto = Autoscaler::new(ScalingSignal::QueueDepth, 1e9, 500.0, 1, 4)
            .with_alpha(1.0)
            .with_cooldown(0);
        let mut serving = autoscaled_backend(auto);
        serving.backends[0].slots = 4;
        let mut tier = RegionServing::new(&serving);
        tier.admit(0, 4400);
        tier.drain(100.0, 0, 0, &mut PhaseProbe::disabled()); // serves 400 (4 slots × 1 job/ms × 100 ms)
        let depth_before = tier.depth();
        assert!((depth_before - 4000.0).abs() < 1e-9);
        let wait_before_scale = tier.wait_ms(false);
        tier.scale(100.0, 0, 0, &mut PhaseProbe::disabled()); // 4000/4 = 1000 jobs/slot < 500? no: 1000 > 500
        assert_eq!(
            tier.backend_reports("r", 1_000.0)[0].slot_timeline,
            vec![4],
            "no scale-down above the threshold"
        );
        // Drain the queue below the threshold, then the pool shrinks with
        // work still queued.
        tier.admit(0, 0);
        tier.drain(800.0, 0, 0, &mut PhaseProbe::disabled()); // serves 3200, 800 left -> 200/slot < 500
        let remaining = tier.depth();
        assert!((remaining - 800.0).abs() < 1e-9);
        tier.scale(800.0, 0, 0, &mut PhaseProbe::disabled());
        let signal = tier.publish();
        let stats = &tier.backend_reports("r", 1_000.0)[0];
        assert_eq!(*stats.slot_timeline.last().unwrap(), 4);
        assert_eq!(stats.scaling_events, 1);
        assert!(
            (tier.depth() - remaining).abs() < 1e-12,
            "scale-down must not lose queued jobs"
        );
        // Published wait prices the post-scale (3-slot) capacity:
        // 800 jobs / 3 jobs-per-ms.
        assert!(
            (signal.wait_low_ms - remaining / 3.0).abs() < 1e-6,
            "wait {} should price 3 slots",
            signal.wait_low_ms
        );
        let _ = wait_before_scale;
    }

    /// The barrier-ordering regression pin (fluid): scaling events run
    /// *before* signal publication, so the published wait prices the
    /// post-scale slot count — not the end-of-epoch queue state at the
    /// old capacity.
    #[test]
    fn fluid_publish_prices_post_scale_capacity() {
        let mut tier = RegionServing::new(&autoscaled_backend(depth_scaler(2)));
        tier.admit(0, 2000);
        tier.drain(1000.0, 0, 0, &mut PhaseProbe::disabled()); // 1 slot serves 1000; 1000 remain
        assert!((tier.wait_ms(false) - 1000.0).abs() < 1e-9);
        tier.scale(1000.0, 0, 0, &mut PhaseProbe::disabled()); // 1000 jobs/slot > 10 → slots double to 2
        let signal = tier.publish();
        assert!(
            (signal.wait_low_ms - 500.0).abs() < 1e-9,
            "published wait must reflect the post-scale capacity, got {}",
            signal.wait_low_ms
        );
    }

    /// The same pin for the per-request tier: slots added at the barrier
    /// are visible in the published wait (and serve queued work next
    /// epoch), and scale-down never retires a busy executor.
    #[test]
    fn microsim_publish_prices_post_scale_capacity() {
        let auto = Autoscaler::new(ScalingSignal::QueueDepth, 4.0, 0.5, 1, 2)
            .with_alpha(1.0)
            .with_cooldown(0);
        let serving = CloudServing::new(vec![
            BackendConfig::new("gpu", 1, 100.0, 0.0).with_autoscaler(auto)
        ]);
        let mut sim = RegionMicrosim::new(&serving);
        let requests: Vec<_> = (0..10).map(|i| request(i, i)).collect();
        let mut out = Vec::new();
        let mut collect = |c| out.push(c);
        sim.run_epoch(
            &[&requests],
            1_000,
            &mut collect,
            0,
            &mut PhaseProbe::disabled(),
        );
        let wait_pre_scale = sim.wait_ms(false, 1_000);
        sim.scale(1_000, 1_000, 0, &mut PhaseProbe::disabled());
        let signal = sim.barrier_signal(1_000);
        assert!(
            signal.wait_low_ms < wait_pre_scale,
            "post-scale wait {} must undercut pre-scale {}",
            signal.wait_low_ms,
            wait_pre_scale
        );
        let stats = &sim.backend_reports("r", 1_000.0)[0];
        assert_eq!(stats.slot_timeline, vec![1]);
        assert_eq!(stats.scaling_events, 1);
        // The added slot serves queued work from the next epoch on, and
        // every admitted request still completes.
        sim.run_epoch(&[], 200_000, &mut collect, 0, &mut PhaseProbe::disabled());
        sim.scale(200_000, 199_000, 0, &mut PhaseProbe::disabled());
        sim.flush(&mut collect, 0, &mut PhaseProbe::disabled());
        assert_eq!(out.len(), 10, "flush must complete every request");
        assert_eq!(
            sim.backend_reports("r", 1_000.0)[0].slot_timeline,
            vec![1, 2]
        );
    }

    #[test]
    fn microsim_scale_down_never_retires_a_busy_executor() {
        let auto = Autoscaler::new(ScalingSignal::QueueDepth, 1e9, 0.5, 1, 2)
            .with_alpha(1.0)
            .with_cooldown(0);
        let serving = CloudServing::new(vec![
            BackendConfig::new("gpu", 2, 10_000.0, 0.0).with_autoscaler(auto)
        ]);
        let mut sim = RegionMicrosim::new(&serving);
        let mut out = Vec::new();
        let mut collect = |c| out.push(c);
        // Two requests occupy both 10 s executors well past the barrier.
        sim.run_epoch(
            &[&[request(0, 0), request(0, 1)]],
            1_000,
            &mut collect,
            0,
            &mut PhaseProbe::disabled(),
        );
        sim.scale(1_000, 1_000, 0, &mut PhaseProbe::disabled());
        let stats = &sim.backend_reports("r", 1_000.0)[0];
        assert_eq!(
            stats.scaling_events, 0,
            "both executors are mid-batch: the scale-down must defer"
        );
        assert_eq!(stats.slot_timeline, vec![2]);
        // Once a batch finishes, the deferred scale-down applies.
        sim.run_epoch(
            &[],
            20_000_000,
            &mut collect,
            0,
            &mut PhaseProbe::disabled(),
        );
        sim.scale(20_000_000, 19_999_000, 0, &mut PhaseProbe::disabled());
        let stats = &sim.backend_reports("r", 1_000.0)[0];
        assert_eq!(stats.scaling_events, 1);
        assert_eq!(*stats.slot_timeline.last().unwrap(), 2);
        sim.run_epoch(
            &[],
            20_001_000,
            &mut collect,
            0,
            &mut PhaseProbe::disabled(),
        );
        sim.scale(20_001_000, 1_000, 0, &mut PhaseProbe::disabled());
        assert_eq!(
            *sim.backend_reports("r", 1_000.0)[0]
                .slot_timeline
                .last()
                .unwrap(),
            1
        );
        sim.flush(&mut collect, 0, &mut PhaseProbe::disabled());
        assert_eq!(out.len(), 2);
    }

    // ---- cost-aware dispatch ----

    #[test]
    fn cost_weight_is_neutral_when_unpriced() {
        let plain = BackendConfig::new("gpu", 1, 1.0, 0.0);
        assert_eq!(plain.cost_weight(), 1.0);
        assert_eq!(plain.clone().with_price(3.0).cost_weight(), 3.0);
        assert_eq!(plain.clone().with_energy(0.5).cost_weight(), 0.5);
        assert_eq!(plain.with_price(3.0).with_energy(0.5).cost_weight(), 1.5);
    }

    #[test]
    fn cost_aware_water_fill_prefers_cheap_backends() {
        let cheap = BackendConfig::new("cheap", 1, 10.0, 0.0)
            .with_price(1.0)
            .with_energy(1.0);
        let pricey = BackendConfig::new("pricey", 1, 10.0, 0.0)
            .with_price(9.0)
            .with_energy(1.0);
        // Least-work-left splits identical backends evenly…
        let mut lwl = RegionServing::new(&CloudServing::new(vec![cheap.clone(), pricey.clone()]));
        lwl.admit(0, 100);
        let d: Vec<f64> = lwl
            .queues
            .iter()
            .map(|q| q.backlog_high + q.backlog_low)
            .collect();
        assert!((d[0] - 50.0).abs() < 1e-9 && (d[1] - 50.0).abs() < 1e-9);
        // …while cost-aware water-filling sends 9× the flow to the pool
        // that costs 9× less.
        let mut aware = RegionServing::new(
            &CloudServing::new(vec![cheap, pricey]).with_dispatch(DispatchPolicy::CostAware),
        );
        aware.admit(0, 100);
        let d: Vec<f64> = aware
            .queues
            .iter()
            .map(|q| q.backlog_high + q.backlog_low)
            .collect();
        assert!((d[0] - 90.0).abs() < 1e-6, "cheap got {}", d[0]);
        assert!((d[1] - 10.0).abs() < 1e-6, "pricey got {}", d[1]);
        // The published marginal cost is the cheapest backend's weight.
        assert_eq!(aware.signal().marginal_cost, 1.0);
    }

    #[test]
    fn marginal_cost_tracks_congestion_not_just_config() {
        // The published marginal cost is the weight of the backend the
        // *next* arrival would join — identically configured regions must
        // publish different values once their queues diverge, otherwise
        // cheapest-viable failover could never distinguish siblings.
        let cheap = BackendConfig::new("cheap", 1, 10.0, 0.0)
            .with_price(1.0)
            .with_energy(1.0);
        let pricey = BackendConfig::new("pricey", 1, 10.0, 0.0)
            .with_price(9.0)
            .with_energy(1.0);
        let serving = CloudServing::new(vec![cheap.clone(), pricey.clone()])
            .with_dispatch(DispatchPolicy::CostAware);

        // Fluid: idle region prices marginal work on the cheap pool…
        let mut idle = RegionServing::new(&serving);
        assert_eq!(idle.signal().marginal_cost, 1.0);
        // …a region whose cheap pool carries a deep backlog prices it on
        // the pricey pool.
        idle.queues[0].backlog_low = 10_000.0;
        assert_eq!(idle.signal().marginal_cost, 9.0);

        // Per-request: saturate the cheap slot with queued work and the
        // barrier signal flips to the pricey pool's weight too.
        let micro_serving = CloudServing::new(vec![
            BackendConfig::new("cheap", 1, 100_000.0, 0.0)
                .with_price(1.0)
                .with_energy(1.0),
            BackendConfig::new("pricey", 1, 100_000.0, 0.0)
                .with_price(9.0)
                .with_energy(1.0),
        ])
        .with_dispatch(DispatchPolicy::CostAware);
        let mut sim = RegionMicrosim::new(&micro_serving);
        assert_eq!(sim.barrier_signal(0).marginal_cost, 1.0, "idle → cheap");
        // Swamp the cheap pool: slot busy 100 s out, ten requests queued.
        // The cost-weighted work-left of the cheap pool now exceeds the
        // pricey pool's 9× job cost, so the next arrival — and with it
        // the published marginal cost — lands on the pricey pool.
        sim.backends[0].occupy_earliest(100_000_000);
        for i in 0..10 {
            sim.backends[0].queue_low.push_back(request(0, i));
        }
        assert_eq!(
            sim.barrier_signal(1_000).marginal_cost,
            9.0,
            "a swamped cheap pool must price marginal work on the pricey pool"
        );
    }

    #[test]
    fn cost_aware_rejects_partially_priced_tiers() {
        // One backend priced, the sibling unpriced: the neutral-1
        // fallback would rank a real price against a placeholder, so the
        // tier must not validate under cost-aware dispatch…
        let mixed = CloudServing::new(vec![
            BackendConfig::new("a", 1, 1.0, 0.0).with_price(0.5),
            BackendConfig::new("b", 1, 1.0, 0.0),
        ])
        .with_dispatch(DispatchPolicy::CostAware);
        assert!(mixed.validate().unwrap_err().contains("every backend"));
        let mixed_energy = CloudServing::new(vec![
            BackendConfig::new("a", 1, 1.0, 0.0).with_energy(2.0),
            BackendConfig::new("b", 1, 1.0, 0.0),
        ])
        .with_dispatch(DispatchPolicy::CostAware);
        assert!(mixed_energy.validate().is_err());
        // …while all-set (price everywhere, energy nowhere), all-unset,
        // and least-work tiers stay valid.
        let price_only = CloudServing::new(vec![
            BackendConfig::new("a", 1, 1.0, 0.0).with_price(0.5),
            BackendConfig::new("b", 1, 1.0, 0.0).with_price(2.0),
        ])
        .with_dispatch(DispatchPolicy::CostAware);
        assert!(price_only.validate().is_ok());
        let unpriced = CloudServing::new(vec![
            BackendConfig::new("a", 1, 1.0, 0.0),
            BackendConfig::new("b", 1, 1.0, 0.0),
        ])
        .with_dispatch(DispatchPolicy::CostAware);
        assert!(unpriced.validate().is_ok());
        let least_work = CloudServing::new(vec![
            BackendConfig::new("a", 1, 1.0, 0.0).with_price(0.5),
            BackendConfig::new("b", 1, 1.0, 0.0),
        ]);
        assert!(least_work.validate().is_ok());
    }

    #[test]
    fn microsim_cost_aware_dispatch_prefers_cheap_backend() {
        // `pricey` sits at index 0: under least-work-left an idle tier
        // ties toward it, while cost-aware dispatch routes to `cheap`
        // until queueing makes the pricey pool worth its money.
        let pricey = BackendConfig::new("pricey", 1, 50.0, 0.0)
            .with_price(8.0)
            .with_energy(1.0);
        let cheap = BackendConfig::new("cheap", 1, 50.0, 0.0)
            .with_price(1.0)
            .with_energy(1.0);
        let serving =
            CloudServing::new(vec![pricey, cheap]).with_dispatch(DispatchPolicy::CostAware);
        let mut sim = RegionMicrosim::new(&serving);
        let requests: Vec<_> = (0..4).map(|i| request(i * 100_000, i)).collect();
        let done = run_all(&mut sim, &requests);
        assert!(
            done.iter().all(|c| c.backend == 1),
            "an uncontended cost-aware tier must serve from the cheap pool"
        );
        // Under congestion the pricey pool still takes overflow: 8 same-
        // instant arrivals cannot all wait 8× on one slot.
        let mut sim = RegionMicrosim::new(&serving);
        let burst: Vec<_> = (0..8).map(|i| request(0, i)).collect();
        let done = run_all(&mut sim, &burst);
        assert!(
            done.iter().any(|c| c.backend == 0),
            "congestion must spill onto the pricey pool"
        );
    }
}
