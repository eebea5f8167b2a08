//! Mergeable fleet-level aggregates.
//!
//! Shards accumulate partial [`FleetReport`]s independently and the engine
//! merges them in shard order at the end of a run. Distribution statistics
//! use fixed-bin [`Histogram`]s whose counts are integers and whose sums
//! are fixed-point integers (micro-units), so merging is **exact and
//! order-independent** — which is what lets a batched multi-backend
//! scenario produce a bit-identical report across 1, 2, and 4 shards
//! (`tests/fleet_sim.rs` pins that). Counts saturate at `u64::MAX` rather
//! than wrapping.
//!
//! Each recorded value crosses into fixed point once: [`FleetReport`]
//! converts an inference's latency and energy a single time each and hands
//! the same micro-unit integer to its histogram and its region. The
//! conversion rounds exactly in integer arithmetic and the bin index is a
//! saturating cast, so recording calls no software `floor`, `round` or
//! `f64 → i128` routine for any finite value below 2^52 micro-units.

use crate::device::Served;
use std::fmt;

/// Fixed-point scale for value sums: micro-units (1e-6 of the recorded
/// unit), summed exactly in `i128` so merge order cannot perturb them.
const SUM_FP_SCALE: f64 = 1e6;

/// `SUM_FP_SCALE` as the exact integer it is, for integer-space division.
const SUM_FP_UNIT: i128 = 1_000_000;

/// 2^52: below it an `f64`'s distance to its truncation is exact, and from
/// it up every `f64` is already an integer.
const EXACT_FRACTION_LIMIT: f64 = (1u64 << 52) as f64;

/// `value` in micro-units, rounded half away from zero: bit for bit
/// `(value * 1e6).round() as i128`.
pub(crate) fn to_fp(value: f64) -> i128 {
    round_half_away(value * SUM_FP_SCALE)
}

/// Bit for bit `x.round() as i128`, in integer arithmetic below 2^52.
fn round_half_away(x: f64) -> i128 {
    if x.abs() < EXACT_FRACTION_LIMIT {
        // A hardware truncation toward zero; `x - t` is exact here, so the
        // fraction decides the half-away-from-zero step without a rounding
        // call.
        let t = x as i64;
        let fraction = x - t as f64;
        i128::from(t + i64::from(fraction >= 0.5) - i64::from(fraction <= -0.5))
    } else {
        // Integers already, or ±∞ and NaN: `as` saturates at the i128
        // range (and maps NaN to 0), so even pathological inputs cannot
        // wrap the accumulator.
        x.round() as i128
    }
}

/// `sum` plus `n` copies of `value`, each added with `saturating_add`:
/// exactly what `n` single records leave. Every addend has the sign of
/// `value`, so the running sum moves one way and stops at the bound it
/// reaches, and the result is the exact `sum + n·value` clamped to the
/// `i128` range.
fn saturating_add_n(sum: i128, value: i128, n: u64) -> i128 {
    // A product past `u128` is past any distance to either bound.
    match (value >= 0, value.unsigned_abs().checked_mul(u128::from(n))) {
        (true, Some(total)) => sum.saturating_add_unsigned(total),
        (false, Some(total)) => sum.saturating_sub_unsigned(total),
        (true, None) => i128::MAX,
        (false, None) => i128::MIN,
    }
}

/// Converts an exact fixed-point (micro-unit) sum into `f64` units.
///
/// Casting the raw micro-unit sum (`sum_fp as f64`) silently drops low
/// bits once the sum exceeds 2^53 micro-units — ~9.0e9 unit-ms, which a
/// million-device day blows through while the digest stays exact.
/// Dividing in integer space first keeps the conversion exact (to one
/// final rounding) for any sum whose *unit* magnitude fits 2^53 — a
/// window 10^6 wider — and beyond that saturates explicitly instead of
/// quietly degrading.
pub(crate) fn fp_sum_to_f64(sum: i128) -> f64 {
    /// Largest integer `f64` represents exactly: 2^53 units.
    const EXACT_UNITS: i128 = 1 << 53;
    let units = sum / SUM_FP_UNIT;
    let micros = sum % SUM_FP_UNIT;
    if units >= EXACT_UNITS {
        EXACT_UNITS as f64
    } else if units <= -EXACT_UNITS {
        -(EXACT_UNITS as f64)
    } else {
        units as f64 + micros as f64 / SUM_FP_SCALE
    }
}

/// A fixed-bin histogram over `[0, bin_width · num_bins)` with an overflow
/// bucket, supporting exact merging and percentile queries.
///
/// # Examples
///
/// ```
/// use lens_fleet::Histogram;
///
/// let mut h = Histogram::new(10.0, 100);
/// for v in [5.0, 15.0, 15.0, 2000.0] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.overflow(), 1);
/// assert!(h.percentile(50.0) < 20.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bin_width: f64,
    counts: Vec<u64>,
    overflow: u64,
    count: u64,
    /// Exact fixed-point sum of recorded values (micro-units).
    sum_fp: i128,
    min: f64,
    max: f64,
    /// Watermark: bins at `hot_bins` and beyond are all zero. Keeps
    /// per-barrier resets and percentile scans proportional to the bins
    /// actually touched, not the configured range. Always equals
    /// last-nonzero-bin + 1 (0 when empty), so the derived `PartialEq`
    /// stays consistent with the counts it summarizes.
    hot_bins: usize,
}

impl Histogram {
    /// Creates an empty histogram with `num_bins` bins of `bin_width` each.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is not positive/finite or `num_bins` is zero.
    pub fn new(bin_width: f64, num_bins: usize) -> Self {
        assert!(
            bin_width.is_finite() && bin_width > 0.0,
            "bin_width must be positive and finite"
        );
        assert!(num_bins > 0, "num_bins must be positive");
        Histogram {
            bin_width,
            counts: vec![0; num_bins],
            overflow: 0,
            count: 0,
            sum_fp: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            hot_bins: 0,
        }
    }

    /// Records one observation. Negative values clamp into the first bin;
    /// values at or beyond the histogram range land in the overflow bucket
    /// (still contributing their exact value to `sum`/`min`/`max`).
    pub fn record(&mut self, value: f64) {
        self.record_fp(value, to_fp(value), 1);
    }

    /// Records `n` identical observations at once (the fluid-count entry
    /// point for barrier-side stats such as batch closes). Counts saturate
    /// at `u64::MAX` instead of wrapping.
    pub fn record_n(&mut self, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        self.record_fp(value, to_fp(value), n);
    }

    /// Records `n ≥ 1` observations of `value`, whose micro-unit form the
    /// caller already holds (`value_fp == to_fp(value)`): bit for bit what
    /// `n` single records leave, saturated counts and sum included.
    fn record_fp(&mut self, value: f64, value_fp: i128, n: u64) {
        match self.bin_of(value) {
            Some(idx) => {
                self.counts[idx] = self.counts[idx].saturating_add(n);
                self.hot_bins = self.hot_bins.max(idx + 1);
            }
            None => self.overflow = self.overflow.saturating_add(n),
        }
        self.count = self.count.saturating_add(n);
        self.sum_fp = saturating_add_n(self.sum_fp, value_fp, n);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// The bin `value` falls in, or `None` for the overflow bucket.
    fn bin_of(&self, value: f64) -> Option<usize> {
        // `len` is an integer, so `floor(q) >= len` exactly when
        // `q >= len`; below it the saturating cast is the floor, and sends
        // negative values and NaN to bin 0.
        let q = value / self.bin_width;
        if q >= self.counts.len() as f64 {
            None
        } else {
            Some(q as usize)
        }
    }

    /// Merges another histogram into this one. Counts saturate at
    /// `u64::MAX` rather than silently wrapping.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different bin layouts.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bin_width, other.bin_width, "bin widths differ");
        assert_eq!(self.counts.len(), other.counts.len(), "bin counts differ");
        for (a, b) in self.counts[..other.hot_bins]
            .iter_mut()
            .zip(&other.counts[..other.hot_bins])
        {
            *a = a.saturating_add(*b);
        }
        self.hot_bins = self.hot_bins.max(other.hot_bins);
        self.overflow = self.overflow.saturating_add(other.overflow);
        self.count = self.count.saturating_add(other.count);
        self.sum_fp = self.sum_fp.saturating_add(other.sum_fp);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Clears every bin in place (keeps the layout): the epoch-windowed
    /// tail histograms reset at each barrier without reallocating.
    pub(crate) fn reset(&mut self) {
        // Only the hot window can hold nonzero counts — an epoch-windowed
        // histogram pays for the bins it touched, not its configured span.
        self.counts[..self.hot_bins].iter_mut().for_each(|c| *c = 0);
        self.hot_bins = 0;
        self.overflow = 0;
        self.count = 0;
        self.sum_fp = 0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations beyond the binned range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Sum of all recorded values, exact to fixed-point (micro-unit)
    /// resolution and independent of record/merge order.
    pub fn sum(&self) -> f64 {
        fp_sum_to_f64(self.sum_fp)
    }

    /// Feeds the histogram's whole state to a digest: the count, the
    /// fixed-point sum, every hot bin, the overflow, and the bits of the
    /// min and the max.
    fn feed_digest(&self, feed: &mut dyn FnMut(u64)) {
        feed(self.count);
        feed(self.sum_fp as u64);
        feed((self.sum_fp >> 64) as u64);
        feed(self.hot_bins as u64);
        for &c in &self.counts[..self.hot_bins] {
            feed(c);
        }
        feed(self.overflow);
        feed(self.min.to_bits());
        feed(self.max.to_bits());
    }

    /// Mean of all recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum() / self.count as f64
        }
    }

    /// Smallest recorded value (∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest recorded value (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The p50/p90/p95/p99 tail summary of this histogram — the
    /// per-request latency view the fluid cloud model cannot produce
    /// (every request of a fluid epoch sees the same published wait).
    pub fn tail_summary(&self) -> TailSummary {
        TailSummary {
            p50: self.percentile(50.0),
            p90: self.percentile(90.0),
            p95: self.percentile(95.0),
            p99: self.percentile(99.0),
        }
    }

    /// The `p`-th percentile (`0 ≤ p ≤ 100`), linearly interpolated within
    /// the containing bin. Returns 0 for an empty histogram; percentiles
    /// that fall in the overflow bucket return the exact observed maximum.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
        if self.count == 0 {
            return 0.0;
        }
        let rank = p / 100.0 * self.count as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts[..self.hot_bins].iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = seen + c;
            if rank <= next as f64 {
                let within = (rank - seen as f64) / c as f64;
                return (i as f64 + within.clamp(0.0, 1.0)) * self.bin_width;
            }
            seen = next;
        }
        self.max
    }
}

/// Tail percentiles of a latency [`Histogram`], as reported per region and
/// per backend by the per-request cloud microsimulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailSummary {
    /// Median (ms).
    pub p50: f64,
    /// 90th percentile (ms).
    pub p90: f64,
    /// 95th percentile (ms).
    pub p95: f64,
    /// 99th percentile (ms).
    pub p99: f64,
}

impl TailSummary {
    /// Percentiles are quantiles of one distribution, so they must be
    /// non-decreasing — the invariant `tests/cross_crate_props.rs` pins.
    pub fn is_monotone(&self) -> bool {
        self.p50 <= self.p90 && self.p90 <= self.p95 && self.p95 <= self.p99
    }
}

impl fmt::Display for TailSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p50 {:.1}  p90 {:.1}  p95 {:.1}  p99 {:.1}",
            self.p50, self.p90, self.p95, self.p99
        )
    }
}

/// Per-region aggregates inside a [`FleetReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct RegionReport {
    /// Region name (from the scenario's regional mix).
    pub region: String,
    /// Inference count served by devices of this region.
    pub inferences: u64,
    /// How many of those used the cloud (All-Cloud or a split), including
    /// the ones that failed over to a sibling region.
    pub offloaded: u64,
    /// Dynamic-policy option switches in this region.
    pub switches: u64,
    /// Offloads shed by admission control that ran the device's local-only
    /// option instead.
    pub shed_to_local: u64,
    /// Offloads shed here that failed over to a sibling region's cloud.
    pub failed_over: u64,
    /// Failed-over offloads this region's cloud absorbed from siblings.
    pub failover_in: u64,
    /// Offload-bound requests that retreated to the device's local-only
    /// option because the region's published epoch p99 exceeded the tail
    /// deadline budget.
    pub retreated: u64,
    /// Sum of end-to-end latencies (fixed-point micro-ms).
    latency_sum_fp: i128,
    /// Sum of edge energies (fixed-point micro-mJ).
    energy_sum_fp: i128,
}

impl RegionReport {
    pub(crate) fn new(region: &str) -> Self {
        RegionReport {
            region: region.to_string(),
            inferences: 0,
            offloaded: 0,
            switches: 0,
            shed_to_local: 0,
            failed_over: 0,
            failover_in: 0,
            retreated: 0,
            latency_sum_fp: 0,
            energy_sum_fp: 0,
        }
    }

    /// Sum of end-to-end latencies (ms) including queue waits.
    pub fn latency_sum_ms(&self) -> f64 {
        fp_sum_to_f64(self.latency_sum_fp)
    }

    /// Sum of edge energies (mJ).
    pub fn energy_sum_mj(&self) -> f64 {
        fp_sum_to_f64(self.energy_sum_fp)
    }

    /// Mean latency per inference in this region (0 when empty).
    pub fn mean_latency_ms(&self) -> f64 {
        if self.inferences == 0 {
            0.0
        } else {
            self.latency_sum_ms() / self.inferences as f64
        }
    }

    /// Mean edge energy per inference in this region (0 when empty).
    pub fn mean_energy_mj(&self) -> f64 {
        if self.inferences == 0 {
            0.0
        } else {
            self.energy_sum_mj() / self.inferences as f64
        }
    }

    fn merge(&mut self, other: &RegionReport) {
        debug_assert_eq!(self.region, other.region);
        self.inferences += other.inferences;
        self.offloaded += other.offloaded;
        self.switches += other.switches;
        self.shed_to_local += other.shed_to_local;
        self.failed_over += other.failed_over;
        self.failover_in += other.failover_in;
        self.retreated += other.retreated;
        self.latency_sum_fp = self.latency_sum_fp.saturating_add(other.latency_sum_fp);
        self.energy_sum_fp = self.energy_sum_fp.saturating_add(other.energy_sum_fp);
    }
}

/// Per-backend serving stats inside a [`FleetReport`], produced at the
/// epoch barrier (they never pass through shard merging).
#[derive(Debug, Clone, PartialEq)]
pub struct BackendReport {
    /// Region hosting the backend.
    pub region: String,
    /// Backend name from the serving tier (`"gpu"`, `"cpu"`, …).
    pub backend: String,
    /// Executor slots in the pool.
    pub slots: usize,
    /// Jobs this backend completed (fluid count).
    pub served_jobs: f64,
    /// Batches this backend closed (fluid count).
    pub batches: f64,
    /// Per-slot busy time accumulated over the run (ms).
    pub busy_ms: f64,
    /// `busy_ms / horizon_ms` — the fraction of the run each slot spent
    /// serving batches. Under the per-request model this can exceed 1
    /// slightly: the tier keeps draining its backlog past the horizon so
    /// every admitted request completes.
    pub utilization: f64,
    /// Distribution of closed batch sizes (width-1 bins).
    pub batch_sizes: Histogram,
    /// Per-request cloud sojourn times (arrival → completion, ms). Empty
    /// under the fluid model, which has no per-request times.
    pub sojourn_ms: Histogram,
    /// Provisioned slot count during each served epoch — constant without
    /// an autoscaler, a demand-following staircase with one.
    pub slot_timeline: Vec<u32>,
    /// Autoscaling events applied over the run (scale-ups + scale-downs).
    pub scaling_events: u64,
    /// Provisioned cost in fixed-point micro-units:
    /// `Σ_epochs slots · price_per_slot_epoch` (exact, merge-order
    /// independent).
    pub(crate) cost_fp: i128,
    /// Cloud-side energy over the run (mJ): served jobs × per-job energy.
    pub(crate) cloud_energy_mj: f64,
}

impl BackendReport {
    /// Mean items per closed batch (0 when idle).
    pub fn mean_batch(&self) -> f64 {
        if self.batches <= 0.0 {
            0.0
        } else {
            self.served_jobs / self.batches
        }
    }

    /// Tail summary of this backend's per-request sojourns (all zeros
    /// under the fluid model — [`Histogram::tail_summary`] of empty).
    pub fn tail(&self) -> TailSummary {
        self.sojourn_ms.tail_summary()
    }

    /// Provisioned cost over the run:
    /// `Σ_epochs slots · price_per_slot_epoch` (0 for unpriced backends).
    pub fn provision_cost(&self) -> f64 {
        fp_sum_to_f64(self.cost_fp)
    }

    /// Cloud-side energy spent serving this backend's jobs (mJ; 0 when
    /// `energy_per_job_mj` is unmodeled).
    pub fn cloud_energy_mj(&self) -> f64 {
        self.cloud_energy_mj
    }

    /// Provisioned slots at the end of the run (the configured count if
    /// no epoch completed).
    pub fn final_slots(&self) -> usize {
        self.slot_timeline
            .last()
            .map_or(self.slots, |&s| s as usize)
    }
}

/// Aggregate outcome of a fleet run: population-wide latency/energy
/// distributions, switching/shedding behavior, per-region and per-backend
/// breakdowns, and the cloud queues' depth/wait trajectories.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    latency: Histogram,
    energy: Histogram,
    per_region: Vec<RegionReport>,
    /// Per-backend serving stats, region-major (set at end of run).
    backends: Vec<BackendReport>,
    /// `[region][epoch]` cloud backlog (jobs) at each epoch barrier.
    queue_depth: Vec<Vec<f64>>,
    /// `[region][epoch]` low-priority-class queue wait (ms) — the
    /// worst-case wait an offloaded inference of that epoch experienced.
    queue_wait_ms: Vec<Vec<f64>>,
    /// Per-region exact per-request cloud sojourn histograms (ms), keyed
    /// by *serving* region: each is the merge of its region's backends'
    /// `sojourn_ms`, taken when the run stores its backend reports. Empty
    /// histograms under the fluid model.
    cloud_sojourn: Vec<Histogram>,
    /// Completed pipeline-stage requests per stage (index = stage − 1).
    /// Empty unless the scenario carries a staged
    /// [`crate::PipelineSpec`]; under a depth-`d` pipeline every
    /// admitted offload contributes one completion per stage, so
    /// stage conservation (`tests/split_pipeline.rs`) reads directly
    /// off this vector.
    stage_completions: Vec<u64>,
    /// Per-stage cloud sojourn histograms (ms), same layout as
    /// [`FleetReport::cloud_sojourn`]: one sample per stage completion.
    stage_sojourn: Vec<Histogram>,
    /// Total inter-stage activation-transfer time charged to the fleet,
    /// as a fixed-point (micro-unit) ms sum derived from the integer
    /// microsecond hop costs.
    transfer_ms_fp: i128,
}

impl FleetReport {
    pub(crate) fn empty(
        latency_bin_ms: f64,
        energy_bin_mj: f64,
        num_bins: usize,
        regions: &[String],
    ) -> Self {
        FleetReport {
            latency: Histogram::new(latency_bin_ms, num_bins),
            energy: Histogram::new(energy_bin_mj, num_bins),
            per_region: regions.iter().map(|r| RegionReport::new(r)).collect(),
            backends: Vec::new(),
            queue_depth: Vec::new(),
            queue_wait_ms: Vec::new(),
            cloud_sojourn: regions
                .iter()
                .map(|_| Histogram::new(crate::cloud::SOJOURN_BIN_MS, crate::cloud::SOJOURN_BINS))
                .collect(),
            stage_completions: Vec::new(),
            stage_sojourn: Vec::new(),
            transfer_ms_fp: 0,
        }
    }

    /// Counts one completed pipeline-stage request (1-based `stage`) and
    /// its exact cloud sojourn, growing the per-stage vectors on demand.
    pub(crate) fn record_stage_completion(&mut self, stage: u32, sojourn_ms: f64) {
        let idx = (stage as usize).saturating_sub(1);
        if self.stage_completions.len() <= idx {
            self.stage_completions.resize(idx + 1, 0);
            self.stage_sojourn.resize_with(idx + 1, || {
                Histogram::new(crate::cloud::SOJOURN_BIN_MS, crate::cloud::SOJOURN_BINS)
            });
        }
        self.stage_completions[idx] += 1;
        self.stage_sojourn[idx].record(sojourn_ms);
    }

    /// Adds one priced inter-stage transfer (ms, derived from the
    /// integer microsecond hop cost) to the fleet total.
    pub(crate) fn record_transfer_ms(&mut self, ms: f64) {
        self.transfer_ms_fp = self.transfer_ms_fp.saturating_add(to_fp(ms));
    }

    /// Records one inference of a device in region `region_index`.
    pub(crate) fn record(&mut self, region_index: usize, served: &Served) {
        self.record_n(region_index, served, 1);
    }

    /// Records `n ≥ 1` inferences with one outcome: exactly what `n` calls
    /// of [`record`](FleetReport::record) leave. Counts, fixed-point sums
    /// and region counters all scale by `n`.
    pub(crate) fn record_n(&mut self, region_index: usize, served: &Served, n: u64) {
        debug_assert!(n > 0, "a run records at least one inference");
        let latency_fp = to_fp(served.latency_ms);
        let energy_fp = to_fp(served.energy_mj);
        self.latency.record_fp(served.latency_ms, latency_fp, n);
        self.energy.record_fp(served.energy_mj, energy_fp, n);
        let region = &mut self.per_region[region_index];
        region.inferences += n;
        region.latency_sum_fp = saturating_add_n(region.latency_sum_fp, latency_fp, n);
        region.energy_sum_fp = saturating_add_n(region.energy_sum_fp, energy_fp, n);
        if served.offloaded {
            region.offloaded += n;
        }
        if served.switched {
            region.switches += n;
        }
        if served.shed_to_local {
            region.shed_to_local += n;
        }
        if served.retreated {
            region.retreated += n;
        }
        if let Some(dest) = served.failover_region {
            region.failed_over += n;
            self.per_region[dest as usize].failover_in += n;
        }
    }

    /// Merges a shard partial into this report. Histogram counts and
    /// fixed-point sums make the result independent of merge order.
    ///
    /// # Panics
    ///
    /// Panics if the two reports were built from different scenarios
    /// (histogram layouts or region lists differ).
    pub fn merge(&mut self, other: &FleetReport) {
        assert_eq!(
            self.per_region.len(),
            other.per_region.len(),
            "region lists differ"
        );
        self.latency.merge(&other.latency);
        self.energy.merge(&other.energy);
        for (a, b) in self.per_region.iter_mut().zip(&other.per_region) {
            a.merge(b);
        }
        // Stage vectors grow on demand, so partials may differ in length
        // (a shard that saw no deep stage stays short): pad to the max.
        if self.stage_completions.len() < other.stage_completions.len() {
            self.stage_completions
                .resize(other.stage_completions.len(), 0);
            self.stage_sojourn
                .resize_with(other.stage_sojourn.len(), || {
                    Histogram::new(crate::cloud::SOJOURN_BIN_MS, crate::cloud::SOJOURN_BINS)
                });
        }
        for (a, b) in self
            .stage_completions
            .iter_mut()
            .zip(&other.stage_completions)
        {
            *a += b;
        }
        for (a, b) in self.stage_sojourn.iter_mut().zip(&other.stage_sojourn) {
            a.merge(b);
        }
        self.transfer_ms_fp = self.transfer_ms_fp.saturating_add(other.transfer_ms_fp);
    }

    pub(crate) fn set_queue_series(&mut self, depth: Vec<Vec<f64>>, wait: Vec<Vec<f64>>) {
        self.queue_depth = depth;
        self.queue_wait_ms = wait;
    }

    /// Stores the run's per-backend stats (region-major) and folds each
    /// backend's sojourns into its region's `cloud_sojourn` — once, at the
    /// end of the run.
    pub(crate) fn set_backend_reports(&mut self, backends: Vec<BackendReport>) {
        for (region, sojourn) in self.per_region.iter().zip(&mut self.cloud_sojourn) {
            for backend in backends.iter().filter(|b| b.region == region.region) {
                sojourn.merge(&backend.sojourn_ms);
            }
        }
        self.backends = backends;
    }

    /// End-to-end latency distribution (ms per inference, queue waits
    /// included).
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// Edge-energy distribution (mJ per inference).
    pub fn energy(&self) -> &Histogram {
        &self.energy
    }

    /// Total inferences served by the fleet.
    pub fn inferences(&self) -> u64 {
        self.latency.count()
    }

    /// Inferences that used the cloud (including failovers).
    pub fn offloaded(&self) -> u64 {
        self.per_region.iter().map(|r| r.offloaded).sum()
    }

    /// Total dynamic-policy option switches.
    pub fn switches(&self) -> u64 {
        self.per_region.iter().map(|r| r.switches).sum()
    }

    /// Offloads shed to on-device execution, fleet-wide.
    pub fn shed_to_local(&self) -> u64 {
        self.per_region.iter().map(|r| r.shed_to_local).sum()
    }

    /// Offloads that failed over to a sibling region, fleet-wide.
    pub fn failed_over(&self) -> u64 {
        self.per_region.iter().map(|r| r.failed_over).sum()
    }

    /// Offload-bound requests that retreated to local execution because
    /// the published epoch p99 exceeded the tail deadline, fleet-wide.
    pub fn retreated(&self) -> u64 {
        self.per_region.iter().map(|r| r.retreated).sum()
    }

    /// Per-region breakdowns, in the scenario's region order.
    pub fn regions(&self) -> &[RegionReport] {
        &self.per_region
    }

    /// Per-backend serving stats, region-major (empty until a run
    /// completes).
    pub fn backends(&self) -> &[BackendReport] {
        &self.backends
    }

    /// Cloud backlog (jobs) per region per epoch. The sampling point
    /// differs by fidelity: the fluid tier samples **after admitting** the
    /// epoch's arrivals but before draining them (the epoch's peak
    /// backlog), while the per-request microsim samples the **residual**
    /// queue at the epoch barrier, after the epoch has been served — a
    /// keeping-up tier therefore reports near-zero depths per-request
    /// where fluid reports the in-flight epoch load.
    pub fn queue_depth(&self) -> &[Vec<f64>] {
        &self.queue_depth
    }

    /// Queue wait (ms) per region per epoch for the *low-priority* class —
    /// the worst case an offloaded inference of that epoch experienced.
    /// Under [`crate::QueueDiscipline::Fifo`] every device is in this
    /// class; under the priority discipline, high-priority devices saw a
    /// shorter (high-class) wait not recorded here.
    pub fn queue_wait_ms(&self) -> &[Vec<f64>] {
        &self.queue_wait_ms
    }

    /// Exact per-request cloud sojourn histograms (ms), one per *serving*
    /// region in scenario order: the merge of that region's
    /// [`BackendReport::sojourn_ms`]. Only the per-request fidelity
    /// populates these; under the fluid model every histogram is empty
    /// (counts 0) — the fluid tier resolves epochs as aggregates and has
    /// no per-request times to record.
    pub fn cloud_sojourn(&self) -> &[Histogram] {
        &self.cloud_sojourn
    }

    /// Completed pipeline-stage requests per stage (index = stage − 1).
    /// Empty for monolithic scenarios; under a staged run every element
    /// equals the admitted offload count once the run drains — the
    /// stage-conservation invariant.
    pub fn stage_completions(&self) -> &[u64] {
        &self.stage_completions
    }

    /// Per-stage cloud sojourn histograms (ms), index = stage − 1: one
    /// sample per stage completion. Empty for monolithic scenarios.
    pub fn stage_sojourn(&self) -> &[Histogram] {
        &self.stage_sojourn
    }

    /// Total inter-stage activation-transfer time charged to the fleet
    /// (ms; 0 for monolithic scenarios).
    pub fn transfer_ms(&self) -> f64 {
        fp_sum_to_f64(self.transfer_ms_fp)
    }

    /// Tail summary of one region's per-request cloud sojourns (all zeros
    /// under the fluid model).
    ///
    /// # Panics
    ///
    /// Panics if `region` is out of range.
    pub fn region_tail(&self, region: usize) -> TailSummary {
        self.cloud_sojourn[region].tail_summary()
    }

    /// Total edge energy spent by the fleet (mJ).
    pub fn total_energy_mj(&self) -> f64 {
        self.energy.sum()
    }

    /// Total provisioned cloud cost across all backends:
    /// `Σ_epochs slots · price_per_slot_epoch` per backend, summed exactly
    /// in fixed point (0 when no backend is priced).
    pub fn provision_cost(&self) -> f64 {
        fp_sum_to_f64(
            self.backends
                .iter()
                .map(|b| b.cost_fp)
                .fold(0i128, i128::saturating_add),
        )
    }

    /// Total cloud-side serving energy across all backends (mJ; 0 when
    /// unmodeled).
    pub fn cloud_energy_mj(&self) -> f64 {
        self.backends.iter().map(|b| b.cloud_energy_mj).sum()
    }

    /// Total autoscaling events applied across all backends.
    pub fn scaling_events(&self) -> u64 {
        self.backends.iter().map(|b| b.scaling_events).sum()
    }

    /// The price × energy figure of merit the cost-aware serving tier
    /// minimizes: provisioned cost × cloud serving energy. Zero whenever
    /// either axis is unmodeled — compare runs only when both are priced.
    pub fn price_energy(&self) -> f64 {
        self.provision_cost() * self.cloud_energy_mj()
    }

    /// Aggregate energy·delay: total edge energy (mJ) × mean end-to-end
    /// latency (ms) — the congestion-sensitive figure of merit
    /// `examples/cloud_batching.rs` sweeps.
    pub fn energy_delay(&self) -> f64 {
        self.total_energy_mj() * self.latency.mean()
    }

    /// An order-independent digest of the aggregates — handy for asserting
    /// the determinism contract without comparing full structs.
    ///
    /// It feeds every count and fixed-point sum, and every histogram the
    /// report holds — latency, energy, each region's cloud sojourns, each
    /// stage's sojourns, and each backend's batch sizes and sojourns —
    /// bin by bin over its hot bins, with its overflow and the bits of its
    /// min and max. A record that moves between bins therefore moves the
    /// digest even when every sum stays put.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        let mut feed = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        let feed_fp = |h: &mut dyn FnMut(u64), fp: i128| {
            h(fp as u64);
            h((fp >> 64) as u64);
        };
        feed(self.offloaded());
        feed(self.switches());
        self.latency.feed_digest(&mut feed);
        self.energy.feed_digest(&mut feed);
        for r in &self.per_region {
            feed(r.inferences);
            feed(r.offloaded);
            feed(r.switches);
            feed(r.shed_to_local);
            feed(r.failed_over);
            feed(r.failover_in);
            feed(r.retreated);
            feed_fp(&mut feed, r.latency_sum_fp);
            feed_fp(&mut feed, r.energy_sum_fp);
        }
        for b in &self.backends {
            b.batch_sizes.feed_digest(&mut feed);
            feed(b.served_jobs.to_bits());
            feed(b.busy_ms.to_bits());
            b.sojourn_ms.feed_digest(&mut feed);
            feed(b.scaling_events);
            feed_fp(&mut feed, b.cost_fp);
            feed(b.cloud_energy_mj.to_bits());
            for &slots in &b.slot_timeline {
                feed(slots as u64);
            }
        }
        for s in &self.cloud_sojourn {
            s.feed_digest(&mut feed);
        }
        // Staged runs feed their stage accounting; monolithic runs skip
        // the block entirely.
        if !self.stage_completions.is_empty() || self.transfer_ms_fp != 0 {
            feed(self.stage_completions.len() as u64);
            for &c in &self.stage_completions {
                feed(c);
            }
            for s in &self.stage_sojourn {
                s.feed_digest(&mut feed);
            }
            feed_fp(&mut feed, self.transfer_ms_fp);
        }
        h
    }
}

/// A [`FleetReport`] behind a one-entry run buffer, which the shard step
/// records through. Consecutive outcomes that record identically — the
/// same region, the same latency and energy bits, the same flags and the
/// same failover destination — join one pending run, which lands in the
/// report as one [`FleetReport::record_n`] when a different outcome
/// arrives or the buffer is flushed. Within an epoch a device reads one
/// throughput sample and one set of published signals, so its inferences
/// mostly repeat one outcome.
#[derive(Debug)]
pub(crate) struct RunBuffer {
    report: FleetReport,
    /// The pending run: its region, its outcome and its length.
    run: Option<(usize, Served, u64)>,
}

impl RunBuffer {
    pub(crate) fn new(report: FleetReport) -> Self {
        RunBuffer { report, run: None }
    }

    /// Records one inference of a device in region `region_index`.
    #[inline]
    pub(crate) fn record(&mut self, region_index: usize, served: &Served) {
        if let Some((region, pending, n)) = &mut self.run {
            if *region == region_index && records_alike(pending, served) {
                *n += 1;
                return;
            }
        }
        self.flush();
        self.run = Some((region_index, *served, 1));
    }

    /// Records the pending run, if any, into the report.
    pub(crate) fn flush(&mut self) {
        if let Some((region, served, n)) = self.run.take() {
            self.report.record_n(region, &served, n);
        }
    }

    /// The report, which no pending run may be missing from.
    pub(crate) fn report(&self) -> &FleetReport {
        debug_assert!(self.run.is_none(), "read with a run still pending");
        &self.report
    }
}

/// Whether two outcomes record identically. Latency and energy compare by
/// bits: `0.0` and `-0.0` are equal floats, but may leave different minima
/// and maxima.
fn records_alike(a: &Served, b: &Served) -> bool {
    a.latency_ms.to_bits() == b.latency_ms.to_bits()
        && a.energy_mj.to_bits() == b.energy_mj.to_bits()
        && a.offloaded == b.offloaded
        && a.switched == b.switched
        && a.shed_to_local == b.shed_to_local
        && a.failover_region == b.failover_region
        && a.retreated == b.retreated
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet report: {} inferences, {} offloaded ({:.1}%), {} switches, {} shed, {} failed over, {} retreated",
            self.inferences(),
            self.offloaded(),
            if self.inferences() == 0 {
                0.0
            } else {
                100.0 * self.offloaded() as f64 / self.inferences() as f64
            },
            self.switches(),
            self.shed_to_local(),
            self.failed_over(),
            self.retreated(),
        )?;
        writeln!(
            f,
            "  latency ms: mean {:.2}  p50 {:.2}  p99 {:.2}  max {:.2}",
            self.latency.mean(),
            self.latency.percentile(50.0),
            self.latency.percentile(99.0),
            self.latency.max()
        )?;
        writeln!(
            f,
            "  energy mJ:  mean {:.2}  p50 {:.2}  p99 {:.2}  max {:.2}",
            self.energy.mean(),
            self.energy.percentile(50.0),
            self.energy.percentile(99.0),
            self.energy.max()
        )?;
        for r in &self.per_region {
            writeln!(
                f,
                "  {:<14} {:>9} inf, {:>5.1}% offloaded, mean {:.2} ms / {:.2} mJ",
                r.region,
                r.inferences,
                if r.inferences == 0 {
                    0.0
                } else {
                    100.0 * r.offloaded as f64 / r.inferences as f64
                },
                r.mean_latency_ms(),
                r.mean_energy_mj()
            )?;
        }
        for b in &self.backends {
            write!(
                f,
                "  {:<10}/{:<8} {:>9.0} jobs in {:>8.0} batches (mean {:>5.1}/batch), {:>5.1}% util",
                b.region,
                b.backend,
                b.served_jobs,
                b.batches,
                b.mean_batch(),
                100.0 * b.utilization
            )?;
            if b.scaling_events > 0 || b.cost_fp != 0 {
                write!(
                    f,
                    ", {} slots ({} scale events), cost {:.2}",
                    b.final_slots(),
                    b.scaling_events,
                    b.provision_cost()
                )?;
            }
            writeln!(f)?;
        }
        for (r, s) in self.per_region.iter().zip(&self.cloud_sojourn) {
            if s.count() > 0 {
                writeln!(
                    f,
                    "  {:<14} cloud sojourn ms: {}",
                    r.region,
                    s.tail_summary()
                )?;
            }
        }
        if !self.stage_completions.is_empty() {
            write!(f, "  pipeline stages:")?;
            for (i, &c) in self.stage_completions.iter().enumerate() {
                write!(f, " s{}={}", i + 1, c)?;
            }
            writeln!(f, ", transfer {:.1} ms total", self.transfer_ms())?;
            for (i, s) in self.stage_sojourn.iter().enumerate() {
                if s.count() > 0 {
                    writeln!(f, "  stage {} sojourn ms: {}", i + 1, s.tail_summary())?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn served(latency_ms: f64, energy_mj: f64, offloaded: bool, switched: bool) -> Served {
        Served {
            latency_ms,
            energy_mj,
            offloaded,
            switched,
            shed_to_local: false,
            failover_region: None,
            retreated: false,
        }
    }

    #[test]
    fn stage_accounting_merges_pads_and_guards_the_digest() {
        let regions = vec!["A".to_string()];
        let empty = FleetReport::empty(10.0, 5.0, 100, &regions);
        let monolithic_digest = empty.digest();

        let mut a = empty.clone();
        let mut b = empty.clone();
        // `a` saw stages 1 and 2; `b` only stage 1 (shorter vectors).
        a.record_stage_completion(1, 12.0);
        a.record_stage_completion(2, 30.0);
        a.record_transfer_ms(4.5);
        b.record_stage_completion(1, 20.0);
        let a_alone = a.digest();

        // Merge pads the shorter side in either direction.
        let mut ba = b.clone();
        ba.merge(&a);
        a.merge(&b);
        assert_eq!(a.stage_completions(), &[2, 1]);
        assert_eq!(ba.stage_completions(), &[2, 1]);
        assert_eq!(a.stage_sojourn()[0].count(), 2);
        assert_eq!(a.stage_sojourn()[1].count(), 1);
        assert!((a.transfer_ms() - 4.5).abs() < 1e-9);
        assert_eq!(a.digest(), ba.digest(), "merge must be order-independent");
        assert_ne!(a.digest(), a_alone);

        // Monolithic reports never enter the stage block: digest is the
        // pre-pipeline value and the accessors stay empty.
        assert_eq!(empty.digest(), monolithic_digest);
        assert!(empty.stage_completions().is_empty());
        assert!(empty.stage_sojourn().is_empty());
        assert_eq!(empty.transfer_ms(), 0.0);
        let shown = format!("{a}");
        assert!(shown.contains("pipeline stages: s1=2 s2=1"), "{shown}");
    }

    #[test]
    fn histogram_records_and_queries() {
        let mut h = Histogram::new(1.0, 10);
        for v in 0..10 {
            h.record(v as f64 + 0.5);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.overflow(), 0);
        assert!((h.mean() - 5.0).abs() < 1e-12);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 9.5);
        let p50 = h.percentile(50.0);
        assert!((4.0..=6.0).contains(&p50), "p50 {p50}");
        assert!(h.percentile(100.0) >= h.percentile(0.0));
    }

    #[test]
    fn histogram_overflow_and_negative_clamp() {
        let mut h = Histogram::new(1.0, 4);
        h.record(100.0);
        h.record(-3.0);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), -3.0);
        assert_eq!(h.max(), 100.0);
        // The overflow percentile falls back to the exact max.
        assert_eq!(h.percentile(100.0), 100.0);
    }

    #[test]
    fn histogram_merge_equals_combined_stream() {
        let mut a = Histogram::new(2.0, 50);
        let mut b = Histogram::new(2.0, 50);
        let mut whole = Histogram::new(2.0, 50);
        for i in 0..100 {
            let v = (i * 7 % 90) as f64;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.percentile(50.0), whole.percentile(50.0));
        assert_eq!(a.percentile(99.0), whole.percentile(99.0));
        // Fixed-point sums are exact: bitwise equality, not a tolerance.
        assert_eq!(a.sum(), whole.sum());
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = Histogram::new(1.0, 10);
        let mut b = Histogram::new(1.0, 10);
        a.record_n(3.5, 4);
        for _ in 0..4 {
            b.record(3.5);
        }
        assert_eq!(a, b);
        a.record_n(5.0, 0); // no-op
        assert_eq!(a.count(), 4);
    }

    #[test]
    fn merge_saturates_counts_instead_of_wrapping() {
        let mut a = Histogram::new(1.0, 4);
        let mut b = Histogram::new(1.0, 4);
        a.record_n(0.5, u64::MAX - 1);
        b.record_n(0.5, 2);
        b.record_n(100.0, u64::MAX); // overflow bucket at the boundary
        a.merge(&b);
        assert_eq!(a.count(), u64::MAX, "count must saturate, not wrap");
        assert_eq!(a.overflow(), u64::MAX);
        // The first bin itself saturates too.
        let mut c = Histogram::new(1.0, 4);
        c.record_n(0.5, u64::MAX);
        c.record(0.5);
        assert_eq!(c.count(), u64::MAX);
        assert!(c.percentile(50.0) <= 1.0);
    }

    #[test]
    #[should_panic(expected = "bin widths differ")]
    fn histogram_merge_rejects_mismatched_layout() {
        let mut a = Histogram::new(1.0, 10);
        let b = Histogram::new(2.0, 10);
        a.merge(&b);
    }

    #[test]
    fn empty_histogram_is_benign() {
        let h = Histogram::new(1.0, 10);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(99.0), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn report_record_and_merge() {
        let regions = vec!["A".to_string(), "B".to_string()];
        let mut a = FleetReport::empty(1.0, 1.0, 100, &regions);
        let mut b = FleetReport::empty(1.0, 1.0, 100, &regions);
        a.record(0, &served(10.0, 5.0, true, false));
        b.record(1, &served(20.0, 2.0, false, true));
        a.merge(&b);
        assert_eq!(a.inferences(), 2);
        assert_eq!(a.offloaded(), 1);
        assert_eq!(a.switches(), 1);
        assert_eq!(a.regions()[0].inferences, 1);
        assert_eq!(a.regions()[1].switches, 1);
        assert_eq!(a.latency().sum(), 30.0);
        assert_eq!(a.total_energy_mj(), 7.0);
        assert_eq!(a.energy_delay(), 7.0 * 15.0);
    }

    #[test]
    fn shed_and_failover_are_counted_per_region() {
        let regions = vec!["A".to_string(), "B".to_string()];
        let mut r = FleetReport::empty(1.0, 1.0, 100, &regions);
        let mut shed = served(30.0, 9.0, false, false);
        shed.shed_to_local = true;
        r.record(0, &shed);
        let mut over = served(40.0, 3.0, true, false);
        over.failover_region = Some(1);
        r.record(0, &over);
        assert_eq!(r.regions()[0].shed_to_local, 1);
        assert_eq!(r.regions()[0].failed_over, 1);
        assert_eq!(r.regions()[1].failover_in, 1);
        assert_eq!(r.shed_to_local(), 1);
        assert_eq!(r.failed_over(), 1);
        let s = format!("{r}");
        assert!(s.contains("1 shed"), "{s}");
        assert!(s.contains("1 failed over"), "{s}");
    }

    #[test]
    fn digest_tracks_content() {
        let regions = vec!["A".to_string()];
        let mut a = FleetReport::empty(1.0, 1.0, 100, &regions);
        let mut b = FleetReport::empty(1.0, 1.0, 100, &regions);
        assert_eq!(a.digest(), b.digest());
        a.record(0, &served(1.0, 1.0, false, false));
        assert_ne!(a.digest(), b.digest());
        b.record(0, &served(1.0, 1.0, false, false));
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn digest_sees_records_that_move_between_bins_with_every_sum_unchanged() {
        let regions = vec!["USA".to_string()];
        let sojourn_layout = (crate::cloud::SOJOURN_BIN_MS, crate::cloud::SOJOURN_BINS);
        // Values in bin widths over a layout of `bins` bins: one count, sum,
        // min and max in different bins, which only the hot bins tell
        // apart; and two overflows with one sum, which only the min and max
        // tell apart.
        let pairs = |bins: usize| {
            let over = bins as f64;
            [
                (vec![0.5, 2.0, 2.0, 3.5], vec![0.5, 1.5, 2.5, 3.5]),
                (vec![over + 2.5, over + 3.5], vec![over + 3.0, over + 3.0]),
            ]
        };
        let histogram = |(width, bins): (f64, usize), units: &[f64]| {
            let mut h = Histogram::new(width, bins);
            units.iter().for_each(|&u| h.record(u * width));
            h
        };
        let same_sums = |a: &Histogram, b: &Histogram| {
            assert_eq!(
                (a.count(), a.sum_fp, a.overflow()),
                (b.count(), b.sum_fp, b.overflow())
            );
        };
        let with_backend = |batch_sizes: Histogram, sojourn_ms: Histogram| {
            let mut r = FleetReport::empty(1.0, 1.0, 8, &regions);
            r.set_backend_reports(vec![backend(batch_sizes, sojourn_ms)]);
            r.digest()
        };
        for (a, b) in pairs(8) {
            // The report's latency histogram.
            let latencies = |units: &[f64]| {
                let mut r = FleetReport::empty(1.0, 1.0, 8, &regions);
                for &u in units {
                    r.record(0, &served(u, 1.0, false, false));
                }
                r
            };
            let (ra, rb) = (latencies(&a), latencies(&b));
            same_sums(ra.latency(), rb.latency());
            assert_ne!(ra.digest(), rb.digest(), "{a:?} vs {b:?}");
            // A backend's batch sizes.
            let (ha, hb) = (histogram((1.0, 8), &a), histogram((1.0, 8), &b));
            same_sums(&ha, &hb);
            let no_sojourns = || histogram(sojourn_layout, &[]);
            assert_ne!(
                with_backend(ha, no_sojourns()),
                with_backend(hb, no_sojourns())
            );
        }
        // A backend's sojourns, which also land in its region's.
        for (a, b) in pairs(sojourn_layout.1) {
            let (ha, hb) = (histogram(sojourn_layout, &a), histogram(sojourn_layout, &b));
            same_sums(&ha, &hb);
            let no_batches = || histogram((1.0, 8), &[]);
            assert_ne!(
                with_backend(no_batches(), ha),
                with_backend(no_batches(), hb)
            );
        }
    }

    #[test]
    fn merge_is_order_independent() {
        let regions = vec!["A".to_string()];
        let mut parts = Vec::new();
        for i in 0..4 {
            let mut p = FleetReport::empty(1.0, 1.0, 100, &regions);
            // Values chosen to be non-representable in binary so a float
            // accumulator would be order-sensitive.
            p.record(
                0,
                &served(0.1 * (i + 1) as f64, 0.3 + i as f64, false, false),
            );
            parts.push(p);
        }
        let mut fwd = FleetReport::empty(1.0, 1.0, 100, &regions);
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = FleetReport::empty(1.0, 1.0, 100, &regions);
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.digest(), rev.digest());
    }

    /// A "gpu" backend in region "USA" with the given histograms.
    fn backend(batch_sizes: Histogram, sojourn_ms: Histogram) -> BackendReport {
        BackendReport {
            region: "USA".to_string(),
            backend: "gpu".to_string(),
            slots: 2,
            served_jobs: 100.0,
            batches: 10.0,
            busy_ms: 500.0,
            utilization: 0.5,
            batch_sizes,
            sojourn_ms,
            slot_timeline: vec![2, 2, 4],
            scaling_events: 1,
            cost_fp: 8_000_000,
            cloud_energy_mj: 25.0,
        }
    }

    #[test]
    fn display_summarizes() {
        let regions = vec!["USA".to_string()];
        let display = |sojourn_ms: Histogram| {
            let mut r = FleetReport::empty(1.0, 1.0, 100, &regions);
            r.record(0, &served(12.0, 3.0, true, true));
            r.set_backend_reports(vec![backend(Histogram::new(1.0, 8), sojourn_ms)]);
            format!("{r}")
        };
        let empty = || Histogram::new(crate::cloud::SOJOURN_BIN_MS, crate::cloud::SOJOURN_BINS);
        let s = display(empty());
        assert!(s.contains("fleet report"));
        assert!(s.contains("USA"));
        assert!(s.contains("gpu"));
        assert!(s.contains("50.0% util"));
        // Fluid reports carry empty sojourn histograms: no tail lines.
        assert!(!s.contains("cloud sojourn"), "{s}");
        // The region's sojourns are its backends' merged.
        let mut sojourn = empty();
        sojourn.record(42.0);
        let s = display(sojourn);
        assert!(s.contains("cloud sojourn"), "{s}");
    }

    #[test]
    fn tail_summary_is_monotone_and_displays() {
        let mut h = Histogram::new(1.0, 100);
        for i in 0..1000 {
            h.record((i * 37 % 90) as f64);
        }
        let tail = h.tail_summary();
        assert!(tail.is_monotone(), "{tail:?}");
        assert!(tail.p99 <= h.max() + 1.0);
        let s = format!("{tail}");
        assert!(s.contains("p50") && s.contains("p99"), "{s}");
        // Empty histograms summarize to all-zeros (the fluid-mode view).
        let empty = Histogram::new(1.0, 10).tail_summary();
        assert_eq!(
            empty,
            TailSummary {
                p50: 0.0,
                p90: 0.0,
                p95: 0.0,
                p99: 0.0
            }
        );
        assert!(empty.is_monotone());
    }

    // The per-request microsim records through the single-observation
    // `record` path (one request at a time, batch sizes of 1 under a
    // zero-linger batcher) — pin that this path saturates counts and keeps
    // exact i128 micro-unit sums just like the fluid `record_n` path.

    #[test]
    fn single_record_path_saturates_counts() {
        let mut h = Histogram::new(1.0, 4);
        h.record_n(0.5, u64::MAX);
        h.record(0.5); // the per-request entry point on a saturated bin
        assert_eq!(h.count(), u64::MAX, "count must saturate, not wrap");
        assert_eq!(h.overflow(), 0);
        h.record(100.0); // overflow bucket on a saturated total
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.max(), 100.0);
    }

    #[test]
    fn single_record_sums_stay_exact_in_micro_units() {
        // 0.1 ms is not binary-representable; a float accumulator would
        // drift over many single-request records, the fixed-point sum
        // cannot. 10_000 × 0.1 must be exactly 1000 µ-units × 10⁶.
        let mut h = Histogram::new(1.0, 10);
        for _ in 0..10_000 {
            h.record(0.1);
        }
        assert_eq!(h.sum_fp, 10_000i128 * 100_000);
        assert_eq!(h.sum(), 1000.0);
        // Extreme values saturate the i128 accumulator instead of
        // wrapping (as casts clamp, saturating_add holds it there).
        let mut extreme = Histogram::new(1.0, 4);
        extreme.record(f64::MAX);
        extreme.record(f64::MAX);
        assert_eq!(extreme.sum_fp, i128::MAX);
        extreme.record(0.5);
        assert_eq!(extreme.sum_fp, i128::MAX, "sum must stay saturated");
        assert_eq!(extreme.count(), 3);
    }

    /// The rounding expression `to_fp` replaced: the reference it must
    /// match bit for bit.
    fn reference_to_fp(value: f64) -> i128 {
        (value * 1e6).round() as i128
    }

    /// The bin index `Histogram::bin_of` replaced.
    fn reference_bin_of(h: &Histogram, value: f64) -> Option<usize> {
        let idx = (value / h.bin_width).floor();
        if idx >= h.counts.len() as f64 {
            None
        } else {
            Some(idx.max(0.0) as usize)
        }
    }

    fn assert_to_fp_matches_round(value: f64) {
        assert_eq!(
            to_fp(value),
            reference_to_fp(value),
            "value {value:e} (bits {:#018x})",
            value.to_bits()
        );
    }

    #[test]
    fn rounding_matches_round_on_exact_ties_limits_and_non_finite_inputs() {
        let limit = EXACT_FRACTION_LIMIT;
        let mut xs = vec![
            0.0,
            0.5_f64.next_down(),
            0.5,
            0.5_f64.next_up(),
            1.5_f64.next_down(),
            limit.next_down(),
            limit,
            limit.next_up(),
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::NAN,
            f64::INFINITY,
        ];
        // Ties at ±(k + 0.5) micro-units, up to the last one below 2^52.
        for k in [1.0, 2.0, 7.0, 1e3, 123_456_789.0, limit - 1.0] {
            xs.push(k + 0.5);
        }
        // The neighbours of 2^52 micro-units, on both sides of the bound.
        for offset in [-2.0, -1.5, -1.0, -0.5, 1.0, 2.0, 4.0] {
            xs.push(limit + offset);
        }
        for x in xs {
            for x in [x, -x] {
                assert_eq!(
                    round_half_away(x),
                    x.round() as i128,
                    "x {x:e} (bits {:#018x})",
                    x.to_bits()
                );
            }
        }
    }

    #[test]
    fn to_fp_matches_round_on_zeros_ties_limits_and_non_finite_values() {
        let mut values = vec![
            0.0,
            // The double nearest 0.49999999999999994e-6.
            5e-7,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::NAN,
            f64::INFINITY,
        ];
        // ±(k + 0.5) micro-units as decimal inputs round either way in the
        // multiply, so these straddle the ties.
        for k in [0u64, 1, 2, 7, 1_000, 123_456_789, (1 << 51) - 1] {
            values.push((k as f64 + 0.5) / 1e6);
        }
        // `m / 128` for odd `m` is exactly `m · 7812.5` micro-units: exact
        // ties, up to just below 2^52 micro-units.
        for m in [1u64, 3, 5, 127, 129, 1_000_001, (1 << 39) + 1] {
            let value = m as f64 / 128.0;
            assert_eq!((value * 1e6).fract(), 0.5, "m {m}");
            values.push(value);
        }
        // Inputs whose product lands around 2^52 micro-units.
        for offset in [-1.5, -1.0, -0.5, 0.0, 1.0, 2.0] {
            let value = (EXACT_FRACTION_LIMIT + offset) / 1e6;
            let mut near = value.next_down().next_down();
            for _ in 0..5 {
                values.push(near);
                near = near.next_up();
            }
        }
        for value in values {
            assert_to_fp_matches_round(value);
            assert_to_fp_matches_round(-value);
        }
        assert_eq!(to_fp(-0.0), 0);
        assert_eq!(to_fp(f64::MIN), i128::MIN);
        assert_eq!(to_fp(f64::NAN), 0);
    }

    /// One outcome of each kind the shard step records, in region 0 of
    /// two: local, offloaded, switched, shed, retreated and failed over.
    fn outcomes() -> Vec<Served> {
        let local = served(31.25, 7.5, false, false);
        vec![
            local,
            served(0.1, 1e-7, true, false),
            served(12.345_678_5, 3.0, false, true),
            Served {
                shed_to_local: true,
                ..local
            },
            Served {
                retreated: true,
                ..local
            },
            Served {
                failover_region: Some(1),
                ..served(40.0, 3.0, true, false)
            },
        ]
    }

    #[test]
    fn record_n_equals_n_single_records() {
        let regions = vec!["A".to_string(), "B".to_string()];
        for outcome in outcomes() {
            for n in [1, 2, 7] {
                let mut once = FleetReport::empty(1.0, 1.0, 100, &regions);
                once.record_n(0, &outcome, n);
                let mut each = FleetReport::empty(1.0, 1.0, 100, &regions);
                for _ in 0..n {
                    each.record(0, &outcome);
                }
                assert_eq!(once, each, "{outcome:?} × {n}");
                assert_eq!(once.digest(), each.digest(), "{outcome:?} × {n}");
            }
        }
    }

    #[test]
    fn record_n_saturates_sums_exactly_as_single_records_do() {
        let large = [i128::MAX / 3, i128::MIN / 3, i128::MAX, i128::MIN];
        let starts = [0, i128::MAX - 10, i128::MIN + 10, i128::MAX, i128::MIN];
        for start in starts {
            for value in large.into_iter().chain([-1, 0, 5]) {
                for n in [1u64, 2, 3, 7] {
                    let each = (0..n).fold(start, |sum, _| sum.saturating_add(value));
                    assert_eq!(
                        saturating_add_n(start, value, n),
                        each,
                        "{start} + {n} × {value}"
                    );
                }
            }
            // The longest run of a large value reaches its bound.
            for value in large {
                let bound = if value > 0 { i128::MAX } else { i128::MIN };
                assert_eq!(saturating_add_n(start, value, u64::MAX), bound);
            }
        }
    }

    #[test]
    fn run_buffer_records_what_single_records_do() {
        let regions = vec!["A".to_string(), "B".to_string()];
        // Runs of every outcome kind, runs that differ only in region, in
        // the sign of a zero latency or in one flag, and lone records.
        let mut sequence = Vec::new();
        for (k, outcome) in outcomes().into_iter().enumerate() {
            for region in [0, 1] {
                sequence.extend(std::iter::repeat_n((region, outcome), k + 1));
            }
        }
        let zero = served(0.0, 1.0, false, false);
        let negative_zero = served(-0.0, 1.0, false, false);
        sequence.extend([(0, zero), (0, negative_zero), (0, zero), (0, zero)]);
        let mut buffer = RunBuffer::new(FleetReport::empty(1.0, 1.0, 100, &regions));
        let mut each = FleetReport::empty(1.0, 1.0, 100, &regions);
        for (region, outcome) in &sequence {
            buffer.record(*region, outcome);
            each.record(*region, outcome);
        }
        buffer.flush();
        assert_eq!(buffer.report(), &each);
        assert_eq!(buffer.report().digest(), each.digest());
        assert_eq!(each.inferences(), sequence.len() as u64);
    }

    #[test]
    fn record_gives_each_value_one_conversion_for_both_sums() {
        let regions = vec!["A".to_string()];
        let mut r = FleetReport::empty(1.0, 1.0, 100, &regions);
        let samples = [(12.345_678_5, 5e-7), (7.1, 2.25), (1e-7, 1e9)];
        for &(latency_ms, energy_mj) in &samples {
            r.record(0, &served(latency_ms, energy_mj, false, false));
        }
        let latency_fp: i128 = samples.iter().map(|s| reference_to_fp(s.0)).sum();
        let energy_fp: i128 = samples.iter().map(|s| reference_to_fp(s.1)).sum();
        let region = &r.regions()[0];
        assert_eq!(r.latency().sum_fp, latency_fp);
        assert_eq!(region.latency_sum_fp, latency_fp);
        assert_eq!(r.energy().sum_fp, energy_fp);
        assert_eq!(region.energy_sum_fp, energy_fp);
    }

    #[test]
    fn bin_index_matches_floor_on_edges_and_non_finite_values() {
        let layouts = [
            (1.0, 4),
            (0.1, 10),
            (7.3, 100),
            (crate::cloud::SOJOURN_BIN_MS, crate::cloud::SOJOURN_BINS),
        ];
        for (width, len) in layouts {
            let h = Histogram::new(width, len);
            let mut values = vec![
                -1e300,
                -5.0 * width,
                -width,
                // Values whose quotient lies in (−1, 0).
                -0.5 * width,
                -f64::from_bits(1),
                -0.0,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MAX,
                f64::MIN,
            ];
            // Every bin edge and its neighbours, through the last bin's
            // upper edge (k = len).
            for k in 0..=len {
                let edge = k as f64 * width;
                values.extend([edge.next_down(), edge, edge.next_up()]);
            }
            for value in values {
                assert_eq!(
                    h.bin_of(value),
                    reference_bin_of(&h, value),
                    "width {width}, {len} bins, value {value:e}"
                );
            }
        }
        let h = Histogram::new(1.0, 4);
        assert_eq!(h.bin_of(4.0), None, "the last bin's upper edge overflows");
        assert_eq!(h.bin_of(4.0_f64.next_down()), Some(3));
        assert_eq!(h.bin_of(-0.5), Some(0));
        assert_eq!(h.bin_of(f64::NAN), Some(0));
        assert_eq!(h.bin_of(f64::INFINITY), None);
        assert_eq!(h.bin_of(f64::NEG_INFINITY), Some(0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn prop_to_fp_matches_round_on_any_bits(bits in 0u64..=u64::MAX) {
            assert_to_fp_matches_round(f64::from_bits(bits));
        }

        #[test]
        fn prop_to_fp_matches_round_below_the_integer_bound(value in -5e9f64..5e9) {
            assert_to_fp_matches_round(value);
            assert_to_fp_matches_round(value / 1e6);
        }

        #[test]
        fn prop_bin_index_matches_floor_on_any_bits(bits in 0u64..=u64::MAX, scaled in -20.0f64..120.0) {
            let h = Histogram::new(0.1, 100);
            for value in [f64::from_bits(bits), scaled] {
                prop_assert_eq!(h.bin_of(value), reference_bin_of(&h, value));
            }
        }
    }

    #[test]
    fn fp_sums_convert_exactly_and_saturate_explicitly() {
        // Small sums round-trip to the micro-unit.
        assert_eq!(fp_sum_to_f64(0), 0.0);
        assert_eq!(fp_sum_to_f64(1_234_567), 1.234567);
        assert_eq!(fp_sum_to_f64(-1_234_567), -1.234567);
        // A million-device day of latency sums: ~1.44e17 µ-ms, past the
        // 2^53 µ-unit window where the old raw `as f64` cast started
        // dropping bits. Integer-space division keeps the unit part
        // exact and the fraction within one rounding.
        let day = 144_000_000_000_123_456i128;
        assert!((fp_sum_to_f64(day) - (144e9 + 0.123456)).abs() < 1e-4);
        // Beyond 2^53 *units* the conversion saturates explicitly
        // instead of silently degrading.
        let limit = (1i128 << 53) as f64;
        assert_eq!(fp_sum_to_f64(i128::MAX), limit);
        assert_eq!(fp_sum_to_f64(i128::MIN), -limit);
    }

    #[test]
    fn reset_is_indistinguishable_from_a_fresh_histogram() {
        // The hot-bin watermark makes reset O(touched bins); it must
        // still clear everything observable (derived PartialEq covers
        // the watermark itself, so a stale count would show here).
        let mut h = Histogram::new(1.0, 1024);
        h.record(3.5);
        h.record(700.25);
        h.record(5000.0); // overflow bucket
        let empty = Histogram::new(1.0, 1024);
        assert_ne!(h, empty);
        h.reset();
        assert_eq!(h, empty);
        h.record(2.0);
        let mut again = Histogram::new(1.0, 1024);
        again.record(2.0);
        assert_eq!(h, again, "post-reset records must match a fresh start");
        assert_eq!(h.percentile(99.0), again.percentile(99.0));
    }

    #[test]
    fn zero_width_batches_cannot_occur_but_width_one_bins_do() {
        // A zero-linger batcher closes batches of exactly 1: the
        // batch-size histogram must place them in the [1, 2) bin, not the
        // clamped [0, 1) bin.
        let mut batch_sizes = Histogram::new(1.0, 8);
        batch_sizes.record(1.0);
        assert_eq!(batch_sizes.count(), 1);
        assert!(batch_sizes.percentile(50.0) >= 1.0);
        assert_eq!(batch_sizes.min(), 1.0);
    }
}
