//! Parallel barrier replay, and the one place the cloud fidelities differ.
//!
//! Between the shard-step drain and the signal publish, every region's
//! serving tier is **independent**: a [`RegionServing`]/[`RegionMicrosim`]
//! touches only its own queues, its own backends, and the requests
//! addressed to it. The engine therefore owns one *replay worker* per
//! region and, at each epoch barrier, runs all workers — drain → scale →
//! publish, region-major — either sequentially or fanned out over a
//! scoped thread pool ([`run_barrier`]).
//!
//! Both fidelities run through the engine's one barrier loop. A worker is
//! a [`RegionTier`], and the trait holds everything that differs:
//! [`FluidRegionReplay`] admits merged offload counts and drains them as
//! epoch aggregates, while [`PerRequestRegionReplay`] replays every
//! offloaded request through its region's microsim, chains pipeline
//! stages, and drains its backlog past the horizon.
//!
//! Determinism holds by construction, not by luck:
//!
//! * Each worker reads only shared **immutable** shard outputs (offload
//!   counts / request runs) and mutates only region-local state, so the
//!   interleaving of workers cannot influence any result.
//! * Each region's requests are assembled by a k-way merge of per-shard
//!   runs that are already sorted by the shard-count-invariant
//!   `(arrival_us, device_id, stage)` key ([`merge_requests`]),
//!   reproducing the exact total order a global sort would produce.
//!   Staged pipelines keep the discipline: chained stage arrivals are
//!   spawned at the barrier from completions whose order is itself
//!   shard-invariant, and joined to the next epoch's merge with a
//!   stable sort on the same key.
//! * Telemetry is buffered per region inside [`RegionBarrierOutput`] and
//!   flushed by the engine in fixed region order, phase-major, so the
//!   event stream and phase counters are bit-identical to a sequential
//!   sweep — and independent of both the shard count and the replay mode
//!   (`tests/cross_crate_props.rs` pins Sequential vs. Parallel).

use crate::cloud::{
    BackendStats, CloudServing, CompletedRequest, OffloadRequest, RegionMicrosim, RegionServing,
    RegionSignal, SOJOURN_BINS, SOJOURN_BIN_MS,
};
use crate::device::Served;
use crate::engine::ShardEpochOutput;
use crate::pipeline::PipelinePricing;
use crate::report::{FleetReport, Histogram};
use crate::scenario::ReplayMode;
use lens_telemetry::{PhaseCounters, PhaseProbe, TraceEvent};

/// Resolves a scenario's [`ReplayMode`] against the machine: `Auto`
/// parallelizes only when there is more than one region to replay *and*
/// more than one hardware thread to replay it on. The result never
/// affects simulation output — only which threads compute it.
pub(crate) fn replay_in_parallel(mode: ReplayMode, num_regions: usize) -> bool {
    match mode {
        ReplayMode::Sequential => false,
        ReplayMode::Parallel => num_regions > 1,
        ReplayMode::Auto => {
            num_regions > 1 && std::thread::available_parallelism().is_ok_and(|n| n.get() > 1)
        }
    }
}

/// What one region's replay worker hands back from an epoch barrier: the
/// signal to publish and the region's buffered telemetry, split by phase
/// so the engine can flush all regions' drains before any scale.
pub(crate) struct RegionBarrierOutput {
    pub(crate) signal: RegionSignal,
    pub(crate) drain: (Vec<TraceEvent>, PhaseCounters),
    pub(crate) scale: (Vec<TraceEvent>, PhaseCounters),
}

/// Runs one barrier across all region workers in fixed region order —
/// on the caller's thread, or one scoped thread per region when
/// `parallel`. Outputs come back indexed by region either way; the two
/// paths are bit-identical because workers share nothing mutable.
pub(crate) fn run_barrier<W, F>(workers: &mut [W], parallel: bool, f: F) -> Vec<RegionBarrierOutput>
where
    W: Send,
    F: Fn(usize, &mut W) -> RegionBarrierOutput + Sync,
{
    if parallel && workers.len() > 1 {
        std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .iter_mut()
                .enumerate()
                .map(|(region, worker)| {
                    let f = &f;
                    scope.spawn(move || f(region, worker))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("region replay worker panicked"))
                .collect()
        })
    } else {
        workers
            .iter_mut()
            .enumerate()
            .map(|(region, worker)| f(region, worker))
            .collect()
    }
}

/// One region's replay worker: everything the two cloud fidelities do
/// differently. The engine's barrier loop is generic over this trait, so
/// it is written once for both.
pub(crate) trait RegionTier: Send {
    /// Whether the tier replays individual requests. Only such tiers
    /// measure a cumulative region p99 (sampled as `p99_ms/<region>`)
    /// and record their post-horizon flush as a final drain phase.
    const PER_REQUEST: bool;

    /// One epoch barrier for `region` over `[epoch_start, epoch_end)` µs:
    /// serve the shards' offloads, scale, publish — buffering per-phase
    /// telemetry when `traced` instead of writing to a shared sink.
    /// `last` marks the horizon's final barrier.
    fn barrier(
        &mut self,
        region: usize,
        shards: &[&ShardEpochOutput],
        epoch_start: u64,
        epoch_end: u64,
        last: bool,
        traced: bool,
    ) -> RegionBarrierOutput;

    /// Serves whatever is still queued or in flight after the last
    /// barrier. Nothing, by default.
    fn flush(&mut self, _region: usize, _probe: &mut PhaseProbe) {}

    /// Jobs queued across the region's backends.
    fn depth(&self) -> f64;

    /// Live slot counts, backend order.
    fn live_slots(&self) -> Vec<u64>;

    /// The region's cumulative p99 cloud sojourn so far (ms).
    fn p99_ms(&self) -> f64;

    /// Per-backend cumulative stats, backend order.
    fn backend_stats(&self) -> Vec<BackendStats>;

    /// Ends the run: folds the worker's report partial, if it keeps one,
    /// into `report`, and hands back the region's queue-depth series and
    /// cloud sojourn histogram.
    fn finish(self, report: &mut FleetReport) -> (Vec<f64>, Histogram);
}

/// The fluid tier's per-region replay worker.
pub(crate) struct FluidRegionReplay {
    serving: RegionServing,
    depth_series: Vec<f64>,
}

impl FluidRegionReplay {
    pub(crate) fn new(serving: &CloudServing, num_epochs: usize) -> Self {
        FluidRegionReplay {
            serving: RegionServing::new(serving),
            depth_series: Vec::with_capacity(num_epochs),
        }
    }
}

impl RegionTier for FluidRegionReplay {
    const PER_REQUEST: bool = false;

    /// Admits the merged offload counts, runs the batch-close drain over
    /// the epoch's length, scales, and publishes.
    fn barrier(
        &mut self,
        region: usize,
        shards: &[&ShardEpochOutput],
        epoch_start: u64,
        epoch_end: u64,
        _last: bool,
        traced: bool,
    ) -> RegionBarrierOutput {
        let epoch_ms = (epoch_end - epoch_start) as f64 / 1000.0;
        let (high, low) = shards
            .iter()
            .map(|shard| shard.arrivals[region])
            .fold((0, 0), |(h, l), (sh, sl)| (h + sh, l + sl));
        self.serving.admit(high, low);
        self.depth_series.push(self.serving.depth());
        let mut probe = PhaseProbe::new(traced);
        self.serving
            .drain(epoch_ms, epoch_end, region as u64, &mut probe);
        let drain = probe.take();
        self.serving
            .scale(epoch_ms, epoch_end, region as u64, &mut probe);
        let scale = probe.take();
        RegionBarrierOutput {
            signal: self.serving.publish(),
            drain,
            scale,
        }
    }

    fn depth(&self) -> f64 {
        self.serving.depth()
    }

    fn live_slots(&self) -> Vec<u64> {
        self.serving.live_slots()
    }

    /// Fluid epochs have no per-request sojourns to take a percentile of.
    fn p99_ms(&self) -> f64 {
        0.0
    }

    fn backend_stats(&self) -> Vec<BackendStats> {
        self.serving.backend_stats()
    }

    /// Fluid runs keep an empty sojourn histogram.
    fn finish(self, _report: &mut FleetReport) -> (Vec<f64>, Histogram) {
        (
            self.depth_series,
            Histogram::new(SOJOURN_BIN_MS, SOJOURN_BINS),
        )
    }
}

/// The per-request tier's replay worker: the region's microsim plus the
/// region-local accumulators the barrier feeds — the deferred-completion
/// report partial (fixed-point sums, so merging the partials at the end
/// is exact and order-independent) and pooled merge/completion buffers
/// reused across epochs. The region-level sojourn histogram lives inside
/// the microsim, folded incrementally from the per-backend epoch windows
/// at each barrier.
pub(crate) struct PerRequestRegionReplay {
    sim: RegionMicrosim,
    report: FleetReport,
    depth_series: Vec<f64>,
    merged: Vec<OffloadRequest>,
    completions: Vec<CompletedRequest>,
    /// Staged-pipeline transfer prices; `None` for monolithic scenarios,
    /// which keeps every pipeline branch below off the hot path.
    pricing: Option<PipelinePricing>,
    /// Chained stage arrivals spawned at a barrier but not yet served:
    /// a stage-`k` completion at `t` chains into a stage-`k+1` arrival
    /// at `t + transfer`, **replayed one epoch later at the same epoch
    /// offset** — the same one-epoch lag every contention signal
    /// already carries. Shifting (instead of clamping to the barrier)
    /// keeps the admitted stamps monotone with the previous epoch's
    /// queue leftovers and preserves the arrival spread the batchers
    /// see. Latency accounting is lag-free either way: the device is
    /// charged the stage's actual sojourn plus the transfer, never the
    /// replay shift.
    pending: Vec<OffloadRequest>,
}

impl PerRequestRegionReplay {
    pub(crate) fn new(
        serving: &CloudServing,
        empty_report: &FleetReport,
        num_epochs: usize,
        pricing: Option<PipelinePricing>,
    ) -> Self {
        PerRequestRegionReplay {
            sim: RegionMicrosim::new(serving),
            report: empty_report.clone(),
            depth_series: Vec::with_capacity(num_epochs),
            merged: Vec::new(),
            completions: Vec::new(),
            pricing,
            pending: Vec::new(),
        }
    }

    /// Books the batch in `self.completions`: monolithic completions go
    /// straight to the deferred device records; staged completions feed
    /// the per-stage ledger, then either spawn the next stage's arrival
    /// at `max(completion + transfer + shift_us, floor_us)` (the hop
    /// priced on the **origin** region's uplink; the shift is one epoch
    /// length at a barrier, the floor is the horizon end at the final
    /// barrier, and both are zero in the flush) or — at the terminal
    /// stage — finish the device record with the accumulated
    /// end-to-end latency.
    fn absorb_completions(
        &mut self,
        region: usize,
        shift_us: u64,
        floor_us: u64,
        probe: &mut PhaseProbe,
    ) {
        let Some(pricing) = &self.pricing else {
            record_completions(&mut self.report, region, &self.completions);
            return;
        };
        let depth = pricing.depth;
        let completions = std::mem::take(&mut self.completions);
        for c in &completions {
            self.report
                .record_stage_completion(c.request.stage, Some(c.sojourn_ms));
            if c.request.stage < depth {
                let boundary = (c.request.stage - 1) as usize;
                let transfer_us = pricing.hop_us(c.request.origin_region as usize, boundary);
                let mut next = c.request;
                next.stage += 1;
                // Charge the device what the hop actually cost — this
                // stage's sojourn plus the transfer, never the replay
                // shift. The increments accumulate, so the terminal
                // record's `base_latency_ms + sojourn_ms` is the exact
                // end-to-end latency.
                next.base_latency_ms += c.sojourn_ms + transfer_us as f64 / 1000.0;
                next.arrival_us = c
                    .completion_us
                    .saturating_add(transfer_us)
                    .saturating_add(shift_us)
                    .max(floor_us);
                self.report.record_transfer_ms(transfer_us as f64 / 1000.0);
                probe.emit(TraceEvent::StageTransition {
                    time_us: c.completion_us,
                    device_id: c.request.device_id,
                    region: region as u64,
                    from_stage: u64::from(c.request.stage),
                    to_stage: u64::from(next.stage),
                    transfer_us,
                });
                self.pending.push(next);
            } else {
                record_completion(&mut self.report, region, c);
            }
        }
        self.completions = completions;
    }
}

impl RegionTier for PerRequestRegionReplay {
    const PER_REQUEST: bool = true;

    /// K-way merges the shards' request runs (joining any chained stage
    /// arrivals that came due), replays them through the microsim,
    /// records the completions — spawning next-stage arrivals for staged
    /// pipelines — scales, and publishes the (hysteresis-held) tail
    /// signal.
    ///
    /// Chains spawned at the `last` barrier have no later barrier to
    /// shift into, so their stamps clamp to the horizon end instead —
    /// right where the post-horizon flush picks them up, keeping the
    /// flush waves' timeline monotone.
    fn barrier(
        &mut self,
        region: usize,
        shards: &[&ShardEpochOutput],
        epoch_start: u64,
        epoch_end: u64,
        last: bool,
        traced: bool,
    ) -> RegionBarrierOutput {
        merge_requests(shards, region, &mut self.merged);
        let mut probe = PhaseProbe::new(traced);
        if !self.pending.is_empty() {
            // Pull due chained stages into this epoch's batch. The
            // stable sort keeps completion order for the (rare) ties
            // where two same-device requests finish in the same batch
            // and chain to identical next-stage arrivals — completion
            // order is shard-invariant, so the batch order stays
            // shard-invariant too.
            let mut later = Vec::new();
            let mut due = false;
            for request in self.pending.drain(..) {
                if request.arrival_us < epoch_end {
                    self.merged.push(request);
                    due = true;
                } else {
                    later.push(request);
                }
            }
            self.pending = later;
            if due {
                self.merged
                    .sort_by_key(|r| (r.arrival_us, r.device_id, r.stage));
            }
        }
        probe.on_merged(self.merged.len() as u64);
        self.completions.clear();
        self.sim.run_epoch(
            &self.merged,
            epoch_end,
            &mut self.completions,
            region as u64,
            &mut probe,
        );
        let (shift_us, floor_us) = if last {
            (0, epoch_end)
        } else {
            (epoch_end - epoch_start, 0)
        };
        self.absorb_completions(region, shift_us, floor_us, &mut probe);
        self.depth_series.push(self.sim.depth());
        let drain = probe.take();
        self.sim.scale(
            epoch_end,
            epoch_end - epoch_start,
            region as u64,
            &mut probe,
        );
        let scale = probe.take();
        RegionBarrierOutput {
            signal: self.sim.barrier_signal(epoch_end),
            drain,
            scale,
        }
    }

    /// Post-horizon drain: the cloud keeps serving until every admitted
    /// request completes. Runs sequentially on the engine thread (it is
    /// one final sweep, not per-epoch work). Staged pipelines drain in
    /// **waves**: each flush can spawn next-stage arrivals, which are
    /// replayed as a fresh batch and flushed again until no stage is
    /// left in flight — at most `depth - 1` extra waves, since stage
    /// numbers only climb.
    fn flush(&mut self, region: usize, probe: &mut PhaseProbe) {
        loop {
            self.completions.clear();
            self.sim.flush(&mut self.completions, region as u64, probe);
            self.absorb_completions(region, 0, 0, probe);
            if self.pending.is_empty() {
                return;
            }
            self.merged.clear();
            self.merged.append(&mut self.pending);
            self.merged
                .sort_by_key(|r| (r.arrival_us, r.device_id, r.stage));
            let wave_end = self.merged.last().map_or(0, |r| r.arrival_us) + 1;
            self.completions.clear();
            // The flush above popped every pending event, but executors
            // may still be occupied into the future — re-arm their
            // slot-free wakeups or wave arrivals queued behind them
            // would never re-dispatch.
            self.sim.rearm_slot_events(probe);
            self.sim.run_epoch(
                &self.merged,
                wave_end,
                &mut self.completions,
                region as u64,
                probe,
            );
            self.absorb_completions(region, 0, 0, probe);
        }
    }

    fn depth(&self) -> f64 {
        self.sim.depth()
    }

    fn live_slots(&self) -> Vec<u64> {
        self.sim.live_slots()
    }

    fn p99_ms(&self) -> f64 {
        self.sim.region_sojourn().percentile(99.0)
    }

    fn backend_stats(&self) -> Vec<BackendStats> {
        self.sim.backend_stats()
    }

    fn finish(mut self, report: &mut FleetReport) -> (Vec<f64>, Histogram) {
        report.merge(&self.report);
        (self.depth_series, self.sim.take_region_sojourn())
    }
}

/// Assembles one region's epoch requests by k-way merging the per-shard
/// runs. Each run is already sorted by `(arrival_us, device_id, stage)`
/// — shard events pop in `(time, local)` order, a shard's device ids
/// are a contiguous ascending range, and shards only ever emit stage 1
/// — and the key is unique fleet-wide, so the merge reproduces exactly
/// the total order the old global `sort_unstable_by_key` produced, in
/// O(total · shards) with no comparison sort and no allocation after
/// warm-up.
pub(crate) fn merge_requests(
    shards: &[&ShardEpochOutput],
    region: usize,
    out: &mut Vec<OffloadRequest>,
) {
    out.clear();
    let mut runs: Vec<&[OffloadRequest]> = shards
        .iter()
        .map(|shard| shard.requests[region].as_slice())
        .filter(|run| !run.is_empty())
        .collect();
    debug_assert!(runs.iter().all(|run| run.windows(2).all(|w| {
        (w[0].arrival_us, w[0].device_id, w[0].stage)
            < (w[1].arrival_us, w[1].device_id, w[1].stage)
    })));
    if runs.len() == 1 {
        out.extend_from_slice(runs[0]);
        return;
    }
    out.reserve(runs.iter().map(|run| run.len()).sum());
    while let Some(first) = runs.first() {
        let mut best = 0;
        let mut best_key = (first[0].arrival_us, first[0].device_id, first[0].stage);
        for (i, run) in runs.iter().enumerate().skip(1) {
            let key = (run[0].arrival_us, run[0].device_id, run[0].stage);
            if key < best_key {
                best = i;
                best_key = key;
            }
        }
        out.push(runs[best][0]);
        runs[best] = &runs[best][1..];
        if runs[best].is_empty() {
            runs.swap_remove(best);
        }
    }
}

/// Records a batch of microsim completions: each finishes its deferred
/// device record (end-to-end latency = device-side latency + exact cloud
/// sojourn). The sojourn histograms are *not* touched here — the microsim
/// records each completion once into its backend's epoch window and the
/// barrier folds those windows into the cumulative histograms.
pub(crate) fn record_completions(
    report: &mut FleetReport,
    serving_region: usize,
    completions: &[CompletedRequest],
) {
    for c in completions {
        record_completion(report, serving_region, c);
    }
}

/// Records one terminal completion's deferred device record. For staged
/// pipelines `base_latency_ms` has already absorbed every earlier
/// stage's sojourn and transfer, so the same formula is exact in both
/// the monolithic and the staged case.
pub(crate) fn record_completion(
    report: &mut FleetReport,
    serving_region: usize,
    c: &CompletedRequest,
) {
    let request = &c.request;
    let served = Served {
        latency_ms: request.base_latency_ms + c.sojourn_ms,
        energy_mj: request.energy_mj,
        offloaded: true,
        switched: request.switched,
        shed_to_local: false,
        failover_region: if request.failed_over {
            Some(serving_region as u32)
        } else {
            None
        },
        // Retreats resolve device-side, before the request ever
        // reaches the microsim — a completed offload never retreated.
        retreated: false,
    };
    report.record(request.origin_region as usize, &served);
}
