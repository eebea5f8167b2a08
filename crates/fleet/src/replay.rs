//! Parallel barrier replay, and where the cloud fidelities differ.
//!
//! Between the shard-step drain and the signal publish, every region's
//! serving tier is **independent**: a [`RegionServing`]/[`RegionMicrosim`]
//! touches only its own queues, its own backends, and the requests
//! addressed to it. The engine therefore owns one *replay worker* per
//! region and, at each epoch barrier, runs all workers — drain → scale →
//! publish, region-major — either sequentially or fanned out over a
//! scoped thread pool ([`run_barrier`]).
//!
//! Both fidelities run through the engine's one shard step and one
//! barrier loop. A worker is a [`RegionTier`], and the trait holds
//! everything that differs between them. In the shard step
//! [`RegionTier::book`] takes each offload, priced at the device's share
//! only: [`FluidRegionReplay`] charges the published wait at once and
//! counts the offload into the epoch's arrivals, while
//! [`PerRequestRegionReplay`] defers the request. At the barrier the
//! fluid tier admits the summed counts and drains them as epoch
//! aggregates, while the per-request tier replays every deferred request
//! through its region's microsim, books each completion — the pipeline
//! stages the microsim chains included — as its batch closes, and drains
//! its backlog past the horizon. Staged pipelines run only on the
//! per-request tier: the scenario build rejects them under the fluid
//! one. Each tier builds its own `BackendReport`s.
//!
//! Determinism holds by construction, not by luck:
//!
//! * Each worker reads only shared **immutable** shard outputs (offload
//!   counts / request runs) and mutates only region-local state, so the
//!   interleaving of workers cannot influence any result.
//! * Each region's microsim reads the shards' request runs in place.
//!   Every run is already sorted by the shard-count-invariant
//!   `(arrival_us, device_id, stage)` key, and the microsim's event loop
//!   always takes the least head among them
//!   ([`RegionMicrosim::run_epoch`]), serving the exact total order a
//!   global sort would produce. Staged pipelines keep the discipline:
//!   the microsim chains each stage from a completion of that
//!   shard-invariant replay and serves it in the same key order,
//!   same-key ties in push order.
//! * Telemetry is buffered per region inside [`RegionBarrierOutput`] and
//!   flushed by the engine in fixed region order, phase-major, so the
//!   event stream and phase counters are bit-identical to a sequential
//!   sweep — and independent of both the shard count and the replay mode
//!   (`tests/cross_crate_props.rs` pins Sequential vs. Parallel).

use crate::cloud::{
    CloudServing, CompletedRequest, OffloadRequest, RegionMicrosim, RegionServing, RegionSignal,
};
use crate::device::Served;
use crate::engine::ShardEpochOutput;
use crate::pipeline::PipelinePricing;
use crate::report::{BackendReport, FleetReport};
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

/// What the cloud charges the offloads of one epoch: the signals the
/// barrier published and the failover penalty. Built once per epoch and
/// shared by every shard.
#[derive(Debug)]
pub(crate) struct CloudCharge<'a> {
    /// The per-region signals the epoch's devices read.
    pub(crate) signals: &'a [RegionSignal],
    /// The inter-region latency a failed-over request pays (ms).
    pub(crate) penalty_ms: f64,
}

/// One region's serving tier: everything the two cloud fidelities do
/// differently, at the shard step ([`book`](RegionTier::book)) and at the
/// barrier. The engine's shard step and barrier loop are generic over
/// this trait, so each is written once for both.
pub(crate) trait RegionTier: Send {
    /// Whether the tier replays individual requests. Only such tiers
    /// measure a cumulative region p99 (sampled as `p99_ms/<region>`)
    /// and record their post-horizon flush as a final drain phase.
    const PER_REQUEST: bool;

    /// Books one offload bound for region `dest` during the shard step.
    /// `request` carries only the device's share of the latency; the
    /// tier adds the cloud's, either at once into the shard's `report`
    /// or later, when the barrier replays the request.
    fn book(
        output: &mut ShardEpochOutput,
        report: &mut FleetReport,
        dest: usize,
        request: OffloadRequest,
        charge: &CloudCharge<'_>,
    );

    /// One epoch barrier for `region` over `[epoch_start, epoch_end)` µs:
    /// serve the shards' offloads, scale, publish — buffering per-phase
    /// telemetry when `traced` instead of writing to a shared sink.
    fn barrier(
        &mut self,
        region: usize,
        shards: &[&ShardEpochOutput],
        epoch_start: u64,
        epoch_end: u64,
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

    /// The report's per-backend lines for the region named `region`,
    /// backend order, with utilization taken over `horizon_ms`.
    fn backend_reports(&self, region: &str, horizon_ms: f64) -> Vec<BackendReport>;

    /// Ends the run: folds the worker's report partial, if it keeps one,
    /// into `report`, and hands back the region's queue-depth series.
    fn finish(self, report: &mut FleetReport) -> Vec<f64>;
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

    /// Charges the destination's published wait (plus the penalty after
    /// a failover), records the inference, and counts it into the
    /// destination's arrivals.
    fn book(
        output: &mut ShardEpochOutput,
        report: &mut FleetReport,
        dest: usize,
        request: OffloadRequest,
        charge: &CloudCharge<'_>,
    ) {
        let wait_ms = charge.signals[dest].wait_ms(request.high_priority);
        let cloud_ms = if request.failed_over {
            wait_ms + charge.penalty_ms
        } else {
            wait_ms
        };
        record_offload(report, dest, &request, request.base_latency_ms + cloud_ms);
        let slot = &mut output.arrivals[dest];
        if request.high_priority {
            slot.0 += 1;
        } else {
            slot.1 += 1;
        }
    }

    /// Admits the merged offload counts, runs the batch-close drain over
    /// the epoch's length, scales, and publishes.
    fn barrier(
        &mut self,
        region: usize,
        shards: &[&ShardEpochOutput],
        epoch_start: u64,
        epoch_end: u64,
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

    fn backend_reports(&self, region: &str, horizon_ms: f64) -> Vec<BackendReport> {
        self.serving.backend_reports(region, horizon_ms)
    }

    fn finish(self, _report: &mut FleetReport) -> Vec<f64> {
        self.depth_series
    }
}

/// The per-request tier's replay worker: the region's microsim, the hop
/// prices its completions are booked with, and the region-local
/// accumulators the barrier feeds — the deferred-completion report
/// partial (fixed-point sums, so merging the partials at the end is
/// exact and order-independent) and the queue-depth series. The sojourn
/// histograms live only inside the microsim's backends; the region's
/// view is their merge.
pub(crate) struct PerRequestRegionReplay {
    sim: RegionMicrosim,
    pricing: Option<PipelinePricing>,
    report: FleetReport,
    depth_series: Vec<f64>,
}

impl PerRequestRegionReplay {
    pub(crate) fn new(
        serving: &CloudServing,
        empty_report: &FleetReport,
        num_epochs: usize,
        pricing: Option<PipelinePricing>,
    ) -> Self {
        PerRequestRegionReplay {
            sim: RegionMicrosim::new(serving).with_pipeline(pricing.clone()),
            pricing,
            report: empty_report.clone(),
            depth_series: Vec::with_capacity(num_epochs),
        }
    }

    /// Calls `run` — one epoch or the post-horizon flush — on the
    /// microsim with a sink that books each completion as its batch
    /// closes. A traced run holds the stage transitions back until the
    /// event loop returns, so each follows every batch close of its
    /// phase.
    fn serve(
        &mut self,
        region: usize,
        probe: &mut PhaseProbe,
        run: impl FnOnce(&mut RegionMicrosim, &mut dyn FnMut(CompletedRequest), &mut PhaseProbe),
    ) {
        let traced = probe.is_enabled();
        let mut transitions = Vec::new();
        let mut book = |c| {
            let booked = book_completion(&mut self.report, self.pricing.as_ref(), region, c);
            if let Some(event) = booked.filter(|_| traced) {
                transitions.push(event);
            }
        };
        run(&mut self.sim, &mut book, probe);
        for event in transitions {
            probe.emit(event);
        }
    }
}

impl RegionTier for PerRequestRegionReplay {
    const PER_REQUEST: bool = true;

    /// Adds a failover's inter-region penalty and defers the request to
    /// the barrier, where the microsim supplies its exact sojourn.
    fn book(
        output: &mut ShardEpochOutput,
        _report: &mut FleetReport,
        dest: usize,
        request: OffloadRequest,
        charge: &CloudCharge<'_>,
    ) {
        let base_latency_ms = if request.failed_over {
            request.base_latency_ms + charge.penalty_ms
        } else {
            request.base_latency_ms
        };
        output.requests[dest].push(OffloadRequest {
            base_latency_ms,
            ..request
        });
    }

    /// Replays the shards' request runs through the microsim — which
    /// reads them in place in key order and chains staged pipelines' next
    /// stages as its own arrivals — booking each completion as its batch
    /// closes, then scales and publishes the (hysteresis-held) tail
    /// signal.
    fn barrier(
        &mut self,
        region: usize,
        shards: &[&ShardEpochOutput],
        epoch_start: u64,
        epoch_end: u64,
        traced: bool,
    ) -> RegionBarrierOutput {
        let runs: Vec<&[OffloadRequest]> = shards
            .iter()
            .map(|shard| shard.requests[region].as_slice())
            .collect();
        let mut probe = PhaseProbe::new(traced);
        probe.on_merged(runs.iter().map(|run| run.len() as u64).sum());
        self.serve(region, &mut probe, |sim, book, probe| {
            sim.run_epoch(&runs, epoch_end, book, region as u64, probe);
        });
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

    /// Post-horizon drain: the cloud keeps serving, chained stages
    /// included, until every admitted request completes. Runs
    /// sequentially on the engine thread (it is one final sweep, not
    /// per-epoch work).
    fn flush(&mut self, region: usize, probe: &mut PhaseProbe) {
        self.serve(region, probe, |sim, book, probe| {
            sim.flush(book, region as u64, probe);
        });
    }

    fn depth(&self) -> f64 {
        self.sim.depth()
    }

    fn live_slots(&self) -> Vec<u64> {
        self.sim.live_slots()
    }

    fn p99_ms(&self) -> f64 {
        self.sim.sojourn_ms().percentile(99.0)
    }

    fn backend_reports(&self, region: &str, horizon_ms: f64) -> Vec<BackendReport> {
        self.sim.backend_reports(region, horizon_ms)
    }

    fn finish(self, report: &mut FleetReport) -> Vec<f64> {
        report.merge(&self.report);
        self.depth_series
    }
}

/// Books one completion of a per-request tier into `report`. Under a
/// staged pipeline each completion feeds the per-stage ledger, and one
/// below the last stage books the hop the microsim chained — its
/// transfer, priced on the **origin** region's uplink — and hands back
/// its [`TraceEvent::StageTransition`]. Every terminal completion
/// finishes its deferred device record.
fn book_completion(
    report: &mut FleetReport,
    pricing: Option<&PipelinePricing>,
    region: usize,
    c: CompletedRequest,
) -> Option<TraceEvent> {
    let stage = c.request.stage;
    if let Some(pricing) = pricing {
        report.record_stage_completion(stage, c.sojourn_ms);
        if stage < pricing.depth {
            let transfer_us = pricing.hop_us(c.request.origin_region as usize, stage as usize - 1);
            report.record_transfer_ms(transfer_us as f64 / 1000.0);
            return Some(TraceEvent::StageTransition {
                time_us: c.completion_us,
                device_id: c.request.device_id,
                region: region as u64,
                from_stage: u64::from(stage),
                to_stage: u64::from(stage + 1),
                transfer_us,
            });
        }
    }
    let latency_ms = c.request.base_latency_ms + c.sojourn_ms;
    record_offload(report, region, &c.request, latency_ms);
    None
}

/// Records one finished offload under its origin region: `latency_ms`
/// is the device's share plus everything the tier charged, and
/// `serving_region` is where it was served. For staged per-request
/// pipelines `base_latency_ms` has already absorbed every earlier
/// stage's sojourn and transfer, so the terminal completion's sojourn is
/// the last term. The sojourn histograms are not touched: the microsim
/// records each completion once.
fn record_offload(
    report: &mut FleetReport,
    serving_region: usize,
    request: &OffloadRequest,
    latency_ms: f64,
) {
    let served = Served {
        latency_ms,
        energy_mj: request.energy_mj,
        offloaded: true,
        switched: request.switched,
        shed_to_local: false,
        failover_region: request.failed_over.then_some(serving_region as u32),
        // Retreats resolve device-side, before the request ever reaches
        // the tier — an offload never retreated.
        retreated: false,
    };
    report.record(request.origin_region as usize, &served);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::BackendConfig;
    use crate::pipeline::PipelineSpec;
    use lens_nn::units::Mbps;

    const EPOCH_US: u64 = 1_000_000;

    fn request(arrival_us: u64, device_id: u64, energy_mj: f64) -> OffloadRequest {
        OffloadRequest {
            arrival_us,
            device_id,
            stage: 1,
            high_priority: false,
            origin_region: 0,
            failed_over: false,
            base_latency_ms: 0.0,
            energy_mj,
            switched: false,
        }
    }

    /// Serves epoch `epoch` with `requests` as its only shard's run,
    /// booking each completion through the worker as its barrier does, and
    /// hands back the completions in the order its sink received them.
    fn barrier(
        worker: &mut PerRequestRegionReplay,
        epoch: u64,
        requests: Vec<OffloadRequest>,
    ) -> Vec<CompletedRequest> {
        let mut done = Vec::new();
        worker.serve(0, &mut PhaseProbe::disabled(), |sim, book, probe| {
            let mut collect = |c| {
                done.push(c);
                book(c);
            };
            sim.run_epoch(&[&requests], (epoch + 1) * EPOCH_US, &mut collect, 0, probe);
        });
        done
    }

    /// Books `request`, bound for `dest`, on tier `T` against `signals`,
    /// and hands back the shard scratch and the report it booked into.
    fn book<T: RegionTier>(
        request: OffloadRequest,
        dest: usize,
        signals: &[RegionSignal],
    ) -> (ShardEpochOutput, FleetReport) {
        let regions = signals.len();
        let names: Vec<String> = (0..regions).map(|r| format!("r{r}")).collect();
        let mut output = ShardEpochOutput {
            arrivals: vec![(0, 0); regions],
            requests: vec![Vec::new(); regions],
            events: Vec::new(),
            counters: Default::default(),
        };
        let mut report = FleetReport::empty(10.0, 5.0, 100, &names);
        let charge = CloudCharge {
            signals,
            penalty_ms: 40.0,
        };
        T::book(&mut output, &mut report, dest, request, &charge);
        (output, report)
    }

    /// The fluid tier's booking, with the one latency it recorded.
    fn fluid(
        request: OffloadRequest,
        dest: usize,
        signals: &[RegionSignal],
    ) -> (f64, ShardEpochOutput, FleetReport) {
        let (output, report) = book::<FluidRegionReplay>(request, dest, signals);
        assert_eq!(report.inferences(), 1);
        (report.latency().max(), output, report)
    }

    fn waiting(wait_ms: f64) -> RegionSignal {
        RegionSignal {
            wait_high_ms: wait_ms,
            wait_low_ms: wait_ms,
            ..RegionSignal::default()
        }
    }

    /// A 70 ms device share, and the same request after a failover.
    fn offloads() -> (OffloadRequest, OffloadRequest) {
        let base = OffloadRequest {
            base_latency_ms: 70.0,
            ..request(0, 1, 5.0)
        };
        (
            base,
            OffloadRequest {
                failed_over: true,
                ..base
            },
        )
    }

    #[test]
    fn fluid_book_charges_waits_and_penalty() {
        let (base, failed_over) = offloads();

        // The published 500 ms wait lands on the offload, and the offload
        // in the region's low-priority arrivals.
        let (latency, output, report) = fluid(base, 0, &[waiting(500.0)]);
        assert_eq!(latency, 70.0 + 500.0);
        assert_eq!(output.arrivals, [(0, 1)]);
        assert!(output.requests.iter().all(Vec::is_empty));
        assert_eq!(report.offloaded(), 1);
        assert!(report.stage_completions().is_empty());
        // A high-priority request reads its own class's wait.
        let high = OffloadRequest {
            high_priority: true,
            ..base
        };
        let split = RegionSignal {
            wait_high_ms: 50.0,
            ..waiting(500.0)
        };
        let (latency, output, _) = fluid(high, 0, &[split]);
        assert_eq!(latency, 70.0 + 50.0);
        assert_eq!(output.arrivals, [(1, 0)]);

        // A failover pays the sibling's 200 ms wait plus the 40 ms
        // penalty, and counts into the sibling's arrivals.
        let signals = [RegionSignal::default(), waiting(900.0), waiting(200.0)];
        let (latency, output, report) = fluid(failed_over, 2, &signals);
        assert_eq!(latency, 70.0 + 240.0);
        assert_eq!(output.arrivals, [(0, 0), (0, 0), (0, 1)]);
        assert_eq!(report.regions()[0].failed_over, 1);
        assert_eq!(report.regions()[2].failover_in, 1);

        // The cheap sibling charges its 400 ms wait; the idle one none.
        let signals = [
            RegionSignal::default(),
            RegionSignal::default(),
            waiting(400.0),
        ];
        let idle = fluid(failed_over, 1, &signals).0;
        let cheap = fluid(failed_over, 2, &signals).0;
        assert_eq!(cheap - idle, 400.0);
    }

    #[test]
    fn per_request_book_defers_the_request_and_adds_only_the_penalty() {
        let (base, failed_over) = offloads();
        let signals = [waiting(500.0), waiting(900.0), waiting(200.0)];
        // Waits and transfers are the microsim's; a failover pays its
        // 40 ms penalty at once. The record waits for the completion.
        let (output, report) = book::<PerRequestRegionReplay>(failed_over, 2, &signals);
        let charged = OffloadRequest {
            base_latency_ms: 70.0 + 40.0,
            ..failed_over
        };
        assert_eq!(output.requests, [vec![], vec![], vec![charged]]);
        assert_eq!(output.arrivals, [(0, 0); 3]);
        assert_eq!(report.inferences(), 0);
        // Without a failover the request is deferred unchanged.
        let (output, _) = book::<PerRequestRegionReplay>(base, 0, &signals);
        assert_eq!(output.requests, [vec![base], vec![], vec![]]);
    }

    /// `device`'s completions, in completion order.
    fn of(device: u64, done: &[CompletedRequest]) -> Vec<CompletedRequest> {
        done.iter()
            .filter(|c| c.request.device_id == device)
            .copied()
            .collect()
    }

    #[test]
    fn pipeline_stages_chain_inside_the_barrier_at_their_true_times() {
        // An idle tier: one executor, 10 ms batches of up to two, 5 ms
        // linger. At 8 Mbps a byte costs 1 µs, so the hops are 50 ms and
        // 20 ms.
        let serving = CloudServing::new(vec![
            BackendConfig::new("gpu", 1, 10.0, 0.0).with_batching(2, 5.0)
        ]);
        let spec = PipelineSpec::new(vec![50_000, 20_000]);
        let pricing = PipelinePricing::new(&spec, &[Mbps::new(8.0)]);
        let hops = [pricing.hop_us(0, 0), pricing.hop_us(0, 1)];
        assert_eq!(hops, [50_000, 20_000]);
        let empty = FleetReport::empty(10.0, 5.0, 100, &["r".to_string()]);
        let mut worker = PerRequestRegionReplay::new(&serving, &empty, 2, Some(pricing));

        // Device 1 arrives early; device 3 sends two requests that close
        // in one batch; device 2's first hop lands past the barrier.
        let first = barrier(
            &mut worker,
            0,
            vec![
                request(1_000, 1, 0.0),
                request(500_000, 3, 1.0),
                request(501_000, 3, 2.0),
                request(960_000, 2, 0.0),
            ],
        );

        let early = of(1, &first);
        assert_eq!(
            early.iter().map(|c| c.request.stage).collect::<Vec<_>>(),
            [1, 2, 3],
            "all three stages complete within the first barrier"
        );
        for (k, pair) in early.windows(2).enumerate() {
            assert_eq!(pair[1].request.arrival_us, pair[0].completion_us + hops[k]);
        }

        let same_batch = of(3, &first);
        let order: Vec<(u32, f64)> = same_batch
            .iter()
            .map(|c| (c.request.stage, c.request.energy_mj))
            .collect();
        assert_eq!(
            order,
            [(1, 1.0), (1, 2.0), (2, 1.0), (2, 2.0), (3, 1.0), (3, 2.0)],
            "same-key hops chain in their batch's FIFO order"
        );
        assert_eq!(same_batch[0].completion_us, same_batch[1].completion_us);

        let late = of(2, &first);
        assert_eq!(late.len(), 1, "only stage 1 finishes before the barrier");
        let hop_lands_us = late[0].completion_us + hops[0];
        assert!(hop_lands_us >= EPOCH_US);

        let second = of(2, &barrier(&mut worker, 1, Vec::new()));
        assert_eq!(
            second.iter().map(|c| c.request.stage).collect::<Vec<_>>(),
            [2, 3]
        );
        assert_eq!(second[0].request.arrival_us, hop_lands_us);
        assert_eq!(
            second[1].request.arrival_us,
            second[0].completion_us + hops[1]
        );
        assert_eq!(worker.report.stage_completions(), &[4, 4, 4]);
    }
}
