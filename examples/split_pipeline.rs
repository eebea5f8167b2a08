//! Split inference as a first-class workload: staged device → edge →
//! cloud pipelines, from plan compilation to fleet economics.
//!
//! The paper's layer-distribution decision picks one partition point per
//! device; this example generalizes it along the axis of related work
//! (Lin & Wang 2021, LCP): the network is sliced into consecutive
//! segments and every remote segment becomes its own schedulable request
//! on the serving tier, with the activation tensor priced across each
//! boundary. Three things are shown:
//!
//! 1. **The split point moves with link quality** — enumerating
//!    [`StagedPlan`]s over AlexNet and pricing each candidate's uplink
//!    with the fixed-point [`TransferModel`], a poor link pushes the
//!    optimal cut deeper into the network (local-heavier: smaller
//!    activations are worth more device compute), while a fast link
//!    offloads early.
//! 2. **Pipeline depth × link quality × backend heterogeneity** — the
//!    fleet sweep: staging multiplies serving work and pays every
//!    boundary transfer, slow-uplink regions pay disproportionally, and
//!    a heterogeneous (gpu + cpu) tier absorbs staged load differently
//!    than a uniform one.
//! 3. **Determinism survives pipelining** — staged runs are digest-
//!    identical across 1/2/4 shards and across sequential vs. parallel
//!    barrier replay.
//!
//! Every run is at per-request fidelity, the one that chains stages as
//! requests of their own; the scenario build rejects a staged pipeline
//! under the fluid tier.
//!
//! ```sh
//! cargo run --release -p lens --example split_pipeline
//! ```

use lens::prelude::*;
use std::time::Instant;

/// Edge-device compute rate (MACs per µs): a modest mobile NPU.
const DEVICE_MACS_PER_US: u64 = 500;
/// Cloud compute rate (MACs per µs): two orders faster than the device.
const CLOUD_MACS_PER_US: u64 = 50_000;

/// Prices a candidate plan end-to-end on one uplink: device compute +
/// uplink transfer + remote compute, all in integer microseconds — the
/// argmin is deterministic because no float ever enters the cost.
fn plan_cost_us(plan: &StagedPlan, model: &TransferModel, total_macs: u64) -> u128 {
    let device_us = u128::from(plan.device_macs() / DEVICE_MACS_PER_US);
    let transfer_us: u128 = plan
        .boundaries()
        .iter()
        .map(|b| u128::from(model.cost_us(b.bytes)))
        .sum();
    let remote_us = u128::from((total_macs - plan.device_macs()) / CLOUD_MACS_PER_US);
    device_us + transfer_us + remote_us
}

fn staged_scenario(
    serving: CloudServing,
    pipeline: Option<PipelineSpec>,
    shards: usize,
    replay: ReplayMode,
) -> FleetScenario {
    let mut builder = FleetScenario::builder()
        .population(4_000)
        .horizon(Millis::new(900_000.0)) // 15 minutes
        .trace_interval(Millis::new(60_000.0))
        .serving(serving)
        .policy(FleetPolicy::Dynamic)
        .metric(Metric::Energy)
        .seed(41)
        .shards(shards)
        .fidelity(CloudSimFidelity::PerRequest)
        .replay(replay);
    if let Some(pipeline) = pipeline {
        builder = builder.pipeline(pipeline);
    }
    builder.build().expect("valid scenario")
}

/// A roomy uniform GPU pool: staged load (3x the requests) still clears,
/// so what the sweep prices is per-stage service + transfers, not a
/// diverging queue.
fn uniform_serving() -> CloudServing {
    CloudServing::new(vec![
        BackendConfig::new("gpu", 8, 60.0, 4.0).with_batching(16, 40.0)
    ])
    .with_failover(FailoverPolicy::SiblingRegion { penalty_ms: 80.0 })
}

/// The same aggregate drain split across a fast batched GPU pool and a
/// flat CPU pool — heterogeneity moves the staged tail, not the mean.
fn hetero_serving() -> CloudServing {
    CloudServing::new(vec![
        BackendConfig::new("gpu", 4, 100.0, 2.0).with_batching(32, 60.0),
        BackendConfig::new("cpu", 8, 25.0, 20.0).with_batching(4, 20.0),
    ])
    .with_failover(FailoverPolicy::SiblingRegion { penalty_ms: 80.0 })
}

fn run(scenario: FleetScenario) -> FleetReport {
    FleetEngine::new(scenario)
        .expect("engine builds")
        .run()
        .expect("run succeeds")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let start = Instant::now();

    // 1. The split point moves with link quality. Enumerate every viable
    // single-split plan over AlexNet and pick the integer-cost argmin per
    // link: the poor link buys device compute with transfer savings.
    let analysis = zoo::alexnet().analyze()?;
    let plans = StagedPlan::enumerate(&analysis, 1);
    println!(
        "== split point vs. link quality ({} candidate plans over AlexNet) ==\n",
        plans.len()
    );
    println!(
        "{:>10} {:>10} {:>14} {:>16} {:>12}",
        "link Mbps", "cut layer", "uplink bytes", "device MACs", "cost ms"
    );
    let mut device_macs_by_link = Vec::new();
    for mbps in [16.1, 7.5, 2.0, 0.7] {
        let model = TransferModel::new(Mbps::new(mbps));
        let best = StagedPlan::best(&plans, |p| plan_cost_us(p, &model, analysis.total_macs()))
            .expect("AlexNet admits viable splits");
        println!(
            "{mbps:>10} {:>10} {:>14} {:>16} {:>12.1}",
            best.cut_layers()[0],
            best.uplink_bytes().expect("single-split plan offloads"),
            best.device_macs(),
            plan_cost_us(best, &model, analysis.total_macs()) as f64 / 1000.0,
        );
        device_macs_by_link.push(best.device_macs());
    }
    assert!(
        device_macs_by_link.windows(2).all(|w| w[0] <= w[1]),
        "device share must grow monotonically as the link degrades"
    );
    assert!(
        device_macs_by_link.last() > device_macs_by_link.first(),
        "the 0.7 Mbps split must be strictly local-heavier than 16.1 Mbps"
    );

    // Compile the fleet's staged workloads from real plans: a two-stage
    // and a three-stage pipeline, boundaries carrying the exact
    // activation bytes between *remote* stages.
    let two_stage = StagedPlan::enumerate(&analysis, 2);
    let two_model = TransferModel::new(Mbps::new(7.5));
    let plan2 = StagedPlan::best(&two_stage, |p| {
        plan_cost_us(p, &two_model, analysis.total_macs())
    })
    .expect("two-stage plans exist");
    let three_stage = StagedPlan::enumerate(&analysis, 3);
    let plan3 = StagedPlan::best(&three_stage, |p| {
        plan_cost_us(p, &two_model, analysis.total_macs())
    })
    .expect("three-stage plans exist");
    println!("\ntwo-stage plan:   {plan2}");
    println!("three-stage plan: {plan3}");
    let spec2 = PipelineSpec::from_boundary_bytes(plan2.remote_transfer_bytes());
    let spec3 = PipelineSpec::from_boundary_bytes(plan3.remote_transfer_bytes());
    assert_eq!(spec2.depth(), 2);
    assert_eq!(spec3.depth(), 3);

    // 2. The fleet sweep: pipeline depth × backend heterogeneity. Each
    // staged offload rides the serving tier once per stage and pays its
    // boundary transfers, so depth costs latency — and how much depends
    // on what is serving.
    let shards = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1);
    println!("\n== pipeline depth x backend heterogeneity (4000 devices, {shards} shard(s)) ==\n");
    println!(
        "{:<14} {:<10} {:>10} {:>10} {:>14} {:>12}",
        "serving", "depth", "mean ms", "p99 ms", "transfer ms", "offloaded"
    );
    let mut staged_hetero: Option<FleetReport> = None;
    let mut monolithic_hetero: Option<FleetReport> = None;
    for (label, serving) in [("uniform", 0), ("heterogeneous", 1)] {
        for (depth, pipeline) in [
            (1usize, None),
            (2, Some(spec2.clone())),
            (3, Some(spec3.clone())),
        ] {
            let tier = if serving == 0 {
                uniform_serving()
            } else {
                hetero_serving()
            };
            let report = run(staged_scenario(tier, pipeline, shards, ReplayMode::Auto));
            println!(
                "{label:<14} {depth:<10} {:>10.1} {:>10.1} {:>14.1} {:>12}",
                report.latency().mean(),
                report.latency().percentile(99.0),
                report.transfer_ms(),
                report.offloaded(),
            );
            if label == "heterogeneous" && depth == 3 {
                staged_hetero = Some(report);
            } else if label == "heterogeneous" && depth == 1 {
                monolithic_hetero = Some(report);
            }
        }
    }
    let staged = staged_hetero.expect("sweep ran");
    let monolithic = monolithic_hetero.expect("sweep ran");
    assert!(staged.transfer_ms() > 0.0);
    assert!(
        staged.latency().mean() > monolithic.latency().mean(),
        "staging must cost latency on the same tier"
    );

    // Link quality in the same run: every stage transfer is priced on
    // the origin region's uplink, exactly as the engine prices it —
    // TransferModel on the region's nominal rate, summed over the
    // plan's remote boundaries. That per-offload toll is deterministic;
    // the observed mean-latency delta also folds in each region's
    // offload mix and queueing, so it is reported as narrative next to
    // the priced column.
    println!("\nper-region toll of the three-stage pipeline (ms):");
    println!(
        "  {:<14} {:>10} {:>12} {:>10} {:>10}",
        "region", "priced/off", "monolithic", "staged", "delta"
    );
    let region_links = [("S. Korea", 16.1), ("USA", 7.5), ("Afghanistan", 0.7)];
    let priced_ms = |name: &str| {
        let (_, mbps) = region_links
            .iter()
            .find(|(region, _)| *region == name)
            .expect("region has a nominal uplink");
        let model = TransferModel::new(Mbps::new(*mbps));
        let total_us: u64 = plan3
            .remote_transfer_bytes()
            .iter()
            .map(|&bytes| model.cost_us(bytes))
            .sum();
        total_us as f64 / 1000.0
    };
    for (mono, stag) in monolithic.regions().iter().zip(staged.regions()) {
        let (m, s) = (mono.mean_latency_ms(), stag.mean_latency_ms());
        println!(
            "  {:<14} {:>10.1} {m:>12.1} {s:>10.1} {:>+10.1}",
            mono.region,
            priced_ms(&mono.region),
            s - m
        );
    }
    assert!(
        priced_ms("Afghanistan") > 10.0 * priced_ms("S. Korea"),
        "the 0.7 Mbps region must pay a far larger per-offload staging toll than 16.1 Mbps"
    );

    // Per-stage ledger: conservation means every stage count equals the
    // offload count, and the per-request tier has exact stage sojourns.
    println!("\nstage ledger (staged heterogeneous run):");
    for (k, (&count, hist)) in staged
        .stage_completions()
        .iter()
        .zip(staged.stage_sojourn())
        .enumerate()
    {
        println!(
            "  stage {}: {count} completions, mean sojourn {:.1} ms",
            k + 1,
            hist.mean()
        );
        assert_eq!(count, staged.offloaded(), "stage conservation violated");
    }

    // 3. Determinism pins: pipelined runs are digest-identical across
    // shard counts and replay modes.
    println!("\n== determinism pins ==");
    let one = run(staged_scenario(
        hetero_serving(),
        Some(spec3.clone()),
        1,
        ReplayMode::Sequential,
    ));
    for shard_count in [2, 4] {
        let other = run(staged_scenario(
            hetero_serving(),
            Some(spec3.clone()),
            shard_count,
            ReplayMode::Sequential,
        ));
        assert_eq!(
            one.digest(),
            other.digest(),
            "staged digest differs at {shard_count} shards"
        );
    }
    let parallel = run(staged_scenario(
        hetero_serving(),
        Some(spec3.clone()),
        4,
        ReplayMode::Parallel,
    ));
    assert_eq!(one.digest(), parallel.digest());
    println!(
        "PerRequest: digest {:#018x} across 1/2/4 shards, sequential == parallel",
        one.digest()
    );

    println!("\ntotal example time {:.2?}", start.elapsed());
    Ok(())
}
