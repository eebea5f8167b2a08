//! Repo-level integration tests for staged split-inference pipelines
//! (docs/PIPELINES.md): the stage-conservation invariant, the transfer
//! ledger, the 1/2/4-shard and Parallel-vs-Sequential bit-identity pins
//! for pipelined runs, the build rule that staged pipelines run per
//! request only, and the zero-transfer equivalence pin — a depth-1
//! pipeline is *structurally* the monolithic offload path in both
//! fidelities.

use lens::fleet::FleetError;
use lens::prelude::*;

/// AlexNet-ish conv5 / fc activation footprints (bytes): the classic
/// two-cut split the paper's layer-distribution axis reasons about.
const CONV_BOUNDARY_BYTES: u64 = 150_528;
const FC_BOUNDARY_BYTES: u64 = 86_528;

fn staged_scenario(
    shards: usize,
    fidelity: CloudSimFidelity,
    replay: ReplayMode,
    pipeline: Option<PipelineSpec>,
) -> FleetScenario {
    // Congested enough that queue waits, batching, and failover are all
    // live — pipelining must keep its bit-identity under real contention,
    // not just on an idle tier.
    let serving = CloudServing::new(vec![
        BackendConfig::new("gpu", 1, 2000.0, 10.0).with_batching(32, 500.0),
        BackendConfig::new("cpu", 1, 500.0, 250.0).with_batching(4, 250.0),
    ])
    .with_priority(0.2)
    .with_failover(FailoverPolicy::SiblingRegion { penalty_ms: 80.0 });
    let mut builder = FleetScenario::builder()
        .population(3000)
        .horizon(Millis::new(1_200_000.0)) // 20 minutes
        .trace_interval(Millis::new(60_000.0))
        .serving(serving)
        .policy(FleetPolicy::Dynamic)
        .metric(Metric::Energy)
        .seed(23)
        .shards(shards)
        .fidelity(fidelity)
        .replay(replay);
    if let Some(pipeline) = pipeline {
        builder = builder.pipeline(pipeline);
    }
    builder.build().expect("valid scenario")
}

fn run(scenario: FleetScenario) -> FleetReport {
    FleetEngine::new(scenario)
        .expect("engine builds")
        .run()
        .expect("run succeeds")
}

fn three_stage() -> PipelineSpec {
    PipelineSpec::new(vec![CONV_BOUNDARY_BYTES, FC_BOUNDARY_BYTES])
}

/// A three-stage run of the congested scenario at per-request fidelity.
fn staged_per_request(shards: usize, replay: ReplayMode) -> FleetScenario {
    staged_scenario(
        shards,
        CloudSimFidelity::PerRequest,
        replay,
        Some(three_stage()),
    )
}

#[test]
fn every_admitted_stage_completes_stage_conservation() {
    // Conservation: each offload becomes exactly `depth` stage requests
    // — stage 1 at the device's arrival, stages 2.. chained from
    // completions — and the post-horizon flush drains every chain. So
    // each stage's completion count must equal the offload count.
    let report = run(staged_per_request(2, ReplayMode::Auto));
    assert!(report.offloaded() > 0, "nothing offloaded");
    let stages = report.stage_completions();
    assert_eq!(stages.len(), 3, "expected 3 stages");
    for (k, &count) in stages.iter().enumerate() {
        assert_eq!(count, report.offloaded(), "stage {} lost requests", k + 1);
    }
    assert!(
        report.transfer_ms() > 0.0,
        "staged offloads must pay transfers"
    );
    // Every stage completion carries its exact sojourn.
    for (k, hist) in report.stage_sojourn().iter().enumerate() {
        assert_eq!(hist.count(), stages[k], "stage {} sojourns", k + 1);
    }
}

#[test]
fn staged_transfer_total_is_every_offloads_priced_hops() {
    // Each offload pays every boundary once, priced on its origin
    // region's uplink, so the fleet's transfer total is, to the
    // microsecond, Σ over origins of offloads × hops.
    let scenario = staged_per_request(2, ReplayMode::Auto);
    let hops_us: Vec<u64> = scenario
        .regions()
        .iter()
        .map(|share| {
            let model = TransferModel::new(share.region.uplink());
            three_stage()
                .boundaries()
                .iter()
                .map(|&bytes| model.cost_us(bytes))
                .sum()
        })
        .collect();
    let report = run(scenario);
    let expected_us: u64 = report
        .regions()
        .iter()
        .zip(&hops_us)
        .map(|(region, &hops)| region.offloaded * hops)
        .sum();
    assert!(expected_us > 0);
    assert_eq!((report.transfer_ms() * 1000.0).round() as u64, expected_us);
}

#[test]
fn fluid_rejects_staged_pipelines_at_build() {
    // Only the microsim serves each remote stage as its own request, so
    // a staged spec under the fluid tier (the default fidelity) fails
    // the build and names the fix.
    let rejected = |builder: lens::fleet::FleetScenarioBuilder| match builder.build() {
        Err(FleetError::InvalidScenario(why)) => {
            assert!(why.contains("CloudSimFidelity::PerRequest"), "{why}")
        }
        other => panic!("expected InvalidScenario, got {other:?}"),
    };
    let two_stage = || PipelineSpec::new(vec![CONV_BOUNDARY_BYTES]);
    rejected(FleetScenario::builder().pipeline(two_stage()));
    rejected(
        FleetScenario::builder()
            .fidelity(CloudSimFidelity::Fluid)
            .pipeline(three_stage()),
    );
    FleetScenario::builder()
        .pipeline(two_stage())
        .fidelity(CloudSimFidelity::PerRequest)
        .build()
        .expect("per-request fidelity runs staged pipelines");
    // Depth 1 stages nothing: the monolithic path, valid in both.
    for fidelity in [CloudSimFidelity::Fluid, CloudSimFidelity::PerRequest] {
        FleetScenario::builder()
            .fidelity(fidelity)
            .pipeline(PipelineSpec::default())
            .build()
            .expect("a depth-1 spec builds in both fidelities");
    }
}

#[test]
fn staged_report_is_bit_identical_across_1_2_4_shards() {
    // The shard-invariance pin extended to pipelined runs: each region's
    // microsim chains stage arrivals from completions whose order is
    // already shard-invariant, and serves them on the
    // (arrival_us, device_id, stage) key — so the report, stage ledger
    // and transfer totals included, cannot depend on sharding.
    let one = run(staged_per_request(1, ReplayMode::Auto));
    for shards in [2, 4] {
        let other = run(staged_per_request(shards, ReplayMode::Auto));
        assert_eq!(one, other, "report differs at {shards} shards");
        assert_eq!(one.digest(), other.digest());
    }
    assert!(one.stage_completions().iter().all(|&c| c > 0));
}

#[test]
fn staged_parallel_replay_is_bit_identical_to_sequential() {
    // Stage chaining runs inside each region's microsim; it must stay
    // region-local so fanning the replay workers out over threads cannot
    // change a bit of the output.
    let sequential = run(staged_per_request(2, ReplayMode::Sequential));
    let parallel = run(staged_per_request(2, ReplayMode::Parallel));
    assert_eq!(sequential, parallel, "parallel staged replay diverged");
    assert_eq!(sequential.digest(), parallel.digest());
}

#[test]
fn depth_one_pipeline_is_bit_identical_to_monolithic_offload() {
    // The zero-transfer equivalence pin: a pipeline with no boundaries
    // is not "a pipeline that happens to cost nothing" — it is the same
    // code path as no pipeline at all (`staged_pipeline()` filters it
    // out), so the reports and digests must match bit for bit.
    for fidelity in [CloudSimFidelity::Fluid, CloudSimFidelity::PerRequest] {
        let monolithic = run(staged_scenario(2, fidelity, ReplayMode::Auto, None));
        let depth_one = run(staged_scenario(
            2,
            fidelity,
            ReplayMode::Auto,
            Some(PipelineSpec::default()),
        ));
        assert_eq!(
            monolithic, depth_one,
            "{fidelity:?}: depth-1 pipeline perturbed the monolithic path"
        );
        assert_eq!(monolithic.digest(), depth_one.digest());
        assert!(depth_one.stage_completions().is_empty());
        assert_eq!(depth_one.transfer_ms(), 0.0);
    }
}

#[test]
fn staging_costs_latency_and_poor_links_pay_more() {
    // Sanity on the economics the example sweeps: a staged offload rides
    // the serving tier once per stage and pays every boundary transfer,
    // so mean latency must strictly exceed the monolithic run's; and the
    // transfer total must grow when the boundary fattens.
    let monolithic = run(staged_scenario(
        2,
        CloudSimFidelity::PerRequest,
        ReplayMode::Auto,
        None,
    ));
    let staged = run(staged_per_request(2, ReplayMode::Auto));
    assert!(
        staged.latency().mean() > monolithic.latency().mean(),
        "staging must cost latency: staged {} vs monolithic {}",
        staged.latency().mean(),
        monolithic.latency().mean()
    );
    let fat = run(staged_scenario(
        2,
        CloudSimFidelity::PerRequest,
        ReplayMode::Auto,
        Some(PipelineSpec::new(vec![CONV_BOUNDARY_BYTES * 8])),
    ));
    let thin = run(staged_scenario(
        2,
        CloudSimFidelity::PerRequest,
        ReplayMode::Auto,
        Some(PipelineSpec::new(vec![FC_BOUNDARY_BYTES / 8])),
    ));
    assert!(
        fat.transfer_ms() > thin.transfer_ms(),
        "fatter boundaries must pay more transfer: {} vs {}",
        fat.transfer_ms(),
        thin.transfer_ms()
    );
}
