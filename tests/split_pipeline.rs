//! Repo-level integration tests for staged split-inference pipelines
//! (docs/PIPELINES.md): the stage-conservation invariant, the 1/2/4-shard
//! and Parallel-vs-Sequential bit-identity pins for pipelined runs in
//! both fidelities, and the zero-transfer equivalence pin — a depth-1
//! pipeline is *structurally* the monolithic offload path.

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

#[test]
fn every_admitted_stage_completes_stage_conservation() {
    // Conservation: each offload becomes exactly `depth` stage requests
    // — stage 1 at the device's arrival, stages 2.. chained from
    // completions — and the post-horizon flush drains every chain. So
    // each stage's completion count must equal the offload count, in
    // both fidelities.
    for fidelity in [CloudSimFidelity::Fluid, CloudSimFidelity::PerRequest] {
        let report = run(staged_scenario(
            2,
            fidelity,
            ReplayMode::Auto,
            Some(three_stage()),
        ));
        assert!(report.offloaded() > 0, "{fidelity:?}: nothing offloaded");
        let stages = report.stage_completions();
        assert_eq!(stages.len(), 3, "{fidelity:?}: expected 3 stages");
        for (k, &count) in stages.iter().enumerate() {
            assert_eq!(
                count,
                report.offloaded(),
                "{fidelity:?}: stage {} lost requests",
                k + 1
            );
        }
        assert!(
            report.transfer_ms() > 0.0,
            "{fidelity:?}: staged offloads must pay transfers"
        );
        // Only the per-request tier has exact per-stage sojourns; the
        // fluid tier books the ledger without a latency sample.
        for (k, hist) in report.stage_sojourn().iter().enumerate() {
            let expected = match fidelity {
                CloudSimFidelity::PerRequest => stages[k],
                CloudSimFidelity::Fluid => 0,
            };
            assert_eq!(
                hist.count(),
                expected,
                "{fidelity:?}: stage {} sojourns",
                k + 1
            );
        }
    }
}

#[test]
fn staged_report_is_bit_identical_across_1_2_4_shards() {
    // The shard-invariance pin extended to pipelined runs: each region's
    // microsim chains stage arrivals from completions whose order is
    // already shard-invariant, and serves them on the
    // (arrival_us, device_id, stage) key — so the report, stage ledger
    // and transfer totals included, cannot depend on sharding.
    for fidelity in [CloudSimFidelity::Fluid, CloudSimFidelity::PerRequest] {
        let one = run(staged_scenario(
            1,
            fidelity,
            ReplayMode::Auto,
            Some(three_stage()),
        ));
        for shards in [2, 4] {
            let other = run(staged_scenario(
                shards,
                fidelity,
                ReplayMode::Auto,
                Some(three_stage()),
            ));
            assert_eq!(
                one, other,
                "{fidelity:?}: report differs at {shards} shards"
            );
            assert_eq!(one.digest(), other.digest());
        }
        assert!(one.stage_completions().iter().all(|&c| c > 0));
    }
}

#[test]
fn staged_parallel_replay_is_bit_identical_to_sequential() {
    // Stage chaining runs inside each region's microsim; it must stay
    // region-local so fanning the replay workers out over threads cannot
    // change a bit of the output.
    for fidelity in [CloudSimFidelity::Fluid, CloudSimFidelity::PerRequest] {
        let sequential = run(staged_scenario(
            2,
            fidelity,
            ReplayMode::Sequential,
            Some(three_stage()),
        ));
        let parallel = run(staged_scenario(
            2,
            fidelity,
            ReplayMode::Parallel,
            Some(three_stage()),
        ));
        assert_eq!(
            sequential, parallel,
            "{fidelity:?}: parallel staged replay diverged"
        );
        assert_eq!(sequential.digest(), parallel.digest());
    }
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
    let staged = run(staged_scenario(
        2,
        CloudSimFidelity::PerRequest,
        ReplayMode::Auto,
        Some(three_stage()),
    ));
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
