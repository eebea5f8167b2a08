//! Repo-level integration tests for the fleet subsystem, driven through
//! the `lens` facade: the determinism contract, the contention axis, and
//! the dynamic-vs-fixed policy ordering at (small) population scale.

use lens::prelude::*;

fn congested(population: usize, policy: FleetPolicy, metric: Metric, shards: usize) -> FleetReport {
    let scenario = FleetScenario::builder()
        .population(population)
        .horizon(Millis::new(1_200_000.0)) // 20 minutes
        .trace_interval(Millis::new(60_000.0))
        .serving(CloudServing::single(2, 250.0)) // 480 inferences/min drain
        .policy(policy)
        .metric(metric)
        .seed(7)
        .shards(shards)
        .build()
        .expect("valid scenario");
    FleetEngine::new(scenario)
        .expect("engine builds")
        .run()
        .expect("run succeeds")
}

#[test]
fn reports_are_reproducible_bit_for_bit() {
    let a = congested(1500, FleetPolicy::Dynamic, Metric::Energy, 3);
    let b = congested(1500, FleetPolicy::Dynamic, Metric::Energy, 3);
    assert_eq!(a, b);
    assert_eq!(a.digest(), b.digest());
    // 1500 devices x 20 one-minute periods.
    assert_eq!(a.inferences(), 30_000);
}

#[test]
fn integer_aggregates_are_shard_count_invariant() {
    let a = congested(1500, FleetPolicy::Dynamic, Metric::Energy, 1);
    let b = congested(1500, FleetPolicy::Dynamic, Metric::Energy, 5);
    assert_eq!(a.inferences(), b.inferences());
    assert_eq!(a.offloaded(), b.offloaded());
    assert_eq!(a.switches(), b.switches());
    assert_eq!(a.latency().percentile(50.0), b.latency().percentile(50.0));
    assert_eq!(a.energy().percentile(99.0), b.energy().percentile(99.0));
}

/// A congested batched multi-backend scenario with deadline admission and
/// sibling failover — every serving-tier feature at once.
fn batched_scenario(shards: usize) -> FleetScenario {
    batched_scenario_at(shards, CloudSimFidelity::Fluid)
}

fn batched_scenario_at(shards: usize, fidelity: CloudSimFidelity) -> FleetScenario {
    batched_builder(shards, fidelity)
        .build()
        .expect("valid scenario")
}

/// Per-region peak drain ≈ 987 jobs/min (gpu 827 + cpu 160) against an
/// eager energy-dynamic fleet whose busiest regions offload well above
/// that — so backlogs build, batches close full, and the deadline
/// controller sheds into failover and local fallback.
fn batched_serving() -> CloudServing {
    CloudServing::new(vec![
        BackendConfig::new("gpu", 1, 2000.0, 10.0).with_batching(32, 500.0),
        BackendConfig::new("cpu", 1, 500.0, 250.0).with_batching(4, 250.0),
    ])
    .with_priority(0.2)
    .with_admission(AdmissionPolicy::Deadline {
        max_wait_ms: 10_000.0,
    })
    .with_failover(FailoverPolicy::SiblingRegion { penalty_ms: 80.0 })
}

fn batched_builder(shards: usize, fidelity: CloudSimFidelity) -> lens::fleet::FleetScenarioBuilder {
    FleetScenario::builder()
        .population(6000)
        .horizon(Millis::new(1_200_000.0)) // 20 minutes
        .trace_interval(Millis::new(60_000.0))
        .serving(batched_serving())
        .policy(FleetPolicy::Dynamic)
        .metric(Metric::Energy)
        .seed(23)
        .shards(shards)
        .fidelity(fidelity)
}

#[test]
fn batched_multi_backend_report_is_bit_identical_across_1_2_4_shards() {
    // Stronger than the headline contract (which fixes the shard count):
    // integer event counts plus fixed-point value sums make the merged
    // report independent of how the population is sharded.
    let one = FleetEngine::new(batched_scenario(1))
        .expect("engine builds")
        .run()
        .expect("run succeeds");
    for shards in [2, 4] {
        let other = FleetEngine::new(batched_scenario(shards))
            .expect("engine builds")
            .run()
            .expect("run succeeds");
        assert_eq!(one, other, "report differs at {shards} shards");
        assert_eq!(one.digest(), other.digest());
    }
    // And the scenario actually exercises the serving tier: batches close
    // on both backends, and the admission controller sheds under load.
    assert_eq!(one.backends().len(), 6, "3 regions x 2 backends");
    assert!(one.backends().iter().any(|b| b.mean_batch() > 1.5));
    assert!(
        one.shed_to_local() + one.failed_over() > 0,
        "deadline admission should trigger under congestion"
    );
}

#[test]
fn per_request_batched_report_is_bit_identical_across_1_2_4_shards() {
    // Extends the 1/2/4 pinning to the per-request microsimulation: the
    // barrier merges every region's offloads from all shards and sorts
    // them by the shard-count-invariant (arrival µs, device id) key
    // before replaying the epoch, so the cloud schedule — and with it the
    // exact per-request tail histograms — cannot depend on sharding.
    let per_request = |shards: usize| {
        FleetEngine::new(batched_scenario_at(shards, CloudSimFidelity::PerRequest))
            .expect("engine builds")
            .run()
            .expect("run succeeds")
    };
    let one = per_request(1);
    for shards in [2, 4] {
        let other = per_request(shards);
        assert_eq!(one, other, "per-request report differs at {shards} shards");
        assert_eq!(one.digest(), other.digest());
    }
    // The microsim actually served per-request traffic with tails.
    let sojourns: u64 = one.cloud_sojourn().iter().map(|h| h.count()).sum();
    assert_eq!(sojourns, one.offloaded());
    assert!(one.offloaded() > 0);
    for region in 0..one.regions().len() {
        assert!(one.region_tail(region).is_monotone());
    }
    assert!(one.backends().iter().any(|b| b.sojourn_ms.count() > 0));
}

#[test]
fn poisson_report_is_bit_identical_across_shards_and_replay_modes() {
    // Poisson arrivals keep each shard in id order behind an event heap,
    // while periodic shards are stored in firing order: pin the Poisson
    // side of the shard build too, in both fidelities.
    for fidelity in [CloudSimFidelity::Fluid, CloudSimFidelity::PerRequest] {
        let run = |shards: usize, replay: ReplayMode| {
            let scenario = batched_builder(shards, fidelity)
                .arrival(ArrivalModel::Poisson {
                    mean_interarrival: Millis::new(60_000.0),
                })
                .replay(replay)
                .build()
                .expect("valid scenario");
            FleetEngine::new(scenario)
                .expect("engine builds")
                .run()
                .expect("run succeeds")
        };
        let one = run(1, ReplayMode::Sequential);
        for (shards, replay) in [
            (2, ReplayMode::Sequential),
            (4, ReplayMode::Sequential),
            (2, ReplayMode::Parallel),
        ] {
            let other = run(shards, replay);
            assert_eq!(
                one, other,
                "{fidelity:?} differs at {shards} shards, {replay:?}"
            );
            assert_eq!(one.digest(), other.digest());
        }
        assert!(
            one.shed_to_local() + one.failed_over() > 0,
            "{fidelity:?}: the Poisson day should congest the tier"
        );
    }
}

/// Priced, autoscaled backends (utilization + queue-depth signals),
/// cost-aware dispatch, deadline admission, and sibling failover.
fn autoscaled_serving() -> CloudServing {
    CloudServing::new(vec![
        BackendConfig::new("gpu", 2, 2000.0, 10.0)
            .with_batching(32, 500.0)
            .with_price(4.0)
            .with_energy(2.0)
            .with_autoscaler(
                Autoscaler::new(ScalingSignal::Utilization, 0.7, 0.25, 1, 8)
                    .with_step(2)
                    .with_cooldown(1),
            ),
        BackendConfig::new("cpu", 2, 500.0, 250.0)
            .with_batching(4, 250.0)
            .with_price(1.0)
            .with_energy(1.0)
            .with_autoscaler(
                Autoscaler::new(ScalingSignal::QueueDepth, 8.0, 0.5, 1, 12).with_alpha(0.6),
            ),
    ])
    .with_priority(0.2)
    .with_dispatch(DispatchPolicy::CostAware)
    .with_admission(AdmissionPolicy::Deadline {
        max_wait_ms: 10_000.0,
    })
    .with_failover(FailoverPolicy::SiblingRegion { penalty_ms: 80.0 })
}

/// A diurnal-ish congested scenario exercising autoscaling, pricing and
/// cost-aware dispatch at once on the [`autoscaled_serving`] tier.
fn autoscaled_scenario(shards: usize, fidelity: CloudSimFidelity) -> FleetScenario {
    FleetScenario::builder()
        .population(6000)
        .horizon(Millis::new(1_200_000.0)) // 20 minutes
        .trace_interval(Millis::new(60_000.0))
        .serving(autoscaled_serving())
        .policy(FleetPolicy::Dynamic)
        .metric(Metric::Energy)
        .seed(23)
        .shards(shards)
        .fidelity(fidelity)
        .build()
        .expect("valid scenario")
}

#[test]
fn autoscaled_cost_aware_report_is_bit_identical_across_1_2_4_shards() {
    // The PR 5 extension of the shard-invariance pin: autoscaler state
    // (slot timelines, scaling events) and fixed-point cost totals are
    // barrier-side functions of merged integer demand, so the full report
    // — timelines included — cannot depend on sharding, in either
    // fidelity mode.
    for fidelity in [CloudSimFidelity::Fluid, CloudSimFidelity::PerRequest] {
        let one = FleetEngine::new(autoscaled_scenario(1, fidelity))
            .expect("engine builds")
            .run()
            .expect("run succeeds");
        for shards in [2, 4] {
            let other = FleetEngine::new(autoscaled_scenario(shards, fidelity))
                .expect("engine builds")
                .run()
                .expect("run succeeds");
            assert_eq!(one, other, "{fidelity:?} report differs at {shards} shards");
            assert_eq!(one.digest(), other.digest());
        }
        // The scenario genuinely scales and prices the tier.
        assert!(one.scaling_events() > 0, "{fidelity:?} never scaled");
        assert!(one.provision_cost() > 0.0);
        assert!(one.cloud_energy_mj() > 0.0);
        for b in one.backends() {
            assert_eq!(b.slot_timeline.len(), 20, "one entry per epoch");
        }
        assert!(
            one.backends()
                .iter()
                .any(|b| b.slot_timeline.iter().max() != b.slot_timeline.iter().min()),
            "{fidelity:?}: some slot timeline should move with demand"
        );
    }
}

#[test]
fn flight_recorder_trace_is_bit_identical_across_1_2_4_shards() {
    // The observability extension of the shard-invariance pin: the
    // barrier merges every shard's trace events on the same
    // (time µs, device id) key the microsim uses — a stable sort, so one
    // device's same-key events keep their emission order — which makes
    // the flight-recorder digest and the per-epoch metrics timelines a
    // pure function of the scenario, in either fidelity mode.
    for fidelity in [CloudSimFidelity::Fluid, CloudSimFidelity::PerRequest] {
        let (one_report, one) = FleetEngine::new(batched_scenario_at(1, fidelity))
            .expect("engine builds")
            .run_traced()
            .expect("run succeeds");
        for shards in [2, 4] {
            let (report, telemetry) = FleetEngine::new(batched_scenario_at(shards, fidelity))
                .expect("engine builds")
                .run_traced()
                .expect("run succeeds");
            assert_eq!(one_report.digest(), report.digest());
            assert_eq!(
                one.trace_digest(),
                telemetry.trace_digest(),
                "{fidelity:?} trace differs at {shards} shards"
            );
            assert_eq!(
                one.metrics_digest(),
                telemetry.metrics_digest(),
                "{fidelity:?} metrics timeline differs at {shards} shards"
            );
            // The work profile is merged from per-shard counters, so the
            // totals cannot depend on sharding either.
            assert_eq!(one.profile.total(), telemetry.profile.total());
        }
        // The pin is not vacuous: the congested scenario records real
        // traffic in every section.
        assert!(one.recorder.recorded() > 0, "{fidelity:?} recorded nothing");
        assert!(one.recorder.dropped() == 0 || one.recorder.len() == one.recorder.capacity());
        assert!(!one.metrics.is_empty());
        assert_eq!(one.profile.epochs(), 20);
    }
}

#[test]
fn telemetry_does_not_perturb_the_run() {
    // run() and run_traced() must produce bit-identical reports: the
    // recorder observes the simulation, it does not participate in it.
    // Pinned on the autoscaled scenario so the scale phase is live too.
    for fidelity in [CloudSimFidelity::Fluid, CloudSimFidelity::PerRequest] {
        let engine = FleetEngine::new(autoscaled_scenario(2, fidelity)).expect("engine builds");
        let untraced = engine.run().expect("run succeeds");
        let (traced, telemetry) = engine.run_traced().expect("run succeeds");
        assert_eq!(
            untraced, traced,
            "{fidelity:?}: telemetry perturbed the run"
        );
        assert_eq!(untraced.digest(), traced.digest());
        assert!(telemetry.recorder.recorded() > 0);
        // Scaling activity shows up in the trace, not just the report.
        assert!(
            telemetry
                .recorder
                .events()
                .any(|e| e.kind() == "scaling_step"),
            "{fidelity:?}: autoscaler steps must be traced"
        );
    }
}

/// Fluid-vs-discrete cross-check: on the same congested scenario with
/// open admission and a wait-blind policy (dynamic on energy), both
/// fidelities make bit-identical device decisions, so all decision-driven
/// aggregates must agree *exactly*; the latency accounting is the only
/// difference, and its means must agree within a documented tolerance
/// while only the per-request run exposes a tail.
#[test]
fn fluid_vs_per_request_cross_check() {
    let run = |fidelity: CloudSimFidelity, cloud: CloudServing| {
        let scenario = FleetScenario::builder()
            .population(1500)
            .horizon(Millis::new(1_200_000.0)) // 20 minutes
            .trace_interval(Millis::new(60_000.0))
            .serving(cloud)
            .policy(FleetPolicy::Dynamic)
            .metric(Metric::Energy)
            .seed(7)
            .shards(2)
            .fidelity(fidelity)
            .build()
            .expect("valid scenario");
        FleetEngine::new(scenario)
            .expect("engine builds")
            .run()
            .expect("run succeeds")
    };
    // Decision-driven aggregates: exact agreement (integer counts and
    // fixed-point sums on identical serve() decisions).
    let assert_decisions_agree = |fluid: &FleetReport, discrete: &FleetReport| {
        assert_eq!(fluid.inferences(), discrete.inferences());
        assert_eq!(fluid.offloaded(), discrete.offloaded());
        assert_eq!(fluid.switches(), discrete.switches());
        assert_eq!(fluid.total_energy_mj(), discrete.total_energy_mj());
        for (f, d) in fluid.regions().iter().zip(discrete.regions()) {
            assert_eq!(f.inferences, d.inferences);
            assert_eq!(f.offloaded, d.offloaded);
            assert_eq!(f.energy_sum_mj(), d.energy_sum_mj());
        }
    };

    // Uncongested cross-check first: with ample capacity the fluid wait
    // is ~0 and the discrete sojourn is essentially the 8 ms service
    // time, so the means must sit within one single-item service time of
    // each other.
    let calm_cloud = || CloudServing::single(64, 8.0);
    let calm_fluid = run(CloudSimFidelity::Fluid, calm_cloud());
    let calm_discrete = run(CloudSimFidelity::PerRequest, calm_cloud());
    assert_decisions_agree(&calm_fluid, &calm_discrete);
    assert!(
        (calm_fluid.latency().mean() - calm_discrete.latency().mean()).abs() <= 8.0,
        "uncongested means must agree within one service time: {} vs {}",
        calm_fluid.latency().mean(),
        calm_discrete.latency().mean()
    );

    // Congested cross-check: 1500 devices against a 480/min drain.
    let hot_cloud = || CloudServing::single(2, 250.0);
    let fluid = run(CloudSimFidelity::Fluid, hot_cloud());
    let discrete = run(CloudSimFidelity::PerRequest, hot_cloud());
    assert_decisions_agree(&fluid, &discrete);

    // Latency accounting: the models price cloud time differently (the
    // fluid wait estimate vs. exact queueing + the request's own batch
    // service, which the fluid model never charges). Documented bound:
    // means agree within 20% relative plus one single-item service time
    // (250 ms) absolute slack; the observed gap on this scenario is
    // ~5.7% (fluid ≈ 154.2 s vs per-request ≈ 163.1 s of overload).
    let fluid_mean = fluid.latency().mean();
    let discrete_mean = discrete.latency().mean();
    let bound = 0.20 * fluid_mean + 250.0;
    assert!(
        (fluid_mean - discrete_mean).abs() <= bound,
        "means diverged beyond tolerance: fluid {fluid_mean} vs per-request {discrete_mean} (bound {bound})"
    );

    // The per-request run is strictly richer: it has a cloud tail story,
    // the fluid run has none.
    assert!(fluid.cloud_sojourn().iter().all(|h| h.count() == 0));
    let sojourns: u64 = discrete.cloud_sojourn().iter().map(|h| h.count()).sum();
    assert_eq!(sojourns, discrete.offloaded());
    for h in discrete.cloud_sojourn() {
        assert!(h.tail_summary().is_monotone());
    }
    // In at least one (stable) region the discrete tail visibly spreads;
    // a hopelessly diverging region collapses into the overflow bucket
    // (p50 = p99 = max), which is itself tail information fluid lacks.
    assert!(
        discrete.cloud_sojourn().iter().any(|h| {
            let tail = h.tail_summary();
            h.count() > 0 && tail.p99 > tail.p50
        }),
        "some per-request region tail must spread beyond its median"
    );
}

#[test]
fn dynamic_beats_every_fixed_policy_on_energy_under_congestion() {
    let dynamic = congested(1500, FleetPolicy::Dynamic, Metric::Energy, 2);
    assert!(
        dynamic.switches() > 0,
        "fleet should switch under bursty traces"
    );
    let kinds = {
        let scenario = FleetScenario::builder()
            .population(1)
            .build()
            .expect("valid scenario");
        let engine = FleetEngine::new(scenario).expect("engine builds");
        let kinds: Vec<DeploymentKind> = engine.cohorts()[0]
            .options
            .iter()
            .map(|o| o.kind().clone())
            .collect();
        kinds
    };
    assert!(kinds.len() >= 3, "AlexNet should enumerate several options");
    for kind in kinds {
        let fixed = congested(1500, FleetPolicy::Fixed(kind.clone()), Metric::Energy, 2);
        assert!(
            dynamic.total_energy_mj() < fixed.total_energy_mj(),
            "dynamic ({}) must beat fixed {kind} ({})",
            dynamic.total_energy_mj(),
            fixed.total_energy_mj()
        );
    }
}

#[test]
fn all_cloud_fleet_saturates_the_queue_and_congestion_aware_dodges_it() {
    let flood = congested(
        1500,
        FleetPolicy::Fixed(DeploymentKind::AllCloud),
        Metric::Latency,
        2,
    );
    let peak: f64 = flood
        .queue_depth()
        .iter()
        .flat_map(|r| r.iter())
        .fold(0.0, |a, &b| a.max(b));
    assert!(
        peak > 100.0,
        "1500 all-cloud devices must congest 480/min, peak {peak}"
    );

    let aware = congested(
        1500,
        FleetPolicy::DynamicCongestionAware,
        Metric::Latency,
        2,
    );
    assert!(
        aware.latency().mean() < flood.latency().mean(),
        "congestion-aware ({}) must beat all-cloud ({}) on mean latency",
        aware.latency().mean(),
        flood.latency().mean()
    );
}

#[test]
fn per_region_breakdown_reflects_the_mix() {
    let report = congested(2000, FleetPolicy::Dynamic, Metric::Energy, 2);
    let regions = report.regions();
    assert_eq!(regions.len(), 3);
    let by_name = |n: &str| regions.iter().find(|r| r.region == n).expect("region");
    // Default mix: USA 50%, S. Korea 30%, Afghanistan 20%.
    assert!(by_name("USA").inferences > by_name("S. Korea").inferences);
    assert!(by_name("S. Korea").inferences > by_name("Afghanistan").inferences);
    // Afghanistan (0.7 Mbps) should mostly stay on-device for energy;
    // S. Korea (16.1 Mbps) should offload far more eagerly.
    let offload_share = |n: &str| {
        let r = by_name(n);
        r.offloaded as f64 / r.inferences as f64
    };
    assert!(
        offload_share("S. Korea") > offload_share("Afghanistan"),
        "fast region should offload more: {} vs {}",
        offload_share("S. Korea"),
        offload_share("Afghanistan")
    );
}

/// A mechanism a golden scenario exists to cover; the pin asserts it
/// fired, so a digest can never be pinned on a run that skipped it.
#[derive(Debug, Clone, Copy)]
enum Mechanism {
    Failover,
    Scaling,
    Retreat,
    Stages,
}

impl Mechanism {
    fn fired(self, report: &FleetReport) -> bool {
        match self {
            Mechanism::Failover => report.failed_over() > 0,
            Mechanism::Scaling => report.scaling_events() > 0,
            Mechanism::Retreat => report.retreated() > 0,
            Mechanism::Stages => {
                report.stage_completions().len() == 3
                    && report.stage_completions().iter().all(|&n| n > 0)
            }
        }
    }
}

/// The golden scenarios: 1,500 devices firing every 20 s on 2 shards,
/// over a 630 s horizon of 60 s epochs, so the last epoch is partial.
fn golden_scenarios() -> Vec<(&'static str, FleetScenario, Vec<Mechanism>)> {
    use CloudSimFidelity::{Fluid, PerRequest};
    let base = |fidelity: CloudSimFidelity, serving: CloudServing| {
        FleetScenario::builder()
            .population(1500)
            .horizon(Millis::new(630_000.0))
            .trace_interval(Millis::new(60_000.0))
            .arrival(ArrivalModel::Periodic {
                period: Millis::new(20_000.0),
            })
            .serving(serving)
            .policy(FleetPolicy::Dynamic)
            .metric(Metric::Energy)
            .seed(29)
            .shards(2)
            .fidelity(fidelity)
    };
    let three_stage = || PipelineSpec::new(vec![150_528, 86_528]);
    let closed_loop_tier = CloudServing::new(vec![BackendConfig::new("gpu", 1, 500.0, 10.0)
        .with_batching(8, 250.0)
        .with_autoscaler(
            Autoscaler::new(
                ScalingSignal::TailLatency { target_us: 500_000 },
                1.0,
                0.25,
                1,
                6,
            )
            .with_alpha(0.6)
            .with_cooldown(1),
        )])
    .with_admission(AdmissionPolicy::Deadline {
        max_wait_ms: 2_000.0,
    })
    .with_failover(FailoverPolicy::SiblingRegion { penalty_ms: 60.0 });
    let single = CloudServing::single(2, 250.0);
    use Mechanism::{Failover, Retreat, Scaling, Stages};
    let build = |builder: lens::fleet::FleetScenarioBuilder| builder.build().expect("valid");
    vec![
        ("fluid_single", build(base(Fluid, single)), vec![]),
        (
            "fluid_batched",
            build(base(Fluid, batched_serving())),
            vec![Failover],
        ),
        (
            "fluid_autoscaled",
            build(base(Fluid, autoscaled_serving())),
            vec![Scaling],
        ),
        (
            "per_request_batched",
            build(base(PerRequest, batched_serving())),
            vec![Failover],
        ),
        (
            "per_request_pipeline",
            build(base(PerRequest, batched_serving()).pipeline(three_stage())),
            vec![Failover, Stages],
        ),
        (
            "per_request_poisson_autoscaled",
            build(
                base(PerRequest, autoscaled_serving()).arrival(ArrivalModel::Poisson {
                    mean_interarrival: Millis::new(20_000.0),
                }),
            ),
            vec![Scaling],
        ),
        (
            "per_request_closed_loop",
            build(
                base(PerRequest, closed_loop_tier)
                    .metric(Metric::Latency)
                    .workload(WorkloadCurve::flash_crowd(
                        Millis::new(180_000.0),
                        Millis::new(240_000.0),
                    ))
                    .tail_deadline(Millis::new(2_000.0))
                    .pipeline(three_stage()),
            ),
            vec![Failover, Scaling, Retreat, Stages],
        ),
    ]
}

/// `(scenario, report digest, trace digest, metrics digest)`, recorded on
/// x86_64 Linux.
const GOLDEN_DIGESTS: [(&str, u64, u64, u64); 7] = [
    (
        "fluid_single",
        0x9fc11534b3dfba3b,
        0xdd1a617ddacd9774,
        0xc7b16e32ed8a124f,
    ),
    (
        "fluid_batched",
        0x3f1285396e1421c1,
        0x9b38b6bdfd67f535,
        0x871494fe84f1e439,
    ),
    (
        "fluid_autoscaled",
        0x10e53b82c8f2168c,
        0x9a469f38917c16ae,
        0x8ead91f0ff9fe7ae,
    ),
    (
        "per_request_batched",
        0x28cb3c1b90de0b1b,
        0xd32ee5166e053d4e,
        0x1b0a739f9d030a20,
    ),
    (
        "per_request_pipeline",
        0x33cef77c97e707f0,
        0xff4a305921e4c862,
        0xe1763ab856bf2225,
    ),
    (
        "per_request_poisson_autoscaled",
        0xa5c6a5a6b9c21835,
        0xbb13fcb8081feb97,
        0xe1892cfe890b8397,
    ),
    (
        "per_request_closed_loop",
        0x39ed9d5eebb79b07,
        0xa08134c80da392e2,
        0x6de9ebe4cae3ad7d,
    ),
];

/// One phase's whole-run work counters: `(events_popped, heap_ops,
/// records_merged, batches_closed)`.
type Work = (u64, u64, u64, u64);

/// `(scenario, [shard step, drain, scale])` work counters, recorded on
/// x86_64 Linux. No digest covers the profile, so these catch a refactor
/// that does more work for the same result, such as an extra heap push
/// per offload.
const GOLDEN_WORK: [(&str, [Work; 3]); 7] = [
    (
        "fluid_single",
        [(47260, 93020, 0, 0), (0, 0, 0, 15120), (0, 0, 0, 0)],
    ),
    (
        "fluid_batched",
        [(47260, 93020, 0, 0), (0, 0, 0, 2196), (0, 0, 0, 0)],
    ),
    (
        "fluid_autoscaled",
        [(47260, 93020, 0, 0), (0, 0, 0, 8440), (0, 0, 0, 0)],
    ),
    (
        "per_request_batched",
        [
            (47260, 93020, 0, 0),
            (2204, 4408, 32448, 2198),
            (0, 0, 0, 0),
        ],
    ),
    (
        "per_request_pipeline",
        [
            (47260, 93020, 0, 0),
            (40334, 80668, 18326, 3676),
            (0, 0, 0, 0),
        ],
    ),
    (
        "per_request_poisson_autoscaled",
        [
            (47431, 93362, 0, 0),
            (10862, 21712, 44697, 7249),
            (0, 12, 0, 0),
        ],
    ),
    (
        "per_request_closed_loop",
        [
            (47260, 93020, 0, 0),
            (24239, 48463, 8745, 4505),
            (0, 15, 0, 0),
        ],
    ),
];

/// Absolute digest and work-count pins. Every other pin in the suite is
/// relational (shard counts, replay modes, traced vs. untraced), so a
/// change that moved every digest the same way would pass them all; these
/// values catch it. Gated to the platform they were recorded on. A
/// deliberate change re-pins in one step: the failure prints every actual
/// value in the table's own syntax.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[test]
fn golden_digests_are_unchanged() {
    let mut actual = Vec::new();
    let mut work = Vec::new();
    for (name, scenario, mechanisms) in golden_scenarios() {
        let (report, telemetry) = FleetEngine::new(scenario)
            .expect("engine builds")
            .run_traced()
            .expect("run succeeds");
        for mechanism in mechanisms {
            assert!(
                mechanism.fired(&report),
                "{name}: {mechanism:?} never fired"
            );
        }
        actual.push((
            name,
            report.digest(),
            telemetry.trace_digest(),
            telemetry.metrics_digest(),
        ));
        let counts = |phase| {
            let c = telemetry.profile.phase(phase);
            (
                c.events_popped,
                c.heap_ops,
                c.records_merged,
                c.batches_closed,
            )
        };
        assert_eq!(
            counts(BarrierPhase::Publish),
            (0, 0, 0, 0),
            "{name}: publishing copies signals and does no counted work"
        );
        work.push((
            name,
            [
                counts(BarrierPhase::ShardStep),
                counts(BarrierPhase::Drain),
                counts(BarrierPhase::Scale),
            ],
        ));
    }
    let table: String = actual
        .iter()
        .map(|(name, report, trace, metrics)| {
            format!("    (\"{name}\", {report:#018x}, {trace:#018x}, {metrics:#018x}),\n")
        })
        .collect();
    assert!(
        actual == GOLDEN_DIGESTS,
        "golden digests moved; the actual values are:\n{table}"
    );
    let work_table: String = work
        .iter()
        .map(|(name, [step, drain, scale])| {
            format!("    (\"{name}\", [{step:?}, {drain:?}, {scale:?}]),\n")
        })
        .collect();
    assert!(
        work == GOLDEN_WORK,
        "golden work counts moved; the actual values are:\n{work_table}"
    );
}
