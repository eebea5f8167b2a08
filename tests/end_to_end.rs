//! End-to-end integration tests: the full LENS pipeline (predictor
//! training → paired searches → post-hoc partitioning → frontier metrics →
//! runtime analysis), at a reduced-but-real budget.

use lens::prelude::*;

fn build(seed: u64, iters: usize, init: usize) -> Lens {
    Lens::builder()
        .technology(WirelessTechnology::Wifi)
        .expected_throughput(Mbps::new(3.0))
        .device(DeviceProfile::jetson_tx2_gpu())
        .use_predictor(false) // ground truth keeps tests fast & exact
        .iterations(iters)
        .initial_samples(init)
        .seed(seed)
        .build()
        .expect("lens builds")
}

#[test]
fn full_pipeline_reproducible_end_to_end() {
    let run = || {
        let lens = build(42, 8, 8);
        let outcome = lens.search().expect("search runs");
        let front = outcome.pareto_front();
        let objectives: Vec<Vec<f64>> = front.objectives().iter().map(|o| o.to_vec()).collect();
        objectives
    };
    assert_eq!(run(), run());
}

#[test]
fn lens_frontier_is_never_dominated_by_raw_traditional() {
    // For the *same* encodings, the LENS objective vector is <= the
    // Traditional one; therefore the raw Traditional frontier can never
    // strictly dominate the whole LENS frontier. With a matched budget and
    // seed, check the coverage metrics make sense.
    let lens = build(7, 12, 10);
    let lens_outcome = lens.search().expect("lens search");
    let trad_outcome = lens.traditional_search().expect("traditional search");

    let lf = lens_outcome.front_2d(0, 2);
    let tf = trad_outcome.front_2d(0, 2);
    let cmp = FrontierComparison::between(&lf.objectives(), &tf.objectives());
    // Sanity bounds; exact values are seed-dependent.
    assert!(cmp.lens_dominates_pct >= 0.0 && cmp.lens_dominates_pct <= 100.0);
    assert!(cmp.combined.total() >= 1);
    // With partitioning available and WiFi at 3 Mbps, LENS must find at
    // least one candidate whose best deployment is distributed.
    let distributed = lens_outcome.count_where(|_| false)
        + lens_outcome
            .explored()
            .iter()
            .filter(|c| {
                c.best_energy_option != DeploymentKind::AllEdge
                    || c.best_latency_option != DeploymentKind::AllEdge
            })
            .count();
    assert!(distributed > 0, "no candidate benefited from distribution");
}

#[test]
fn post_hoc_partitioning_weakly_improves_every_member() {
    let lens = build(13, 10, 8);
    let trad = lens.traditional_search().expect("traditional search");
    let partitioned = lens.partition_frontier(&trad).expect("partitioning runs");
    let members = trad.pareto_candidates();
    assert_eq!(partitioned.len(), members.len());
    for (before, after) in members.iter().zip(&partitioned) {
        assert!(after.objectives.latency_ms <= before.objectives.latency_ms + 1e-9);
        assert!(after.objectives.energy_mj <= before.objectives.energy_mj + 1e-9);
        assert_eq!(after.objectives.error_pct, before.objectives.error_pct);
    }
}

#[test]
fn criteria_counts_cover_the_whole_exploration() {
    let lens = build(3, 6, 6);
    let outcome = lens.search().expect("search runs");
    let counts = CriteriaCounts::of(&outcome, (1e9, 1e9), (1e9, 1e9));
    assert_eq!(counts.err_loose, outcome.explored().len());
    assert_eq!(counts.combined, outcome.explored().len());
}

#[test]
fn frontier_member_supports_runtime_analysis() {
    // Take a frontier member, rebuild its deployment options, compute its
    // dominance map, replay a trace: dynamic must never lose to any fixed
    // option with an instant tracker.
    let lens = build(21, 10, 8);
    let outcome = lens.search().expect("search runs");
    let member = outcome.pareto_candidates()[0].clone();
    let eval = lens
        .evaluator()
        .evaluate(&member.encoding)
        .expect("re-evaluation");
    let sim = RuntimeSimulator::new(eval.perf.options.clone()).expect("options");
    let trace = TraceGenerator::lte_like(Mbps::new(6.0)).generate(5);
    for metric in [Metric::Latency, Metric::Energy] {
        let report = sim
            .run(&trace, metric, ThroughputTracker::last_sample())
            .expect("simulation");
        for i in 0..report.fixed().len() {
            assert!(
                report.gain_over(i) >= -1e-9,
                "dynamic lost to {} on {metric}",
                report.fixed()[i].label
            );
        }
    }
}

#[test]
fn trained_predictor_pipeline_runs() {
    // The default (paper) configuration: regression predictors in the loop.
    let lens = Lens::builder()
        .technology(WirelessTechnology::Wifi)
        .expected_throughput(Mbps::new(3.0))
        .iterations(3)
        .initial_samples(4)
        .seed(9)
        .build()
        .expect("lens builds with predictor");
    let outcome = lens.search().expect("search runs");
    assert_eq!(outcome.explored().len(), 7);
    for c in outcome.explored() {
        assert!(c.objectives.latency_ms > 0.0);
        assert!(c.objectives.energy_mj > 0.0);
    }
}

#[test]
fn lte_and_threeg_configurations_run() {
    for tech in [WirelessTechnology::Lte, WirelessTechnology::ThreeG] {
        let lens = Lens::builder()
            .technology(tech)
            .expected_throughput(Mbps::new(1.5))
            .device(DeviceProfile::jetson_tx2_cpu())
            .use_predictor(false)
            .iterations(2)
            .initial_samples(3)
            .seed(1)
            .build()
            .expect("builds");
        let outcome = lens.search().expect("search runs");
        assert_eq!(outcome.explored().len(), 5);
    }
}

/// FNV-1a over every explored candidate, in exploration order: its genes,
/// then the bits of its three objectives.
fn search_digest(outcome: &SearchOutcome) -> u64 {
    let mut hash = lens::telemetry::Fnv64::new();
    for candidate in outcome.explored() {
        for &gene in candidate.encoding.genes() {
            hash.write_u64(gene as u64);
        }
        for objective in candidate.objectives.to_vec() {
            hash.write_u64(objective.to_bits());
        }
    }
    hash.finish()
}

/// `(seed, LENS digest, Traditional digest)`, recorded on x86_64 Linux.
const GOLDEN_SEARCH_DIGESTS: [(u64, u64, u64); 2] = [
    (1, 0x3639e27ba6ba3d09, 0x193f62481dcd561b),
    (7, 0xf77bcf5638969bd0, 0x8495c50ab4d8aa5c),
];

/// Absolute search pins. `full_pipeline_reproducible_end_to_end` only
/// compares a search with itself, so a change that moved every pick the
/// same way would pass it; these values catch it. Both searches run the
/// paper's defaults (trained predictors, the default MOBO settings) at
/// 20 + 40 iterations, so each crosses ML-II refits and the factor growth
/// between them. Gated to the platform they were recorded on; a mismatch
/// prints every actual value in the table's own syntax.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[test]
fn golden_search_digests_are_unchanged() {
    let actual: Vec<(u64, u64, u64)> = GOLDEN_SEARCH_DIGESTS
        .iter()
        .map(|&(seed, _, _)| {
            let lens = Lens::builder()
                .initial_samples(20)
                .iterations(40)
                .seed(seed)
                .build()
                .expect("lens builds");
            let paired = lens.search().expect("lens search");
            let traditional = lens.traditional_search().expect("traditional search");
            (seed, search_digest(&paired), search_digest(&traditional))
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(seed, paired, traditional)| {
            format!("    ({seed}, {paired:#018x}, {traditional:#018x}),\n")
        })
        .collect();
    assert!(
        actual == GOLDEN_SEARCH_DIGESTS,
        "golden search digests moved; the actual values are:\n{table}"
    );
}
